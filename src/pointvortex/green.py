"""Green function, its pair kernel, and its Robin expansion data.

Sphere values come from the closed form
    G(z,a) = -(1/4pi) (log(|z-a|^2 / ((1+|z|^2)(1+|a|^2))) + 1),
a true function of the two points (chart-invariant).  Torus values come from
the odd theta series with a quadratic Im-correction restoring double
periodicity and an additive constant enforcing zero mean:
    G(z,a) = -(1/2pi) (log|theta1(z-a)| - pi Im(z-a)^2 / Im tau) + C(tau).
Correctness of the torus branch is pinned by the spectral Poisson oracle, not
by the formula itself.

Every Green value and gradient comes from one pair kernel, `pair_terms`, over
the pairs of a coordinate array, one `surfaces.pair_selection` array; `green()`
is its one-pair view; a plan calls the torus passes
(`torus_gradient_matrix`, `torus_pair_values`) and the sphere's directly.  The torus pairs
go `surfaces.BLOCK` at a time through the whole per-pair pipeline
(`_torus_block`: reduction, coincidence check, series; then the gradient or
the value).  Its buffers and views are prepared once per block length, at
most two per pass (`TorusBlock`): a plan builds its `TorusPass` once per run,
with every block's pair rows, value view and positions in the plan's
gradient matrix, and `torus_pair_terms` builds its blocks once per call, so
an evaluation only runs ufuncs into them.  The sphere's pair array carries
the homogeneous chart form: one formula, one complex division per pair, for
every chart pair.  Its pass (`surfaces.SpherePass`) holds every pair-length
buffer: `sphere_chords` forms |d|^2 and the coincidence test,
`sphere_gradient_terms` the pole parts and `sphere_pair_values` the values,
each into the pass, which a plan builds once per run and `pair_terms` once
per call.

The expansion of the regular part H(z,a) = 2 pi G + log|z-a| around the pole,
    H = h0 + Re(h1 (z-a)) + Re(h2 (z-a)^2) + h11 |z-a|^2 + O(|z-a|^3),
defines the chart-dependent Robin data (h0, h1, h2, h11), written only by
`robin_data`; RobinData records the chart, since these coefficients glue as
connections, not functions.  On the round sphere and flat tori their invariant
combination R = (h0 + log lambda) / 2 pi is one constant per surface, which
the Hamiltonian takes once.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import surfaces, theta
from .errors import SingularityError
from .surfaces import (
    COINCIDENCE_TOL,
    SPHERE,
    SpherePass,
    Surface,
    SurfacePoint,
    pair_indices,
    pair_selection,
    reduce_centered,
    sphere_differences,
)

_INV_FOUR_PI = 1.0 / (4.0 * math.pi)


@dataclass(frozen=True)
class GreenEvaluation:
    """Green value and its holomorphic gradient in the chart of z."""

    value: float
    grad_z: complex


@dataclass(frozen=True)
class RobinData:
    """Taylor data of the regular part of G at a pole, in a stated chart."""

    h0: float
    h1: complex
    h2: complex
    h11: float
    chart_id: int


class TorusBlock:
    """The pair pipeline's buffers and views on m <= BLOCK differences, made
    once for every block of that length: gathered points, u, u / j, the
    series (`theta.SeriesBlock`, whose z is u'), |u'| and then log|theta1|,
    the gradient's ratio and the value's Im term.  shift keeps imaginary
    part 0, so the lattice shifts meet complex numbers without numpy's
    per-call cast buffer."""

    __slots__ = ("ctx", "series", "zi", "zj", "u", "scaled", "ratio", "ratio_im",
                 "shift", "dist", "im_square")

    def __init__(self, ctx: theta.ThetaContext, m: int):
        self.ctx = ctx
        self.series = theta.SeriesBlock(ctx, m)
        self.zi, self.zj, self.u, self.scaled, self.ratio = np.empty((5, m), dtype=complex)
        self.ratio_im = self.ratio.imag
        self.shift = np.zeros(m, dtype=complex)
        self.dist, self.im_square = np.empty((2, m))


def torus_blocks(ctx: theta.ThetaContext, count: int) -> tuple:
    """(slice, TorusBlock) per block of `surfaces.BLOCK` of count pairs; the
    blocks of one length share a TorusBlock: BLOCK and the last one's length."""
    made, blocks = {}, []
    for start in range(0, count, surfaces.BLOCK):
        block = slice(start, min(start + surfaces.BLOCK, count))
        m = block.stop - start
        if m not in made:
            made[m] = TorusBlock(ctx, m)
        blocks.append((block, made[m]))
    return tuple(blocks)


class TorusPass:
    """A plan's torus pair pass, built once: per block of `torus_blocks` its
    pair-index rows, its `flat` positions (i n + j, j n + i) in the plan's
    n x n gradient matrix, its view of the pair values and its TorusBlock;
    with the values and the Green constant C(tau), so an evaluation
    allocates no pair-length array."""

    __slots__ = ("green_const", "values", "blocks")

    def __init__(self, ctx: theta.ThetaContext, pairs, flat):
        self.green_const = ctx.green_const
        self.values = np.empty(pairs.shape[1])
        self.blocks = tuple((pairs[0, b], pairs[-1, b], flat[0, b], flat[1, b],
                             self.values[b], blk)
                            for b, blk in torus_blocks(ctx, pairs.shape[1]))


def _torus_block(blk: TorusBlock, u: np.ndarray) -> None:
    """theta1 and theta1' at u' over one block of differences u = z - a (any
    branch), u' = u / j centred in the reduced basis: u' in blk.series.z and
    the series in blk.series.out.  SingularityError on a lattice point.  No
    complex product here runs in place on the block: numpy multiplies a
    one-element array in place by another loop than a longer one, and a
    pair's result must not depend on its block."""
    ctx, series = blk.ctx, blk.series
    np.multiply(u, ctx.inv_j, out=blk.scaled)
    reduce_centered(ctx.tau, blk.scaled, series.z, blk.shift)
    dist = np.abs(series.z, out=blk.dist)
    if dist[dist.argmin()] <= ctx.coincidence:   # argmin: no Python wrapper, NaN alike
        raise SingularityError("Green function evaluated at coincident points")
    theta.theta1_block(series)


def _gathered_block(coords, i, j, blk: TorusBlock) -> None:
    """`_torus_block` at the differences coords[i] - coords[j]."""
    coords.take(i, out=blk.zi, mode="clip")   # "raise" would buffer out
    coords.take(j, out=blk.zj, mode="clip")
    _torus_block(blk, np.subtract(blk.zi, blk.zj, out=blk.u))


def _torus_gradient(blk: TorusBlock) -> np.ndarray:
    """dG/dz after `_torus_block`, in blk.series.dth: -(theta1'/theta1 / 2 + i pi Im u'
    / Im tau') / (2 pi j) = ctx.log_coeff (theta1'/theta1 + i ctx.im_slope Im u'), the
    Im term added to the ratio's imaginary part in real arithmetic (in blk.dist, free
    after the coincidence check), then one complex product."""
    ctx, series = blk.ctx, blk.series
    np.divide(series.dth, series.th, out=blk.ratio)
    im_term = np.multiply(series.z_im, ctx.im_slope, out=blk.dist)
    np.add(blk.ratio_im, im_term, out=blk.ratio_im)
    return np.multiply(blk.ratio, ctx.log_coeff, out=series.dth)


def _torus_values(blk: TorusBlock, out: np.ndarray) -> None:
    """G - C(tau') after `_torus_block`, into out: -(log|theta1(u')|
    - pi Im(u')^2 / Im tau') / 2 pi."""
    series, log_abs, im_square = blk.series, blk.dist, blk.im_square
    np.log(np.abs(series.th, out=log_abs), out=log_abs)
    np.multiply(math.pi, np.square(series.z_im, out=im_square), out=im_square)
    np.divide(im_square, blk.ctx.tau.imag, out=im_square)
    np.negative(np.subtract(log_abs, im_square, out=log_abs), out=log_abs)
    np.divide(log_abs, 2.0 * math.pi, out=out)


def torus_gradient_matrix(coords, tpass: TorusPass, out: np.ndarray) -> np.ndarray:
    """out, a flat n x n matrix, with dG/dz at z_i - z_j in place flat[0] and
    its negation in place flat[1] of each of the pass's pairs (i, j); other
    entries keep their value.  The pairs go a block at a time through the
    whole pass (gather, reduction, coincidence check, series, gradient,
    scatter) in the pass's buffers, which bounds its memory."""
    for i, j, flat0, flat1, _, blk in tpass.blocks:
        _gathered_block(coords, i, j, blk)
        grad = _torus_gradient(blk)
        out[flat0] = grad
        out[flat1] = np.negative(grad, out=grad)
    return out


def torus_pair_values(coords, tpass: TorusPass) -> np.ndarray:
    """tpass.values, with G(z_i, z_j) at each of the pass's pairs, block by
    block as in `torus_gradient_matrix` but values only."""
    for i, j, _, _, values, blk in tpass.blocks:
        _gathered_block(coords, i, j, blk)
        _torus_values(blk, values)
    return np.add(tpass.values, tpass.green_const, out=tpass.values)


def torus_pair_terms(tau: complex, u) -> tuple[np.ndarray, np.ndarray]:
    """G and dG/dz over differences u = z - a (any branch and shape), a block
    at a time (`torus_blocks`, built for this call): G(u; tau) = G(u'; tau')."""
    ctx = theta.theta_context(complex(tau))
    u = np.asarray(u, dtype=complex)
    value, grad = np.empty(u.shape), np.empty(u.shape, dtype=complex)
    flat_u, flat_value, flat_grad = u.reshape(-1), value.reshape(-1), grad.reshape(-1)
    for block, blk in torus_blocks(ctx, u.size):
        _torus_block(blk, flat_u[block])
        flat_grad[block] = _torus_gradient(blk)
        _torus_values(blk, flat_value[block])
    return value + ctx.green_const, grad


def sphere_point_terms(coords):
    """(|z|^2, w, h) at each point: w = 1 + |z|^2 (lambda = 2 / w) and
    h = conj(z) / w, the Robin h1."""
    m = np.abs(coords) ** 2
    w = 1.0 + m
    return m, w, coords.conjugate() / w


def sphere_chords(coords, pairs, w, spass: SpherePass) -> np.ndarray:
    """spass.num = |d|^2 over `pairs`, a `pair_selection`, with d of
    `surfaces.sphere_differences` and w from `sphere_point_terms`.
    SingularityError if two points coincide: the squared R^3 chord
    4 |d|^2 / ((1+|zi|^2)(1+|zj|^2)) at most the tolerance's square, tested
    pair by pair unless the least |d|^2 against the greatest w rules it out."""
    num = np.square(np.abs(sphere_differences(coords, pairs, spass), out=spass.scratch),
                    out=spass.num)
    w_max = w[w.argmax()]   # argmin, argmax: no Python wrapper, NaN alike
    if num.size and not 4.0 * num[num.argmin()] > COINCIDENCE_TOL**2 * w_max * w_max:
        if (4.0 * num <= COINCIDENCE_TOL**2 * w[pairs[0]] * w[pairs[-1]]).any():
            raise SingularityError("Green function evaluated at coincident points")
    return num


def sphere_gradient_terms(coords, pairs, w, spass: SpherePass):
    """(|d|^2, b_j r, c_i r) over `pairs` in spass's buffers, after
    `sphere_chords`: r = 1/d.  These are the pole parts of dG/dz_i =
    (h_i - b_j r) / 4 pi and dG/dz_j = (h_j - c_i r) / 4 pi, whose per-point
    metric term h and 1/4 pi the caller applies."""
    num = sphere_chords(coords, pairs, w, spass)
    r = np.divide(1.0, spass.d, out=spass.r)
    return (num, np.multiply(spass.b, r, out=spass.pole_i),
            np.multiply(spass.c, r, out=spass.pole_j))


def sphere_pair_values(num, pairs, m, spass: SpherePass) -> np.ndarray:
    """spass.values = G(z_i, z_j) = -(log|d|^2 - log1p|z_i|^2 - log1p|z_j|^2
    + 1) / 4 pi over `pairs`, with num = |d|^2 from `sphere_chords` and m
    from `sphere_point_terms`."""
    log_w, value, term = np.log1p(m), spass.values, spass.scratch
    np.log(num, out=value)
    np.subtract(value, log_w.take(pairs[0], out=term, mode="clip"), out=value)
    np.subtract(value, log_w.take(pairs[-1], out=term, mode="clip"), out=value)
    np.add(value, 1.0, out=value)
    return np.divide(np.negative(value, out=value), 4.0 * math.pi, out=value)


def pair_terms(surface: Surface, coords, pairs) -> tuple[np.ndarray, ...]:
    """The pair kernel: G(z_i, z_j) and both holomorphic gradients, each in its
    own point's chart, over `pairs`, a `pair_selection`.  On the torus the
    second gradient is the first negated: G depends on z_i - z_j only and is even."""
    coords = np.asarray(coords, dtype=complex)
    i, j = pairs[0], pairs[-1]
    if surface.kind == SPHERE:
        spass = SpherePass(len(coords), pairs.shape[1])
        m, w, h = sphere_point_terms(coords)
        num, pole_i, pole_j = sphere_gradient_terms(coords, pairs, w, spass)
        return (sphere_pair_values(num, pairs, m, spass),
                (h[i] - pole_i) * _INV_FOUR_PI, (h[j] - pole_j) * _INV_FOUR_PI)
    value, grad = torus_pair_terms(surface.tau, coords[i] - coords[j])
    return value, grad, -grad


def green(surface: Surface, z: SurfacePoint, a: SurfacePoint) -> GreenEvaluation:
    """Green function G(z, a) with zero mean, and dG/dz in the chart of z."""
    surface.check_chart(z.chart_id)
    surface.check_chart(a.chart_id)
    pairs = pair_selection(surface, (z.chart_id, a.chart_id), *pair_indices(2))
    value, grad, _ = pair_terms(surface, (z.coord, a.coord), pairs)
    return GreenEvaluation(float(value[0]), complex(grad[0]))


def robin_data(surface: Surface, a: SurfacePoint) -> RobinData:
    """Robin coefficients of G(., a) in the chart of `a` as given."""
    surface.check_chart(a.chart_id)
    if surface.kind == SPHERE:
        m, w, h = sphere_point_terms(a.coord)
        return RobinData(float(math.log1p(m) - 0.5), complex(h), complex(-0.5 * h * h),
                         float(0.5 / (w * w)), a.chart_id)
    ctx = theta.theta_context(surface.tau)
    return RobinData(float(ctx.h0), 0j, ctx.h2, math.pi / (2.0 * surface.area), a.chart_id)
