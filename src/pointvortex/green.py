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
is its one-pair view, and `pair_values` its values alone; a plan calls the
torus passes (`torus_gradient_matrix`, `torus_pair_values`,
`torus_separations`) and the sphere's directly.  The torus pairs go
`surfaces.BLOCK` at a time through the per-pair pipeline: the reduction stage
(`_reduce_block`: u / j centred, |u'|), then the coincidence check and series
(`_series_block`), then the gradient or the value.  Its scratch is prepared
once per block length, at most two per pass (`TorusBlock`): a plan builds its
`TorusPass` once per run, with every block's pair rows, value, u' and |u'|
rows and positions in the plan's gradient matrix, and `torus_pair_terms`
builds its blocks once per call, so an evaluation only runs ufuncs into
them.  A pass's stage runs for all its blocks first (`torus_reduction`), and
is skipped when the pass holds the coordinates (`TorusPass`), so a run's
collision check hands u' and |u'| to the next step's first velocity.  The sphere's pair array carries
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
    centre_into,
    nearest_translates,
    operand,
    sphere_differences,
)

_INV_FOUR_PI = 1.0 / (4.0 * math.pi)
# the pair passes' scalars, beside real rows, and 1 beside complex ones
_PI, _TWO_PI, _FOUR_PI = operand(math.pi), operand(2.0 * math.pi), operand(4.0 * math.pi)
_ONE, _COMPLEX_ONE = operand(1.0), operand(1.0 + 0j)


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
    """The pair pipeline's scratch on m <= BLOCK differences, shared by the
    blocks of that length: gathered points, u, u / j and its imaginary part,
    the lattice shift (imaginary part 0, so the shifts meet complex numbers
    without numpy's per-call cast buffer) and its real part, the series
    (`theta.SeriesBlock`, pointed at a block's u' before it runs), the
    gradient's ratio, a real row (a one-shot's |u'|, the gradient's Im term,
    or log|theta1|), Im(u')^2 and the separation's translate flags; with tau',
    Im tau', 1/j, im_slope and log_coeff of the context as prepared operands
    (`surfaces.operand`)."""

    __slots__ = ("ctx", "series", "zi", "zj", "u", "scaled", "scaled_im", "shift", "counts",
                 "ratio", "ratio_im", "term", "im_square", "near",
                 "tau", "im_tau", "inv_j", "im_slope", "log_coeff")

    def __init__(self, ctx: theta.ThetaContext, m: int):
        self.ctx = ctx
        self.series = theta.SeriesBlock(ctx, m)
        self.zi, self.zj, self.u, self.scaled, self.ratio = np.empty((5, m), dtype=complex)
        self.scaled_im, self.ratio_im = self.scaled.imag, self.ratio.imag
        self.shift = np.zeros(m, dtype=complex)
        self.counts = self.shift.real
        self.term, self.im_square = np.empty((2, m))
        self.near = np.empty(m, dtype=bool)
        self.tau, self.im_tau = operand(ctx.tau), operand(ctx.tau.imag)
        self.inv_j, self.im_slope = operand(ctx.inv_j), operand(ctx.im_slope)
        self.log_coeff = operand(ctx.log_coeff)


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
    """A torus pair pass, built once per plan: per block of `torus_blocks` its
    pair-index rows, its `flat` positions (i n + j, j n + i) in the plan's
    n x n gradient matrix (None in a pass for values only), its rows of the
    pair values, of u' (with its real and imaginary parts) and of |u'|, and
    its TorusBlock; with the Green constant C(tau) and |j| as prepared
    operands, so an evaluation allocates no pair-length array.  Only the
    reduction stage (`torus_reduction`) writes u' and |u'|, and `held` keys
    what they hold: the coordinates of the last stage if read-only (a run's
    accepted states, `dynamics._Trajectory.accept`), else None.  The stage is
    skipped for the held array while it stays read-only, which is taken to
    keep its values."""

    __slots__ = ("green_const", "abs_j", "values", "reduced", "dist", "held", "blocks")

    def __init__(self, ctx: theta.ThetaContext, pairs, flat=None):
        count = pairs.shape[1]
        self.green_const, self.abs_j = operand(ctx.green_const), operand(abs(ctx.j))
        self.values, self.dist = np.empty((2, count))
        self.reduced = np.empty(count, dtype=complex)
        self.held = None
        blocks = []
        for b, blk in torus_blocks(ctx, count):
            z = self.reduced[b]
            scatter = (None, None) if flat is None else (flat[0, b], flat[1, b])
            blocks.append((pairs[0, b], pairs[-1, b], *scatter, self.values[b],
                           z, z.real, z.imag, self.dist[b], blk))
        self.blocks = tuple(blocks)


def _reduce_block(blk: TorusBlock, u: np.ndarray, z, z_re, dist) -> None:
    """The reduction stage on one block of differences u = z - a (any branch):
    u' = u / j centred in the reduced basis into z (z_re its real part) and
    |u'| into dist.  No complex product here runs in place on the block:
    numpy multiplies a one-element array in place by another loop than a
    longer one, and a pair's result must not depend on its block."""
    scaled = np.multiply(u, blk.inv_j, out=blk.scaled)
    centre_into(blk.tau, blk.im_tau, scaled, blk.scaled_im, blk.shift, blk.counts, z, z_re)
    np.abs(z, out=dist)


def _series_block(blk: TorusBlock, z, z_re, z_im, dist) -> None:
    """theta1 and theta1' at a block's u' (in z, with its real and imaginary
    parts; |u'| in dist) into blk.series.out, the series pointed at z.
    SingularityError on a lattice point."""
    if dist[dist.argmin()] <= blk.ctx.coincidence:   # argmin: no Python wrapper, NaN alike
        raise SingularityError("Green function evaluated at coincident points")
    series = blk.series
    series.z, series.z_re, series.z_im = z, z_re, z_im
    theta.theta1_block(series)


def torus_reduction(coords, tpass: TorusPass) -> None:
    """The pass's reduction stage at coords, block by block: the gather,
    `_reduce_block` of the differences coords[i] - coords[j] into the pass's
    u' and |u'| rows; skipped when the pass holds coords (TorusPass)."""
    if coords is tpass.held and not coords.flags.writeable:
        return
    tpass.held = None
    for i, j, _, _, _, z, z_re, _, dist, blk in tpass.blocks:
        coords.take(i, out=blk.zi, mode="clip")   # "raise" would buffer out
        coords.take(j, out=blk.zj, mode="clip")
        _reduce_block(blk, np.subtract(blk.zi, blk.zj, out=blk.u), z, z_re, dist)
    if not coords.flags.writeable:
        tpass.held = coords


def _torus_gradient(blk: TorusBlock) -> np.ndarray:
    """dG/dz after `_series_block`, in blk.series.dth: -(theta1'/theta1 / 2 + i pi Im u'
    / Im tau') / (2 pi j) = log_coeff (theta1'/theta1 + i im_slope Im u'), the Im term
    added to the ratio's imaginary part in real arithmetic, then one complex product."""
    series = blk.series
    np.divide(series.dth, series.th, out=blk.ratio)
    im_term = np.multiply(series.z_im, blk.im_slope, out=blk.term)
    np.add(blk.ratio_im, im_term, out=blk.ratio_im)
    return np.multiply(blk.ratio, blk.log_coeff, out=series.dth)


def _torus_values(blk: TorusBlock, out: np.ndarray) -> None:
    """G - C(tau') after `_series_block`, into out: -(log|theta1(u')|
    - pi Im(u')^2 / Im tau') / 2 pi."""
    series, log_abs, im_square = blk.series, blk.term, blk.im_square
    np.log(np.abs(series.th, out=log_abs), out=log_abs)
    np.multiply(_PI, np.square(series.z_im, out=im_square), out=im_square)
    np.divide(im_square, blk.im_tau, out=im_square)
    np.negative(np.subtract(log_abs, im_square, out=log_abs), out=log_abs)
    np.divide(log_abs, _TWO_PI, out=out)


def torus_gradient_matrix(coords, tpass: TorusPass, out: np.ndarray) -> np.ndarray:
    """out, a flat n x n matrix, with dG/dz at z_i - z_j in place flat[0] and
    its negation in place flat[1] of each of the pass's pairs (i, j); other
    entries keep their value.  After the reduction stage the pairs go a block
    at a time through the rest of the pass (coincidence check, series,
    gradient, scatter) in the pass's buffers, which bounds its memory."""
    torus_reduction(coords, tpass)
    for _, _, flat0, flat1, _, z, z_re, z_im, dist, blk in tpass.blocks:
        _series_block(blk, z, z_re, z_im, dist)
        grad = _torus_gradient(blk)
        out[flat0] = grad
        out[flat1] = np.negative(grad, out=grad)
    return out


def torus_pair_values(coords, tpass: TorusPass) -> np.ndarray:
    """tpass.values, with G(z_i, z_j) at each of the pass's pairs, block by
    block as in `torus_gradient_matrix` but values only."""
    torus_reduction(coords, tpass)
    for _, _, _, _, values, z, z_re, z_im, dist, blk in tpass.blocks:
        _series_block(blk, z, z_re, z_im, dist)
        _torus_values(blk, values)
    return np.add(tpass.values, tpass.green_const, out=tpass.values)


def torus_separations(coords, tpass: TorusPass) -> np.ndarray:
    """tpass.values, with the separations `surfaces.pair_distances(min_only=True)`
    gives at coords over the pass's pairs, from the reduction stage: |j| |u'|,
    or where `surfaces.nearest_translates` asks (|u'| >= 1 - min |u'| over this
    and earlier blocks) the nearest of u''s centred translates; the min and
    its first argmin exact."""
    torus_reduction(coords, tpass)
    least = math.inf
    for _, _, _, _, values, z, _, _, dist, blk in tpass.blocks:
        least = min(least, dist[dist.argmin()])   # argmin: no Python wrapper
        d = nearest_translates(blk.ctx.tau, z, dist, 1.0 - least, values, blk.near)
        np.multiply(tpass.abs_j, d, out=values)
    return tpass.values


def torus_pair_terms(tau: complex, u) -> tuple[np.ndarray, np.ndarray]:
    """G and dG/dz over differences u = z - a (any branch and shape), a block
    at a time (`torus_blocks`, built for this call): G(u; tau) = G(u'; tau')."""
    ctx = theta.theta_context(complex(tau))
    u = np.asarray(u, dtype=complex)
    value, grad = np.empty(u.shape), np.empty(u.shape, dtype=complex)
    flat_u, flat_value, flat_grad = u.reshape(-1), value.reshape(-1), grad.reshape(-1)
    for block, blk in torus_blocks(ctx, u.size):
        s = blk.series   # u' in the series' own z, |u'| in the block's real row
        _reduce_block(blk, flat_u[block], s.z, s.z_re, blk.term)
        _series_block(blk, s.z, s.z_re, s.z_im, blk.term)
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
    r = np.divide(_COMPLEX_ONE, spass.d, out=spass.r)
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
    np.add(value, _ONE, out=value)
    return np.divide(np.negative(value, out=value), _FOUR_PI, out=value)


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


def pair_values(surface: Surface, coords, pairs) -> np.ndarray:
    """The pair kernel's values alone, G(z_i, z_j) over `pairs`, in a pass built
    for this call: `pair_terms`' first entry, bit for bit, with no gradient."""
    coords = np.asarray(coords, dtype=complex)
    if surface.kind == SPHERE:
        spass = SpherePass(len(coords), pairs.shape[1])
        m, w, _ = sphere_point_terms(coords)
        return sphere_pair_values(sphere_chords(coords, pairs, w, spass), pairs, m, spass)
    return torus_pair_values(coords, TorusPass(theta.theta_context(surface.tau), pairs))


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
