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
is its one-pair view; the velocity law calls the torus gradient pass
`torus_gradient_matrix` and the sphere's pole parts directly.  The torus pairs
go `surfaces.BLOCK` at a time through the whole per-pair pipeline
(`_torus_block`: reduction, coincidence check, series, gradient).  The
sphere's pair array carries the homogeneous chart form: one formula, one
complex division per pair, for every chart pair.

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
    Surface,
    SurfacePoint,
    pair_indices,
    pair_selection,
    reduce_centered,
    sphere_pair_points,
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


def _torus_block(ctx: theta.ThetaContext, u: np.ndarray, work: np.ndarray):
    """(u', theta1(u'), dG/dz) over one block of at most BLOCK differences
    u = z - a (any branch): u' = u / j centred in the reduced basis, theta1
    and dG/dz in views of work (`theta.theta1_block`).  SingularityError on a
    lattice point.  No complex product here runs in place on the block: numpy
    multiplies a one-element array in place by another loop than a longer one,
    and a pair's result must not depend on its block."""
    ur = reduce_centered(ctx.tau, u * ctx.inv_j)
    if np.abs(ur).min() <= ctx.coincidence:
        raise SingularityError("Green function evaluated at coincident points")
    th = theta.theta1_block(ctx, ur, work)
    # dG/dz = -(theta1'/theta1 / 2 + i pi Im u' / Im tau') / (2 pi j): one ratio
    # times ctx.log_coeff plus ctx.im_coeff Im u'
    grad = np.multiply(th[1] / th[0], ctx.log_coeff, out=th[1])
    grad += ctx.im_coeff * ur.imag
    return ur, th[0], grad


def torus_gradient_matrix(ctx: theta.ThetaContext, coords, pairs, flat, out, work):
    """out, the flat n x n matrix, with dG/dz at z_i - z_j in place flat[0] and
    its negation in place flat[1] of each of the `pairs` (i, j); other entries
    keep their value.  The pairs go BLOCK at a time through the whole pass
    (gather, reduction, coincidence check, series, gradient, scatter), with
    the series in work (`theta.theta1_block`), which bounds its memory."""
    i, j = pairs[0], pairs[-1]
    for start in range(0, len(i), surfaces.BLOCK):
        block = slice(start, start + surfaces.BLOCK)
        grad = _torus_block(ctx, coords[i[block]] - coords[j[block]], work)[2]
        out[flat[0, block]] = grad
        out[flat[1, block]] = np.negative(grad, out=grad)
    return out


def torus_pair_terms(tau: complex, u) -> tuple[np.ndarray, np.ndarray]:
    """G and dG/dz over differences u = z - a (any branch and shape), a block
    at a time: G(u; tau) = G(u'; tau')."""
    ctx = theta.theta_context(complex(tau))
    u = np.asarray(u, dtype=complex)
    value, grad = np.empty(u.shape), np.empty(u.shape, dtype=complex)
    flat_u, flat_value, flat_grad = u.reshape(-1), value.reshape(-1), grad.reshape(-1)
    work = theta.series_buffer(min(u.size, surfaces.BLOCK))
    for start in range(0, u.size, surfaces.BLOCK):
        block = slice(start, start + surfaces.BLOCK)
        ur, th1, flat_grad[block] = _torus_block(ctx, flat_u[block], work)
        log_abs = np.log(np.abs(th1)) - math.pi * ur.imag**2 / ctx.tau.imag
        flat_value[block] = -log_abs / (2.0 * math.pi)
    return value + ctx.green_const, grad


def sphere_point_terms(coords):
    """(|z|^2, w, h) at each point: w = 1 + |z|^2 (lambda = 2 / w) and
    h = conj(z) / w, the Robin h1."""
    m = np.abs(coords) ** 2
    w = 1.0 + m
    return m, w, coords.conjugate() / w


def sphere_gradient_terms(coords, pairs, w):
    """(|d|^2, b_j r, c_i r) over `pairs`, a `pair_selection`, and w from
    `sphere_point_terms`: d = zi b_j - a_j (zi - zj in one chart, zi zj - 1
    across), r = 1/d.  These are the pole parts of dG/dz_i = (h_i - b_j r) / 4 pi
    and dG/dz_j = (h_j - c_i r) / 4 pi, whose per-point metric term h and 1/4 pi
    the caller applies.  SingularityError if any two points coincide."""
    i, j = pairs[0], pairs[-1]
    zi, a, b, c = sphere_pair_points(coords, pairs)
    d = zi * b - a
    num = np.abs(d) ** 2
    # squared R^3 chord 4 num / ((1+|zi|^2)(1+|zj|^2)) against the tolerance
    if (4.0 * num <= COINCIDENCE_TOL**2 * w[i] * w[j]).any():
        raise SingularityError("Green function evaluated at coincident points")
    r = 1.0 / d
    return num, b * r, c * r


def pair_terms(surface: Surface, coords, pairs) -> tuple[np.ndarray, ...]:
    """The pair kernel: G(z_i, z_j) and both holomorphic gradients, each in its
    own point's chart, over `pairs`, a `pair_selection`.  On the torus the
    second gradient is the first negated: G depends on z_i - z_j only and is even."""
    coords = np.asarray(coords, dtype=complex)
    i, j = pairs[0], pairs[-1]
    if surface.kind == SPHERE:
        m, w, h = sphere_point_terms(coords)
        num, pole_i, pole_j = sphere_gradient_terms(coords, pairs, w)
        log_w = np.log1p(m)
        return (-(np.log(num) - log_w[i] - log_w[j] + 1.0) / (4.0 * math.pi),
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
