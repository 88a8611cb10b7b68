"""One-point Green function, its Robin expansion data, and the two-point potential.

Sphere values come from the closed form
    G(z,a) = -(1/4pi) (log(|z-a|^2 / ((1+|z|^2)(1+|a|^2))) + 1),
a true function of the two points (chart-invariant).  Torus values come from
the odd theta series with a quadratic Im-correction restoring double
periodicity and an additive constant enforcing zero mean:
    G(z,a) = -(1/2pi) (log|theta1(z-a)| - pi Im(z-a)^2 / Im tau) + C(tau).
Correctness of the torus branch is pinned by the spectral Poisson oracle, not
by the formula itself.

Every Green value and gradient comes from one pair kernel, `pair_terms`,
which works elementwise over arrays of point pairs; `green()` and the
`*_green_values` helpers are one-pair and array views of it.  It builds on
one gradient entry per surface, which the velocity law calls directly.

The expansion of the regular part H(z,a) = 2 pi G + log|z-a| around the pole,
    H = h0 + Re(h1 (z-a)) + Re(h2 (z-a)^2) + h11 |z-a|^2 + O(|z-a|^3),
defines the chart-dependent Robin data (h0, h1, h2, h11); RobinData records
the chart it was evaluated in, since these coefficients glue as connections,
not functions.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import theta
from .errors import SingularityError
from .surfaces import (
    SPHERE,
    Surface,
    SurfacePoint,
    geodesic_distance,
    lambda_at,
    reduce_centered,
    sphere_difference,
)

_COINCIDENCE_TOL = 1e-12


@dataclass(frozen=True)
class GreenEvaluation:
    """Green value and its holomorphic gradient in the chart of z."""

    value: float
    grad_z: complex
    at: tuple[SurfacePoint, SurfacePoint]


@dataclass(frozen=True)
class RobinData:
    """Taylor data of the regular part of G at a pole, in a stated chart."""

    h0: float
    h1: complex
    h2: complex
    h11: float
    at: SurfacePoint
    chart_id: int


def torus_gradient_terms(ctx: theta.ThetaContext, u):
    """(u', theta1(u' | tau'), dG/dz) over differences u = z - a (any branch),
    u' = u / j centered in the reduced basis; SingularityError on a lattice point."""
    ur = reduce_centered(ctx.tau, np.asarray(u, dtype=complex) * ctx.inv_j)
    if (np.abs(ur) <= _COINCIDENCE_TOL * abs(ctx.inv_j)).any():
        raise SingularityError("Green function evaluated at coincident points")
    th, dth = theta.theta1_series(ctx, ur)
    # dG/dz = -(theta1'/theta1 / 2 + i pi Im u' / Im tau') / (2 pi j), folded into two scalars
    a, b = -ctx.inv_j / (4.0 * math.pi), -0.5j * ctx.inv_j / ctx.tau.imag
    return ur, th, a * (dth / th) + b * ur.imag


def torus_pair_terms(tau: complex, u) -> tuple[np.ndarray, np.ndarray]:
    """G and dG/dz over differences u = z - a (any branch): G(u; tau) = G(u'; tau')."""
    ctx = theta.theta_context(complex(tau))
    ur, th, grad = torus_gradient_terms(ctx, u)
    value = -(np.log(np.abs(th)) - math.pi * ur.imag**2 / ctx.tau.imag) / (2.0 * math.pi)
    return value + ctx.green_const, grad


def sphere_gradient_terms(ci, zi, cj, zj, wi, wj):
    """(|d|^2, dG/dz_i in zi's chart, dG/dz_j in zj's chart) over arrays of
    pairs, with wi = 1 + |zi|^2, wj = 1 + |zj|^2 and d from `sphere_difference`
    (the pole terms depend on the charts, so both orientations are formed).
    SingularityError if any two points coincide."""
    same, diff = sphere_difference(ci, zi, cj, zj)
    num = np.abs(diff) ** 2
    # squared R^3 chord 4 num / ((1+|zi|^2)(1+|zj|^2)) against the tolerance
    if (4.0 * num <= _COINCIDENCE_TOL**2 * wi * wj).any():
        raise SingularityError("Green function evaluated at coincident points")
    grad_i = -(np.where(same, 1.0, zj) / diff - zi.conjugate() / wi) / (4.0 * math.pi)
    grad_j = -(np.where(same, -1.0, zi) / diff - zj.conjugate() / wj) / (4.0 * math.pi)
    return num, grad_i, grad_j


def sphere_pair_terms(ci, zi, cj, zj) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """G(z_i, z_j) and the two gradients of `sphere_gradient_terms`."""
    zi, zj = np.asarray(zi, dtype=complex), np.asarray(zj, dtype=complex)
    mi, mj = np.abs(zi) ** 2, np.abs(zj) ** 2
    num, grad_i, grad_j = sphere_gradient_terms(ci, zi, cj, zj, 1.0 + mi, 1.0 + mj)
    value = -(np.log(num) - np.log1p(mi) - np.log1p(mj) + 1.0) / (4.0 * math.pi)
    return value, grad_i, grad_j


def pair_terms(surface: Surface, ci, zi, cj, zj) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The pair kernel: G(z_i, z_j) and both holomorphic gradients, each in its
    own point's chart, elementwise over arrays of pairs.  On the torus the
    second is the first negated: G depends on z_i - z_j only and is even."""
    if surface.kind == SPHERE:
        return sphere_pair_terms(ci, zi, cj, zj)
    value, grad = torus_pair_terms(surface.tau, np.asarray(zi) - zj)
    return value, grad, -grad


def green(surface: Surface, z: SurfacePoint, a: SurfacePoint) -> GreenEvaluation:
    """Green function G(z, a) with zero mean, and dG/dz in the chart of z."""
    surface.check_chart(z.chart_id)
    surface.check_chart(a.chart_id)
    value, grad, _ = pair_terms(surface, z.chart_id, z.coord, a.chart_id, a.coord)
    return GreenEvaluation(float(value), complex(grad), (z, a))


def torus_green_values(tau: complex, u) -> np.ndarray:
    """Vectorized torus G over an array of differences u = z - a (any branch)."""
    return torus_pair_terms(tau, u)[0]


def sphere_green_values(pole: SurfacePoint, chart_id: int, zs) -> np.ndarray:
    """Vectorized sphere G(.; pole) over chart coordinates zs of one chart."""
    return sphere_pair_terms(chart_id, zs, pole.chart_id, pole.coord)[0]


def robin_h0_h1(surface: Surface, a):
    """Robin h0 and h1 at chart coordinates `a` (complex or complex array)."""
    if surface.kind == SPHERE:
        m2 = abs(a) ** 2
        return np.log1p(m2) - 0.5, a.conjugate() / (1.0 + m2)
    return theta.theta_context(surface.tau).h0, 0.0j


def robin_data(surface: Surface, a: SurfacePoint) -> RobinData:
    """Robin coefficients of G(., a) in the chart of `a` as given."""
    surface.check_chart(a.chart_id)
    h0, h1 = robin_h0_h1(surface, a.coord)
    if surface.kind == SPHERE:
        denom = 1.0 + abs(a.coord) ** 2
        d2 = 2.0 * denom * denom
        h2, h11 = -(a.coord.conjugate() ** 2) / d2, 1.0 / d2
    else:
        h2, h11 = theta.theta_context(surface.tau).h2, math.pi / (2.0 * surface.area)
    return RobinData(float(h0), h1, h2, h11, at=a, chart_id=a.chart_id)


def robin_metric(surface: Surface, a: SurfacePoint) -> float:
    """Coefficient exp(-h0(a)) of the Robin metric in the chart of a."""
    return math.exp(-robin_data(surface, a).h0)


def renormalized_robin(surface: Surface, a: SurfacePoint) -> float:
    """R(a) = (h0(a) + log lambda(a)) / (2 pi); chart-invariant."""
    surface.check_chart(a.chart_id)
    return float(renormalized_robin_at(surface, a.coord))


def renormalized_robin_at(surface: Surface, z):
    """R at chart coordinates z (complex or complex array)."""
    return (robin_h0_h1(surface, z)[0] + np.log(lambda_at(surface, z))) / (2.0 * math.pi)


def fundamental_potential(surface: Surface, z: SurfacePoint, w: SurfacePoint,
                          a: SurfacePoint, b: SurfacePoint) -> float:
    """Two-point potential 2 pi (G(z,a) - G(z,b) - G(w,a) + G(w,b)).

    Metric-independent, with +-1 logarithmic poles at a and b (in z) and
    normalized to vanish at z = w.
    """
    for probe in (z, w):
        for pole in (a, b):
            if geodesic_distance(surface, probe, pole) <= _COINCIDENCE_TOL:
                raise SingularityError("fundamental potential evaluated at a pole")
    if z.chart_id == w.chart_id and z.coord == w.coord:
        return 0.0
    return 2.0 * math.pi * (
        green(surface, z, a).value
        - green(surface, z, b).value
        - green(surface, w, a).value
        + green(surface, w, b).value
    )
