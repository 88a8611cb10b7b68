"""Surface geometry: the round sphere and flat tori, their charts and metric.

The sphere uses a two-chart stereographic atlas with holomorphic transition
w = 1/z and the unit-radius normalization lambda(z) = 2/(1+|z|^2) (area 4*pi),
so every closed-form constant below matches that normalization.  Flat tori are
C modulo the lattice spanned by 1 and tau, with lambda = 1 and area Im(tau).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .connections import TransitionJet
from .errors import ChartError

SPHERE = "sphere"
FLAT_TORUS = "flat_torus"

MAX_REDUCED_IM_TAU = 200.0   # past about 226 the theta series' cos 2 pi z overflows


@lru_cache(maxsize=None)
def reduced_modulus(tau: complex) -> tuple[complex, complex]:
    """(tau', j) with tau' = (a tau + b) / j, j = c tau + d, (a b; c d) in SL2(Z),
    |Re tau'| <= 1/2 and |tau'| >= 1 (the identity there), by Gauss reduction of
    the integer basis, tau' exact up to one rounding per part.  The one modulus
    check: ValueError unless Im tau > 0 and Im tau' <= MAX_REDUCED_IM_TAU (200)."""
    tau = complex(tau)
    if not (tau.imag > 0 and math.isfinite(abs(tau))):
        raise ValueError(f"torus modulus must be finite with Im(tau) > 0, got {tau!r}")
    x, y = Fraction(tau.real), Fraction(tau.imag)
    a, b, c, d = 1, 0, 0, 1
    # bounded: below Im 1/2 each inversion (after one translation) doubles Im tau'
    for _ in range(2400):
        den = (c * x + d) ** 2 + (c * y) ** 2    # |j|^2 = Im tau / Im tau'
        if y > MAX_REDUCED_IM_TAU * den:
            raise ValueError(f"torus modulus {tau!r} reduces to Im tau' > {MAX_REDUCED_IM_TAU:g}")
        re = a * c * (x * x + y * y) + (a * d + b * c) * x + b * d
        t = complex(float(re / den), float(y / den))
        n = round(t.real)
        if not n and abs(t) >= 1.0 - 1e-12:  # the slack stops rounding cycling at |t| = 1
            return t, complex(float(c * x + d), float(c * y))
        a, b, c, d = (a - n * c, b - n * d, c, d) if n else (-c, -d, a, b)
    raise ValueError(f"torus modulus {tau!r} did not reduce")


@dataclass(frozen=True)
class SurfacePoint:
    """Chart id plus complex chart coordinate; the universal position type."""

    chart_id: int
    coord: complex

    def __post_init__(self):
        z = complex(self.coord)
        if not (math.isfinite(z.real) and math.isfinite(z.imag)):
            raise ValueError(f"chart coordinate must be finite, got {z!r}")
        object.__setattr__(self, "coord", z)


@dataclass(frozen=True)
class Surface:
    """A closed surface: its kind and, for a torus, the modulus tau."""

    kind: str
    tau: complex = field(default=1j)

    @classmethod
    def sphere(cls) -> "Surface":
        return cls(SPHERE)

    @classmethod
    def flat_torus(cls, tau: complex) -> "Surface":
        return cls(FLAT_TORUS, tau)

    def __post_init__(self):
        if self.kind not in (SPHERE, FLAT_TORUS):
            raise ValueError(f"unknown surface kind {self.kind!r}")
        tau = complex(self.tau)
        if self.kind == FLAT_TORUS:
            reduced_modulus(tau)
        object.__setattr__(self, "tau", tau)

    @property
    def genus(self) -> int:
        return 0 if self.kind == SPHERE else 1

    @property
    def area(self) -> float:
        return 4.0 * math.pi if self.kind == SPHERE else self.tau.imag

    def check_chart(self, chart_id: int) -> None:
        valid = (0, 1) if self.kind == SPHERE else (0,)
        if chart_id not in valid:
            raise ChartError(f"chart {chart_id} is not a chart of the {self.kind}")

    def canonical_point(self, p: SurfacePoint) -> SurfacePoint:
        """Canonical representative of one point (see `canonical_coords`)."""
        charts, coords, _, _ = canonical_coords(self, [p.chart_id], [p.coord])
        return SurfacePoint(int(charts[0]), complex(coords[0]))


def lattice_split(tau: complex, z):
    """Real lattice coordinates (s, t) with z = s + t*tau (z complex or array)."""
    t = z.imag / tau.imag
    s = z.real - t * tau.real
    return s, t


def canonical_coords(surface: Surface, charts, coords):
    """Canonical (charts, coords) of a configuration and the lattice counts
    (m, n) removed: on the sphere the chart with |coord| <= 1 (m = n = 0); on
    the torus z - (m + n*tau) in {s + t*tau : s, t in [0, 1)}, equal to z up
    to rounding.  Idempotent; raises ChartError for a foreign chart id."""
    charts = np.asarray(charts, dtype=int)
    coords = np.asarray(coords, dtype=complex)
    bad = (charts < 0) | (charts > (1 if surface.kind == SPHERE else 0))
    if bad.any():
        surface.check_chart(int(charts[bad][0]))
    if surface.kind == SPHERE:
        flip = np.abs(coords) > 1.0
        charts, coords = charts.copy(), coords.copy()
        charts[flip] = 1 - charts[flip]
        coords[flip] = 1.0 / coords[flip]
        zero = np.zeros(coords.shape, dtype=int)
        return charts, coords, zero, zero
    tau = surface.tau
    s, t = lattice_split(tau, coords)
    m, n = np.floor(s), np.floor(t)
    out = np.empty(coords.shape, dtype=complex)
    out.real = coords.real - m - n * tau.real
    out.imag = coords.imag - n * tau.imag
    # rounding can leave a point a hair outside [0, 1)^2 when split again: put
    # it on the edge t = 0 or s = 0 (counting the wrap from 1), so that every
    # result splits into [0, 1)^2 and a second pass leaves it unchanged
    t = out.imag / tau.imag
    over = t >= 1.0
    n += over
    out.real -= over * tau.real
    out.imag[(t < 0.0) | over] = 0.0
    s, t = lattice_split(tau, out)
    over = s >= 1.0
    m += over
    edge = (s < 0.0) | over
    out.real[edge] = t[edge] * tau.real
    return charts, out, m.astype(int), n.astype(int)


def reduce_centered(tau: complex, z: np.ndarray) -> np.ndarray:
    """Lattice-reduce (elementwise) to coordinates in [-1/2, 1/2); |Im| <= Im(tau)/2."""
    s, t = lattice_split(tau, z)
    s = s - np.floor(s + 0.5)
    t = t - np.floor(t + 0.5)
    return s + t * tau


def conformal_factor(surface: Surface, p: SurfacePoint) -> float:
    """Metric coefficient lambda at p, in the chart of p."""
    surface.check_chart(p.chart_id)
    return lambda_at(surface, p.coord)


def lambda_at(surface: Surface, z):
    """lambda at chart coordinates z (complex or complex array, either chart)."""
    if surface.kind == SPHERE:
        return 2.0 / (1.0 + abs(z) ** 2)
    return 1.0


def metric_connection(surface: Surface, p: SurfacePoint) -> complex:
    """Levi-Civita affine-connection coefficient 2 d(log lambda)/dz in p's chart."""
    surface.check_chart(p.chart_id)
    if surface.kind == SPHERE:
        z = p.coord
        return -2.0 * z.conjugate() / (1.0 + abs(z) ** 2)
    return 0.0


def dlog_lambda_dzbar(surface: Surface, p: SurfacePoint) -> complex:
    """Anti-holomorphic Wirtinger derivative of log(lambda) at p."""
    surface.check_chart(p.chart_id)
    if surface.kind == SPHERE:
        z = p.coord
        return -z / (1.0 + abs(z) ** 2)
    return 0.0


def transition(surface: Surface, p: SurfacePoint,
               target_chart: int) -> tuple[SurfacePoint, TransitionJet]:
    """Re-express p in the target chart with the 3-jet of the transition map.

    Sphere cross-chart transition is w = 1/z (pole error at z = 0); within a
    chart, and on the torus (where chart changes are the lattice translations
    performing fundamental-domain reduction), the jet is the identity.
    """
    surface.check_chart(p.chart_id)
    surface.check_chart(target_chart)
    if surface.kind == FLAT_TORUS:
        return surface.canonical_point(p), TransitionJet.identity()
    if target_chart == p.chart_id:
        return p, TransitionJet.identity()
    z = p.coord
    if z == 0:
        raise ChartError("the point z=0 is not covered by the opposite sphere chart")
    z2 = z * z
    jet = TransitionJet(-1.0 / z2, 2.0 / (z2 * z), -6.0 / (z2 * z2))
    return SurfacePoint(target_chart, 1.0 / z), jet


def sphere_difference(ci, zi, cj, zj):
    """(same, d) over arrays of pairs: `same` marks the pairs in one chart, where
    d = zi - zj; across charts d = zi zj - 1 (stable near either chart's infinity)."""
    same = np.asarray(ci) == np.asarray(cj)
    return same, np.where(same, zi - zj, zi * zj - 1.0)


@lru_cache(maxsize=None)
def _lattice_offsets(tau: complex) -> np.ndarray:
    offsets = np.array([m + n * tau for m in (-1, 0, 1) for n in (-1, 0, 1)])
    offsets.flags.writeable = False
    return offsets


def pair_distances(surface: Surface, charts, coords, i, j) -> np.ndarray:
    """Geodesic separations of the point pairs (i[k], j[k]): on the sphere
    2 atan2(|d|, |e|), d from `sphere_difference`, e = 1 + conj(zi) zj in one chart
    and zj + conj(zi) across charts; on the torus (any cover coordinates) |j| times
    the nearest of the 9 centered translates of u / j in the reduced basis."""
    coords = np.asarray(coords)
    if surface.kind == SPHERE:
        zi, zj = coords[i], coords[j]
        same, d = sphere_difference(charts[i], zi, charts[j], zj)
        e = np.where(same, 1.0 + zi.conjugate() * zj, zj + zi.conjugate())
        return 2.0 * np.arctan2(np.abs(d), np.abs(e))
    tau_r, j_tau = reduced_modulus(surface.tau)
    u = reduce_centered(tau_r, (coords[i] - coords[j]) * (1.0 / j_tau))
    return abs(j_tau) * np.abs(u[..., None] + _lattice_offsets(tau_r)).min(axis=-1)


def geodesic_distance(surface: Surface, p: SurfacePoint, q: SurfacePoint) -> float:
    """Geodesic separation, through `pair_distances` on a one-pair array like a
    configuration's (numpy's scalar and array complex products can differ)."""
    surface.check_chart(p.chart_id)
    surface.check_chart(q.chart_id)
    return float(pair_distances(
        surface, np.array([p.chart_id, q.chart_id]), np.array([p.coord, q.coord]), [0], [1]
    )[0])
