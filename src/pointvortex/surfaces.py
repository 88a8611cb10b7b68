"""Surface geometry: the round sphere and flat tori, their charts and metric.

The sphere uses a two-chart stereographic atlas with holomorphic transition
w = 1/z and the unit-radius normalization lambda(z) = 2/(1+|z|^2) (area 4*pi),
so every closed-form constant below matches that normalization.  Flat tori are
C modulo the lattice spanned by 1 and tau, with lambda = 1 and area Im(tau).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .connections import TransitionJet
from .errors import ChartError

SPHERE = "sphere"
FLAT_TORUS = "flat_torus"


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
    """Descriptor of a closed surface: kind, modulus, genus and area."""

    kind: str
    tau: complex = field(default=1j)
    genus: int = field(default=0)
    area: float = field(default=4.0 * math.pi)

    @classmethod
    def sphere(cls) -> "Surface":
        return cls(kind=SPHERE, tau=1j, genus=0, area=4.0 * math.pi)

    @classmethod
    def flat_torus(cls, tau: complex) -> "Surface":
        tau = complex(tau)
        if not tau.imag > 0:
            raise ValueError(f"torus modulus must have Im(tau) > 0, got {tau!r}")
        return cls(kind=FLAT_TORUS, tau=tau, genus=1, area=tau.imag)

    def __post_init__(self):
        if self.kind not in (SPHERE, FLAT_TORUS):
            raise ValueError(f"unknown surface kind {self.kind!r}")

    def check_chart(self, chart_id: int) -> None:
        valid = (0, 1) if self.kind == SPHERE else (0,)
        if chart_id not in valid:
            raise ChartError(f"chart {chart_id} is not a chart of the {self.kind}")

    def canonical_point(self, p: SurfacePoint) -> SurfacePoint:
        """Canonical representative: sphere uses the chart with |coord| <= 1
        (chart 0 on ties), the torus reduces to the fundamental domain."""
        self.check_chart(p.chart_id)
        if self.kind == SPHERE:
            z = p.coord
            if abs(z) <= 1.0:
                return p
            return SurfacePoint(1 - p.chart_id, 1.0 / z)
        return SurfacePoint(0, reduce_to_fundamental(self.tau, p.coord))


def lattice_split(tau: complex, z: complex) -> tuple[float, float]:
    """Real lattice coordinates (s, t) with z = s + t*tau."""
    t = z.imag / tau.imag
    s = z.real - t * tau.real
    return s, t


def reduce_to_fundamental(tau: complex, z: complex) -> complex:
    """Reduce to the fundamental domain {s + t*tau : s, t in [0, 1)}.  Idempotent."""
    s, t = lattice_split(tau, z)
    s -= math.floor(s)
    t -= math.floor(t)
    # floor can round ...999 up to the excluded endpoint; fold it back
    if s >= 1.0:
        s -= 1.0
    if t >= 1.0:
        t -= 1.0
    return complex(s + t * tau.real, t * tau.imag)


def reduce_centered(tau: complex, z: np.ndarray) -> np.ndarray:
    """Lattice-reduce (elementwise) to coordinates in [-1/2, 1/2); |Im| <= Im(tau)/2."""
    s, t = lattice_split(tau, z)
    s = s - np.floor(s + 0.5)
    t = t - np.floor(t + 0.5)
    return s + t * tau


def wrap_counts(tau: complex, z: complex) -> tuple[int, int]:
    """Integers (m, n) with z - (m + n*tau) in the fundamental domain."""
    s, t = lattice_split(tau, z)
    return math.floor(s), math.floor(t)


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
    return dlog_lambda_dzbar_at(surface, p.coord)


def dlog_lambda_dzbar_at(surface: Surface, z):
    """d(log lambda)/dzbar at chart coordinates z (complex or complex array)."""
    if surface.kind == SPHERE:
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


def sphere_embedding(chart_id, z):
    """Unit-sphere R^3 coordinates of chart points; `chart_id` and `z` may be arrays."""
    z = np.asarray(z)
    sign = 1.0 - 2.0 * np.asarray(chart_id)   # chart 1 mirrors y and the polar axis
    denom = 1.0 + np.abs(z) ** 2
    x = 2.0 * z.real / denom
    y = 2.0 * z.imag / denom
    return x, sign * y, sign * (np.abs(z) ** 2 - 1.0) / denom


@lru_cache(maxsize=None)
def _lattice_offsets(tau: complex) -> np.ndarray:
    offsets = np.array([m + n * tau for m in (-1, 0, 1) for n in (-1, 0, 1)])
    offsets.flags.writeable = False
    return offsets


def pair_distances(surface: Surface, charts, coords, i, j) -> np.ndarray:
    """Geodesic separations of the point pairs (i[k], j[k]), diagnostic grade:
    R^3 chords on the sphere; on the torus (any cover coordinates) the centered
    difference against the 9 nearest lattice translates."""
    if surface.kind == SPHERE:
        e = np.stack(sphere_embedding(charts, coords))
        d = e[:, i] - e[:, j]
        chord = np.sqrt((d * d).sum(axis=0))
        return 2.0 * np.arcsin(np.minimum(1.0, 0.5 * chord))
    coords = np.asarray(coords)
    u = reduce_centered(surface.tau, coords[i] - coords[j])
    return np.abs(u[..., None] + _lattice_offsets(surface.tau)).min(axis=-1)


def geodesic_distance(surface: Surface, p: SurfacePoint, q: SurfacePoint) -> float:
    """Geodesic separation; diagnostic grade (collision checks, monitors)."""
    surface.check_chart(p.chart_id)
    surface.check_chart(q.chart_id)
    return float(pair_distances(
        surface, np.array([p.chart_id, q.chart_id]), np.array([p.coord, q.coord]), 0, 1
    ))
