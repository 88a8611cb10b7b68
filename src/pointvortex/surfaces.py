"""Surface geometry: the round sphere and flat tori, their charts and metric.

The sphere uses a two-chart stereographic atlas with holomorphic transition
w = 1/z and the unit-radius normalization lambda(z) = 2/(1+|z|^2) (area 4*pi),
so every closed-form constant below matches that normalization; it has no
modulus (`Surface.tau` is None) and takes any strengths.  Flat tori are C
modulo the lattice spanned by 1 and tau, with lambda = 1 and area Im(tau), one
chart, and the balance rule sum Gamma = 0 of `periods.circulation_state`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .connections import TransitionJet
from .errors import ChartError

SPHERE = "sphere"
FLAT_TORUS = "flat_torus"

MAX_REDUCED_IM_TAU = 200.0   # past about 226 the theta series' cos 2 pi z overflows
COINCIDENCE_TOL = 1e-12      # the pair kernel's: two points this close coincide
# pairs per pass of the torus pair evaluations (points per theta series pass),
# bounding their temporaries; n = 64 (2016 pairs) is one block
BLOCK = 2048


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
    """A closed surface: its kind and, for a torus only, the modulus tau."""

    kind: str
    tau: complex | None = None

    @classmethod
    def sphere(cls) -> "Surface":
        return cls(SPHERE)

    @classmethod
    def flat_torus(cls, tau: complex) -> "Surface":
        return cls(FLAT_TORUS, tau)

    def __post_init__(self):
        if self.kind not in (SPHERE, FLAT_TORUS):
            raise ValueError(f"unknown surface kind {self.kind!r}")
        if (self.tau is None) != (self.kind == SPHERE):
            raise ValueError(f"tau: the flat torus needs a modulus and the sphere has none, "
                             f"got {self.tau!r} for the {self.kind}")
        if self.kind == FLAT_TORUS:
            object.__setattr__(self, "tau", complex(self.tau))
            reduced_modulus(self.tau)

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


def lattice_split(tau: complex, z):
    """Real lattice coordinates (s, t) with z = s + t*tau (z complex or array)."""
    t = z.imag / tau.imag
    s = z.real - t * tau.real
    return s, t


def canonical_coords(surface: Surface, charts, coords):
    """Canonical (charts, coords) of a configuration and the lattice counts
    (m, n) removed: on the sphere a point moves to the other chart where
    |z| > 1 and |1/z| <= 1 as computed, so the chart with |coord| <= 1 up to
    a rounding at |z| = 1 (m = n = 0), the given arrays themselves when no
    point moves; on the torus z - (m + n*tau) in {s + t*tau : s, t in
    [0, 1)}, equal to z up to rounding.  Idempotent bit for bit on both;
    raises ChartError for a foreign chart id."""
    charts = np.asarray(charts, dtype=int)
    coords = np.asarray(coords, dtype=complex)
    bad = (charts < 0) | (charts > (1 if surface.kind == SPHERE else 0))
    if bad.any():
        surface.check_chart(int(charts[bad][0]))
    if surface.kind == SPHERE:
        flip = np.abs(coords) > 1.0
        if flip.any():
            # |z| and |1/z| can both read above 1 at |z| = 1: such a point stays
            flip[flip] = np.abs(1.0 / coords[flip]) <= 1.0
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


def reduce_centered(tau: complex, z, out=None, shift=None):
    """z less the lattice vector that centres it (elementwise): first
    floor(Im z / Im tau + 1/2) tau, then floor(Re + 1/2), so Im / Im tau and
    then Re lie in [-1/2, 1/2); |Re| <= 1/2 and |Im| <= Im(tau)/2.  Written
    into out (complex, z's shape, not z) with shift, complex of z's shape
    with imaginary part 0, as scratch when given, else into new arrays; a
    scalar z gives a scalar.  The floors go into shift.real, so the lattice
    shifts meet z as complex numbers without a cast, and shift.imag stays 0."""
    z = np.asarray(z)
    if out is None:
        out, shift = np.empty(z.shape, dtype=complex), np.zeros(z.shape, dtype=complex)
    floors = shift.real
    np.divide(z.imag, tau.imag, out=floors)
    np.add(floors, 0.5, out=floors)
    np.floor(floors, out=floors)
    np.subtract(z, np.multiply(shift, tau, out=out), out=out)
    np.add(out.real, 0.5, out=floors)
    np.floor(floors, out=floors)
    return np.subtract(out, shift, out=out)[()]


def conformal_factor(surface: Surface, p: SurfacePoint) -> float:
    """Metric coefficient lambda at p, in the chart of p."""
    surface.check_chart(p.chart_id)
    return 2.0 / (1.0 + abs(p.coord) ** 2) if surface.kind == SPHERE else 1.0


def transition(p: SurfacePoint) -> tuple[SurfacePoint, TransitionJet]:
    """A sphere point in the other chart, w = 1/z, with the 3-jet of that map
    (ChartError at z = 0, which the other chart does not cover)."""
    Surface.sphere().check_chart(p.chart_id)
    z = p.coord
    if z == 0:
        raise ChartError("the point z=0 is not covered by the opposite sphere chart")
    z2 = z * z
    jet = TransitionJet(-1.0 / z2, 2.0 / (z2 * z), -6.0 / (z2 * z2))
    return SurfacePoint(1 - p.chart_id, 1.0 / z), jet


@lru_cache(maxsize=None)
def pair_indices(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only indices (i, j) of the unordered pairs i < j, in (i, j) order."""
    i, j = np.triu_indices(n, 1)
    i.flags.writeable = j.flags.writeable = False
    return i, j


def pair_selection(surface: Surface, charts, i, j) -> np.ndarray:
    """The pairs (i[k], j[k]) of a configuration with these charts, as one int
    array whose row 0 is i and last row j, the only pair input of pair
    evaluations.  On the sphere rows 1-3 are the pairs' chart form: in zi's
    chart zj is a_j / b_j, with (a_j, b_j) = (zj, 1) in one chart and (1, zj)
    across (w = 1/z), and c_i = -1 in one chart, zi across; rows (i, a, b, c)
    index concatenate((coords, [1, -1])), valid until a point changes chart."""
    if surface.kind != SPHERE:
        return np.stack((i, j))
    charts = np.asarray(charts)
    n, same = len(charts), charts[i] == charts[j]
    return np.stack((i, np.where(same, j, n), np.where(same, n, j), np.where(same, n + 1, i), j))


class SpherePass:
    """The buffers of a sphere pair pass over `count` pairs of n points, made
    once per plan and per one-shot call: `ext`, the coordinates (its view
    `coords`) then the chart form's 1 and -1, written once, which rows 0-3 of
    a `pair_selection` index; `points`, (zi, a_j, b_j, c_i) gathered from it,
    with a view of each row; d = zi b_j - a_j; and the complex (r, pole_i,
    pole_j) and real (num, values, scratch) pair-length buffers of the Green
    kernel and the separation.  The pairs are each evaluation's argument, so
    a recharted plan shares its parent's pass: every evaluation writes all
    it reads.  The velocity's and separation's steps write no output onto
    an input: numpy takes a slower loop for that at length 1 (n = 2)."""

    __slots__ = ("ext", "coords", "points", "zi", "a", "b", "c", "d", "r", "pole_i",
                 "pole_j", "num", "values", "scratch")

    def __init__(self, n: int, count: int):
        self.ext = np.empty(n + 2, dtype=complex)
        self.ext[n:] = 1.0, -1.0
        self.coords = self.ext[:n]
        self.points = np.empty((4, count), dtype=complex)
        self.zi, self.a, self.b, self.c = self.points
        self.d, self.r, self.pole_i, self.pole_j = np.empty((4, count), dtype=complex)
        self.num, self.values, self.scratch = np.empty((3, count))


def sphere_differences(coords, pairs, spass: SpherePass) -> np.ndarray:
    """spass.d = zi b_j - a_j over sphere `pairs`, a `pair_selection` (zi - zj
    in one chart, zi zj - 1 across), with (zi, a_j, b_j, c_i) in spass.points."""
    np.copyto(spass.coords, coords)
    spass.ext.take(pairs[:4], out=spass.points, mode="clip")   # "raise" would buffer out
    product = np.multiply(spass.zi, spass.b, out=spass.r)
    return np.subtract(product, spass.a, out=spass.d)


def sphere_separations(coords, pairs, spass: SpherePass) -> np.ndarray:
    """Geodesic separations 2 atan2(|d|, |e|) over sphere `pairs`, with
    e = conj(zi) a_j + b_j, in spass.values."""
    d = sphere_differences(coords, pairs, spass)
    product = np.multiply(np.conjugate(spass.zi, out=spass.r), spass.a, out=spass.pole_i)
    e = np.add(product, spass.b, out=spass.pole_j)
    angle = np.arctan2(np.abs(d, out=spass.num), np.abs(e, out=spass.values), out=spass.scratch)
    return np.multiply(2.0, angle, out=spass.values)


@lru_cache(maxsize=None)
def _lattice_offsets(tau: complex) -> np.ndarray:
    offsets = np.array([m + n * tau for m in (-1, 0, 1) for n in (-1, 0, 1)])
    offsets.flags.writeable = False
    return offsets


def pair_distances(surface: Surface, coords, pairs, min_only: bool = False) -> np.ndarray:
    """Geodesic separations over `pairs`, a `pair_selection`: on the sphere
    `sphere_separations` in a pass built for this call; on the torus (any
    cover coordinates) |j| |u|, u the difference / j centered in the reduced
    basis, or where |u| >= 1/2 the nearest of its 9 centered translates.
    `min_only`: translates only where |u| >= 1 - min |u| (the min over this and
    earlier blocks of BLOCK pairs), which keeps the min and first argmin exact;
    a pair that cannot be the closest may read above its value."""
    coords = np.asarray(coords, dtype=complex)
    if surface.kind == SPHERE:
        return sphere_separations(coords, pairs, SpherePass(len(coords), pairs.shape[1]))
    tau_r, j_tau = reduced_modulus(surface.tau)
    i, j = pairs[0], pairs[-1]
    d, least = np.empty(len(i)), math.inf
    for start in range(0, len(i), BLOCK):   # blocks bound the temporaries
        block = slice(start, start + BLOCK)
        u = reduce_centered(tau_r, (coords[i[block]] - coords[j[block]]) * (1.0 / j_tau))
        du = np.abs(u)
        # every reduced lattice vector o != 0 is >= 1 - 1e-12 long: |u + o| >= |o| - |u|;
        # the least |u| so far only lowers the bound, so the min stays exact
        least = min(least, du.min())
        near = du >= (1.0 - least if min_only else 0.5) - 1e-9   # 1e-9 for rounding
        if near.any():
            du[near] = np.abs(u[near][:, None] + _lattice_offsets(tau_r)).min(axis=-1)
        d[block] = du
    return abs(j_tau) * d


def geodesic_distance(surface: Surface, p: SurfacePoint, q: SurfacePoint) -> float:
    """Geodesic separation, through `pair_distances` on a one-pair array like a
    configuration's (numpy's scalar and array complex products can differ)."""
    surface.check_chart(p.chart_id)
    surface.check_chart(q.chart_id)
    pairs = pair_selection(surface, (p.chart_id, q.chart_id), *pair_indices(2))
    return float(pair_distances(surface, (p.coord, q.coord), pairs)[0])
