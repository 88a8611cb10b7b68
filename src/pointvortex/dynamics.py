"""Point-vortex dynamics: stream-expansion coefficients, the connection-based
velocity law, the renormalized Hamiltonian, and time integration.

The velocity of vortex k in its chart is

    dz_k/dt = Gamma_k / (2 pi i lambda(z_k)^2) * (conj(c1(z_k)) + d(log lambda)/dzbar),

where c1 collects the Robin coefficient h1, the holomorphic Green gradients of
the other vortices, and the gradient of the conjugate circulation potential.
The Hamiltonian couples the Green/Robin quadratic form in the strengths with
the circulation quadratic form; differentiating it numerically gives an
independent velocity route used for cross-validation.

Torus trajectories are integrated in universal-cover coordinates so the
multivalued circulation potentials stay on one continuous branch; doubly
periodic quantities only ever see lattice-reduced differences, so cover
coordinates cost nothing.  A state built from cover coordinates describes the
same flow as those coordinates (see VortexState), and each emitted record is
that canonical state of the run at its time, so any record restarts the run.

Array layout: a configuration is a chart-id array and a complex coordinate
array, one entry per vortex.  The read-only indices (i, j) of the unordered
pairs i < j are cached per n; the pair kernel `green.pair_terms` evaluates
G_ij and both gradients once per pair, and the n x n gradient matrix is
filled from them, at (j, i) by the odd symmetry dG(-u) = -dG(u) on the torus.
Separations come from the same pair indices; collisions name the first
closest pair in (i, j) order.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import CollisionError, StepRejectionError
from .green import pair_terms, renormalized_robin_at, robin_h0_h1
from .periods import (
    PeriodBasis,
    build_basis,
    circulation_energy,
    circulation_form,
    circulation_state,
    conjugate_potential,
    kelvin_coefficients,
)
from .surfaces import (
    SPHERE,
    Surface,
    SurfacePoint,
    canonical_coords,
    conformal_factor,
    dlog_lambda_dzbar_at,
    lambda_at,
    pair_distances,
)

_TWO_PI = 2.0 * math.pi
_FOUR_PI = 4.0 * math.pi

DEFAULT_COLLISION_THRESHOLD = 1e-3


@dataclass(frozen=True)
class VortexState:
    """Vortex positions, signed strengths, and the base circulations (a, b).

    Positions are stored canonical.  Reducing a torus position z_j by
    m_j + n_j tau absorbs the wrap into a += Gamma_j n_j, b -= Gamma_j m_j,
    which leaves W = a tau - b + sum Gamma z, and so the flow, unchanged."""

    surface: Surface
    positions: tuple[SurfacePoint, ...]
    strengths: tuple[float, ...]
    base_a: tuple[float, ...] = ()
    base_b: tuple[float, ...] = ()
    collision_threshold: float = DEFAULT_COLLISION_THRESHOLD

    def __post_init__(self):
        n = len(self.positions)
        if n < 2:
            raise ValueError("a vortex state needs at least two vortices")
        if len(self.strengths) != n:
            raise ValueError("positions and strengths must have equal length")
        if not all(map(math.isfinite, (*self.strengths, *self.base_a, *self.base_b))):
            raise ValueError("vortex strengths and base circulations must be finite")
        if any(g == 0.0 for g in self.strengths):
            raise ValueError("vortex strengths must all be nonzero")
        if abs(sum(self.strengths)) > 1e-12:
            raise ValueError(
                f"vortex strengths must sum to zero (got {sum(self.strengths):.3e})"
            )
        g = self.surface.genus
        if len(self.base_a) != g or len(self.base_b) != g:
            raise ValueError(f"base circulations must have length {g}")
        strengths = tuple(float(g) for g in self.strengths)
        charts, coords, base_a, base_b = _canonical(
            self.surface, *_point_arrays(self.positions), np.array(strengths),
            tuple(self.base_a), tuple(self.base_b))
        object.__setattr__(self, "positions", _points(charts, coords))
        object.__setattr__(self, "strengths", strengths)
        object.__setattr__(self, "base_a", base_a)
        object.__setattr__(self, "base_b", base_b)
        sep = _check_separation(self.surface, charts, coords, -math.inf, 0.0)
        if sep <= self.collision_threshold:
            raise ValueError(
                f"initial pairwise separation {sep:.3e} is below the collision "
                f"threshold {self.collision_threshold:.3e}"
            )

    @property
    def n(self) -> int:
        return len(self.positions)


@dataclass(frozen=True)
class TrajectoryRecord:
    """The canonical state of a run at `time` (positions, circ_a, circ_b), with
    its energy, separation and Kelvin coefficients (A, B) = `kelvin`, which the
    dynamics conserves since sum_k Gamma_k v_k = 0 (() on the sphere)."""

    time: float
    positions: tuple[SurfacePoint, ...]
    hamiltonian: float
    circ_a: tuple[float, ...]
    circ_b: tuple[float, ...]
    min_separation: float
    kelvin: tuple[float, ...]


@lru_cache(maxsize=None)
def _pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only indices (i, j) of the unordered pairs i < j, in (i, j) order."""
    i, j = np.triu_indices(n, 1)
    i.flags.writeable = j.flags.writeable = False
    return i, j


def _point_arrays(positions) -> tuple[np.ndarray, np.ndarray]:
    return (np.array([p.chart_id for p in positions], dtype=int),
            np.array([p.coord for p in positions], dtype=complex))


def _points(charts: np.ndarray, coords: np.ndarray) -> tuple[SurfacePoint, ...]:
    return tuple(SurfacePoint(c, z) for c, z in zip(charts.tolist(), coords.tolist()))


def _canonical(surface: Surface, charts, coords, strengths: np.ndarray,
               base_a: tuple[float, ...], base_b: tuple[float, ...]):
    """Canonical charts, coordinates and base circulations (see VortexState)."""
    charts, coords, m, n = canonical_coords(surface, charts, coords)
    if base_a:
        base_a = (base_a[0] + float(strengths @ n),)
        base_b = (base_b[0] - float(strengths @ m),)
    return charts, coords, base_a, base_b


def min_separation(surface: Surface, positions) -> float:
    if len(positions) < 2:
        return math.inf
    return _check_separation(surface, *_point_arrays(positions), -math.inf, 0.0)


# ---------------------------------------------------------------------------
# raw evaluation layer: chart and coordinate arrays, no reduction


def _pair_terms(surface: Surface, charts: np.ndarray, coords: np.ndarray):
    """(i, j, G_ij, dG_ij/dz_i, dG_ij/dz_j) over the unordered pairs."""
    i, j = _pairs(len(coords))
    return (i, j) + pair_terms(surface, charts[i], coords[i], charts[j], coords[j])


def _row_sums(i, j, upper, lower, weights: np.ndarray) -> np.ndarray:
    """M @ weights for the n x n matrix with `upper` at (i, j), `lower` at
    (j, i) and zeros on the diagonal."""
    n = len(weights)
    m = np.zeros((n, n), dtype=upper.dtype)
    m[i, j] = upper
    m[j, i] = lower
    return (m * weights).sum(axis=1)


def _c1_raw(surface: Surface, basis: PeriodBasis, charts, coords, strengths,
            base_a, base_b) -> np.ndarray:
    """c1 at every vortex: h1 + 4 pi ((M Gamma) + u*') / Gamma, with M_kj the
    gradient dG(z_k, z_j)/dz_k in the chart of z_k."""
    i, j, _, grad_i, grad_j = _pair_terms(surface, charts, coords)
    mixed = _row_sums(i, j, grad_i, grad_j, strengths)
    if basis.genus:
        w = circulation_state(basis, coords, strengths, base_a, base_b)
        mixed = mixed + circulation_form(basis, w)
    return robin_h0_h1(surface, coords)[1] + _FOUR_PI * mixed / strengths


def _velocity_raw(surface: Surface, basis: PeriodBasis, charts, coords,
                  strengths, base_a, base_b) -> np.ndarray:
    charts = np.asarray(charts)
    coords = np.asarray(coords, dtype=complex)
    strengths = np.asarray(strengths, dtype=float)
    c1 = _c1_raw(surface, basis, charts, coords, strengths, base_a, base_b)
    return (
        strengths / (2j * math.pi * lambda_at(surface, coords) ** 2)
        * (c1.conjugate() + dlog_lambda_dzbar_at(surface, coords))
    )


def _hamiltonian_raw(surface: Surface, basis: PeriodBasis, charts, coords,
                     strengths, base_a, base_b) -> float:
    charts = np.asarray(charts)
    coords = np.asarray(coords, dtype=complex)
    strengths = np.asarray(strengths, dtype=float)
    i, j, value, _, _ = _pair_terms(surface, charts, coords)
    twice_h = (strengths**2 * renormalized_robin_at(surface, coords)).sum()
    twice_h += 2.0 * (strengths[i] * strengths[j] * value).sum()
    if basis.genus:
        w = circulation_state(basis, coords, strengths, base_a, base_b)
        twice_h += circulation_energy(basis, w)
    return float(0.5 * twice_h)


def _check_separation(surface: Surface, charts, coords, threshold: float,
                      time: float) -> float:
    """Minimum pair separation; raises CollisionError below `threshold`,
    naming the first closest pair in (i, j) order."""
    i, j = _pairs(len(coords))
    d = pair_distances(surface, np.asarray(charts), np.asarray(coords, dtype=complex), i, j)
    k = int(np.argmin(d))
    best = float(d[k])
    if best < threshold:
        raise CollisionError(time, (int(i[k]), int(j[k])), best)
    return best


# ---------------------------------------------------------------------------
# public operations on states


def _unpack(state: VortexState):
    charts, coords = _point_arrays(state.positions)
    return charts, coords, np.array(state.strengths), build_basis(state.surface)


def c1_coefficient(state: VortexState, k: int) -> complex:
    """First stream-expansion coefficient at vortex k, in its canonical chart."""
    charts, coords, g, basis = _unpack(state)
    return complex(_c1_raw(state.surface, basis, charts, coords, g,
                           state.base_a, state.base_b)[k])


def c0_coefficient(state: VortexState, k: int) -> float:
    """Constant stream-expansion coefficient at vortex k (diagnostic only)."""
    charts, coords, g, basis = _unpack(state)
    i, j, value, _, _ = _pair_terms(state.surface, charts, coords)
    mutual = _row_sums(i, j, value, value, g)[k]
    if basis.genus:
        w = circulation_state(basis, coords, g, state.base_a, state.base_b)
        mutual += conjugate_potential(basis, w, coords[k])
    return float(robin_h0_h1(state.surface, coords[k])[0] + _TWO_PI * mutual / g[k])


def vortex_velocity(state: VortexState, k: int) -> complex:
    """Velocity dz_k/dt from the connection-based law, in the canonical chart."""
    charts, coords, g, basis = _unpack(state)
    return complex(_velocity_raw(state.surface, basis, charts, coords, g,
                                 state.base_a, state.base_b)[k])


def hamiltonian(state: VortexState) -> float:
    """Renormalized energy of the configuration."""
    charts, coords, g, basis = _unpack(state)
    return _hamiltonian_raw(state.surface, basis, charts, coords, g,
                            state.base_a, state.base_b)


def hamiltonian_velocity(state: VortexState, k: int, step: float = 1e-5) -> complex:
    """Velocity of vortex k from central finite differences of the Hamiltonian.

    One Richardson level on the Wirtinger derivative; the circulation
    coefficients are recomputed inside every perturbed energy evaluation, so
    this route shares no assembled terms with the direct law.
    """
    charts, coords, g, basis = _unpack(state)

    def energy(dz: complex) -> float:
        pert = coords.copy()
        pert[k] += dz
        return _hamiltonian_raw(state.surface, basis, charts, pert, g,
                                state.base_a, state.base_b)

    def dzbar(h: float) -> complex:
        hx = (energy(h) - energy(-h)) / (2.0 * h)
        hy = (energy(1j * h) - energy(-1j * h)) / (2.0 * h)
        return 0.5 * (hx + 1j * hy)

    d = (4.0 * dzbar(step / 2.0) - dzbar(step)) / 3.0
    lam2 = conformal_factor(state.surface, state.positions[k]) ** 2
    return -2j * d / (state.strengths[k] * lam2)


# ---------------------------------------------------------------------------
# time integration

# Fehlberg 4(5) tableau (stage times are irrelevant: the field is autonomous)
_RKF_A = (
    (),
    (0.25,),
    (3.0 / 32.0, 9.0 / 32.0),
    (1932.0 / 2197.0, -7200.0 / 2197.0, 7296.0 / 2197.0),
    (439.0 / 216.0, -8.0, 3680.0 / 513.0, -845.0 / 4104.0),
    (-8.0 / 27.0, 2.0, -3544.0 / 2565.0, 1859.0 / 4104.0, -11.0 / 40.0),
)
_RKF_B5 = (16.0 / 135.0, 0.0, 6656.0 / 12825.0, 28561.0 / 56430.0, -9.0 / 50.0, 2.0 / 55.0)
_RKF_ERR = (1.0 / 360.0, 0.0, -128.0 / 4275.0, -2197.0 / 75240.0, 1.0 / 50.0, 2.0 / 55.0)


@dataclass
class _Trajectory:
    surface: Surface
    basis: PeriodBasis
    strengths: np.ndarray
    base_a: tuple[float, ...]
    base_b: tuple[float, ...]
    charts: np.ndarray
    coords: np.ndarray
    threshold: float
    handover: float
    rejections: int = 0

    def velocity(self, coords: np.ndarray) -> np.ndarray:
        return _velocity_raw(
            self.surface, self.basis, self.charts, coords, self.strengths,
            self.base_a, self.base_b,
        )

    def handover_step(self) -> None:
        if self.surface.kind != SPHERE:
            return
        flip = np.abs(self.coords) > self.handover
        self.charts[flip] = 1 - self.charts[flip]
        self.coords[flip] = 1.0 / self.coords[flip]

    def record(self, t: float) -> TrajectoryRecord:
        charts, coords, a, b = _canonical(self.surface, self.charts, self.coords,
                                          self.strengths, self.base_a, self.base_b)
        h = _hamiltonian_raw(self.surface, self.basis, charts, coords,
                             self.strengths, a, b)
        sep = _check_separation(self.surface, charts, coords, -math.inf, t)
        w = circulation_state(self.basis, coords, self.strengths, a, b)
        return TrajectoryRecord(t, _points(charts, coords), h, a, b, sep,
                                kelvin_coefficients(self.basis, w))


def _rk4_step(traj: _Trajectory, dt: float) -> None:
    y0 = traj.coords
    k1 = traj.velocity(y0)
    k2 = traj.velocity(y0 + 0.5 * dt * k1)
    k3 = traj.velocity(y0 + 0.5 * dt * k2)
    k4 = traj.velocity(y0 + dt * k3)
    traj.coords = y0 + dt * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0


def _rkf45_advance(traj: _Trajectory, t: float, t_end: float, dt0: float,
                   rtol: float, atol: float, max_rejects: int = 60) -> float:
    """Advance to t_end with embedded 4(5) steps; returns the final trial dt."""
    dt = dt0
    consecutive = 0
    while t < t_end - 1e-15 * max(1.0, abs(t_end)):
        dt = min(dt, t_end - t)
        y0 = traj.coords
        ks = []
        for i in range(6):
            yi = y0.copy()
            for j, a in enumerate(_RKF_A[i]):
                yi += dt * a * ks[j]
            ks.append(traj.velocity(yi))
        y1 = y0.copy()
        for i, b in enumerate(_RKF_B5):
            y1 += dt * b * ks[i]
        err = float(np.abs(sum(dt * c * k for c, k in zip(_RKF_ERR, ks))).max())
        tol = atol + rtol * max(1.0, float(np.abs(y0).max()))
        if err <= tol:
            traj.coords = y1
            t += dt
            traj.handover_step()
            _check_separation(traj.surface, traj.charts, traj.coords,
                              traj.threshold, t)
            consecutive = 0
        else:
            traj.rejections += 1
            consecutive += 1
            if consecutive > max_rejects:
                raise StepRejectionError(
                    f"adaptive step rejected {consecutive} times in a row at t={t:.6g}"
                )
        factor = 0.9 * (tol / err) ** 0.2 if err > 0 else 5.0
        dt *= min(5.0, max(0.2, factor))
    return dt


def integrate(state: VortexState, dt: float, steps: int, method: str = "rk4",
              record_every: int = 1, handover_threshold: float = 1.0,
              rtol: float = 1e-9, atol: float = 1e-12,
              stats_out: dict | None = None) -> list[TrajectoryRecord]:
    """Advance the state for `steps` steps of size `dt` under the velocity law.

    `method` is "rk4" (fixed step) or "rk45-adaptive" (embedded 4(5) pair with
    step control between record times).  Records are emitted at t=0, every
    `record_every`-th step, and at the end; each is the canonical state at its
    time (positions and compensated base circulations, so it restarts the
    run) with its energy, Kelvin coefficients and minimum separation.
    Raises CollisionError when two vortices approach below the state's
    collision threshold, and StepRejectionError if adaptive control stalls.
    `stats_out`, when given, receives the rejection count and, on either
    abort, the records produced so far under "partial_records".
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if method not in ("rk4", "rk45-adaptive"):
        raise ValueError(f"unknown integration method {method!r}")
    charts, coords, strengths, basis = _unpack(state)
    traj = _Trajectory(
        surface=state.surface, basis=basis, strengths=strengths,
        base_a=state.base_a, base_b=state.base_b, charts=charts,
        coords=coords, threshold=state.collision_threshold,
        handover=handover_threshold,
    )
    records = [traj.record(0.0)]
    try:
        if method == "rk4":
            for i in range(1, steps + 1):
                _rk4_step(traj, dt)
                t = i * dt
                traj.handover_step()
                _check_separation(traj.surface, traj.charts, traj.coords,
                                  traj.threshold, t)
                if i % record_every == 0 or i == steps:
                    records.append(traj.record(t))
        else:
            trial_dt = dt
            t = 0.0
            for i in range(record_every, steps + 1, record_every):
                t_target = i * dt
                trial_dt = _rkf45_advance(traj, t, t_target, trial_dt, rtol, atol)
                t = t_target
                records.append(traj.record(t))
            if steps % record_every:
                _rkf45_advance(traj, t, steps * dt, trial_dt, rtol, atol)
                records.append(traj.record(steps * dt))
    except (CollisionError, StepRejectionError):
        if stats_out is not None:
            stats_out["step_rejections"] = traj.rejections
            stats_out["partial_records"] = records
        raise
    if stats_out is not None:
        stats_out["step_rejections"] = traj.rejections
    return records
