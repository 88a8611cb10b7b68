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
array, one entry per vortex; the read-only pair indices i < j are cached per n.
The velocity law has one implementation, `_Plan`, built once per run (and per
one-shot call) with the pair indices, strengths and surface constants; each
evaluation forms only Green gradients (`green.pair_terms`' gradient entries).
The Hamiltonian recomputes W from its coordinates, so its finite differences
stay an independent velocity route.  `integrate` has one record loop; a
`METHODS` entry advances between records and ends every accepted step in
`_Trajectory.accept`: the sphere chart rule of `canonical_coords`, then the
collision check, which names the first closest pair in (i, j) order.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import CollisionError, StepRejectionError
from .green import (
    pair_terms,
    renormalized_robin_at,
    robin_h0_h1,
    sphere_gradient_terms,
    torus_gradient_terms,
)
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
    pair_distances,
)
from .theta import ThetaContext, theta_context

_TWO_PI = 2.0 * math.pi
_FOUR_PI = 4.0 * math.pi
_TWO_PI_I = 2j * math.pi

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
        if not 0.0 < self.collision_threshold < math.inf:   # NaN fails too
            raise ValueError("collision_threshold: must be finite and positive, "
                             f"got {self.collision_threshold}")
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
    return m @ weights


@dataclass(frozen=True)
class _Plan:
    """The velocity law of a run.  On the torus lambda = 1, h1 = 0 and
    du*/dz = conj(W) / (2 Im tau) is a constant of the motion (sum Gamma v = 0),
    taken at the coordinates the plan is built at."""

    surface: Surface
    basis: PeriodBasis
    strengths: np.ndarray
    i: np.ndarray
    j: np.ndarray
    theta: ThetaContext | None   # None on the sphere
    flow: complex                # du*/dz

    def _torus_rows(self, coords: np.ndarray) -> np.ndarray:
        """M Gamma + du*/dz at every vortex on the torus."""
        grad = torus_gradient_terms(self.theta, coords[self.i] - coords[self.j])[2]
        return _row_sums(self.i, self.j, grad, -grad, self.strengths) + self.flow

    def c1(self, charts: np.ndarray, coords: np.ndarray):
        """(c1 = h1 + 4 pi (M Gamma + du*/dz) / Gamma, 1 + |z|^2 or None on the
        torus) at every vortex, with M_kj = dG(z_k, z_j)/dz_k in z_k's chart."""
        i, j, g = self.i, self.j, self.strengths
        if self.theta is None:
            w = 1.0 + np.abs(coords) ** 2
            _, grad_i, grad_j = sphere_gradient_terms(
                charts[i], coords[i], charts[j], coords[j], w[i], w[j])
            return coords.conjugate() / w + _FOUR_PI * _row_sums(i, j, grad_i, grad_j, g) / g, w
        return _FOUR_PI * self._torus_rows(coords) / g, None

    def velocity(self, charts: np.ndarray, coords: np.ndarray) -> np.ndarray:
        if self.theta is not None:
            return -2j * self._torus_rows(coords).conjugate()   # Gamma / (2 pi i) conj(c1)
        c1, w = self.c1(charts, coords)
        # sphere: lambda = 2 / w and d log(lambda)/dzbar = -z / w
        return self.strengths / (_TWO_PI_I * (2.0 / w) ** 2) * (c1.conjugate() - coords / w)


def _plan(surface: Surface, coords, strengths, base_a, base_b) -> _Plan:
    strengths = np.asarray(strengths, dtype=float)
    basis = build_basis(surface)
    i, j = _pairs(len(strengths))
    if not basis.genus:
        return _Plan(surface, basis, strengths, i, j, None, 0j)
    w = circulation_state(basis, coords, strengths, base_a, base_b)
    return _Plan(surface, basis, strengths, i, j, theta_context(surface.tau),
                 circulation_form(basis, w))


def _hamiltonian_raw(surface: Surface, basis: PeriodBasis, charts, coords,
                     strengths, base_a, base_b) -> float:
    i, j, value, _, _ = _pair_terms(surface, charts, coords)
    twice_h = (strengths**2 * renormalized_robin_at(surface, coords)).sum()
    twice_h += 2.0 * (strengths[i] * strengths[j] * value).sum()
    if basis.genus:
        w = circulation_state(basis, coords, strengths, base_a, base_b)
        twice_h += circulation_energy(basis, w)
    return float(0.5 * twice_h)


def _check_separation(surface: Surface, charts, coords, threshold: float,
                      time: float, pairs: tuple | None = None) -> float:
    """Minimum pair separation over `pairs` (default: all i < j); raises
    CollisionError below `threshold`, naming the first closest pair in (i, j) order."""
    i, j = _pairs(len(coords)) if pairs is None else pairs
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
    return charts, coords, _plan(state.surface, coords, state.strengths,
                                 state.base_a, state.base_b)


def c1_coefficient(state: VortexState, k: int) -> complex:
    """First stream-expansion coefficient at vortex k, in its canonical chart."""
    charts, coords, plan = _unpack(state)
    return complex(plan.c1(charts, coords)[0][k])


def c0_coefficient(state: VortexState, k: int) -> float:
    """Constant stream-expansion coefficient at vortex k (diagnostic only)."""
    charts, coords, plan = _unpack(state)
    g, basis = plan.strengths, plan.basis
    i, j, value, _, _ = _pair_terms(state.surface, charts, coords)
    mutual = _row_sums(i, j, value, value, g)[k]
    if basis.genus:
        w = circulation_state(basis, coords, g, state.base_a, state.base_b)
        mutual += conjugate_potential(basis, w, coords[k])
    return float(robin_h0_h1(state.surface, coords[k])[0] + _TWO_PI * mutual / g[k])


def vortex_velocity(state: VortexState, k: int) -> complex:
    """Velocity dz_k/dt from the connection-based law, in the canonical chart."""
    charts, coords, plan = _unpack(state)
    return complex(plan.velocity(charts, coords)[k])


def hamiltonian(state: VortexState) -> float:
    """Renormalized energy of the configuration."""
    charts, coords, plan = _unpack(state)
    return _hamiltonian_raw(state.surface, plan.basis, charts, coords, plan.strengths,
                            state.base_a, state.base_b)


def hamiltonian_velocity(state: VortexState, k: int, step: float = 1e-5) -> complex:
    """Velocity of vortex k from central finite differences of the Hamiltonian.

    One Richardson level on the Wirtinger derivative; the circulation
    coefficients are recomputed inside every perturbed energy evaluation, so
    this route shares no assembled terms with the direct law.
    """
    charts, coords, plan = _unpack(state)

    def energy(dz: complex) -> float:
        pert = coords.copy()
        pert[k] += dz
        return _hamiltonian_raw(state.surface, plan.basis, charts, pert, plan.strengths,
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
_MAX_REJECTS = 60   # consecutive rejections before StepRejectionError


@dataclass
class _Trajectory:
    plan: _Plan
    base_a: tuple[float, ...]
    base_b: tuple[float, ...]
    charts: np.ndarray
    coords: np.ndarray
    separation: float            # minimum separation at coords, for the next record
    threshold: float
    rtol: float
    atol: float
    trial_dt: float              # rk45: the step controller's next trial step
    rejections: int = 0
    evaluations: int = 0         # velocity evaluations, counted per step
    accepted: int = 0

    def accept(self, coords: np.ndarray, t: float) -> None:
        """End an accepted step at time t: sphere vortices move to the chart with
        |z| <= 1 (torus cover coordinates stay), then the collision check runs."""
        surface, pairs = self.plan.surface, (self.plan.i, self.plan.j)
        if surface.kind == SPHERE:
            self.charts, coords, _, _ = canonical_coords(surface, self.charts, coords)
        self.coords = coords
        self.separation = _check_separation(surface, self.charts, coords, self.threshold, t, pairs)
        self.accepted += 1

    def record(self, t: float) -> TrajectoryRecord:
        surface, basis, g = self.plan.surface, self.plan.basis, self.plan.strengths
        charts, coords, a, b = _canonical(surface, self.charts, self.coords, g,
                                          self.base_a, self.base_b)
        h = _hamiltonian_raw(surface, basis, charts, coords, g, a, b)
        w = circulation_state(basis, coords, g, a, b)   # not the plan's: independent
        return TrajectoryRecord(t, _points(charts, coords), h, a, b, self.separation,
                                kelvin_coefficients(basis, w))


def _rk4_advance(traj: _Trajectory, i0: int, i1: int, dt: float) -> None:
    """Fixed steps i0 + 1 .. i1, each ending at t = i * dt."""
    for i in range(i0 + 1, i1 + 1):
        velocity, charts, y0 = traj.plan.velocity, traj.charts, traj.coords
        k1 = velocity(charts, y0)
        k2 = velocity(charts, y0 + 0.5 * dt * k1)
        k3 = velocity(charts, y0 + 0.5 * dt * k2)
        k4 = velocity(charts, y0 + dt * k3)
        traj.evaluations += 4
        traj.accept(y0 + dt * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0, i * dt)


def _rkf45_advance(traj: _Trajectory, i0: int, i1: int, step: float) -> None:
    """Embedded 4(5) steps from i0 * step to i1 * step under step control,
    starting from and leaving the controller's trial step in traj.trial_dt."""
    t, t_end, dt = i0 * step, i1 * step, traj.trial_dt
    consecutive = 0
    while t < t_end - 1e-15 * max(1.0, abs(t_end)):
        dt = min(dt, t_end - t)
        y0 = traj.coords
        ks = []
        for i in range(6):
            yi = y0.copy()
            for j, a in enumerate(_RKF_A[i]):
                yi += dt * a * ks[j]
            ks.append(traj.plan.velocity(traj.charts, yi))
        traj.evaluations += 6
        y1 = y0.copy()
        for i, b in enumerate(_RKF_B5):
            y1 += dt * b * ks[i]
        err = float(np.abs(sum(dt * c * k for c, k in zip(_RKF_ERR, ks))).max())
        tol = traj.atol + traj.rtol * max(1.0, float(np.abs(y0).max()))
        if err <= tol:
            t += dt
            traj.accept(y1, t)
            consecutive = 0
        else:
            traj.rejections += 1
            consecutive += 1
            if consecutive > _MAX_REJECTS:
                raise StepRejectionError(
                    f"adaptive step rejected {consecutive} times in a row at t={t:.6g}"
                )
        factor = 0.9 * (tol / err) ** 0.2 if err > 0 else 5.0
        dt *= min(5.0, max(0.2, factor))
    traj.trial_dt = dt


# the integration methods by name; `config` validates against the same table
METHODS = {"rk4": _rk4_advance, "rk45-adaptive": _rkf45_advance}


def integrate(state: VortexState, dt: float, steps: int, method: str = "rk4",
              record_every: int = 1, rtol: float = 1e-9, atol: float = 1e-12,
              stats_out: dict | None = None) -> list[TrajectoryRecord]:
    """Advance the state for `steps` steps of size `dt` under the velocity law.

    `method` names a METHODS entry: "rk4" (fixed step) or "rk45-adaptive"
    (embedded 4(5) pair with step control between record times).  Records are
    emitted at t=0, every `record_every`-th step and at the end; each is the
    canonical state at its time (positions and compensated base circulations,
    so it restarts the run) with its energy, Kelvin coefficients and minimum
    separation.  After every accepted step each sphere vortex is in its chart
    with |z| <= 1, and CollisionError is raised when two vortices come closer
    than the state's collision threshold; StepRejectionError if adaptive control stalls.
    `stats_out`, when given, receives the counts "step_rejections",
    "accepted_steps" and "velocity_evaluations" and, on either abort, the
    records produced so far under "partial_records".
    """
    if not (math.isfinite(dt) and dt > 0):
        raise ValueError(f"dt: must be finite and positive, got {dt}")
    if steps < 1:
        raise ValueError(f"steps: must be >= 1, got {steps}")
    if record_every < 1:
        raise ValueError(f"record_every: must be >= 1, got {record_every}")
    if method not in METHODS:
        raise ValueError(f"method: unknown integration method {method!r}")
    charts, coords, plan = _unpack(state)
    sep = _check_separation(state.surface, charts, coords, -math.inf, 0.0, (plan.i, plan.j))
    traj = _Trajectory(plan, state.base_a, state.base_b, charts, coords, sep,
                       state.collision_threshold, rtol, atol, dt)
    records = [traj.record(0.0)]
    marks = (0, *range(record_every, steps, record_every), steps)
    stats = {} if stats_out is None else stats_out
    try:
        for i0, i1 in zip(marks, marks[1:]):
            METHODS[method](traj, i0, i1, dt)
            records.append(traj.record(i1 * dt))
    except (CollisionError, StepRejectionError):
        stats["partial_records"] = records
        raise
    finally:
        stats.update(step_rejections=traj.rejections, accepted_steps=traj.accepted,
                     velocity_evaluations=traj.evaluations)
    return records
