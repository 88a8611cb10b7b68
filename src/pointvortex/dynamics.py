"""Point-vortex dynamics: the connection-based velocity law, the renormalized
Hamiltonian, and time integration.

The velocity of vortex k in its chart is

    dz_k/dt = Gamma_k / (2 pi i lambda(z_k)^2) * (conj(c1(z_k)) + d(log lambda)/dzbar),

where the stream-expansion coefficient c1 = h1 + 4 pi (M Gamma + du*/dz)_k / Gamma_k
collects the Robin coefficient h1, the Green gradients M_kj = dG(z_k, z_j)/dz_k
of the other vortices and the circulation gradient du*/dz.  On the sphere and
flat tori the self-term conj(h1) + d(log lambda)/dzbar vanishes, so dz_k/dt =
-2i conj(M Gamma + du*/dz)_k / lambda^2, and the renormalized Robin function
R = (h0 + log lambda) / 2 pi is one constant per surface, so the renormalized
Hamiltonian 2H = R sum Gamma_k^2 + 2 sum_{i<j} Gamma_i Gamma_j G(z_i, z_j)
+ E(W), E the circulating flow's energy (0 on the sphere), evaluates no
per-point Robin or metric term.  Its finite differences give an independent
velocity route for cross-validation, `hamiltonian_velocities`: moving z_k
changes only the pairs (k, j) and W, so each of the 8 stencil copies of each
vortex differences just Gamma_k sum_j Gamma_j G(z_k, z_j) + E(W), with W
recomputed from the copy's coordinates, all copies in one batch.

Torus trajectories are integrated in universal-cover coordinates so the
multivalued circulation potentials stay on one continuous branch; doubly
periodic quantities only ever see lattice-reduced differences, so cover
coordinates cost nothing.  A state built from cover coordinates describes the
same flow as those coordinates (see VortexState), and each emitted record is
that canonical state of the run at its time, so any record restarts the run.

Array layout: a configuration is a chart-id array and a complex coordinate
array, one entry per vortex.  Its pairs i < j are one int array, a
`surfaces.pair_selection` (row 0 i, last row j, on the sphere the chart form
between), the only way pair evaluations read charts.  `_Plan` owns it with the
strengths and surface constants, and holds the one velocity law, the energy
and the separation check; `integrate` builds it once per run, a one-shot call
once per call, and `_Plan.rechart` swaps in new pairs after a step that moved
a vortex to the other chart.  A velocity evaluation forms pair gradients only
(the torus Green gradient; the sphere's pole parts, its metric term and constant
factors applied per vortex), writes them at planned positions of the plan's
n x n matrix, and `_matvec` sums its rows against the plan's complex
strengths, one assembly for both surfaces.  The plan also builds its
surface's pair pass once: on the torus `green.TorusPass` (the pair values,
u' and |u'|, and every block's pair rows, buffers and views), which
`green.torus_gradient_matrix` runs block by block into the matrix; on the
sphere `surfaces.SpherePass` (the coordinate buffer with the chart form's 1
and -1, the gather and every pair-length buffer).  The velocity, energy and
separation all run in it, so an evaluation only runs its ufuncs, and the
energy forms the pair values only, never the gradients.  Each pass begins
with a reduction stage, the pair differences (on the torus the gather, u / j,
its centring and |u'|; on the sphere the gather and d), and skips it when
given the read-only array its buffers hold: an accepted state is made
read-only, so the collision check's stage serves the next step's first
velocity, and an RK4 step forms its pair differences 4 times, not 5.  A
velocity is always a fresh array: RK4 holds its four stages at once and RK45
keeps k1 across rejected trials.
The energy and the Hamiltonian route share one assembly, `_assemble_energy`,
which needs no plan, and recompute W from their coordinates, so the route
stays independent of the plan's flow and differences the energy the records
report; it builds no plan and no pass of its own.  The circulation
terms are called on every surface; `periods` makes them 0 on the sphere
(genus 0).  `integrate` has one record loop; a `METHODS` entry advances
between records and ends every accepted step in `_Trajectory.accept`: the
sphere chart rule of `canonical_coords`, the rechart, then the collision
check, which names the first closest pair in (i, j) order and hands back the
least separation and its pair, from which the run keeps its nearest approach;
on the torus it reads the pass's u' and |u'|, with the translate rule of
`surfaces.pair_distances`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .errors import CollisionError, StepRejectionError
from .green import (
    TorusPass,
    pair_values,
    robin_data,
    sphere_chords,
    sphere_gradient_terms,
    sphere_pair_values,
    sphere_point_terms,
    torus_gradient_matrix,
    torus_pair_values,
    torus_separations,
)
from .oracles import wirtinger_combine, wirtinger_stencil
from .periods import (
    circulation_energy,
    circulation_form,
    circulation_state,
    kelvin_coefficients,
)
from . import surfaces
from .surfaces import (
    SPHERE,
    SpherePass,
    Surface,
    SurfacePoint,
    canonical_coords,
    conformal_factor,
    operand,
    pair_distances,
    pair_indices,
    pair_selection,
    sphere_separations,
)
from .theta import theta_context

DEFAULT_COLLISION_THRESHOLD = 1e-3
# the least threshold: above the kernel's 1e-12 coincidence tolerance, with room
# for the sphere's arc against its chord, so the collision check fires first
MIN_COLLISION_THRESHOLD = 1e-10
_FD_STEP = 1e-5   # the Hamiltonian route's finite-difference step
_MINUS_2I, _SIXTEEN_PI = operand(-2j), operand(16.0 * math.pi)   # the velocity's scalars


@dataclass(frozen=True)
class VortexState:
    """Vortex positions, signed strengths, and the base circulations (a, b).

    `periods.circulation_state` checks the circulation data: base circulations
    of the genus's length and, on the torus only, strengths summing to zero.
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
        if not MIN_COLLISION_THRESHOLD <= self.collision_threshold < math.inf:   # NaN fails too
            raise ValueError(f"collision_threshold: must be finite and >= "
                             f"{MIN_COLLISION_THRESHOLD:g}, got {self.collision_threshold}")
        n = len(self.positions)
        if n < 2:
            raise ValueError("a vortex state needs at least two vortices")
        if len(self.strengths) != n:
            raise ValueError("positions and strengths must have equal length")
        if not all(map(math.isfinite, (*self.strengths, *self.base_a, *self.base_b))):
            raise ValueError("vortex strengths and base circulations must be finite")
        if any(g == 0.0 for g in self.strengths):
            raise ValueError("vortex strengths must all be nonzero")
        strengths = tuple(float(g) for g in self.strengths)
        charts, coords = _point_arrays(self.positions)
        circulation_state(self.surface, coords, strengths, self.base_a, self.base_b)
        charts, coords, base_a, base_b = _canonical(
            self.surface, charts, coords, np.array(strengths),
            tuple(self.base_a), tuple(self.base_b))
        object.__setattr__(self, "positions", _points(charts, coords))
        object.__setattr__(self, "strengths", strengths)
        object.__setattr__(self, "base_a", base_a)
        object.__setattr__(self, "base_b", base_b)
        sep = min_separation(self.surface, self.positions)
        if sep < self.collision_threshold:   # the run's rule (`_Plan.separation`)
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
    charts, coords = _point_arrays(positions)
    pairs = pair_selection(surface, charts, *pair_indices(len(coords)))
    return float(pair_distances(surface, coords, pairs, min_only=True).min())


# ---------------------------------------------------------------------------
# raw evaluation layer: coordinate arrays and a plan's pairs, no reduction


def _matvec(m: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """The flat n x n matrix m times weights, by einsum: a BLAS product would
    wake a thread pool from about n = 64 on, which costs more than the product."""
    n = len(weights)
    return np.einsum("ij,j->i", m.reshape(n, n), weights)


@lru_cache(maxsize=None)
def _robin(surface: Surface) -> float:
    """The surface's constant R = (h0 + log lambda) / 2 pi, taken at the origin."""
    origin = SurfacePoint(0, 0j)
    return (robin_data(surface, origin).h0
            + math.log(conformal_factor(surface, origin))) / (2.0 * math.pi)


def _assemble_energy(surface: Surface, strengths, value, weights, w):
    """H = (R sum Gamma^2 + 2 sum weights * value + E(W)) / 2, the pair sum
    over the last axis of pair values and weights (Gamma_i Gamma_j), one
    energy per W: the one assembly of the energy and of its differences.
    `value` is overwritten with the products."""
    robin = (strengths**2 * _robin(surface)).sum()
    pair_sum = np.multiply(weights, value, out=value).sum(axis=-1)
    return 0.5 * (robin + 2.0 * pair_sum + circulation_energy(surface, w))


@dataclass(frozen=True)
class _Plan:
    """A run's pairs (a `pair_selection` for the charts it was built or last
    recharted at), strengths and surface constants, with the velocity law,
    energy and separation check over them (see the module docstring).  On the
    torus lambda = 1 and du*/dz = conj(W) / (2 Im tau) is a constant of the
    motion (sum Gamma v = 0), taken at the coordinates the plan is built at.
    Built once with the plan: `weights`, the strengths as complex (a float
    operand would be cast over the whole matrix); `rest`, the sphere metric
    term's sum Gamma - Gamma_k; `pair_weights`, the energy's Gamma_i Gamma_j;
    `matrix`, the flat n x n gradient matrix (diagonal 0) with `flat` its
    pairs' positions; and `work`, the surface's pair pass (`green.TorusPass`
    or `surfaces.SpherePass`), whose buffers each evaluation reuses in place
    of allocating its own.  A rechart keeps all of these: the matrix and pass
    it shares with its parent have every entry an evaluation reads written
    first."""

    surface: Surface
    strengths: np.ndarray
    weights: np.ndarray
    rest: np.ndarray
    pair_weights: np.ndarray
    pairs: np.ndarray
    flat: np.ndarray
    matrix: np.ndarray
    work: TorusPass | SpherePass
    flow: np.ndarray             # du*/dz, a prepared operand (`surfaces.operand`)

    def rechart(self, charts: np.ndarray) -> _Plan:
        """This plan with the pairs' selection for new charts."""
        return replace(self, pairs=pair_selection(self.surface, charts,
                                                  self.pairs[0], self.pairs[-1]))

    def velocity(self, coords: np.ndarray) -> np.ndarray:
        """-2i conj(M Gamma + du*/dz) / lambda^2 at every vortex, with
        M_kj = dG(z_k, z_j)/dz_k in z_k's chart.  On the sphere 4 pi M_kj = h_k - P_kj
        (P the kernel's pole parts): 4 pi (M Gamma)_k = h_k (sum Gamma - Gamma_k) - (P Gamma)_k."""
        m = self.matrix
        if self.surface.kind == SPHERE:
            _, w, h = sphere_point_terms(coords)   # lambda = 2 / w
            _, m[self.flat[0]], m[self.flat[1]] = sphere_gradient_terms(
                coords, self.pairs, w, self.work)
            rows = h * self.rest - _matvec(m, self.weights)   # 4 pi M Gamma
            # 1 / lambda^2 with the 1 / 4 pi of rows
            scale = np.multiply(_MINUS_2I, np.divide(w * w, _SIXTEEN_PI))
        else:
            rows = _matvec(torus_gradient_matrix(coords, self.work, m), self.weights)
            rows += self.flow
            scale = _MINUS_2I
        return np.multiply(scale, np.conjugate(rows, out=rows), out=rows)

    def energy(self, coords, base_a, base_b) -> float:
        """The energy at `coords`, with W from `coords`, not from the plan; the
        pair values, and nothing of the gradients, come from the plan's pass."""
        if self.surface.kind == SPHERE:
            m, w, _ = sphere_point_terms(coords)
            num = sphere_chords(coords, self.pairs, w, self.work)
            value = sphere_pair_values(num, self.pairs, m, self.work)
        else:
            value = torus_pair_values(coords, self.work)
        w = circulation_state(self.surface, coords, self.strengths, base_a, base_b)
        return float(_assemble_energy(self.surface, self.strengths, value,
                                      self.pair_weights, w))

    def separation(self, coords, threshold: float, t: float) -> tuple[float, tuple[int, int]]:
        """Minimum separation over the pairs and the first closest pair in
        (i, j) order; raises CollisionError below `threshold`, naming that pair."""
        if self.surface.kind == SPHERE:
            d = sphere_separations(coords, self.pairs, self.work)
        else:
            d = torus_separations(coords, self.work)
        k = int(d.argmin())
        best, pair = float(d[k]), (int(self.pairs[0, k]), int(self.pairs[-1, k]))
        if best < threshold:
            raise CollisionError(t, pair, best)
        return best, pair


def _plan(surface: Surface, charts, coords, strengths, base_a, base_b) -> _Plan:
    strengths, n = np.asarray(strengths, dtype=float), len(strengths)
    pairs = pair_selection(surface, charts, *pair_indices(n))
    w = circulation_state(surface, coords, strengths, base_a, base_b)
    flat = pairs[[0, -1]] * n + pairs[[-1, 0]]
    if surface.kind == SPHERE:
        work = SpherePass(n, pairs.shape[1])
    else:
        work = TorusPass(theta_context(surface.tau), pairs, flat)
    return _Plan(surface, strengths, strengths.astype(complex), strengths.sum() - strengths,
                 strengths[pairs[0]] * strengths[pairs[-1]], pairs, flat,
                 np.zeros(n * n, dtype=complex), work, operand(circulation_form(surface, w)))


# ---------------------------------------------------------------------------
# public operations on states


def _unpack(state: VortexState):
    """(charts, coords, plan) of a state: one pair selection per call."""
    charts, coords = _point_arrays(state.positions)
    return charts, coords, _plan(state.surface, charts, coords, state.strengths,
                                 state.base_a, state.base_b)


def vortex_velocities(state: VortexState) -> np.ndarray:
    """Velocities dz_k/dt of all vortices (connection-based law, canonical charts)."""
    _, coords, plan = _unpack(state)
    return plan.velocity(coords)


def vortex_velocity(state: VortexState, k: int) -> complex:
    """Velocity dz_k/dt of vortex k (see `vortex_velocities`)."""
    return complex(vortex_velocities(state)[k])


def hamiltonian(state: VortexState) -> float:
    """Renormalized energy of the configuration."""
    _, coords, plan = _unpack(state)
    return plan.energy(coords, state.base_a, state.base_b)


def hamiltonian_velocities(state: VortexState) -> np.ndarray:
    """Velocities -2i dH/dzbar_k / (Gamma_k lambda_k^2) of all vortices, dH/dzbar_k
    by finite differences over the `oracles.wirtinger_stencil` (step _FD_STEP,
    one Richardson level).  Stencil copy (s, k) moves z_k by the s-th offset in
    z_k's chart and takes `_assemble_energy` of its pairs (k, j), j != k,
    and of W recomputed from its coordinates (see the module docstring).  The
    copies go to `pair_values` in chunks of whole copies, at most `surfaces.BLOCK`
    pairs each past one copy, which bounds the memory; no plan is built."""
    charts, coords = _point_arrays(state.positions)
    g, n = np.array(state.strengths), state.n
    moved = np.array(wirtinger_stencil(coords, _FD_STEP)).ravel()   # copy c = s n + k
    ext_coords = np.concatenate((coords, moved))
    ext_charts = np.tile(charts, len(ext_coords) // n)
    cols = np.arange(n - 1)
    others = cols + (cols >= np.arange(n)[:, None])   # row k: every j != k
    weights = g[:, None] * g[others]
    energies = np.empty(len(moved))
    step = max(1, surfaces.BLOCK // (n - 1))
    for c0 in range(0, len(moved), step):
        copies = np.arange(c0, min(c0 + step, len(moved)))
        k = copies % n
        pairs = pair_selection(state.surface, ext_charts,
                               np.repeat(n + copies, n - 1), others[k].ravel())
        value = pair_values(state.surface, ext_coords, pairs).reshape(len(copies), n - 1)
        configs = np.repeat(coords[None], len(copies), axis=0)
        configs[np.arange(len(copies)), k] = moved[copies]
        w = circulation_state(state.surface, configs, g, state.base_a, state.base_b)
        energies[copies] = _assemble_energy(state.surface, g, value, weights[k], w)
    lam2 = np.array([conformal_factor(state.surface, p) ** 2 for p in state.positions])
    dzbar = wirtinger_combine(energies.reshape(-1, n), _FD_STEP)[1]
    return -2j * dzbar / (g * lam2)


def hamiltonian_velocity(state: VortexState, k: int) -> complex:
    """Velocity of vortex k through the Hamiltonian, `hamiltonian_velocities`'s
    k-th: the differences of its pairs (k, j) and of the circulation energy of
    W, still recomputed from each stencil copy's coordinates."""
    return complex(hamiltonian_velocities(state)[k])


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
_STEP_TOL = 1e-12 + 1e-9   # largest accepted local error estimate, in any chart or cover


@dataclass
class _Trajectory:
    plan: _Plan                  # recharted only when a chart changes
    base_a: tuple[float, ...]
    base_b: tuple[float, ...]
    charts: np.ndarray
    coords: np.ndarray
    separation: float            # minimum separation at coords, for the next record
    threshold: float
    trial_dt: float              # rk45: the step controller's next trial step
    rejections: int = 0
    evaluations: int = 0         # velocity evaluations, counted per step
    accepted: int = 0
    handovers: int = 0           # vortices that changed chart, summed over steps
    nearest: tuple = (0.0, None, math.inf)   # (t, pair, separation) of the least so far

    def accept(self, coords: np.ndarray, t: float) -> None:
        """End an accepted step at time t: sphere vortices take the chart rule of
        `canonical_coords` (torus cover coordinates stay), the plan's pairs follow
        a chart change, then the collision check runs.  The accepted array is
        made read-only, so the check's pair stage is the next step's first
        velocity's too (`green.TorusPass`, `surfaces.SpherePass`)."""
        if self.plan.surface.kind == SPHERE:
            charts, coords, _, _ = canonical_coords(self.plan.surface, self.charts, coords)
            changed = charts is not self.charts and int((charts != self.charts).sum())
            if changed:
                self.handovers += changed
                self.charts, self.plan = charts, self.plan.rechart(charts)
        coords.flags.writeable = False
        self.coords = coords
        self.separation, pair = self.plan.separation(coords, self.threshold, t)
        if self.separation < self.nearest[2]:
            self.nearest = (t, pair, self.separation)
        self.accepted += 1

    def record(self, t: float) -> TrajectoryRecord:
        plan, g = self.plan, self.plan.strengths
        charts, coords, a, b = self.charts, self.coords, self.base_a, self.base_b
        if plan.surface.kind != SPHERE:   # wrap the torus cover; `accept` keeps the sphere canonical
            charts, coords, a, b = _canonical(plan.surface, charts, coords, g, a, b)
        h = plan.energy(coords, a, b)
        w = circulation_state(plan.surface, coords, g, a, b)   # not the plan's: independent
        return TrajectoryRecord(t, _points(charts, coords), h, a, b, self.separation,
                                kelvin_coefficients(plan.surface, w))


def _rk4_advance(traj: _Trajectory, i0: int, i1: int, dt: float) -> None:
    """Fixed steps i0 + 1 .. i1, each ending at t = i * dt; the stages are
    combined in place, as y0 + dt ((k1 + 2 k2) + 2 k3 + k4) / 6 in that order."""
    for i in range(i0 + 1, i1 + 1):
        velocity, y0 = traj.plan.velocity, traj.coords
        k1 = velocity(y0)
        k2 = velocity(y0 + 0.5 * dt * k1)
        k3 = velocity(y0 + 0.5 * dt * k2)
        k4 = velocity(y0 + dt * k3)
        traj.evaluations += 4
        k2 *= 2.0
        k2 += k1
        k3 *= 2.0
        k2 += k3
        k2 += k4
        k2 *= dt
        k2 /= 6.0
        k2 += y0
        traj.accept(k2, i * dt)


def _rkf45_advance(traj: _Trajectory, i0: int, i1: int, step: float) -> None:
    """Embedded 4(5) steps from i0 * step to i1 * step under step control,
    starting from and leaving the controller's trial step in traj.trial_dt.
    A rejected trial keeps k1: its state and charts are the next trial's."""
    t, t_end, dt = i0 * step, i1 * step, traj.trial_dt
    consecutive = 0
    k1 = None
    while t < t_end - 1e-15 * max(1.0, abs(t_end)):
        dt = min(dt, t_end - t)
        y0 = traj.coords
        if k1 is None:
            k1 = traj.plan.velocity(y0)
            traj.evaluations += 1
        ks = [k1]
        for i in range(1, 6):
            yi = y0.copy()
            for j, a in enumerate(_RKF_A[i]):
                yi += dt * a * ks[j]
            ks.append(traj.plan.velocity(yi))
        traj.evaluations += 5
        y1 = y0.copy()
        for i, b in enumerate(_RKF_B5):
            y1 += dt * b * ks[i]
        err = float(np.abs(sum(dt * c * k for c, k in zip(_RKF_ERR, ks))).max())
        if err <= _STEP_TOL:
            t += dt
            traj.accept(y1, t)
            consecutive, k1 = 0, None
        else:
            traj.rejections += 1
            consecutive += 1
            if consecutive > _MAX_REJECTS:
                raise StepRejectionError(
                    f"adaptive step rejected {consecutive} times in a row at t={t:.6g}"
                )
        factor = 0.9 * (_STEP_TOL / err) ** 0.2 if err > 0 else 5.0
        dt *= min(5.0, max(0.2, factor))
    traj.trial_dt = dt


# the integration methods by name; `config` validates against the same table
METHODS = {"rk4": _rk4_advance, "rk45-adaptive": _rkf45_advance}


def integrate(state: VortexState, dt: float, steps: int, method: str = "rk4",
              record_every: int = 1, stats_out: dict | None = None) -> list[TrajectoryRecord]:
    """Advance the state for `steps` steps of size `dt` under the velocity law.

    `method` names a METHODS entry: "rk4" (fixed step) or "rk45-adaptive"
    (embedded 4(5) pair with step control between record times, accepting a
    step when its error estimate is at most _STEP_TOL).  Records are
    emitted at t=0, every `record_every`-th step and at the end; each is the
    canonical state at its time (positions and compensated base circulations,
    so it restarts the run) with its energy, Kelvin coefficients and minimum
    separation.  After every accepted step each sphere vortex is in its chart
    with |z| <= 1 (up to a rounding at |z| = 1), and CollisionError is raised
    when two vortices come closer than the state's collision threshold;
    StepRejectionError if adaptive control stalls.
    `stats_out`, when given, receives the counts "step_rejections", "accepted_steps",
    "velocity_evaluations" and "chart_handovers" (sphere chart changes; 0 on the
    torus), the run's "nearest_approach" {"t", "pair", "separation"} (the first
    least separation over t = 0 and the accepted steps, from their collision
    checks) and, on either abort, the records made so far under "partial_records".
    """
    if not (math.isfinite(dt) and dt > 0):
        raise ValueError(f"dt: must be finite and positive, got {dt}")
    for name, count in (("steps", steps), ("record_every", record_every)):
        if isinstance(count, bool) or not isinstance(count, (int, np.integer)) or count < 1:
            raise ValueError(f"{name}: must be an integer >= 1, got {count!r}")
    steps, record_every = int(steps), int(record_every)
    if method not in METHODS:
        raise ValueError(f"method: unknown integration method {method!r}")
    charts, coords, plan = _unpack(state)
    sep, pair = plan.separation(coords, -math.inf, 0.0)
    traj = _Trajectory(plan, state.base_a, state.base_b, charts, coords, sep,
                       state.collision_threshold, dt, nearest=(0.0, pair, sep))
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
        t, pair, sep = traj.nearest
        stats.update(step_rejections=traj.rejections, accepted_steps=traj.accepted,
                     velocity_evaluations=traj.evaluations, chart_handovers=traj.handovers,
                     nearest_approach={"t": t, "pair": list(pair), "separation": sep})
    return records
