"""The four workloads and the correctness gates their operations must pass.

Each workload runs a closed loop from one thread: the next operation starts
when the previous one has finished.  An operation is timed as a whole (wall
and process CPU time); its gates run afterwards, outside the timed region,
and an operation that fails any gate counts as failed.

Why these four: `bundled` is the small-n regime where per-call overhead,
records, CSV output and config parsing show; `torus_n64` is dominated by the
theta/Green pair kernel; `sphere_n64` uses neither theta nor periods, so a
torus-only change must leave it unchanged, and its separation check costs more
than its velocity law; `verify` is the only user of the oracles and of the
finite-difference Hamiltonian route at scale.
"""
from __future__ import annotations

import io
import math
import tempfile
import time
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from pointvortex import (
    CollisionError,
    Surface,
    SurfacePoint,
    VortexState,
    hamiltonian,
    hamiltonian_velocity,
    integrate,
    vortex_velocity,
)
from pointvortex.cli import run_one, write_diagnostics, write_trajectory
from pointvortex.config import resolve_scenario
from pointvortex.verify import run_suite

from states import min_sep_for, random_state
from spans import NullTracer

BUNDLED = ("torus_four_vortex", "torus_pair_translate", "sphere_antipodal_pair")
N64_TAU = 0.5 + 1j
VERIFY_MODULI = (1j, 0.5 + 1j, 2j)
# RK4 steps of the two trajectory checks in run_suite("full"): energy_drift_short
# runs 2000, kelvin_drift_short 500; both integrate torus_four_vortex's state.
VERIFY_TRAJECTORY_CHECKS = {"energy_drift_short": 2000, "kelvin_drift_short": 500}

VELOCITY_TOL = 1e-6        # verify_scenario's default velocity_equivalence tolerance
ENERGY_TOL = 1e-6          # max |H(t) - H(0)| / (sum Gamma^2 / 4 pi) over a run's records


@dataclass
class Op:
    """One timed operation and the verdict of its gates."""

    wall: float
    cpu: float
    steps: int
    step_time: float          # seconds of the operation spent integrating
    failures: list[str] = field(default_factory=list)
    slowdown: float = 1.0     # host slowdown around the operation (hostspeed.py)
    energy_drift: float = 0.0
    residual_ratio: float = 0.0
    suite_checks: dict = field(default_factory=dict)

    @property
    def nominal_wall(self) -> float:
        return self.wall / self.slowdown

    @property
    def nominal_ms_per_step(self) -> float:
        return 1e3 * self.step_time / self.slowdown / self.steps


@dataclass(frozen=True)
class Item:
    """A trajectory inside an operation: the unit the layer-share model counts."""

    state: VortexState
    steps: int
    records: int


# ---------------------------------------------------------------------------
# gates


def _num(cell: str) -> float:
    # the writer uses repr(), which prints numpy scalars as "np.float64(x)"
    if cell.startswith("np.float64("):
        cell = cell[len("np.float64("):-1]
    return float(cell)


def parse_csv(text: str, n: int) -> tuple[list[float], list[SurfacePoint]]:
    """H column of every record and the positions of the last record."""
    rows = text.rstrip("\n").split("\n")[1:]
    energies = [_num(r.split(",")[1 + 3 * n]) for r in rows]
    last = rows[-1].split(",")
    pts = [
        SurfacePoint(int(last[3 * i + 3]), complex(_num(last[3 * i + 1]), _num(last[3 * i + 2])))
        for i in range(n)
    ]
    return energies, pts


def energy_drift(energies, strengths) -> float:
    scale = sum(g * g for g in strengths) / (4.0 * math.pi)
    return max(abs(h - energies[0]) for h in energies) / scale


def velocity_residual_ratio(state: VortexState, indices, direct=vortex_velocity,
                            tr=NullTracer()) -> float:
    """Worst |direct - Hamiltonian route| over `indices`, normalized as
    verify_scenario does by the largest direct speed (here over `indices`),
    divided by VELOCITY_TOL.  A value >= 1 fails."""
    d = {k: tr.call("dynamics.vortex_velocity", direct, state, k) for k in indices}
    scale = max(max(abs(v) for v in d.values()), 1e-4)
    worst = max(abs(d[k] - tr.call("dynamics.hamiltonian_velocity", hamiltonian_velocity,
                                    state, k)) / scale for k in indices)
    return float(worst) / VELOCITY_TOL


class TrajectoryGates:
    """Gates of one trajectory CSV: no collision, bytes identical to the first
    operation's, bounded energy drift, and velocity-law agreement on the final
    state.  The last check is cached per CSV, since identical bytes mean an
    identical final state."""

    def __init__(self, state: VortexState, indices, direct=vortex_velocity):
        self.state = state
        self.indices = tuple(indices)
        self.direct = direct
        self.reference: str | None = None
        self._ratio: dict[str, float] = {}

    def check(self, label: str, csv: str | None, op: Op, tr=NullTracer()) -> None:
        if csv is None:
            op.failures.append(f"{label}: collision")
            return
        if self.reference is None:
            self.reference = csv
        elif csv != self.reference:
            op.failures.append(f"{label}: CSV differs from the first operation's")
        energies, pts = parse_csv(csv, self.state.n)
        drift = energy_drift(energies, self.state.strengths)
        op.energy_drift = max(op.energy_drift, drift)
        if not drift <= ENERGY_TOL:
            op.failures.append(f"{label}: energy drift {drift:.3e} > {ENERGY_TOL:g}")
        if csv not in self._ratio:
            s = self.state
            final = tr.call("dynamics.VortexState", VortexState, s.surface, tuple(pts),
                            s.strengths, s.base_a, s.base_b, s.collision_threshold)
            self._ratio[csv] = velocity_residual_ratio(final, self.indices, self.direct, tr)
        ratio = self._ratio[csv]
        op.residual_ratio = max(op.residual_ratio, ratio)
        if not ratio < 1.0:
            op.failures.append(f"{label}: velocity residual {ratio:.3g} x tolerance")


def suite_op(results, wall: float, cpu: float) -> Op:
    """Operation record of one run_suite call: it fails if any check fails.
    kelvin_drift_short is left out of the residual ratio because it equals its
    input by construction."""
    checks = {r.name: r for r in results}
    op = Op(wall, cpu, sum(VERIFY_TRAJECTORY_CHECKS.values()),
            sum(checks[c].elapsed for c in VERIFY_TRAJECTORY_CHECKS))
    op.suite_checks = {r.name: r.elapsed for r in results}
    op.failures = [f"{r.name}: residual {r.residual:.3e} >= {r.tolerance:g}"
                   for r in results if not r.passed]
    op.residual_ratio = max(r.residual / r.tolerance for r in results
                            if r.name != "kelvin_drift_short")
    op.energy_drift = checks["energy_drift_short"].residual
    return op


# ---------------------------------------------------------------------------
# workloads


def _warm(state: VortexState, tr) -> None:
    """One velocity and one Hamiltonian evaluation: fills the per-modulus
    theta, normalization and period-basis caches."""
    tr.call("dynamics.vortex_velocity", vortex_velocity, state, 0)
    tr.call("dynamics.hamiltonian", hamiltonian, state)


def _timed(fn):
    c0 = time.process_time()
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0, time.process_time() - c0


class Workload:
    name = ""
    why = ""
    moduli: tuple = ()

    def setup(self, seed: int, tr) -> None:
        raise NotImplementedError

    def operate(self, tr, workdir: Path) -> Op:
        raise NotImplementedError

    def items(self) -> list[Item]:
        """Trajectories one operation integrates (for the layer-share model)."""
        raise NotImplementedError

    def primary(self) -> VortexState:
        """The state whose per-call layer costs the traced run reports."""
        return self.items()[0].state


class Bundled(Workload):
    name = "bundled"
    why = "the three bundled scenarios through cli.run_one, n=2-4: per-call overhead, records, CSV and config parsing"
    moduli = (1j,)

    def setup(self, seed, tr):
        rng = np.random.default_rng(seed)
        self.order = [BUNDLED[i] for i in rng.permutation(len(BUNDLED))]
        self.cfgs, self.states, self.gates = {}, {}, {}
        for name in self.order:
            cfg = tr.call("config.resolve_scenario", resolve_scenario, name)
            st = tr.call("config.state", cfg.state)
            _warm(st, tr)
            self.cfgs[name], self.states[name] = cfg, st
            self.gates[name] = TrajectoryGates(st, range(st.n))

    def operate(self, tr, workdir):
        steps = sum(c.integrator.steps for c in self.cfgs.values())
        with tempfile.TemporaryDirectory(dir=workdir) as tmp:
            out = Path(tmp)

            def body():
                codes = {}
                with redirect_stdout(io.StringIO()):
                    for name in self.order:
                        cfg = tr.call("config.resolve_scenario", resolve_scenario, name)
                        codes[name] = tr.call("cli.run_one", run_one, cfg, out)
                return codes

            codes, wall, cpu = _timed(body)
            op = Op(wall, cpu, steps, wall)
            for name, code in codes.items():
                csv_path = out / self.cfgs[name].trajectory_path
                if code != 0:
                    op.failures.append(f"{name}: run_one exit code {code}")
                    continue
                self.gates[name].check(name, csv_path.read_text(), op, tr)
        return op

    def items(self):
        out = []
        for name in BUNDLED:  # torus_four_vortex first: it dominates the pass
            spec = self.cfgs[name].integrator
            records = spec.steps // spec.record_every + 1 + (spec.steps % spec.record_every > 0)
            out.append(Item(self.states[name], spec.steps, records))
        return out


class Trajectory64(Workload):
    """n = 64 seeded state, RK4, records only at both ends."""

    surface: Surface
    n = 64
    dt = 1e-3
    steps = 5

    def setup(self, seed, tr):
        n = self.n
        self.state = tr.call("states.random_state", random_state, self.surface, n,
                             min_sep_for(self.surface, n), seed)
        _warm(self.state, tr)
        self.gates = TrajectoryGates(self.state, (0, n // 2, n - 1))

    def operate(self, tr, workdir):
        with tempfile.TemporaryDirectory(dir=workdir) as tmp:
            traj, diag = Path(tmp) / "traj.csv", Path(tmp) / "diag.jsonl"

            def body():
                stats: dict = {}
                try:
                    recs = tr.call("dynamics.integrate", integrate, self.state, self.dt,
                                   self.steps, method="rk4", record_every=self.steps,
                                   stats_out=stats)
                except CollisionError:
                    return False
                tr.call("cli.write_trajectory", write_trajectory, traj, recs,
                        self.state.surface.genus)
                tr.call("cli.write_diagnostics", write_diagnostics, diag, recs, stats, "ok")
                return True

            ok, wall, cpu = _timed(body)
            op = Op(wall, cpu, self.steps, wall)
            self.gates.check(self.name, traj.read_text() if ok else None, op, tr)
        return op

    def items(self):
        return [Item(self.state, self.steps, 2)]


class TorusN64(Trajectory64):
    name = "torus_n64"
    why = "64 vortices on tau=0.5+1i: the theta/Green pair kernel does most of the work"
    moduli = (N64_TAU,)
    surface = Surface.flat_torus(N64_TAU)


class SphereN64(Trajectory64):
    name = "sphere_n64"
    why = "64 vortices over both sphere charts: no theta or periods, separation check costs more than the velocity law"
    surface = Surface.sphere()
    dt = 2e-3
    steps = 40


class Verify(Workload):
    name = "verify"
    why = "run_suite('full', seed): the only user of the oracles and of the finite-difference Hamiltonian route"
    moduli = VERIFY_MODULI

    def setup(self, seed, tr):
        self.seed = seed
        for k, tau in enumerate(VERIFY_MODULI):
            surface = Surface.flat_torus(tau)
            st = tr.call("states.random_state", random_state, surface, 4,
                         min_sep_for(surface, 4), seed + k)
            _warm(st, tr)
        # the state both trajectory checks of the suite integrate
        self.four = tr.call("config.state", resolve_scenario("torus_four_vortex").state)

    def operate(self, tr, workdir):
        results, wall, cpu = _timed(
            lambda: tr.call("verify.run_suite", run_suite, "full", self.seed))
        return suite_op(results, wall, cpu)

    def items(self):
        return [Item(self.four, steps, steps // max(1, steps // 20) + 1)
                for steps in VERIFY_TRAJECTORY_CHECKS.values()]


WORKLOADS = {w.name: w for w in (Bundled, TorusN64, SphereN64, Verify)}
