"""The traced run: per-layer costs, layer shares and tracing overhead.

Every number here comes from spans the benchmark records around its own calls
into one library module, on the workload's own states.  Batched probes time
many identical calls under one span and divide by the call count.

Layer shares use the call structure of one operation at this commit: an RK4
step makes four velocity evaluations and one separation check; a record makes
one Hamiltonian, one separation check and one circulation evaluation.  A torus
velocity evaluation calls `green()` for every ordered pair; the sphere velocity
law uses an inline closed form, so on the sphere only the Hamiltonian calls
`green()`.  Each `green()` call runs one `geodesic_distance` guard and, on the
torus, one `theta1` and one `theta1_dz`.  A layer's share is its modelled time
per operation over the measured (untraced) operation time; `dynamics` gets the
rest, which holds velocity assembly and the integrator's own arithmetic.  On
single-threaded code a faster layer saves at most its share.
"""
from __future__ import annotations

import statistics
import time

import numpy as np

from pointvortex import (
    Surface,
    geodesic_distance,
    green,
    hamiltonian,
    integrate,
    robin_data,
    vortex_velocity,
)
from pointvortex.cli import write_diagnostics, write_trajectory
from pointvortex.config import resolve_scenario
from pointvortex.dynamics import min_separation
from pointvortex.periods import build_basis, circulation_form, circulation_state
from pointvortex.theta import theta1, theta1_dz, theta_context
from pointvortex.verify import run_suite

from env import WORK
from hostspeed import Bracket
from states import min_sep_for, random_state
from spans import NullTracer, Tracer
from workloads import BUNDLED, N64_TAU

SWEEP_SIZES = (4, 16, 64, 256)
SWEEP_MAX_PAIRS = 4032     # all ordered pairs up to n = 64, a fixed subset at 256
MIN_PROBE_S = 0.05         # repeat a cheap probe until it covers this long
EVALS_PER_STEP = 4         # RK4
VERIFY_CHECKS = (
    "sphere_robin_closed_forms", "sphere_green_closed_form", "sphere_green_symmetry",
    "torus_green_symmetry", "sphere_green_normalization", "torus_green_vs_poisson",
    "period_relations", "period_matrix_spd", "conjugate_periods",
    "robin_transformation_laws", "bracket_chain_rules", "mobius_schwarzian",
    "single_vortex_self_term", "velocity_equivalence_sphere",
    "velocity_equivalence_torus", "energy_drift_short", "kelvin_drift_short",
)
LAYERS = ("theta", "green", "surfaces", "periods", "dynamics", "cli", "config", "verify")


def probe(tr: Tracer, name: str, fn, args_list, min_s: float = MIN_PROBE_S) -> float:
    """Seconds per call of `fn` over `args_list`, repeated to cover `min_s`."""
    calls = 0
    with tr.span(name) as rec:
        start = time.perf_counter()
        while True:
            for args in args_list:
                fn(*args)
            calls += len(args_list)
            if time.perf_counter() - start >= min_s:
                break
        rec[5] = calls
    return (time.perf_counter() - start) / calls


def _pairs(n: int, limit: int | None = None):
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    if limit is not None and len(pairs) > limit:
        pairs = pairs[:: len(pairs) // limit][:limit]
    return pairs


def _centered(tau: complex, u: complex) -> complex:
    t = u.imag / tau.imag
    s = u.real - t * tau.real
    s -= np.floor(s + 0.5)
    t -= np.floor(t + 0.5)
    return complex(s + t * tau.real, t * tau.imag)


def state_costs(tr: Tracer, st) -> dict:
    """Per-call costs (s) of each layer on one state."""
    surface, pts, n = st.surface, st.positions, st.n
    torus = surface.genus == 1
    ordered = [(surface, pts[i], pts[j]) for i, j in _pairs(n)]
    unordered = [a for a, (i, j) in zip(ordered, _pairs(n)) if i < j]
    basis = build_basis(surface)
    coords = [p.coord for p in pts]

    def circulation():
        circulation_form(basis, circulation_state(basis, coords, st.strengths,
                                                  st.base_a, st.base_b))

    c = {
        "n": n,
        "torus": torus,
        "separation": probe(tr, "dynamics.min_separation", min_separation, [(surface, pts)]),
        "geodesic": probe(tr, "surfaces.geodesic_distance", geodesic_distance, unordered),
        "pair": probe(tr, "green.green", green, ordered),
        "robin": probe(tr, "green.robin_data", robin_data, [(surface, p) for p in pts]),
        "circulation": probe(tr, "periods.circulation", circulation, [()]),
        "velocity": probe(tr, "dynamics.vortex_velocity", vortex_velocity, [(st, 0)]),
        "hamiltonian": probe(tr, "dynamics.hamiltonian", hamiltonian, [(st,)]),
        "theta": 0.0,
    }
    if torus:
        c.update(theta_costs(tr, st))
        c["theta"] = c["theta1"] + c["theta1_dz"]
    return c


def theta_costs(tr: Tracer, st) -> dict:
    tau = st.surface.tau
    ctx = tr.call("theta.theta_context", theta_context, tau)
    diffs = [(ctx, _centered(tau, st.positions[i].coord - st.positions[j].coord))
             for i, j in _pairs(st.n)]
    return {
        "theta1": probe(tr, "theta.theta1", theta1, diffs),
        "theta1_dz": probe(tr, "theta.theta1_dz", theta1_dz, diffs),
        "terms": ctx.n_terms,
    }


def layer_times(c: dict, steps: int, records: int) -> dict:
    """Modelled seconds per layer for one trajectory (see the module doc)."""
    n = c["n"]
    half = n * (n - 1) // 2
    evals = EVALS_PER_STEP * steps
    green_calls = records * half + (evals * 2 * half if c["torus"] else 0)
    return {
        "theta": green_calls * c["theta"],
        "surfaces": (steps + records) * c["separation"] + green_calls * c["geodesic"],
        "green": green_calls * (c["pair"] - c["theta"] - c["geodesic"])
        + (evals + records) * n * c["robin"],
        "periods": (evals + records) * c["circulation"],
    }


def write_costs(tr: Tracer, st) -> tuple[float, float, int]:
    """(seconds per record, bytes per record, records) of the trajectory and
    diagnostics writers, on a one-step trajectory of `st`."""
    recs = tr.call("dynamics.integrate", integrate, st, 1e-3, 1, method="rk4")
    traj, diag = WORK / "probe_traj.csv", WORK / "probe_diag.jsonl"

    def write():
        write_trajectory(traj, recs, st.surface.genus)
        write_diagnostics(diag, recs, {"step_rejections": 0}, "ok")

    per_call = probe(tr, "cli.write", write, [()])
    size = traj.stat().st_size + diag.stat().st_size
    traj.unlink()
    diag.unlink()
    return per_call / len(recs), size / len(recs), len(recs)


def sweep(tr: Tracer, seed: int) -> dict:
    out = {}
    for kind, surface in (("torus", Surface.flat_torus(N64_TAU)), ("sphere", Surface.sphere())):
        for n in SWEEP_SIZES:
            tr.op += 1
            with tr.span(f"sweep.{kind}.n{n}"):
                st = tr.call("states.random_state", random_state, surface, n,
                             min_sep_for(surface, n), seed + n)
                out[f"dynamics.velocity_ms.{kind}.n{n}"] = 1e3 * probe(
                    tr, "dynamics.vortex_velocity", vortex_velocity, [(st, 0)])
                pts = st.positions
                out[f"green.pair_us.{kind}.n{n}"] = 1e6 * probe(
                    tr, "green.green", green,
                    [(surface, pts[i], pts[j]) for i, j in _pairs(n, SWEEP_MAX_PAIRS)])
    return out


def traced_run(w, seed: int, seconds: float, norm_const_s: float) -> tuple[dict, Tracer, list, list]:
    """Traced run of workload `w`; returns (metrics, tracer, untraced ops, traced ops)."""
    tr = Tracer()
    w.setup(seed, tr)
    untraced, traced = [], []
    bracket = Bracket()

    def traced_op():
        tr.op += 1
        with tr.span(f"op.{w.name}"):
            op = w.operate(tr, WORK)
        traced.append(bracket.after(op))

    # pairs alternate which side runs first, so order effects cancel
    deadline = time.perf_counter() + seconds / 2
    while not untraced or time.perf_counter() < deadline:
        if len(untraced) % 2:
            traced_op()
        untraced.append(bracket.after(w.operate(NullTracer(), WORK)))
        if len(untraced) % 2:
            traced_op()

    m = {"trace.overhead": statistics.median(o.nominal_wall for o in traced)
         / statistics.median(o.nominal_wall for o in untraced)}
    op_s = statistics.median(o.wall for o in untraced)

    # per-call costs on every trajectory of one operation
    tr.op += 1
    costs = {}
    totals = dict.fromkeys(LAYERS, 0.0)
    for item in w.items():
        key = id(item.state)
        if key not in costs:
            with tr.span("probe.state"):
                costs[key] = state_costs(tr, item.state)
        for layer, secs in layer_times(costs[key], item.steps, item.records).items():
            totals[layer] += secs

    primary = w.primary()
    c = costs[id(primary)]
    if not c["torus"]:  # theta probes run on the torus_n64 state of the same seed
        with tr.span("probe.companion_torus"):
            companion = tr.call("states.random_state", random_state,
                                Surface.flat_torus(N64_TAU), 64,
                                min_sep_for(Surface.flat_torus(N64_TAU), 64), seed)
            c = dict(c, **theta_costs(tr, companion))
    n = c["n"]
    write_s, write_bytes, _ = write_costs(tr, primary)
    resolve_s = probe(tr, "config.resolve_scenario", resolve_scenario, [(s,) for s in BUNDLED])

    pair_part = n * (n - 1) * c["pair"] if c["torus"] else 0.0
    m.update({
        "theta.theta1_us": 1e6 * c["theta1"],
        "theta.theta1_dz_us": 1e6 * c["theta1_dz"],
        "theta.terms": c["terms"],
        "theta.norm_const_s": norm_const_s,
        "green.pair_us": 1e6 * c["pair"],
        "green.robin_us": 1e6 * c["robin"],
        "green.pairs": n * (n - 1),
        "surfaces.geodesic_us": 1e6 * c["geodesic"],
        "surfaces.separation_ms": 1e3 * c["separation"],
        "periods.circulation_us": 1e6 * c["circulation"],
        "dynamics.velocity_ms": 1e3 * c["velocity"],
        "dynamics.hamiltonian_ms": 1e3 * c["hamiltonian"],
        "dynamics.assembly_self_ms": 1e3 * (c["velocity"] - c["separation"] - pair_part
                                            - n * c["robin"] - c["circulation"]),
        "dynamics.evals_per_step": EVALS_PER_STEP,
        "cli.write_us_per_record": 1e6 * write_s,
        "cli.bytes_per_record": write_bytes,
        "config.resolve_ms": 1e3 * resolve_s,
    })
    m.update(sweep(tr, seed))

    # verify checks: the workload's own traced suites, else one suite call
    if w.name == "verify":
        suites = [o.suite_checks for o in traced]
    else:
        tr.op += 1
        results = tr.call("verify.run_suite", run_suite, "full", seed)
        suites = [{r.name: r.elapsed for r in results}]
    for name in VERIFY_CHECKS:
        m[f"verify.{name}_s"] = statistics.median(s[name] for s in suites)

    # layer shares of one operation
    if w.name == "bundled":
        totals["config"] = len(BUNDLED) * resolve_s
    if w.name == "verify":  # the suite outside its two trajectory checks
        totals["verify"] = op_s - statistics.median(o.step_time for o in untraced)
    else:
        totals["cli"] = sum(i.records for i in w.items()) * write_s
    totals["dynamics"] = op_s - sum(v for k, v in totals.items() if k != "dynamics")
    for layer in LAYERS:
        m[f"share.{layer}"] = totals[layer] / op_s

    first = untraced[0]
    m["accuracy.energy_drift"] = first.energy_drift
    m["accuracy.residual_ratio_max"] = first.residual_ratio
    return m, tr, untraced, traced
