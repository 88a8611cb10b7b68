"""pointvortex benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

With `--trace 0` it times closed-loop operations for S seconds and reports the
end-to-end metrics; with `--trace 1` it runs the traced run and reports the
per-layer metrics.  Every operation passes through the correctness gates.
End-to-end times are at nominal host speed (see hostspeed.py); the raw
wall-clock medians are printed next to them.
Human-readable lines come first; the last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.  Per-run detail
(machine, every operation's wall and CPU time, spans) goes to .perfbench_out/.
"""
from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import env
from hostspeed import Bracket, slowdown
from spans import NullTracer

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 5
PROBE_TIMEOUT_S = 120

END_TO_END = {
    "ms_per_step": "ms",
    "suite_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> dict[str, str]:
    from layers import LAYERS, SWEEP_SIZES, VERIFY_CHECKS

    units = {
        "theta.theta1_us": "us", "theta.theta1_dz_us": "us", "theta.terms": "count",
        "theta.norm_const_s": "s",
        "green.pair_us": "us", "green.robin_us": "us", "green.pairs": "count",
        "surfaces.geodesic_us": "us", "surfaces.separation_ms": "ms",
        "periods.circulation_us": "us",
        "dynamics.velocity_ms": "ms", "dynamics.hamiltonian_ms": "ms",
        "dynamics.assembly_self_ms": "ms", "dynamics.evals_per_step": "count",
    }
    for kind in ("torus", "sphere"):
        for n in SWEEP_SIZES:
            units[f"dynamics.velocity_ms.{kind}.n{n}"] = "ms"
            units[f"green.pair_us.{kind}.n{n}"] = "us"
    units.update({"cli.write_us_per_record": "us", "cli.bytes_per_record": "B",
                  "config.resolve_ms": "ms"})
    units.update({f"verify.{c}_s": "s" for c in VERIFY_CHECKS})
    units.update({f"share.{layer}": "ratio" for layer in LAYERS})
    units.update({"trace.overhead": "ratio", "accuracy.energy_drift": "ratio",
                  "accuracy.residual_ratio_max": "ratio"})
    return units


def probe_subprocess(workload: str, seed: int, mode: str) -> dict:
    """One fresh-interpreter measurement from setup_probe.py: seconds, and the
    reference slice time measured right after it."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), "--workload", workload,
         "--seed", str(seed), "--mode", mode],
        cwd=env.ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe failed ({proc.returncode}): {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def closed_loop(w, seconds: float) -> list:
    """Operations back to back until the next one would end past `seconds`."""
    ops = []
    bracket = Bracket()
    deadline = time.perf_counter() + seconds
    while True:
        ops.append(bracket.after(w.operate(NullTracer(), env.WORK)))
        typical = statistics.median(o.wall for o in ops)
        if time.perf_counter() + typical > deadline:
            return ops


def step_ms(ops) -> float:
    return statistics.median(o.nominal_ms_per_step for o in ops)


def spread(values, raw) -> str:
    return (f"n={len(values)} min={min(values):.6g} max={max(values):.6g}; "
            f"raw wall-clock median {statistics.median(raw):.6g}")


def untraced(w, seed: int, seconds: float) -> tuple[dict, list, dict]:
    probes = [probe_subprocess(w.name, seed, "setup") for _ in range(SETUP_SAMPLES)]
    setups = [p["seconds"] / slowdown(p["reference"]) for p in probes]
    w.setup(seed, NullTracer())
    ops = closed_loop(w, seconds)
    walls = [o.nominal_wall for o in ops]
    metrics = {
        "ms_per_step": step_ms(ops),
        "suite_s": statistics.median(walls),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {
        "ms_per_step": spread([o.nominal_ms_per_step for o in ops],
                              [1e3 * o.step_time / o.steps for o in ops]),
        "suite_s": spread(walls, [o.wall for o in ops]),
        "setup_s": spread(setups, [p["seconds"] for p in probes]),
        "peak_rss_mb": "ru_maxrss of this process",
    }
    return metrics, ops, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        env.require_source()
    except env.MissingSource as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    env.WORK.mkdir(exist_ok=True)
    w = WORKLOADS[args.workload]()
    info = env.machine_info(args.seed)
    tag = f"{w.name}-seed{args.seed}-trace{args.trace}"

    if args.trace:
        from layers import traced_run

        norm = probe_subprocess(w.name, args.seed, "norm")["seconds"]
        metrics, tracer, ops, traced_ops = traced_run(w, args.seed, args.seconds, norm)
        units = per_layer_units()
        notes = {"trace.overhead": (f"traced/untraced operation time; ms_per_step "
                                    f"{step_ms(traced_ops):.6g} traced vs "
                                    f"{step_ms(ops):.6g} untraced")}
        tracer.write(env.WORK / f"spans-{tag}.jsonl")
        ops = ops + traced_ops
        info["self_time_s"] = tracer.self_times()
    else:
        metrics, ops, notes = untraced(w, args.seed, args.seconds)
        units = END_TO_END
    if set(metrics) != set(units):
        raise RuntimeError(f"metric set mismatch: {sorted(set(metrics) ^ set(units))}")

    failed = [o for o in ops if o.failures]
    print(f"# perfbench {w.name}: {w.why}")
    print("# machine " + json.dumps({k: v for k, v in info.items() if k != "self_time_s"}))
    for name, unit in units.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name} = {metrics[name]!r} {unit}{note}")
    cpu_ratio = statistics.median(o.cpu / o.wall for o in ops)
    print(f"# operations: {len(ops)} attempted, {len(failed)} failed, "
          f"fail_ratio = {len(failed) / len(ops)!r}; median cpu/wall = {cpu_ratio:.4f}; "
          f"host slowdown median {statistics.median(o.slowdown for o in ops):.4f} "
          f"(min {min(o.slowdown for o in ops):.4f}, max {max(o.slowdown for o in ops):.4f})")
    if not args.trace:
        print(f"# accuracy: energy_drift = {max(o.energy_drift for o in ops)!r}, "
              f"residual_ratio_max = {max(o.residual_ratio for o in ops)!r}")
    for o in failed[:5]:
        print("# FAILED: " + "; ".join(o.failures))

    with open(env.WORK / f"result-{tag}.json", "w") as fh:
        json.dump({"workload": w.name, "machine": info, "metrics": metrics,
                   "ops": [{"wall_s": o.wall, "cpu_s": o.cpu, "steps": o.steps,
                            "step_s": o.step_time, "slowdown": o.slowdown,
                            "failures": o.failures} for o in ops]}, fh, indent=1)
    print(json.dumps({
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
