"""Self-tests of the benchmark: every correctness gate can fail, and the
state sampler raises instead of hanging.

    python3 perfbench/selftest.py
    python3 -m pytest perfbench/selftest.py
"""
from __future__ import annotations

import json
import sys
import time
from dataclasses import replace

import env  # noqa: F401  (pins threads and puts src/ on sys.path)
import numpy as np
from pointvortex import Surface, vortex_velocity
from pointvortex.dynamics import min_separation
from pointvortex.verify import run_suite

import run
from states import SamplerError, min_sep_for, sample_positions
from spans import NullTracer
from workloads import N64_TAU, Op, TorusN64, TrajectoryGates, suite_op

TORUS = Surface.flat_torus(N64_TAU)


class SmallTorus(TorusN64):
    n = 6


def _first_op():
    w = SmallTorus()
    w.setup(3, NullTracer())
    env.WORK.mkdir(exist_ok=True)
    op = w.operate(NullTracer(), env.WORK)
    assert not op.failures, op.failures
    return w, w.gates.reference


def test_sampler_raises_on_impossible_density():
    start = time.perf_counter()
    try:
        sample_positions(TORUS, 64, 0.5, np.random.default_rng(0))
    except SamplerError:
        pass
    else:
        raise AssertionError("64 discs of diameter 0.5 cannot fit on the unit torus")
    assert time.perf_counter() - start < 10.0


def test_sampler_reaches_benchmark_densities():
    for surface in (TORUS, Surface.sphere()):
        for n in (64, 256):
            for seed in range(3):
                pts = sample_positions(surface, n, min_sep_for(surface, n),
                                       np.random.default_rng(seed))
                assert len(pts) == n


def test_repeated_operation_passes_and_matches():
    w, _ = _first_op()
    op = w.operate(NullTracer(), env.WORK)
    assert not op.failures, op.failures


def test_corrupted_csv_byte_fails():
    w, csv = _first_op()
    last = csv.rstrip("\n").rsplit("\n", 1)[1]
    pos = csv.rindex(last) + last.index(".") + 3  # a digit of the last record's z1_re
    bad = csv[:pos] + ("1" if csv[pos] != "1" else "2") + csv[pos + 1:]
    op = Op(1.0, 1.0, 1, 1.0)
    w.gates.check("corrupt", bad, op)
    assert any("CSV differs" in f for f in op.failures), op.failures


def test_perturbed_velocity_fails():
    w, csv = _first_op()
    gates = TrajectoryGates(w.state, range(w.n),
                            direct=lambda s, k: vortex_velocity(s, k) * (1.0 + 1e-5))
    op = Op(1.0, 1.0, 1, 1.0)
    gates.check("perturbed", csv, op)
    assert any("velocity residual" in f for f in op.failures), op.failures


def test_energy_drift_fails():
    w, csv = _first_op()
    rows = csv.rstrip("\n").split("\n")
    cells = rows[-1].split(",")
    h = 1 + 3 * w.n
    cells[h] = repr(float(cells[h].removeprefix("np.float64(").rstrip(")")) + 1e-3)
    bad = "\n".join(rows[:-1] + [",".join(cells)]) + "\n"
    gates = TrajectoryGates(w.state, range(w.n))
    op = Op(1.0, 1.0, 1, 1.0)
    gates.check("drift", bad, op)
    assert any("energy drift" in f for f in op.failures), op.failures


def test_collision_fails():
    # on seed 2 the closest pair approaches by about 3e-4 per step, so a
    # threshold 1e-4 below the initial separation is crossed at once
    w = SmallTorus()
    w.setup(2, NullTracer())
    sep = min_separation(w.state.surface, w.state.positions)
    w.state = replace(w.state, collision_threshold=sep - 1e-4)
    op = w.operate(NullTracer(), env.WORK)
    assert op.failures == ["torus_n64: collision"], op.failures


def test_failed_verify_check_fails():
    results = run_suite("quick", 7, overrides={"mobius_schwarzian": 1e-300})
    op = suite_op(results, 1.0, 1.0)
    assert [f.split(":")[0] for f in op.failures] == ["mobius_schwarzian"]
    assert not suite_op(run_suite("quick", 7), 1.0, 1.0).failures


def test_benchmark_json_matches_reported_metrics():
    spec = json.loads((env.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()


if __name__ == "__main__":
    tests = [(k, v) for k, v in sorted(globals().items()) if k.startswith("test_")]
    failures = 0
    for name, fn in tests:
        try:
            fn()
            print(f"PASS {name}")
        except Exception as exc:  # report every test, then exit non-zero
            failures += 1
            print(f"FAIL {name}: {exc!r}")
    sys.exit(1 if failures else 0)
