"""Acceptance criteria, one test per criterion.

Each test measures its residuals against the pinned tolerance, prints one
PASS/FAIL line, and enforces its runtime budget.  Tolerances are fixed here,
not tuned at runtime.
"""
import math
import subprocess
import sys
import time

import numpy as np

from pointvortex.dynamics import (
    VortexState,
    hamiltonian_velocity,
    integrate,
    vortex_velocity,
)
from pointvortex.green import green, robin_data, torus_pair_terms
from pointvortex.oracles import (
    delta_probe_points,
    min_image_distance_grid,
    mollified_delta,
    torus_grid,
    torus_poisson_oracle,
)
from pointvortex.surfaces import Surface, SurfacePoint
from pointvortex.verify import (
    conjugate_period_residual,
    random_state,
    sphere_green_normalization,
)

from reference import dlog_lambda_dzbar, period_matrix

SPHERE = Surface.sphere()


def report(number: int, label: str, ok: bool, detail: str, elapsed: float) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"{status} criterion {number}: {label} ({detail}; {elapsed:.1f}s)")


def test_criterion_1_sphere_closed_forms(rng):
    start = time.perf_counter()
    worst_robin = 0.0
    for p in delta_probe_points(SPHERE, rng, 200):
        a = p.coord
        m2 = abs(a) ** 2
        d = robin_data(SPHERE, p)
        worst_robin = max(
            worst_robin,
            abs(d.h0 - (math.log(1.0 + m2) - 0.5)),
            abs(d.h1 - a.conjugate() / (1.0 + m2)),
            abs(d.h2 + a.conjugate() ** 2 / (2.0 * (1.0 + m2) ** 2)),
            abs(d.h11 - 1.0 / (2.0 * (1.0 + m2) ** 2)),
        )

    worst_green = 0.0
    worst_sym = 0.0
    pts = delta_probe_points(SPHERE, rng, 400)
    for i in range(200):
        p, q = pts[2 * i], pts[2 * i + 1]
        if p.chart_id == q.chart_id and abs(p.coord - q.coord) < 1e-3:
            continue
        ev = green(SPHERE, p, q).value
        worst_sym = max(worst_sym, abs(ev - green(SPHERE, q, p).value))
        if p.chart_id == q.chart_id:
            z, a = p.coord, q.coord
            closed = -(
                math.log(abs(z - a) ** 2 / ((1 + abs(z) ** 2) * (1 + abs(a) ** 2)))
                + 1.0
            ) / (4.0 * math.pi)
            worst_green = max(worst_green, abs(ev - closed))

    worst_norm = sphere_green_normalization(
        (SurfacePoint(0, 0.4 + 0.3j), SurfacePoint(1, -0.2 + 0.6j)))

    elapsed = time.perf_counter() - start
    ok = worst_robin < 1e-12 and worst_green < 1e-13 and worst_sym < 1e-12 \
        and worst_norm < 1e-6 and elapsed < 5.0
    report(1, "sphere closed forms", ok,
           f"robin {worst_robin:.1e}, green {worst_green:.1e}, "
           f"symmetry {worst_sym:.1e}, normalization {worst_norm:.1e}", elapsed)
    assert worst_robin < 1e-12
    assert worst_green < 1e-13
    assert worst_sym < 1e-12
    assert worst_norm < 1e-6
    assert elapsed < 5.0


def test_criterion_2_torus_green_against_spectral_oracle():
    start = time.perf_counter()
    worst = 0.0
    for tau in (1j, 0.5 + 1j, 2j):
        n = 256
        pole = 0.31 + 0.47 * tau
        source = mollified_delta(tau, n, pole, sigma_cells=2.0)
        solved = torus_poisson_oracle(tau, n, source)
        exact = torus_pair_terms(tau, torus_grid(tau, n) - pole)[0]
        mask = min_image_distance_grid(tau, n, pole) > 12.0 * max(1.0, abs(tau)) / n
        diff = solved[mask] - exact[mask]
        diff -= diff.mean()
        worst = max(worst, float(np.abs(diff).max() / np.abs(exact[mask]).max()))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-6 and elapsed < 30.0
    report(2, "torus Green vs spectral Poisson oracle", ok,
           f"rel residual {worst:.1e} over 3 moduli at 256^2", elapsed)
    assert worst < 1e-6
    assert elapsed < 30.0


def test_criterion_3_period_relations():
    from pointvortex.verify import period_relation_residual

    start = time.perf_counter()
    worst = max(period_relation_residual(tau) for tau in (1j, 0.5 + 1j, 2j))
    worst_sym = 0.0
    min_eig = math.inf
    for tau in (1j, 0.5 + 1j, 2j):
        m = period_matrix(tau)
        worst_sym = max(worst_sym, float(np.abs(m - m.T).max()))
        min_eig = min(min_eig, float(np.linalg.eigvalsh(m).min()))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-10 and worst_sym < 1e-12 and min_eig > 0 and elapsed < 5.0
    report(3, "period relations and matrix", ok,
           f"relations {worst:.1e}, symmetry {worst_sym:.1e}, "
           f"min eigenvalue {min_eig:.3f}", elapsed)
    assert worst < 1e-10
    assert worst_sym < 1e-12
    assert min_eig > 0
    assert elapsed < 5.0


def test_criterion_4_conjugate_periods(torus_skew, rng):
    start = time.perf_counter()
    worst = conjugate_period_residual(torus_skew, rng, pairs=20)
    elapsed = time.perf_counter() - start
    ok = worst < 1e-6
    report(4, "conjugate periods of the two-point potential", ok,
           f"residual {worst:.1e} over 20 pole pairs", elapsed)
    assert worst < 1e-6


def test_criterion_5_transformation_laws(rng):
    from pointvortex.verify import (
        bracket_chain_rules,
        mobius_schwarzian,
        robin_transformation_laws,
    )

    start = time.perf_counter()
    worst_h = robin_transformation_laws(rng, 100)
    worst_chain = bracket_chain_rules(rng, 200)
    worst_mobius = mobius_schwarzian(rng, 500)
    elapsed = time.perf_counter() - start
    ok = worst_h < 1e-8 and worst_chain < 1e-10 and worst_mobius < 1e-10 \
        and elapsed < 5.0
    report(5, "transformation-law suite", ok,
           f"handover laws {worst_h:.1e}, chain rules {worst_chain:.1e}, "
           f"mobius schwarzian {worst_mobius:.1e}", elapsed)
    assert worst_h < 1e-8
    assert worst_chain < 1e-10
    assert worst_mobius < 1e-10
    assert elapsed < 5.0


def test_criterion_6_velocity_law_equals_hamiltonian_gradient(rng):
    start = time.perf_counter()
    worst = {"sphere": 0.0, "flat_torus": 0.0}
    for surface in (SPHERE, Surface.flat_torus(0.5 + 1j)):
        for i in range(50):
            n = 2 if i % 2 == 0 else 4
            st = random_state(surface, n, rng, circulations=surface.genus > 0)
            for k in range(n):
                v1 = vortex_velocity(st, k)
                v2 = hamiltonian_velocity(st, k)
                rel = abs(v1 - v2) / max(abs(v1), 1e-12)
                worst[surface.kind] = max(worst[surface.kind], rel)
    # fixture for the stationary single-vortex contribution
    worst_self = 0.0
    for p in delta_probe_points(SPHERE, rng, 200):
        h1 = robin_data(SPHERE, p).h1
        worst_self = max(worst_self, abs(h1.conjugate() + dlog_lambda_dzbar(SPHERE, p)))
    elapsed = time.perf_counter() - start
    ok = max(worst.values()) < 1e-6 and worst_self < 1e-10 and elapsed < 60.0
    report(6, "velocity law vs Hamiltonian gradient", ok,
           f"sphere {worst['sphere']:.1e}, torus {worst['flat_torus']:.1e}, "
           f"self-term {worst_self:.1e}, 50 states each", elapsed)
    assert worst["sphere"] < 1e-6
    assert worst["flat_torus"] < 1e-6
    assert worst_self < 1e-10
    assert elapsed < 60.0


def test_criterion_7_conservation_on_long_torus_run():
    start = time.perf_counter()
    tau = 1j
    st = VortexState(
        Surface.flat_torus(tau),
        (SurfacePoint(0, 0.21 + 0.33j), SurfacePoint(0, 0.68 + 0.41j),
         SurfacePoint(0, 0.45 + 0.72j), SurfacePoint(0, 0.82 + 0.15j)),
        (1.0, -0.6, 0.8, -1.2),
        (0.3,), (-0.2,),
    )
    recs = integrate(st, 1e-3, 10000, method="rk4", record_every=200)
    h0 = recs[0].hamiltonian
    drift = max(abs(r.hamiltonian - h0) for r in recs) / abs(h0)
    # drift of the Kelvin coefficients (A, B) of each record's canonical state
    kelvin = max(
        max(abs(x - y) for x, y in zip(r.kelvin, recs[0].kelvin)) for r in recs
    )

    def short_drift(dt, steps):
        rr = integrate(st, dt, steps, record_every=max(1, steps // 10))
        hh = rr[0].hamiltonian
        return max(abs(r.hamiltonian - hh) for r in rr) / abs(hh)

    # halving measured where truncation still dominates roundoff
    d_coarse = short_drift(8e-3, 250)
    d_fine = short_drift(4e-3, 500)
    ratio = d_coarse / d_fine
    elapsed = time.perf_counter() - start
    ok = drift < 1e-7 and kelvin < 1e-8 and ratio >= 8.0 and elapsed < 120.0
    report(7, "energy and circulation conservation (T=10, rk4)", ok,
           f"energy drift {drift:.1e}, kelvin drift {kelvin:.1e}, "
           f"halving ratio {ratio:.1f}x", elapsed)
    assert drift < 1e-7
    assert kelvin < 1e-8
    assert ratio >= 8.0
    assert elapsed < 120.0


def test_criterion_8_qualitative_dynamics():
    start = time.perf_counter()
    # rotating co-meridian pair: fixed latitudes, closed-form period
    r, gamma = 0.5, 2.0 * math.pi
    pair = VortexState(
        SPHERE,
        (SurfacePoint(0, complex(r, 0)), SurfacePoint(1, complex(r, 0))),
        (gamma, -gamma),
    )
    rate = gamma * (1.0 + r**2) / (4.0 * math.pi * (1.0 - r**2))
    period = 2.0 * math.pi / rate
    recs = integrate(pair, 0.005, int(period / 0.005 * 1.05), record_every=5)
    lat_drift = max(
        abs(abs(rec.positions[k].coord) - r) for rec in recs for k in (0, 1)
    )
    angles = np.unwrap([np.angle(rec.positions[0].coord) for rec in recs])
    times = np.array([rec.time for rec in recs])
    slope = np.polyfit(times, angles, 1)[0]
    period_err = abs(2.0 * math.pi / abs(slope) - period) / period

    # a truly antipodal pair is a fixed point of the dynamics
    anti = VortexState(
        SPHERE,
        (SurfacePoint(0, 0.4 + 0.2j), SurfacePoint(0, -1.0 / (0.4 - 0.2j))),
        (1.0, -1.0),
    )
    anti_speed = max(abs(vortex_velocity(anti, k)) for k in (0, 1))

    # torus pair translates rigidly: velocity constant along the trajectory
    torus = Surface.flat_torus(1j)
    tpair = VortexState(
        torus,
        (SurfacePoint(0, 0.3 + 0.5j), SurfacePoint(0, 0.7 + 0.5j)),
        (1.0, -1.0), (0.0,), (0.0,),
    )
    v0 = vortex_velocity(tpair, 0)
    trecs = integrate(tpair, 0.01, 1000, record_every=10)
    v_drift = 0.0
    for rec in trecs:
        again = VortexState(torus, rec.positions, tpair.strengths,
                            tuple(rec.circ_a), tuple(rec.circ_b))
        v_drift = max(
            v_drift,
            abs(vortex_velocity(again, 0) - v0),
            abs(vortex_velocity(again, 1) - v0),
        )

    elapsed = time.perf_counter() - start
    ok = lat_drift < 1e-7 and period_err < 1e-6 and anti_speed < 1e-10 \
        and v_drift < 1e-8
    report(8, "qualitative dynamics", ok,
           f"latitude drift {lat_drift:.1e}, period error {period_err:.1e}, "
           f"antipodal speed {anti_speed:.1e}, torus velocity drift {v_drift:.1e}",
           elapsed)
    assert lat_drift < 1e-7
    assert period_err < 1e-6
    assert anti_speed < 1e-10
    assert v_drift < 1e-8


def test_criterion_9_cli_end_to_end(tmp_path):
    start = time.perf_counter()
    verify = subprocess.run(
        [sys.executable, "-m", "pointvortex", "verify", "--suite", "quick"],
        capture_output=True, text=True,
    )
    verify_elapsed = time.perf_counter() - start
    ok_verify = verify.returncode == 0 and verify_elapsed < 60.0

    runs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        proc = subprocess.run(
            [sys.executable, "-m", "pointvortex", "run", "sphere_antipodal_pair",
             "torus_pair_translate", "--out-dir", str(out)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        runs.append(out)
    deterministic = all(
        (runs[0] / name).read_bytes() == (runs[1] / name).read_bytes()
        for name in ("sphere_antipodal_pair.csv", "torus_pair_translate.csv")
    )
    elapsed = time.perf_counter() - start
    ok = ok_verify and deterministic
    report(9, "CLI verify and deterministic run", ok,
           f"verify exit {verify.returncode} in {verify_elapsed:.1f}s, "
           f"byte-identical reruns: {deterministic}", elapsed)
    assert verify.returncode == 0, verify.stdout + verify.stderr
    assert verify_elapsed < 60.0
    assert deterministic
