import math

import numpy as np
import pytest

from pointvortex import dynamics
from pointvortex.config import resolve_scenario
from pointvortex.dynamics import (
    VortexState,
    _plan,
    hamiltonian_velocity,
    integrate,
    min_separation,
    vortex_velocity,
)
from pointvortex.errors import CollisionError, StepRejectionError
from pointvortex.oracles import contour_integral, star_gradient_form
from pointvortex.periods import circulation_form, circulation_state
from pointvortex.surfaces import SurfacePoint, Surface, canonical_coords, reduce_centered
from pointvortex.verify import random_state

from embedding import sphere_embedding


def four_vortex_torus(tau=1j, threshold=1e-3):
    surface = Surface.flat_torus(tau)
    return VortexState(
        surface,
        (SurfacePoint(0, 0.21 + 0.33 * tau), SurfacePoint(0, 0.68 + 0.41 * tau),
         SurfacePoint(0, 0.45 + 0.72 * tau), SurfacePoint(0, 0.82 + 0.15 * tau)),
        (1.0, -0.6, 0.8, -1.2),
        (0.3,), (-0.2,),
        collision_threshold=threshold,
    )


class TestSpherePairDynamics:
    def test_co_meridian_pair_rotates_at_reduced_rate(self, sphere):
        # the pair (r, 1/r) sits on mirror latitudes of one meridian and
        # rotates rigidly about the polar axis; reducing the velocity law
        # along the symmetry gives theta_dot = Gamma (1 + r^2)/(4 pi (1 - r^2))
        r, gamma = 0.5, 2.0 * math.pi
        st = VortexState(
            sphere,
            (SurfacePoint(0, complex(r, 0)), SurfacePoint(1, complex(r, 0))),
            (gamma, -gamma),
        )
        rate = gamma * (1.0 + r**2) / (4.0 * math.pi * (1.0 - r**2))
        period = 2.0 * math.pi / rate
        dt = 0.005
        steps = int(period / dt * 1.05)
        recs = integrate(st, dt, steps, method="rk4", record_every=5)

        # each vortex keeps its own latitude circle
        for k in (0, 1):
            radii = [abs(rec.positions[k].coord) for rec in recs]
            assert max(abs(x - r) for x in radii) < 1e-7
        # co-meridian lock: the chart-1 angle counter-rotates, so the sum of
        # the two chart angles is conserved
        phases = [
            np.angle(rec.positions[0].coord) + np.angle(rec.positions[1].coord)
            for rec in recs
        ]
        assert max(abs(p - phases[0]) for p in phases) < 1e-7

        # measured rotation rate against the reduced closed form
        angles = np.unwrap([np.angle(rec.positions[0].coord) for rec in recs])
        times = np.array([rec.time for rec in recs])
        slope = np.polyfit(times, angles, 1)[0]
        measured_period = 2.0 * math.pi / abs(slope)
        assert abs(measured_period - period) / period < 1e-6

    def test_crossing_pair_turns_rigidly(self):
        # a (Gamma, -Gamma) pair turns rigidly at |Omega| = Gamma / (2 pi d) about
        # (x1 - x2) / d, d the R^3 chord; the bundled pair crosses |z| = 1
        cfg = resolve_scenario("sphere_crossing_pair")
        st, spec, stats = cfg.state(), cfg.integrator, {}
        recs = integrate(st, spec.dt, spec.steps, record_every=spec.record_every,
                         stats_out=stats)
        assert stats["chart_handovers"] >= 1, "fixture must exercise the handover"

        def embed(points):
            return np.array(sphere_embedding([p.chart_id for p in points],
                                             [p.coord for p in points])).T

        x0, x1 = embed(st.positions), embed(recs[-1].positions)
        d = np.linalg.norm(x0[0] - x0[1])
        axis = (x0[0] - x0[1]) / d
        angle = -st.strengths[0] * recs[-1].time / (2.0 * math.pi * d)
        # Rodrigues' formula: the right-handed turn by `angle` about `axis`
        want = (x0 * math.cos(angle) + np.cross(axis, x0) * math.sin(angle)
                + np.outer(x0 @ axis, axis) * (1.0 - math.cos(angle)))
        assert np.abs(x1 - want).max() < 1e-7

    def test_antipodal_pair_is_a_fixed_point(self, sphere):
        st = VortexState(
            sphere,
            (SurfacePoint(0, 0.4 + 0.2j), SurfacePoint(0, -1.0 / (0.4 - 0.2j))),
            (1.0, -1.0),
        )
        recs = integrate(st, 0.01, 100, record_every=20)
        drift = max(
            abs(rec.positions[k].coord - recs[0].positions[k].coord)
            for rec in recs for k in range(2)
        )
        assert drift < 1e-10

    def test_diametral_pair_translates_as_dipole(self, sphere):
        # the mirror pair (r, -r) is a dipole: both chart velocities agree and
        # the reflection symmetry z -> -conj(z) is preserved along the path
        r, gamma = 0.5, 1.0
        st = VortexState(
            sphere,
            (SurfacePoint(0, complex(r, 0)), SurfacePoint(0, complex(-r, 0))),
            (gamma, -gamma),
        )
        assert vortex_velocity(st, 0) == pytest.approx(vortex_velocity(st, 1))
        recs = integrate(st, 0.01, 300, record_every=30)
        for rec in recs:
            p0, p1 = rec.positions
            assert p0.chart_id == p1.chart_id
            assert abs(p0.coord + p1.coord.conjugate()) < 1e-9


class TestTorusPairTranslation:
    def test_velocity_constant_along_trajectory(self, torus_i):
        st = VortexState(
            torus_i,
            (SurfacePoint(0, 0.3 + 0.5j), SurfacePoint(0, 0.7 + 0.5j)),
            (1.0, -1.0), (0.0,), (0.0,),
        )
        v0 = vortex_velocity(st, 0)
        recs = integrate(st, 0.01, 1000, record_every=1)
        worst = 0.0
        for rec in recs:
            again = VortexState(torus_i, rec.positions, st.strengths,
                                tuple(rec.circ_a), tuple(rec.circ_b))
            worst = max(worst, abs(vortex_velocity(again, 0) - v0))
        assert worst < 1e-8

    def test_both_vortices_share_velocity(self, torus_i):
        st = VortexState(
            torus_i,
            (SurfacePoint(0, 0.3 + 0.5j), SurfacePoint(0, 0.7 + 0.5j)),
            (1.0, -1.0), (0.0,), (0.0,),
        )
        assert abs(vortex_velocity(st, 0) - vortex_velocity(st, 1)) < 1e-9


def test_rk4_step_is_the_textbook_combination_bit_for_bit():
    # the step combines its stages in place, in the order of the expression
    # below; the torus cover coordinates it ends in are not wrapped, and a
    # step as long as the motion keeps the stages' last bits in the result
    rng = np.random.default_rng(4)
    tau = 0.5 + 1j
    s, t = rng.uniform(0.0, 1.0, (2, 12))
    g = rng.uniform(0.5, 1.5, 12) * rng.choice((-1.0, 1.0), 12)
    state = VortexState(Surface.flat_torus(tau), tuple(SurfacePoint(0, z) for z in s + t * tau),
                        tuple(g - g.mean()), (0.3,), (-0.2,))
    charts, coords, plan = dynamics._unpack(state)
    dt = 0.05
    k1 = plan.velocity(coords)
    k2 = plan.velocity(coords + 0.5 * dt * k1)
    k3 = plan.velocity(coords + 0.5 * dt * k2)
    k4 = plan.velocity(coords + dt * k3)
    want = coords + dt * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
    traj = dynamics._Trajectory(plan, state.base_a, state.base_b, charts, coords,
                                0.0, -math.inf, dt)
    dynamics._rk4_advance(traj, 0, 1, dt)
    assert np.array_equal(traj.coords, want)


class TestConservation:
    def test_energy_and_kelvin_on_four_vortices(self):
        st = four_vortex_torus()
        recs = integrate(st, 1e-3, 2000, method="rk4", record_every=100)
        h0 = recs[0].hamiltonian
        drift = max(abs(r.hamiltonian - h0) for r in recs) / abs(h0)
        assert drift < 1e-9
        # the Kelvin coefficients (A, B) of each record's own canonical state
        for rec in recs:
            assert abs(rec.kelvin[0] - recs[0].kelvin[0]) < 1e-10
            assert abs(rec.kelvin[1] - recs[0].kelvin[1]) < 1e-10

    def test_dt_halving_improves_energy_drift(self):
        st = four_vortex_torus()

        def drift(dt, steps):
            recs = integrate(st, dt, steps, record_every=max(1, steps // 10))
            h0 = recs[0].hamiltonian
            return max(abs(r.hamiltonian - h0) for r in recs) / abs(h0)

        d1 = drift(8e-3, 250)
        d2 = drift(4e-3, 500)
        assert d1 / d2 >= 8.0

    def test_kelvin_circulations_by_contour_integration(self):
        # reconstruct the flow's periods around fixed cycles from the actual
        # velocity field at several trajectory times; Kelvin keeps them fixed
        # as long as no vortex crosses the chosen cycles, so the cycles are
        # placed in gaps of the sampled lattice coordinates.  Record positions
        # are lifted back to the universal cover first: a canonical state plus
        # the conserved circulations loses the winding, which is exactly the
        # jump this test would otherwise see.
        from pointvortex.surfaces import reduce_centered

        st = four_vortex_torus()
        surface = st.surface
        tau = surface.tau
        recs = integrate(st, 2e-3, 200, record_every=5)

        cover = [[p.coord for p in recs[0].positions]]
        for rec in recs[1:]:
            prev = cover[-1]
            cover.append([
                c + reduce_centered(tau, p.coord - c)
                for c, p in zip(prev, rec.positions)
            ])

        def gap_midpoint(values):
            # spectral contour accuracy needs only ~0.01 clearance at 1024
            # points; positions are sampled densely enough that no vortex can
            # sneak across the gap between records
            pts = np.sort(np.mod(values, 1.0))
            gaps = np.diff(np.concatenate([pts, [pts[0] + 1.0]]))
            i = int(np.argmax(gaps))
            assert gaps[i] > 0.02, "fixture window leaves no room for a cycle"
            return (pts[i] + gaps[i] / 2.0) % 1.0

        t0 = gap_midpoint(np.array([c.imag / tau.imag for row in cover for c in row]))
        s0 = gap_midpoint(np.array([
            c.real - (c.imag / tau.imag) * tau.real for row in cover for c in row
        ]))
        la = (t0 * tau, 1.0)
        lb = (complex(s0, 0.0), tau)

        def periods(coords):
            w = circulation_state(surface, coords, st.strengths, st.base_a, st.base_b)
            # the circulating flow's 1-form eta = -*du*, from du*/dz
            ex, ey = star_gradient_form(lambda z: -circulation_form(surface, w))(0j)

            def nu(z):
                # velocity 1-form: -*dG_total + eta
                gx = np.zeros(np.shape(z))
                gy = np.zeros(np.shape(z))
                from pointvortex.green import green as gf

                for c0, g in zip(coords, st.strengths):
                    grads = np.array([
                        gf(surface, SurfacePoint(0, c), SurfacePoint(0, c0)).grad_z
                        for c in np.atleast_1d(z)
                    ])
                    gx = gx + g * 2.0 * grads.real
                    gy = gy - g * 2.0 * grads.imag
                # -*(gx dx + gy dy) = gy dx - gx dy
                return gy + ex, -gx + ey

            return (
                contour_integral(nu, *la, 1024).real,
                contour_integral(nu, *lb, 1024).real,
            )

        samples = cover[::12]
        base = periods(samples[0])
        for coords in samples[1:]:
            got = periods(coords)
            assert abs(got[0] - base[0]) < 1e-8
            assert abs(got[1] - base[1]) < 1e-8


class TestRestart:
    def test_every_record_restarts_the_run(self):
        # torus_four_vortex's first 600 steps: vortices wrap unevenly at steps
        # 266, 293 and 315, after which the records' base circulations differ
        # from the configured ones.  A state built from any record and
        # integrated to the next record time matches the continuing run.
        from pointvortex.surfaces import reduce_centered

        st = four_vortex_torus()
        every = 20
        recs = integrate(st, 1e-3, 600, record_every=every)
        assert recs[-1].circ_b != st.base_b, "fixture must wrap unevenly"
        worst = 0.0
        for rec, following in zip(recs, recs[1:]):
            again = VortexState(st.surface, rec.positions, st.strengths,
                                rec.circ_a, rec.circ_b)
            got = integrate(again, 1e-3, every, record_every=every)[-1]
            # positions up to the lattice, and W = A tau - B through (A, B)
            worst = max(
                worst,
                *(abs(reduce_centered(st.surface.tau, p.coord - q.coord))
                  for p, q in zip(got.positions, following.positions)),
                *(abs(x - y) for x, y in zip(got.kelvin, following.kelvin)),
            )
        assert worst <= 1e-12


    @pytest.mark.parametrize("name, method", [
        ("sphere_crossing_pair", "rk4"),
        ("sphere_crossing_pair", "rk45-adaptive"),
        ("torus_four_vortex", "rk4"),
    ])
    def test_records_are_their_own_canonical_coords(self, name, method):
        # bit for bit: `accept` keeps sphere vortices canonical, so `record`
        # only wraps torus cover coordinates; the fixtures hand over and wrap
        cfg = resolve_scenario(name)
        st, spec, stats = cfg.state(), cfg.integrator, {}
        recs = integrate(st, spec.dt, spec.steps, method=method,
                         record_every=spec.record_every, stats_out=stats)
        if st.surface.genus:
            assert recs[-1].circ_b != st.base_b, "fixture must wrap"
        else:
            assert stats["chart_handovers"] > 0, "fixture must hand over"
        for rec in recs:
            charts = np.array([p.chart_id for p in rec.positions])
            coords = np.array([p.coord for p in rec.positions])
            again, back, m, n = canonical_coords(st.surface, charts, coords)
            assert np.array_equal(again, charts) and np.array_equal(back, coords)
            assert not m.any() and not n.any()

    def test_runs_with_other_circulations_share_no_plan_data(self):
        # the same four vortices on the same torus under two base circulations
        # (two values of du*/dz), run one after the other: each run's first
        # step follows its own Hamiltonian velocity, and a restart from any of
        # its records, made after both runs, matches its own continuation
        positions = four_vortex_torus().positions
        runs = []
        for a, b in (((0.3,), (-0.2,)), ((-0.7,), (0.9,))):
            st = VortexState(Surface.flat_torus(1j), positions, (1.0, -0.6, 0.8, -1.2), a, b)
            first = integrate(st, 1e-4, 1)[1]
            runs.append((st, first, integrate(st, 1e-3, 200, record_every=50)))
        for st, first, recs in runs:
            want = [hamiltonian_velocity(st, k) for k in range(st.n)]
            speed = max(map(abs, want))
            for p, q, v in zip(first.positions, st.positions, want):
                assert abs((p.coord - q.coord) / 1e-4 - v) <= 1e-3 * speed
            for rec, following in zip(recs, recs[1:]):
                again = VortexState(st.surface, rec.positions, st.strengths,
                                    rec.circ_a, rec.circ_b)
                got = integrate(again, 1e-3, 50, record_every=50)[-1]
                for p, q in zip(got.positions, following.positions):
                    assert abs(reduce_centered(1j, p.coord - q.coord)) <= 1e-12
        (_, _, recs_a), (_, _, recs_b) = runs
        assert max(abs(reduce_centered(1j, p.coord - q.coord)) for p, q in zip(
            recs_a[-1].positions, recs_b[-1].positions)) > 0.05


def rk4_handover_at(st, dt, steps, every, limit):
    """(charts, coords) every `every` steps of RK4 on the plan's velocity,
    handing a sphere vortex over to the other chart only once |z| > limit."""
    charts = np.array([p.chart_id for p in st.positions])
    coords = np.array([p.coord for p in st.positions])
    plan = _plan(st.surface, charts, coords, st.strengths, st.base_a, st.base_b)
    out = []
    for i in range(1, steps + 1):
        plan = plan.rechart(charts)
        k1 = plan.velocity(coords)
        k2 = plan.velocity(coords + 0.5 * dt * k1)
        k3 = plan.velocity(coords + 0.5 * dt * k2)
        k4 = plan.velocity(coords + dt * k3)
        coords = coords + dt * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
        flip = np.abs(coords) > limit
        charts[flip] = 1 - charts[flip]
        coords[flip] = 1.0 / coords[flip]
        if i % every == 0:
            out.append((charts.copy(), coords.copy()))
    return out


class TestChartHandover:
    def test_threshold_independence_on_sphere(self, rng):
        # a wandering 4-vortex trajectory crossing the equator must not care
        # where the handover happens: integrate hands over at |z| > 1, the
        # loop above at |z| > 1.5.  The first crossing comes near step 1,500.
        sphere = Surface.sphere()
        st = random_state(sphere, 4, rng, min_sep=0.5)
        stats = {}
        recs = integrate(st, 5e-3, 2000, record_every=100, stats_out=stats)
        late = rk4_handover_at(st, 5e-3, 2000, 100, 1.5)
        assert len(late) == len(recs) - 1
        for rec, (charts, coords) in zip(recs[1:], late):
            for pa, cb, zb in zip(rec.positions, charts, coords):
                if pa.chart_id == cb:
                    assert abs(pa.coord - zb) < 1e-8
                else:
                    assert abs(pa.coord - 1.0 / zb) < 1e-8
        assert stats["chart_handovers"] > 0, "fixture must actually exercise the handover"

    def test_handover_count_matches_record_charts(self, rng):
        # the crossing fixture above, recorded at every step: each chart
        # change between consecutive records is one counted handover
        sphere = Surface.sphere()
        st = random_state(sphere, 4, rng, min_sep=0.5)
        stats = {}
        recs = integrate(st, 5e-3, 2000, record_every=1, stats_out=stats)
        changes = sum(p.chart_id != q.chart_id for a, b in zip(recs, recs[1:])
                      for p, q in zip(a.positions, b.positions))
        assert changes > 0, "fixture must actually exercise the handover"
        assert stats["chart_handovers"] == changes

    def test_no_handovers_on_the_torus(self):
        cfg = resolve_scenario("torus_four_vortex")
        spec, stats = cfg.integrator, {}
        integrate(cfg.state(), spec.dt, spec.steps, record_every=spec.record_every,
                  stats_out=stats)
        assert stats["chart_handovers"] == 0

    def test_trajectory_time_reversal(self, sphere, rng):
        st = random_state(sphere, 3, rng, min_sep=0.6)
        forward = integrate(st, 5e-3, 200, record_every=200)
        end = VortexState(sphere, forward[-1].positions,
                          tuple(-g for g in st.strengths))
        back = integrate(end, 5e-3, 200, record_every=200)
        for p, q in zip(back[-1].positions, st.positions):
            charts, coords, _, _ = canonical_coords(sphere, [p.chart_id], [p.coord])
            assert abs(coords[0] - q.coord) < 1e-8
            assert charts[0] == q.chart_id


class TestAdaptive:
    @pytest.fixture
    def tight(self, monkeypatch):
        # a step tolerance 100 times below the default
        monkeypatch.setattr(dynamics, "_STEP_TOL", 1e-13 + 1e-11)

    def test_rk45_matches_rk4(self, tight):
        st = four_vortex_torus()
        a = integrate(st, 1e-3, 500, method="rk4", record_every=500)
        b = integrate(st, 1e-3, 500, method="rk45-adaptive", record_every=500)
        for pa, pb in zip(a[-1].positions, b[-1].positions):
            assert abs(pa.coord - pb.coord) < 1e-8

    def test_rk45_through_sphere_handover(self, sphere, rng, tight):
        # adaptive stepping must interoperate with chart flips mid-advance
        st = random_state(sphere, 4, rng, min_sep=0.5)
        a = integrate(st, 5e-3, 2000, method="rk4", record_every=2000)
        stats = {}
        b = integrate(st, 5e-3, 2000, method="rk45-adaptive", record_every=2000,
                      stats_out=stats)
        assert stats["chart_handovers"] > 0, "fixture must exercise the handover"
        for pa, pb in zip(a[-1].positions, b[-1].positions):
            assert pa.chart_id == pb.chart_id
            assert abs(pa.coord - pb.coord) < 1e-7

    def test_record_grid_respected(self):
        st = four_vortex_torus()
        recs = integrate(st, 1e-3, 100, method="rk45-adaptive", record_every=25)
        assert [round(r.time, 9) for r in recs] == [0.0, 0.025, 0.05, 0.075, 0.1]

    def test_step_rejection_overflow(self, monkeypatch):
        st = four_vortex_torus()
        monkeypatch.setattr(dynamics, "_STEP_TOL", 0.0)
        with pytest.raises(StepRejectionError):
            integrate(st, 1e-3, 10, method="rk45-adaptive")


class TestCollision:
    @pytest.mark.parametrize("method", ("rk4", "rk45-adaptive"))
    def test_deterministic_abort(self, method):
        # pair (1, 3) of this trajectory first comes within 0.25 near t = 0.66
        # (rk4 aborts at t = 0.655 at 0.2490, rk45-adaptive at t = 0.66556 at
        # 0.2470), so a 0.25 threshold gives a reproducible abort
        st = four_vortex_torus(threshold=0.25)
        stats = {}
        with pytest.raises(CollisionError) as err:
            integrate(st, 5e-3, 3000, method=method, record_every=50, stats_out=stats)
        assert err.value.pair == (1, 3)
        assert err.value.separation < 0.25
        assert stats["partial_records"], "partial trajectory must be kept"
        assert "step_rejections" in stats

    def test_records_carry_min_separation(self):
        st = four_vortex_torus()
        recs = integrate(st, 1e-3, 50, record_every=10)
        for rec in recs:
            assert rec.min_separation > 0.2
            assert math.isfinite(rec.hamiltonian)


class TestRunCounters:
    def counting(self, monkeypatch, owner, name):
        calls = []
        real = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)
        return calls

    @pytest.mark.parametrize("name", ("sphere_antipodal_pair", "torus_four_vortex"))
    def test_each_separation_is_computed_once(self, monkeypatch, name):
        # the collision check of each step hands its minimum to the record at
        # that step; only the t = 0 record computes its own
        cfg = resolve_scenario(name)
        state, spec = cfg.state(), cfg.integrator
        calls = self.counting(monkeypatch, dynamics._Plan, "separation")
        recs = integrate(state, spec.dt, spec.steps, record_every=spec.record_every)
        assert len(calls) == spec.steps + 1
        assert len(calls) == {"sphere_antipodal_pair": 1601, "torus_four_vortex": 2001}[name]
        for rec in recs:
            fresh = min_separation(state.surface, rec.positions)
            assert abs(rec.min_separation - fresh) <= 1e-14 * fresh

    def test_rk4_counts_four_evaluations_per_step(self, monkeypatch):
        calls = self.counting(monkeypatch, dynamics._Plan, "velocity")
        stats = {}
        integrate(four_vortex_torus(), 1e-3, 37, record_every=10, stats_out=stats)
        assert stats["velocity_evaluations"] == len(calls) == 4 * 37
        assert stats["accepted_steps"] == 37
        assert stats["step_rejections"] == 0

    def test_rk45_reuses_k1_across_rejections(self, monkeypatch):
        # a rejected trial keeps its k1 for the next: 6 evaluations per accepted
        # step and 5 per rejection
        calls = self.counting(monkeypatch, dynamics._Plan, "velocity")
        monkeypatch.setattr(dynamics, "_STEP_TOL", 1e-13 + 1e-11)
        stats = {}
        recs = integrate(four_vortex_torus(), 0.05, 20, method="rk45-adaptive",
                         record_every=5, stats_out=stats)
        assert stats["step_rejections"] > 0, "fixture must exercise a rejection"
        assert stats["accepted_steps"] >= len(recs) - 1
        assert stats["velocity_evaluations"] == len(calls) == (
            6 * stats["accepted_steps"] + 5 * stats["step_rejections"])

    def test_counters_survive_a_collision_abort(self):
        stats = {}
        with pytest.raises(CollisionError):
            integrate(four_vortex_torus(threshold=0.25), 5e-3, 3000, stats_out=stats)
        # rk4 aborts in the check of step 131 (t = 0.655), after its four evaluations
        assert stats["accepted_steps"] == 130
        assert stats["velocity_evaluations"] == 4 * 131


def test_invalid_integrate_arguments():
    st = four_vortex_torus()
    with pytest.raises(ValueError):
        integrate(st, -1.0, 10)
    with pytest.raises(ValueError):
        integrate(st, 0.1, 0)
    with pytest.raises(ValueError):
        integrate(st, 0.1, 10, method="euler")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("method", ("rk4", "rk45-adaptive"))
@pytest.mark.parametrize("name, value", [
    ("dt", math.nan), ("dt", math.inf), ("dt", -math.inf),
    ("record_every", 0), ("record_every", -1),
    ("steps", True), ("steps", 10.5), ("steps", 10.0), ("steps", np.float64(10)),
    ("record_every", True), ("record_every", 2.5),
])
def test_integrate_names_the_bad_argument(method, name, value):
    args = {"dt": 0.01, "steps": 10, "record_every": 1, name: value}
    with pytest.raises(ValueError, match=f"^{name}: must be"):
        integrate(four_vortex_torus(), args["dt"], args["steps"], method=method,
                  record_every=args["record_every"])


def test_integrate_takes_numpy_integer_counts():
    st = four_vortex_torus()
    got = integrate(st, 0.01, np.int64(10), record_every=np.int32(5))
    want = integrate(st, 0.01, 10, record_every=5)
    assert got == want
    assert all(type(r.time) is float for r in got)
