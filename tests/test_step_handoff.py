"""The collision check's pair stage handed to the next step's first velocity.

A plan's pair pass runs a reduction stage first: on the torus the gather,
u / j, its centring and |u'| (`green.torus_reduction`), on the sphere the
gather and d (`surfaces.sphere_differences`).  The pass remembers the
coordinates its stage buffers hold, keyed on the array object (and on the
sphere the pairs array), and only a read-only array matches; a run's
accepted states are made read-only, so the collision check's stage serves
the next step's first velocity and an RK4 step forms its pair differences 4
times, not 5.  The hand-off must never serve stale buffers: a run must not
depend on its record cadence (a torus record's energy runs the stage at
wrapped coordinates in between), and after a check any other stage, an
in-place edit of a writable array or a rechart must leave the next velocity
as a fresh plan gives it, bit for bit.  A second torus check allocates no
pair-length array.
"""
import importlib
import math
import tracemalloc

import numpy as np
import pytest

from pointvortex import Surface, SurfacePoint, VortexState, surfaces
from pointvortex.dynamics import _plan, integrate
from pointvortex.surfaces import canonical_coords

green = importlib.import_module("pointvortex.green")   # the package exports `green()`

TAU = 0.5 + 1j
BASE = ((0.5,), (-4.0,))   # a strong W: every vortex drifts across cells


def torus_coords(n, seed, rows=10):
    """n jittered grid points of the unit cell, each moved by up to 3 cells."""
    rng = np.random.default_rng(seed)
    k = np.arange(n)
    s = (k % rows + rng.uniform(0.2, 0.8, n)) / rows
    t = (k // rows + rng.uniform(0.2, 0.8, n)) / math.ceil(n / rows)
    return s + rng.integers(-3, 4, n) + (t + rng.integers(-3, 4, n)) * TAU


def strengths(n, seed, balanced):
    rng = np.random.default_rng(seed + 1)
    g = rng.uniform(0.5, 1.5, n) * rng.choice((-1.0, 1.0), n)
    return g - g.mean() if balanced else g


def sphere_coords(n, seed, radius):
    """n points of |z| <= radius in random charts: (charts, coords)."""
    rng = np.random.default_rng(seed)
    z = radius * np.sqrt(rng.uniform(0.0, 1.0, n)) * np.exp(2j * np.pi * rng.uniform(size=n))
    return rng.integers(0, 2, n), z


def torus_state(n, seed):
    # cover coordinates as given: VortexState stores them canonical, so a run
    # starts in the cell and its drift carries it out
    points = tuple(SurfacePoint(0, z) for z in torus_coords(n, seed))
    return VortexState(Surface.flat_torus(TAU), points, tuple(strengths(n, seed, True)), *BASE)


def sphere_state(n, seed, radius):
    charts, coords = sphere_coords(n, seed, radius)
    points = tuple(SurfacePoint(int(c), z) for c, z in zip(charts, coords))
    return VortexState(Surface.sphere(), points, tuple(strengths(n, seed, False)))


def read_only(a):
    a = np.array(a)
    a.flags.writeable = False
    return a


# ---------------------------------------------------------------------------
# (a) the record cadence


@pytest.mark.parametrize("case", ("torus_n70", "sphere_handover"))
def test_a_run_does_not_depend_on_its_record_cadence(case):
    # the torus: 2415 pairs in two blocks, records at wrapped coordinates
    # between steps; the sphere: vortices handed to the other chart
    if case == "torus_n70":
        state, dt, steps = torus_state(70, 3), 0.01, 12
        assert 70 * 69 // 2 > surfaces.BLOCK
    else:
        state, dt, steps = sphere_state(12, 5, 1.6), 0.01, 30
    runs = []
    for every in (1, steps):
        stats = {}
        runs.append((integrate(state, dt, steps, record_every=every, stats_out=stats), stats))
    (dense, dense_stats), (sparse, sparse_stats) = runs
    assert len(dense) == steps + 1 and len(sparse) == 2
    assert dense[0] == sparse[0] and dense[-1] == sparse[-1]
    assert dense_stats == sparse_stats
    if case == "torus_n70":   # the fixture's vortices must cross cells
        assert any(not a == b for a, b in zip(dense[-1].circ_a + dense[-1].circ_b,
                                              dense[0].circ_a + dense[0].circ_b))
    else:
        assert dense_stats["chart_handovers"] > 0, "fixture must hand a vortex over"


# ---------------------------------------------------------------------------
# (b) no stale stage


def torus_plan(n, seed):
    coords = torus_coords(n, seed)
    return _plan(Surface.flat_torus(TAU), np.zeros(n, dtype=int), coords,
                 strengths(n, seed, True), *BASE), coords


def sphere_plan(n, seed):
    charts, coords = sphere_coords(n, seed, 1.0)
    return _plan(Surface.sphere(), charts, coords, strengths(n, seed, False), (), ()), coords


BUILDERS = {"torus": torus_plan, "sphere": sphere_plan}


@pytest.mark.parametrize("n", (4, 70))
@pytest.mark.parametrize("surface", ("torus", "sphere"))
@pytest.mark.parametrize("between", ("velocity_b", "energy_at_wrapped_a", "edit_writable_a",
                                     "unlock_and_edit_a"))
def test_after_a_check_the_next_velocity_is_a_fresh_plans(between, surface, n):
    plan, c0 = BUILDERS[surface](n, 7)
    fresh = lambda a: BUILDERS[surface](n, 7)[0].velocity(a)   # built at c0 like plan
    threshold = -math.inf
    if between.startswith(("edit", "unlock")):
        a = c0.copy() if between == "edit_writable_a" else read_only(c0)
        plan.separation(a, threshold, 0.0)
        a.flags.writeable = True
        a += 0.01 * (1.0 + 1j)   # in place: the array object is the same
    else:
        a = read_only(c0 + 0.02)
        plan.separation(a, threshold, 0.0)
        if between == "velocity_b":
            plan.velocity(read_only(c0 - 0.03))
        elif surface == "torus":
            wrapped = canonical_coords(plan.surface, np.zeros(n, dtype=int), a)[1]
            assert not np.array_equal(wrapped, a), "fixture must lie off the cell"
            plan.energy(wrapped, *BASE)
        else:   # the sphere has no wrap: its energy at other coordinates
            plan.energy(c0 + 0.04, (), ())
    assert np.array_equal(plan.velocity(a), fresh(a))


@pytest.mark.parametrize("n", (4, 70))
def test_after_a_check_a_recharted_plan_gives_a_fresh_plans_velocity(n):
    # one array read in other charts: the sphere's key includes the pairs
    surface, (charts, c0) = Surface.sphere(), sphere_coords(n, 8, 1.0)
    g = strengths(n, 8, False)
    plan = _plan(surface, charts, c0, g, (), ())
    a = read_only(c0)
    plan.separation(a, -math.inf, 0.0)
    other = charts.copy()
    other[0] = 1 - other[0]   # not all: flipping every chart keeps the chart form
    want = _plan(surface, other, c0, g, (), ()).velocity(a)
    assert np.array_equal(plan.rechart(other).velocity(a), want)


# ---------------------------------------------------------------------------
# (c) the count


@pytest.fixture
def stage_runs(monkeypatch):
    """Counts of the reduction stage's runs: per torus block, per sphere pass."""
    runs = {"torus": 0, "sphere": 0}

    def counting(module, name, key):
        real = getattr(module, name)

        def counted(*args):
            runs[key] += 1
            return real(*args)
        monkeypatch.setattr(module, name, counted)

    counting(green, "_reduce_block", "torus")
    counting(surfaces, "_difference_stage", "sphere")
    return runs


@pytest.mark.parametrize("surface", ("torus", "sphere"))
def test_an_rk4_step_runs_the_pair_stage_four_times(surface, stage_runs):
    # the stage runs 5 times a step without the hand-off: 4 velocities and the
    # check; records only at both ends, and no handover (|z| <= 0.5)
    state = torus_state(4, 11) if surface == "torus" else sphere_state(4, 11, 0.5)
    counts = []
    for steps in (10, 20):
        stats = {}
        before = stage_runs[surface]
        integrate(state, 0.001, steps, record_every=steps, stats_out=stats)
        counts.append(stage_runs[surface] - before)
        assert stats["velocity_evaluations"] == 4 * steps
        assert stats["chart_handovers"] == 0
    assert counts[1] - counts[0] == 4 * 10


# ---------------------------------------------------------------------------
# (d) allocation


def _second_call_peak(call) -> int:
    """tracemalloc's peak over a second call, after a first one warmed it up."""
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_second_torus_check_allocates_no_pair_length_array():
    n = 64
    plan, coords = torus_plan(n, 5)
    half_pair_array = n * (n - 1) // 2 * 16 // 2   # half of one complex pair-length array
    # writable coordinates: the stage runs in the pass every time
    assert _second_call_peak(lambda: plan.separation(coords, -math.inf, 0.0)) < half_pair_array
