"""The evaluation state a plan builds once: its gradient matrix and weights
and its surface's pair pass (`green.TorusPass`, `surfaces.SpherePass`).

A plan owns every buffer and view of its pair pass, on the torus one
`green.TorusBlock` per block length, and an evaluation only runs its ufuncs
in them.  Its velocity, energy and separation must equal the one-shot
kernel's (`green.pair_terms` and `surfaces.pair_distances`, which build
their pass per call) bit for bit, at any torus block size and over mixed
sphere charts, and on the sphere also the parent formulas written out as
plain numpy expressions.  The sphere's coincidence test skips its pair by
pair comparison only where the least |d|^2 rules every coincidence out, so
it must raise exactly where that comparison does.  The plan's matrix and
pass must not leak from one evaluation into another, from one plan into
another (a recharted plan shares its parent's), or into a returned
velocity, and its diagonal stays 0; a second evaluation must allocate no
array of the pair count.  The Hamiltonian route builds no plan at all.
"""
import math
import tracemalloc

import numpy as np
import pytest

from pointvortex import Surface, SurfacePoint, VortexState, dynamics, surfaces
from pointvortex.dynamics import _assemble_energy, _plan, hamiltonian_velocities
from pointvortex.errors import SingularityError
from pointvortex.green import pair_terms, sphere_point_terms
from pointvortex.periods import circulation_state
from pointvortex.surfaces import COINCIDENCE_TOL, canonical_coords, pair_distances

from reference import row_sums_2d

BASE = ((0.3,), (-0.2,))


def torus_config(tau, n, seed):
    """A random n-vortex torus configuration in cover coordinates up to 2
    cells out, with strengths summing to 0: (surface, charts, coords,
    strengths, base circulations)."""
    rng = np.random.default_rng(seed)
    coords = rng.uniform(-2.0, 2.0, n) + rng.uniform(-2.0, 2.0, n) * tau
    g = rng.uniform(0.5, 1.5, n) * rng.choice((-1.0, 1.0), n)
    return Surface.flat_torus(tau), np.zeros(n, dtype=int), coords, g - g.mean(), BASE


def sphere_config(n, seed, radius=1.0):
    """A random n-vortex sphere configuration over both charts, |z| <= radius
    in each, with a net strength."""
    rng = np.random.default_rng(seed)
    charts = rng.integers(0, 2, n)
    coords = radius * np.sqrt(rng.uniform(0.0, 1.0, n)) * np.exp(2j * np.pi * rng.uniform(size=n))
    g = rng.uniform(0.5, 1.5, n) * rng.choice((-1.0, 1.0), n)
    return Surface.sphere(), charts, coords, g, ((), ())


def build(surface, charts, coords, g, base):
    return _plan(surface, charts, coords, g, *base)


def one_shot(plan, coords):
    """(velocity, energy) from one `pair_terms` call over the plan's pairs: the
    gradients scattered into an n x n matrix by 2-D indexing."""
    g, pairs = plan.strengths, plan.pairs
    value, grad, _ = pair_terms(plan.surface, coords, pairs)
    rows = row_sums_2d(pairs[0], pairs[-1], grad, -grad, g)
    rows += plan.flow
    w = circulation_state(plan.surface, coords, g, *BASE)
    energy = _assemble_energy(plan.surface, g, value, g[pairs[0]] * g[pairs[-1]], w)
    return -2j * 1.0 * rows.conjugate(), float(energy)


@pytest.mark.parametrize("tau", (0.5 + 1j, 0.4 + 0.02j))
@pytest.mark.parametrize("block", (1, 7, 2048))
@pytest.mark.parametrize("n", (2, 4, 64, 130))
def test_plan_equals_the_one_shot_kernel(n, block, tau, monkeypatch):
    monkeypatch.setattr(surfaces, "BLOCK", block)
    config = torus_config(tau, n, n)
    coords = config[2]
    plan = build(*config)
    assert len({id(entry[-1]) for entry in plan.work.blocks}) <= 2   # one per block length
    want_v, want_e = one_shot(plan, coords)
    for _ in range(2):   # the second evaluation runs in buffers the first used
        assert np.array_equal(plan.velocity(coords), want_v)
        assert plan.energy(coords, *BASE) == want_e


def test_two_plans_evaluated_alternately_give_what_each_gives_alone():
    configs = (torus_config(0.5 + 1j, 4, 1), torus_config(0.4 + 0.02j, 23, 2),
               sphere_config(4, 1), sphere_config(23, 2))
    alone = []
    for config in configs:
        plan, coords, base = build(*config), config[2], config[-1]
        alone.append((plan.velocity(coords), plan.energy(coords, *base)))
    plans = [build(*config) for config in configs]
    for _ in range(2):
        for plan, config, (v, e) in zip(plans, configs, alone):
            assert np.array_equal(plan.velocity(config[2]), v)
            assert plan.energy(config[2], *config[-1]) == e


def test_energy_between_velocities_leaves_the_velocity_alone():
    config = torus_config(0.5 + 1j, 9, 3)
    coords, plan = config[2], build(*config)
    first = plan.velocity(coords)
    plan.energy(coords + 0.1 + 0.2j, *BASE)   # other differences through the same buffers
    assert np.array_equal(plan.velocity(coords), first)


def test_a_velocity_survives_later_evaluations():
    # RK4 holds k1 ... k4 at once and RK45 keeps k1 across rejected trials
    for config in (torus_config(0.5 + 1j, 6, 4), sphere_config(6, 4)):
        coords, plan = config[2], build(*config)
        k1 = plan.velocity(coords)
        kept = k1.copy()
        for step in (0.01, 0.02, 0.03):
            plan.velocity(coords + step * k1)
        assert np.array_equal(k1, kept)


def test_a_recharted_plan_gives_a_fresh_plans_velocity():
    # a rechart shares its parent's matrix; evaluating the parent in between
    # must leave the recharted plan's velocity as a fresh plan gives it
    surface, charts, coords, g, base = sphere_config(9, 6, radius=2.0)
    parent = build(surface, charts, coords, g, base)
    parent_alone = parent.velocity(coords)
    new_charts, new_coords, _, _ = canonical_coords(surface, charts, coords)
    assert (new_charts != charts).any(), "fixture must move a vortex to the other chart"
    want = build(surface, new_charts, new_coords, g, base).velocity(new_coords)
    recharted = parent.rechart(new_charts)
    assert recharted.matrix is parent.matrix
    assert np.array_equal(recharted.velocity(new_coords), want)
    assert np.array_equal(parent.velocity(coords), parent_alone)
    assert np.array_equal(recharted.velocity(new_coords), want)


def test_the_matrix_diagonal_stays_zero():
    for config in (torus_config(0.5 + 1j, 7, 7), sphere_config(7, 7)):
        coords, plan, n = config[2], build(*config), len(config[2])
        for step in (0.0, 0.01, 0.02):
            plan.velocity(coords + step)
            plan.energy(coords + step, *config[-1])
        assert not plan.matrix.reshape(n, n).diagonal().any()


def _second_call_peak(call) -> int:
    """tracemalloc's peak over a second call, after a first one warmed it up."""
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_second_velocity_allocates_no_pair_length_array():
    n = 64
    config = torus_config(0.5 + 1j, n, 5)
    plan = build(*config)
    half_pair_array = n * (n - 1) // 2 * 16 // 2   # half of one complex pair-length array
    assert _second_call_peak(lambda: plan.velocity(config[2])) < half_pair_array


def test_a_second_torus_energy_allocates_no_pair_length_array():
    # the pair products go into the pass's value buffer (a float pair-length
    # array is 16 kB at n = 64)
    config = torus_config(0.5 + 1j, 64, 5)
    plan = build(*config)
    assert _second_call_peak(lambda: plan.energy(config[2], *BASE)) < 4096


# ---------------------------------------------------------------------------
# the sphere pass


def sphere_expressions(plan, coords):
    """(velocity, pair values, separations, pole parts) at `coords` by the plain numpy
    expressions of the sphere formulas, each pair-length array allocated
    afresh: the chart form gathered from concatenate((coords, [1, -1])),
    d = zi b_j - a_j, the pole parts b_j / d and c_i / d through r = 1/d,
    G = -(log|d|^2 - log1p|zi|^2 - log1p|zj|^2 + 1) / 4 pi and
    2 atan2(|d|, |conj(zi) a_j + b_j|)."""
    g, pairs = plan.strengths, plan.pairs
    i, j = pairs[0], pairs[-1]
    m, w, h = sphere_point_terms(coords)
    zi, a, b, c = np.concatenate((coords, [1.0, -1.0]))[pairs[:4]]
    d = zi * b - a
    r = 1.0 / d
    rows = h * (g.sum() - g) - row_sums_2d(i, j, b * r, c * r, plan.weights)
    velocity = -2j * (w * w / (16.0 * math.pi)) * rows.conjugate()
    log_w = np.log1p(m)
    value = -(np.log(np.abs(d) ** 2) - log_w[i] - log_w[j] + 1.0) / (4.0 * math.pi)
    separations = 2.0 * np.arctan2(np.abs(d), np.abs(zi.conjugate() * a + b))
    return velocity, value, separations, (b * r, c * r)


def sphere_one_shot(plan, coords):
    """(velocity, energy, (separation, pair)) of the one-shot kernel over the
    plan's pairs, checked against `sphere_expressions` on the way: the pair
    values of `pair_terms` and the separations of `pair_distances`."""
    g, pairs = plan.strengths, plan.pairs
    velocity, value, separations, (pole_i, pole_j) = sphere_expressions(plan, coords)
    kernel_value, grad_i, grad_j = pair_terms(plan.surface, coords, pairs)
    assert np.array_equal(kernel_value, value)
    h = sphere_point_terms(coords)[2]
    assert np.array_equal(grad_i, (h[pairs[0]] - pole_i) * (1.0 / (4.0 * math.pi)))
    assert np.array_equal(grad_j, (h[pairs[-1]] - pole_j) * (1.0 / (4.0 * math.pi)))
    dist = pair_distances(plan.surface, coords, pairs)
    assert np.array_equal(dist, separations)
    k = int(dist.argmin())
    w = circulation_state(plan.surface, coords, g, (), ())
    energy = float(_assemble_energy(plan.surface, g, kernel_value, plan.pair_weights, w))
    return velocity, energy, (float(dist[k]), (int(pairs[0, k]), int(pairs[-1, k])))


def sphere_evaluations(plan, coords):
    """The plan's (velocity, energy, (separation, pair)) at `coords`."""
    return (plan.velocity(coords), plan.energy(coords, (), ()),
            plan.separation(coords, -math.inf, 0.0))


def assert_same(got, want):
    velocity, energy, separation = got
    assert np.array_equal(velocity, want[0])
    assert energy == want[1]
    assert separation == want[2]


@pytest.mark.parametrize("n", (2, 4, 64, 130))
def test_sphere_plan_equals_the_one_shot_kernel(n):
    config = sphere_config(n, 100 + n)
    if n > 2:
        assert 0 < config[1].sum() < n, "fixture must mix the sphere charts"
    coords, plan = config[2], build(*config)
    want = sphere_one_shot(plan, coords)
    for _ in range(2):   # the second evaluation runs in buffers the first used
        assert_same(sphere_evaluations(plan, coords), want)


@pytest.mark.parametrize("n", (4, 64, 130))
def test_a_recharted_sphere_plan_gives_a_fresh_plans_evaluations(n):
    # velocity, energy and separation of the recharted plan, which shares its
    # parent's pass, with the parent evaluated in between
    surface, charts, coords, g, base = sphere_config(n, 200 + n, radius=2.0)
    parent = build(surface, charts, coords, g, base)
    parent_alone = sphere_evaluations(parent, coords)
    new_charts, new_coords, _, _ = canonical_coords(surface, charts, coords)
    assert (new_charts != charts).any(), "fixture must move a vortex to the other chart"
    fresh = build(surface, new_charts, new_coords, g, base)
    want = sphere_one_shot(fresh, new_coords)
    recharted = parent.rechart(new_charts)
    assert recharted.work is parent.work
    assert_same(sphere_evaluations(recharted, new_coords), want)
    assert_same(sphere_evaluations(parent, coords), parent_alone)
    assert_same(sphere_evaluations(recharted, new_coords), want)
    assert_same(sphere_evaluations(fresh, new_coords), want)


def test_a_second_sphere_evaluation_allocates_no_pair_length_array():
    n = 64
    _, charts, coords, g, base = config = sphere_config(n, 5)
    plan = build(*config)
    half_pair_array = n * (n - 1) // 2 * 16 // 2   # half of one complex pair-length array
    for call in (lambda: plan.velocity(coords), lambda: plan.energy(coords, *base),
                 lambda: plan.separation(coords, -math.inf, 0.0)):
        assert _second_call_peak(call) < half_pair_array


def test_the_coincidence_prefilter_falls_back_to_the_pair_test():
    # two points 1.5e-12 apart near 0 and a third at |z| = 3: the least |d|^2
    # against the greatest w (10) cannot rule a coincidence out, and the pair
    # test clears the state (4 |d|^2 = 9e-24 > 1e-24 w_0 w_1)
    surface = Surface.sphere()
    charts, coords = np.zeros(3, dtype=int), np.array([0.1 + 0j, 0.1 + 1.5e-12, 3.0j])
    plan = _plan(surface, charts, coords, (1.0, -0.5, 0.75), (), ())
    w = 1.0 + np.abs(coords) ** 2
    assert 4.0 * (1.5e-12) ** 2 <= COINCIDENCE_TOL**2 * w.max() ** 2
    want = sphere_expressions(plan, coords)
    assert np.array_equal(plan.velocity(coords), want[0])
    assert np.array_equal(pair_terms(surface, coords, plan.pairs)[0], want[1])


@pytest.mark.parametrize("charts, coords", (
    ((0, 0, 1), (0.3 + 0.1j, 0.3 + 0.1j, 0.5)),   # one chart
    ((0, 1, 0), (2.0, 0.5, 0.1j)),                # across: 2 (1/2) - 1 = 0
))
def test_a_coincident_sphere_pair_raises(charts, coords):
    surface, coords = Surface.sphere(), np.array(coords, dtype=complex)
    plan = _plan(surface, charts, coords, (1.0, -0.5, 0.75), (), ())
    with pytest.raises(SingularityError):
        plan.velocity(coords)
    with pytest.raises(SingularityError):
        plan.energy(coords, (), ())
    with pytest.raises(SingularityError):
        pair_terms(surface, coords, plan.pairs)


@pytest.mark.parametrize("ratio", (0.5, 0.99, 1.01, 2.0))
@pytest.mark.parametrize("at", (0.0, 0.7 + 0.2j, 2.0))
def test_the_coincidence_test_raises_where_the_pair_test_does(ratio, at):
    # two points at `ratio` times the coincidence chord apart, next to two
    # points of other metric weights: the plan raises exactly where
    # 4 |d|^2 <= TOL^2 w_i w_j for some pair
    surface = Surface.sphere()
    gap = ratio * 0.5 * COINCIDENCE_TOL * (1.0 + abs(at) ** 2)
    coords = np.array([at, at + gap, 0.2 - 0.9j, 2.5 + 1.0j])
    plan = _plan(surface, np.zeros(4, dtype=int), coords, (1.0, -0.5, 0.75, 0.3), (), ())
    i, j = plan.pairs[0], plan.pairs[-1]
    zi, a, b, _ = np.concatenate((coords, [1.0, -1.0]))[plan.pairs[:4]]
    w = 1.0 + np.abs(coords) ** 2
    coincident = (4.0 * np.abs(zi * b - a) ** 2 <= COINCIDENCE_TOL**2 * w[i] * w[j]).any()
    assert coincident == (ratio < 1.0), "fixture must sit on the intended side"
    for evaluate in (plan.velocity, lambda z: plan.energy(z, (), ())):
        if coincident:
            with pytest.raises(SingularityError):
                evaluate(coords)
        else:
            evaluate(coords)


# ---------------------------------------------------------------------------
# the Hamiltonian route


def test_the_hamiltonian_route_builds_no_plan_or_pass(monkeypatch):
    pts = [0.1 + 0.2j, 0.7 + 0.3j, 0.4 + 0.8j, 0.9 + 0.6j, 0.25 + 0.55j]
    g = (1.0, -0.5, 0.75, -1.5, 0.25)
    sphere = VortexState(Surface.sphere(), tuple(SurfacePoint(k % 2, z) for k, z in enumerate(pts)), g)
    torus = VortexState(Surface.flat_torus(0.5 + 1j), tuple(SurfacePoint(0, z) for z in pts),
                        tuple(np.subtract(g, np.mean(g))), *BASE)
    states = (sphere, torus)
    want = [hamiltonian_velocities(state) for state in states]

    def refuse(*args, **kwargs):
        raise AssertionError("the Hamiltonian route built a plan or a pass")

    for name in ("_plan", "TorusPass", "SpherePass"):
        monkeypatch.setattr(dynamics, name, refuse)
    for state, velocities in zip(states, want):
        assert np.array_equal(hamiltonian_velocities(state), velocities)
