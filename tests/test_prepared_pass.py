"""The evaluation state a plan builds once: its gradient matrix and weights
on both surfaces, and on the torus its pair pass (`green.TorusPass`).

A torus plan owns every buffer and view of its pair pass, one
`green.TorusBlock` per block length, and an evaluation only runs its ufuncs
in them.  Its velocity and energy must equal the one-shot kernel's
(`green.pair_terms`, which builds its blocks per call) bit for bit at any
block size.  On both surfaces the plan's matrix must not leak from one
evaluation into another, from one plan into another (a recharted plan shares
its parent's), or into a returned velocity, and its diagonal stays 0; a
second torus evaluation must allocate no array of the pair count.
"""
import tracemalloc

import numpy as np
import pytest

from pointvortex import Surface, surfaces
from pointvortex.dynamics import _plan
from pointvortex.green import pair_terms
from pointvortex.periods import circulation_state
from pointvortex.surfaces import canonical_coords

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
    energy = plan.assemble_energy(value, g[pairs[0]] * g[pairs[-1]], w)
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
