"""The torus pair pass a plan builds once (`green.TorusPass`).

A torus plan owns every buffer and view of its pair pass, one
`green.TorusBlock` per block length, and an evaluation only runs its ufuncs
in them.  Its velocity and energy must equal the one-shot kernel's
(`green.pair_terms`, which builds its blocks per call) bit for bit at any
block size; buffers must not leak from one evaluation into another, from one
plan into another, or into a returned velocity; and a second evaluation must
allocate no array of the pair count.
"""
import tracemalloc

import numpy as np
import pytest

from pointvortex import Surface, surfaces
from pointvortex.dynamics import _plan, _row_sums
from pointvortex.green import pair_terms
from pointvortex.periods import circulation_state

BASE = ((0.3,), (-0.2,))


def torus_config(tau, n, seed):
    """A random n-vortex torus configuration in cover coordinates up to 2
    cells out, with strengths summing to 0."""
    rng = np.random.default_rng(seed)
    coords = rng.uniform(-2.0, 2.0, n) + rng.uniform(-2.0, 2.0, n) * tau
    g = rng.uniform(0.5, 1.5, n) * rng.choice((-1.0, 1.0), n)
    return Surface.flat_torus(tau), coords, g - g.mean()


def build(surface, coords, g):
    return _plan(surface, np.zeros(len(coords), dtype=int), coords, g, *BASE)


def one_shot(plan, coords):
    """(velocity, energy) from one `pair_terms` call over the plan's pairs: the
    gradients scattered into the n x n matrix as the plan scatters them."""
    g, pairs = plan.strengths, plan.pairs
    value, grad, _ = pair_terms(plan.surface, coords, pairs)
    rows = _row_sums(plan.flat, grad, -grad, g)
    rows += plan.flow
    w = circulation_state(plan.surface, coords, g, *BASE)
    energy = plan.assemble_energy(value, g[pairs[0]] * g[pairs[-1]], w)
    return -2j * 1.0 * rows.conjugate(), float(energy)


@pytest.mark.parametrize("tau", (0.5 + 1j, 0.4 + 0.02j))
@pytest.mark.parametrize("block", (1, 7, 2048))
@pytest.mark.parametrize("n", (2, 4, 64, 130))
def test_plan_equals_the_one_shot_kernel(n, block, tau, monkeypatch):
    monkeypatch.setattr(surfaces, "BLOCK", block)
    surface, coords, g = torus_config(tau, n, n)
    plan = build(surface, coords, g)
    assert len({id(entry[-1]) for entry in plan.work.blocks}) <= 2   # one per block length
    want_v, want_e = one_shot(plan, coords)
    for _ in range(2):   # the second evaluation runs in buffers the first used
        assert np.array_equal(plan.velocity(coords), want_v)
        assert plan.energy(coords, *BASE) == want_e


def test_two_plans_evaluated_alternately_give_what_each_gives_alone():
    configs = (torus_config(0.5 + 1j, 4, 1), torus_config(0.4 + 0.02j, 23, 2))
    alone = []
    for surface, coords, g in configs:
        plan = build(surface, coords, g)
        alone.append((plan.velocity(coords), plan.energy(coords, *BASE)))
    plans = [build(*config) for config in configs]
    for _ in range(2):
        for plan, (_, coords, _), (v, e) in zip(plans, configs, alone):
            assert np.array_equal(plan.velocity(coords), v)
            assert plan.energy(coords, *BASE) == e


def test_energy_between_velocities_leaves_the_velocity_alone():
    surface, coords, g = torus_config(0.5 + 1j, 9, 3)
    plan = build(surface, coords, g)
    first = plan.velocity(coords)
    plan.energy(coords + 0.1 + 0.2j, *BASE)   # other differences through the same buffers
    assert np.array_equal(plan.velocity(coords), first)


def test_a_velocity_survives_later_evaluations():
    # RK4 holds k1 ... k4 at once and RK45 keeps k1 across rejected trials
    surface, coords, g = torus_config(0.5 + 1j, 6, 4)
    plan = build(surface, coords, g)
    k1 = plan.velocity(coords)
    kept = k1.copy()
    for step in (0.01, 0.02, 0.03):
        plan.velocity(coords + step * k1)
    assert np.array_equal(k1, kept)


def test_a_second_velocity_allocates_no_pair_length_array():
    n = 64
    surface, coords, g = torus_config(0.5 + 1j, n, 5)
    plan = build(surface, coords, g)
    plan.velocity(coords)
    half_pair_array = n * (n - 1) // 2 * 16 // 2   # half of one complex pair-length array
    tracemalloc.start()
    try:
        plan.velocity(coords)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < half_pair_array
