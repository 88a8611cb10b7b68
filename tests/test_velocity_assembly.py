"""The velocity assembly against a dense reference.

`_Plan.velocity` scatters the pair gradients through flat positions planned
with the pairs, and on the sphere takes the metric term h_k once per vortex
as h_k (sum Gamma - Gamma_k).  `reference.dense_velocity` sums the full
`pair_terms` gradients, h included pair by pair, into an n x n matrix.  The
two must agree to 1e-13 of the largest speed on both surfaces, over mixed
sphere charts, torus cover coordinates and plan-level strengths whose sum is
not zero (which only the h_k (sum Gamma - Gamma_k) term can get right).
On the sphere the plan's scatter into its own matrix must also equal, bit
for bit, the same pole parts, from a pass of their own, scattered by 2-D
indexing (`reference.row_sums_2d`).
"""
import math

import numpy as np
import pytest

from pointvortex.dynamics import _plan
from pointvortex.green import sphere_gradient_terms, sphere_point_terms
from pointvortex.surfaces import (
    Surface,
    SpherePass,
    pair_distances,
    pair_indices,
    pair_selection,
)

from reference import dense_velocity, row_sums_2d

SIZES = (2, 3, 17, 64)
SPHERE = Surface.sphere()


def spread_coords(surface, charts, rng, draw, min_sep):
    """Coordinates from `draw(rng)` whose pairs are all farther than
    `min_sep` apart; a bounded number of redraws."""
    for _ in range(200):
        coords = draw(rng)
        pairs = pair_selection(surface, charts, *pair_indices(len(coords)))
        if pair_distances(surface, coords, pairs).min() > min_sep:
            return coords
    raise AssertionError("no spread configuration drawn")


def sphere_config(n, rng, balanced):
    charts = rng.integers(0, 2, n)
    coords = spread_coords(SPHERE, charts, rng, lambda r: np.sqrt(r.uniform(0.0, 1.0, n))
                           * np.exp(2j * np.pi * r.uniform(0.0, 1.0, n)), 0.05)
    g = rng.uniform(0.5, 1.5, n) * rng.choice((-1.0, 1.0), n)
    if balanced:
        g -= g.mean()
    return SPHERE, charts, coords, g, (), ()


def torus_config(tau, n, rng):
    surface, charts = Surface.flat_torus(tau), np.zeros(n, dtype=int)
    coords = spread_coords(
        surface, charts, rng,
        lambda r: r.uniform(-2.0, 3.0, n) + r.uniform(-2.0, 3.0, n) * tau,
        0.01 * min(1.0, tau.imag))
    g = rng.uniform(0.5, 1.5, n) * rng.choice((-1.0, 1.0), n)
    return surface, charts, coords, g - g.mean(), (0.3,), (-0.2,)


CASES = {
    "sphere-unbalanced": lambda n, rng: sphere_config(n, rng, balanced=False),
    "sphere-balanced": lambda n, rng: sphere_config(n, rng, balanced=True),
    "torus-0.5+1i": lambda n, rng: torus_config(0.5 + 1j, n, rng),
    "torus-0.4+0.02i": lambda n, rng: torus_config(0.4 + 0.02j, n, rng),
}


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("case", CASES)
def test_velocity_matches_dense_reference(case, n):
    rng = np.random.default_rng(1000 * n + len(case))
    surface, charts, coords, g, a, b = CASES[case](n, rng)
    if case == "sphere-unbalanced":
        assert abs(g.sum()) > 0.05, "fixture must carry a net strength"
    if surface.genus == 0 and n > 2:
        assert 0 < charts.sum() < n, "fixture must mix the sphere charts"
    got = _plan(surface, charts, coords, g, a, b).velocity(coords)
    want = dense_velocity(surface, charts, coords, g, a, b)
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("case", ("sphere-unbalanced", "sphere-balanced"))
def test_sphere_velocity_equals_the_2d_index_assembly(case, n):
    # the plan's own matrix written at flat positions, against the pole parts
    # scattered by 2-D indexing into a fresh one, bit for bit
    rng = np.random.default_rng(1000 * n + len(case))
    surface, charts, coords, g, a, b = CASES[case](n, rng)
    if n > 2:
        assert 0 < charts.sum() < n, "fixture must mix the sphere charts"
    pairs = pair_selection(surface, charts, *pair_indices(n))
    _, w, h = sphere_point_terms(coords)
    _, pole_i, pole_j = sphere_gradient_terms(coords, pairs, w, SpherePass(n, pairs.shape[1]))
    rows = h * (g.sum() - g) - row_sums_2d(pairs[0], pairs[-1], pole_i, pole_j, g)
    want = -2j * (w * w / (16.0 * math.pi)) * rows.conjugate()
    assert np.array_equal(_plan(surface, charts, coords, g, a, b).velocity(coords), want)
