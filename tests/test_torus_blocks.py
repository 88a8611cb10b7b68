"""The torus pair pass, a block of `surfaces.BLOCK` pairs at a time.

`theta.theta1_block` runs Horner on contiguous (2, m) coefficient rows cut
from `ThetaContext.rows`; `broadcast_series` below is the same series with
(2, 1) rows broadcast along the points, and the two must agree bit for bit.
The velocity pass (`green.torus_gradient_matrix`), `green.torus_pair_terms`
and the collision check split the pairs into blocks; the block size must not
change a velocity or a separation by one bit, the pass must agree with the
dense reference across blocks, and a coincidence in the last block must be
caught like one in the first.
"""
import cmath
import math

import numpy as np
import pytest

from pointvortex import SingularityError, Surface, SurfacePoint, surfaces, theta
from pointvortex.dynamics import VortexState, _plan, min_separation, vortex_velocities
from pointvortex.green import torus_pair_terms
from pointvortex.surfaces import pair_indices, reduce_centered

from reference import dense_velocity

BLOCK = surfaces.BLOCK
MODULI = (0.5 + 1j, cmath.exp(1j * math.pi / 3.0), 0.4 + 0.02j, 199j)


def broadcast_series(ctx, z):
    """(theta1, theta1') at z from (2, 1) coefficient rows broadcast along z."""
    weights = ctx.rows[:, ::ctx.rows.shape[1] // 2].reshape(-1, 2, 1)
    x = math.pi * z
    sin_a, cos_a = np.sin(x.real), np.cos(x.real)
    sinh_b, cosh_b = np.sinh(x.imag), np.cosh(x.imag)
    sin_x = sin_a * cosh_b + 1j * (cos_a * sinh_b)
    cos_x = cos_a * cosh_b - 1j * (sin_a * sinh_b)
    c = 1.0 - 2.0 * sin_x * sin_x
    p = weights[-1] * c
    for k in range(len(weights) - 2, 0, -1):
        p += weights[k]
        p *= c
    p += weights[0]
    return sin_x * p[0], cos_x * p[1]


def centred_points(ctx, m, seed):
    """m points of the centred reduced cell, |Im z| <= Im tau' / 2."""
    rng = np.random.default_rng(seed)
    return rng.uniform(-0.5, 0.5, m) + rng.uniform(-0.5, 0.5, m) * ctx.tau


@pytest.mark.parametrize("tau", MODULI)
@pytest.mark.parametrize("m", (1, 6, BLOCK))
def test_contiguous_rows_equal_the_broadcast_rows(tau, m):
    ctx = theta.theta_context(tau)
    z = centred_points(ctx, m, m)
    th, dth = theta.theta1_series(ctx, z)
    want_th, want_dth = broadcast_series(ctx, z)
    assert np.array_equal(th, want_th) and np.array_equal(dth, want_dth)


@pytest.mark.parametrize("tau", MODULI)
def test_a_block_and_one_point_equal_the_broadcast_rows(tau):
    # BLOCK + 1 differences: two blocks of the pass, the second of one point;
    # the gradient is a (theta1' / theta1) + b Im u' in the kernel's order
    ctx = theta.theta_context(tau)
    u = centred_points(ctx, BLOCK + 1, 7) * ctx.j
    ur = reduce_centered(ctx.tau, u * ctx.inv_j)
    th, dth = broadcast_series(ctx, ur)
    want = dth / th
    want *= ctx.log_coeff
    want += ctx.im_coeff * ur.imag
    assert np.array_equal(torus_pair_terms(tau, u)[1], want)


def torus_state(tau, n, seed):
    """A random n-vortex state on tau in cover coordinates up to 3 cells out."""
    surface = Surface.flat_torus(tau)
    rng = np.random.default_rng(seed)
    for _ in range(50):
        coords = rng.uniform(-3.0, 3.0, n) + rng.uniform(-3.0, 3.0, n) * tau
        if min_separation(surface, [SurfacePoint(0, z) for z in coords]) > 1e-3:
            break
    g = rng.uniform(0.5, 1.5, n) * rng.choice((-1.0, 1.0), n)
    return surface, coords, g - g.mean()


@pytest.mark.parametrize("tau", (0.5 + 1j, 0.4 + 0.02j))
def test_block_size_leaves_velocities_and_separations_alone(tau, monkeypatch):
    surface, coords, g = torus_state(tau, 23, 3)   # 253 pairs
    state = VortexState(surface, tuple(SurfacePoint(0, z) for z in coords), tuple(g),
                        (0.3,), (-0.2,))
    want, want_sep = vortex_velocities(state), min_separation(surface, state.positions)
    for block in (1, 50):
        monkeypatch.setattr(surfaces, "BLOCK", block)
        assert np.array_equal(vortex_velocities(state), want)
        assert min_separation(surface, state.positions) == want_sep


@pytest.mark.parametrize("tau", (0.5 + 1j, 0.4 + 0.02j))
def test_velocity_over_two_blocks_matches_dense_reference(tau):
    n = 70   # 2415 pairs
    assert n * (n - 1) // 2 > BLOCK
    surface, coords, g = torus_state(tau, n, 11)
    charts = np.zeros(n, dtype=int)
    got = _plan(surface, charts, coords, g, (0.3,), (-0.2,)).velocity(coords)
    want = dense_velocity(surface, charts, coords, g, (0.3,), (-0.2,))
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


@pytest.mark.parametrize("block", (50, BLOCK))
def test_coincidence_in_the_last_block_raises(block, monkeypatch):
    monkeypatch.setattr(surfaces, "BLOCK", block)
    n = 70
    surface, coords, g = torus_state(0.5 + 1j, n, 5)
    coords[-1] = coords[-2] + 1.0 + surface.tau   # pair (n - 2, n - 1), the last one
    plan = _plan(surface, np.zeros(n, dtype=int), coords, g, (0.0,), (0.0,))
    with pytest.raises(SingularityError):
        plan.velocity(coords)
    i, j = pair_indices(n)
    torus_pair_terms(surface.tau, coords[i[:-1]] - coords[j[:-1]])   # the rest is clear
    with pytest.raises(SingularityError):
        torus_pair_terms(surface.tau, coords[i] - coords[j])
