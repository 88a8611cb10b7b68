"""The batched Hamiltonian route against the whole energy, one vortex at a time.

`dynamics.hamiltonian_velocities` differences, for every vortex at once, only
the pairs a move touches and the circulation energy of the moved copy's W;
`reference.fd_velocity` differences `hamiltonian` of the whole moved state.
On random sphere states (both charts, net strength) and torus states (a skew
and a skinny modulus, cover coordinates up to 3 cells out, nonzero base
circulations) the two agree to 1e-8 of the speed scale.  That bound is set
by rounding, not by the routes: each differences a circulation energy
|W|^2 / Im tau recomputed from coordinates, whose rounding (about
eps |W|^2 / Im tau) the step 1e-5 and 1 / Gamma_k amplify, and on these states
each route reads up to about 2e-9 against the direct law and 4e-9 against
the other.  The batch evaluates
each of the 8 n stencil copies' n - 1 pairs once, in one `pair_terms` call per
chunk of at most `surfaces.BLOCK` pairs.
"""
import cmath
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pointvortex import dynamics, surfaces
from pointvortex.dynamics import (
    VortexState,
    hamiltonian_velocities,
    hamiltonian_velocity,
    min_separation,
    vortex_velocities,
)
from pointvortex.surfaces import Surface, SurfacePoint

from reference import fd_velocity

TAUS = (0.5 + 1j, 0.4 + 0.02j)
SIZES = range(2, 9)
unit = st.floats(0.0, 1.0, exclude_max=True)


@st.composite
def strengths(draw, n, balanced):
    mags = draw(st.lists(st.floats(0.3, 2.0), min_size=n, max_size=n))
    signs = draw(st.lists(st.sampled_from((-1.0, 1.0)), min_size=n, max_size=n))
    g = np.array(mags) * np.array(signs)
    if balanced:
        g -= g.mean()
    else:
        assume(abs(g.sum()) > 0.1)
    assume(np.abs(g).min() > 0.1)
    return tuple(g.tolist())


@st.composite
def sphere_states(draw):
    n = draw(st.sampled_from(SIZES))
    pts = draw(st.lists(
        st.tuples(st.sampled_from((0, 1)), st.floats(0.0, 3.0), st.floats(0.0, 2.0 * math.pi)),
        min_size=n, max_size=n,
    ))
    points = tuple(SurfacePoint(c, r * cmath.exp(1j * phi)) for c, r, phi in pts)
    surface = Surface.sphere()
    assume(min_separation(surface, points) > 0.02)
    return VortexState(surface, points, draw(strengths(n, balanced=False)))


@st.composite
def torus_states(draw, tau):
    surface = Surface.flat_torus(tau)
    n = draw(st.sampled_from(SIZES))
    wrap = st.integers(-3, 3)
    cells = draw(st.lists(st.tuples(unit, unit, wrap, wrap), min_size=n, max_size=n))
    points = tuple(SurfacePoint(0, s + m + (t + k) * tau) for s, t, m, k in cells)
    assume(min_separation(surface, points) > 0.02 * min(1.0, tau.imag))
    base = st.floats(0.1, 1.0).flatmap(lambda x: st.sampled_from((x, -x)))
    a, b = draw(base), draw(base)
    return VortexState(surface, points, draw(strengths(n, balanced=True)), (a,), (b,))


STATES = [pytest.param(torus_states(tau), id=f"tau={tau}") for tau in TAUS]
STATES.append(pytest.param(sphere_states(), id="sphere"))


@pytest.mark.parametrize("states", STATES)
@given(data=st.data())
@settings(max_examples=25)
def test_batched_route_matches_the_whole_energy_route(states, data):
    state = data.draw(states)
    got = hamiltonian_velocities(state)
    scale = max(float(np.abs(vortex_velocities(state)).max()), 1e-4)
    want = np.array([fd_velocity(state, k) for k in range(state.n)])
    assert np.abs(got - want).max() <= 1e-8 * scale
    assert hamiltonian_velocity(state, state.n - 1) == got[-1]


@pytest.mark.parametrize("chunk", (surfaces.BLOCK, 50, 1))
@pytest.mark.parametrize("surface", (Surface.sphere(), Surface.flat_torus(0.5 + 1j)),
                         ids=("sphere", "torus"))
def test_each_copy_pair_goes_to_the_kernel_once(surface, chunk, monkeypatch):
    # 8 n copies of n - 1 pairs each, max(1, chunk // (n - 1)) copies per call;
    # the chunking leaves the velocities bit for bit alone
    pts = [0.1 + 0.2j, 0.7 + 0.3j, 0.4 + 0.8j, 0.9 + 0.6j, 0.25 + 0.55j]
    g = (1.0, -0.5, 0.75, -1.5, 0.25)
    state = VortexState(surface, tuple(SurfacePoint(0, z) for z in pts), g,
                        *((0.3,), (-0.2,)) * surface.genus)
    n = state.n
    want = hamiltonian_velocities(state)
    calls = []
    real = dynamics.pair_terms

    def counted(surface, coords, pairs):
        calls.append(pairs.shape[1])
        return real(surface, coords, pairs)

    monkeypatch.setattr(dynamics, "pair_terms", counted)
    monkeypatch.setattr(surfaces, "BLOCK", chunk)
    got = hamiltonian_velocities(state)
    per_call = max(1, chunk // (n - 1)) * (n - 1)
    assert sum(calls) == 8 * n * (n - 1)
    assert len(calls) == math.ceil(8 * n * (n - 1) / per_call)
    assert all(c <= per_call for c in calls)
    assert np.array_equal(got, want)
