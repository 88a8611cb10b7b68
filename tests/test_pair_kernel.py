"""Properties of the vectorized pair kernel, checked with hypothesis.

The loop reference below evaluates one pair at a time: the cmath theta
series on the modulus as given (not the reduced one the kernel uses), the
scalar lattice reduction, an exhaustive nearest image, the sphere closed form
in the chart of each point, per-vortex sums, and the circulation terms from
the per-cycle potentials and the period matrix.  The kernel must agree with it
to 1e-12 relative on random configurations of both surfaces, including mixed
sphere charts and torus cover coordinates outside the fundamental domain.
"""
import cmath
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from pointvortex import theta
from pointvortex.dynamics import (
    VortexState,
    _check_separation,
    _hamiltonian_raw,
    _plan,
    hamiltonian_velocity,
    min_separation,
    vortex_velocity,
)
from pointvortex.errors import CollisionError
from pointvortex.green import pair_terms, renormalized_robin, robin_data
from pointvortex.periods import (
    build_basis,
    circulation_energy,
    circulation_form,
    circulation_state,
)
from pointvortex.surfaces import (
    Surface,
    SurfacePoint,
    canonical_coords,
    conformal_factor,
    dlog_lambda_dzbar,
    geodesic_distance,
    lattice_split,
    pair_distances,
    sphere_embedding,
)

TAUS = (1j, 0.5 + 1j, 0.4 + 0.02j, 8j)
SIZES = (2, 3, 4, 16)
SPHERE = Surface.sphere()
REL_TOL = 1e-12


# ---------------------------------------------------------------------------
# loop reference


def ref_centered(tau, u):
    t = u.imag / tau.imag
    s = u.real - t * tau.real
    s -= math.floor(s + 0.5)
    t -= math.floor(t + 0.5)
    return complex(s + t * tau.real, t * tau.imag)


def ref_theta(tau, u):
    """(theta1(u | tau), theta1'(u | tau)) summed term by term from
    q = exp(i pi tau) on the modulus as given, for |Im u| <= Im(tau) / 2.
    Term n is below exp(-pi Im(tau) (n^2 - 1/4)) of the leading one there,
    so the sum stops once that is under exp(-40)."""
    terms = math.ceil(math.sqrt(40.0 / (math.pi * tau.imag) + 0.25))
    th = dth = 0j
    for n in range(terms):
        c = (-1) ** n * cmath.exp(1j * math.pi * tau * (n + 0.5) ** 2)
        f = (2 * n + 1) * math.pi
        th += 2.0 * c * cmath.sin(f * u)
        dth += 2.0 * c * f * cmath.cos(f * u)
    return th, dth


def ref_green(surface, cz, z, ca, a):
    """(G(z, a), dG/dz in the chart of z) for one pair."""
    if surface.kind == "sphere":
        if cz == ca:
            num, pole = abs(z - a) ** 2, 1.0 / (z - a)
        else:
            num, pole = abs(a * z - 1.0) ** 2, a / (a * z - 1.0)
        ratio = math.log(num) - math.log1p(abs(z) ** 2) - math.log1p(abs(a) ** 2)
        grad = -(pole - z.conjugate() / (1.0 + abs(z) ** 2)) / (4.0 * math.pi)
        return -(ratio + 1.0) / (4.0 * math.pi), grad
    tau = surface.tau
    u = ref_centered(tau, z - a)
    th, dth = ref_theta(tau, u)
    value = (-(math.log(abs(th)) - math.pi * u.imag**2 / tau.imag) / (2.0 * math.pi)
             + theta.green_normalization_constant(tau))
    grad = -(0.5 * dth / th + 1j * math.pi * u.imag / tau.imag) / (2.0 * math.pi)
    return value, grad


def ref_geodesic(surface, p, q):
    if surface.kind == "sphere":
        a = sphere_embedding(p.chart_id, p.coord)
        b = sphere_embedding(q.chart_id, q.coord)
        chord = math.sqrt(sum(float(x - y) ** 2 for x, y in zip(a, b)))
        return 2.0 * math.asin(min(1.0, 0.5 * chord))
    return ref_nearest_image(surface.tau, p.coord - q.coord)


def ref_nearest_image(tau, u):
    """min |u + m + n tau| over every image that can be nearest: the rows
    |n| <= ceil(3 / Im tau), and in each row the three m around the row's
    own nearest integer."""
    rows = math.ceil(3.0 / tau.imag)
    w = ref_centered(tau, u) + np.arange(-rows, rows + 1) * tau
    m = -np.round(w.real)[:, None] + np.array([-1.0, 0.0, 1.0])
    return float(np.abs(w[:, None] + m).min())


def ref_circulation(tau, coords, strengths, base_a, base_b):
    """Kelvin coefficients A = a + sum Gamma U_alpha(z), B = b + sum Gamma U_beta(z)."""
    t1, t2 = tau.real, tau.imag
    a = base_a[0] + sum(g * z.imag / t2 for z, g in zip(coords, strengths))
    b = base_b[0] + sum(g * (-z.real + t1 * z.imag / t2)
                        for z, g in zip(coords, strengths))
    return a, b


def ref_u_star_grad(tau, a, b):
    """du*/dz of u* = -A U*_beta + B U*_alpha, with U*_alpha = -x / t2 and
    U*_beta = -(t1 / t2) x - y the conjugate cycle potentials."""
    t1, t2 = tau.real, tau.imag
    return -a * 0.5 * (-t1 / t2 + 1j) + b * (-0.5 / t2)


def ref_circulation_energy(tau, a, b):
    """(A, B) P (A, B)^T with P = [[|tau|^2, -Re tau], [-Re tau, 1]] / Im tau."""
    return (a * a * abs(tau) ** 2 - 2.0 * a * b * tau.real + b * b) / tau.imag


def ref_velocity(surface, charts, coords, strengths, base_a, base_b):
    u_star_grad = 0.0
    if surface.genus:
        a, b = ref_circulation(surface.tau, coords, strengths, base_a, base_b)
        u_star_grad = ref_u_star_grad(surface.tau, a, b)
    out = []
    for k, (ck, zk, gk) in enumerate(zip(charts, coords, strengths)):
        p = SurfacePoint(ck, zk)
        c1 = robin_data(surface, p).h1 + 4.0 * math.pi * u_star_grad / gk
        for j, (cj, zj, gj) in enumerate(zip(charts, coords, strengths)):
            if j != k:
                c1 += 4.0 * math.pi * gj / gk * ref_green(surface, ck, zk, cj, zj)[1]
        lam2 = conformal_factor(surface, p) ** 2
        out.append(gk / (2j * math.pi * lam2)
                   * (c1.conjugate() + dlog_lambda_dzbar(surface, p)))
    return np.array(out)


def ref_hamiltonian_terms(surface, charts, coords, strengths, base_a, base_b):
    """The terms of 2H, summed by the caller."""
    terms = [g * g * renormalized_robin(surface, SurfacePoint(c, z))
             for c, z, g in zip(charts, coords, strengths)]
    n = len(coords)
    for k in range(n):
        for j in range(k + 1, n):
            gv = ref_green(surface, charts[k], coords[k], charts[j], coords[j])[0]
            terms.append(2.0 * strengths[k] * strengths[j] * gv)
    if surface.genus:
        a, b = ref_circulation(surface.tau, coords, strengths, base_a, base_b)
        terms.append(ref_circulation_energy(surface.tau, a, b))
    return terms


# ---------------------------------------------------------------------------
# strategies

unit = st.floats(0.0, 1.0, exclude_max=True)
wrap = st.integers(-3, 3)


def min_ref_separation(surface, charts, coords):
    pts = [SurfacePoint(c, z) for c, z in zip(charts, coords)]
    return min(ref_geodesic(surface, pts[i], pts[j])
               for i in range(len(pts)) for j in range(i + 1, len(pts)))


@st.composite
def strengths_for(draw, n):
    mags = draw(st.lists(st.floats(0.3, 2.0), min_size=n, max_size=n))
    signs = draw(st.lists(st.sampled_from((-1.0, 1.0)), min_size=n, max_size=n))
    g = np.array(mags) * np.array(signs)
    g -= g.mean()
    assume(np.abs(g).min() > 0.1)
    return g


@st.composite
def torus_configs(draw, taus=TAUS, sizes=SIZES):
    tau = draw(st.sampled_from(taus))
    surface = Surface.flat_torus(tau)
    n = draw(st.sampled_from(sizes))
    cells = draw(st.lists(st.tuples(unit, unit, wrap, wrap), min_size=n, max_size=n))
    coords = np.array([s + m + (t + k) * tau for s, t, m, k in cells])
    charts = np.zeros(n, dtype=int)
    assume(min_ref_separation(surface, charts, coords) > 0.02 * min(1.0, tau.imag))
    g = draw(strengths_for(n))
    base = draw(st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)))
    return surface, charts, coords, g, (base[0],), (base[1],)


@st.composite
def sphere_configs(draw, sizes=SIZES):
    n = draw(st.sampled_from(sizes))
    pts = draw(st.lists(
        st.tuples(st.sampled_from((0, 1)), st.floats(0.0, 3.0), st.floats(0.0, 2.0 * math.pi)),
        min_size=n, max_size=n,
    ))
    charts = np.array([c for c, _, _ in pts])
    coords = np.array([r * cmath.exp(1j * phi) for _, r, phi in pts])
    assume(min_ref_separation(SPHERE, charts, coords) > 0.02)
    return SPHERE, charts, coords, draw(strengths_for(n)), (), ()


configs = st.one_of(torus_configs(), sphere_configs())


def skinny_config():
    """Four vortices on tau = 0.4+0.02i, where 0.1+0.002i and 0.3+0.012i are
    0.05 apart through the lattice vector 1 - 2 tau: an explicit example, so
    the skinny lattice is exercised whatever the draws."""
    tau = 0.4 + 0.02j
    coords = np.array([0.1 + 0.002j, 0.3 + 0.012j, 0.65 + 0.4 * tau, 1.85 - 1.7 * tau])
    return (Surface.flat_torus(tau), np.zeros(4, dtype=int), coords,
            np.array([1.0, -0.6, 0.8, -1.2]), (0.3,), (-0.2,))


# every surface is covered in every run: one parametrization per modulus
SURFACE_CONFIGS = [pytest.param(torus_configs(taus=(tau,)), id=f"tau={tau}") for tau in TAUS]
SURFACE_CONFIGS.append(pytest.param(sphere_configs(), id="sphere"))


# ---------------------------------------------------------------------------
# (a) kernel against the loop reference


@pytest.mark.parametrize("surface_configs", SURFACE_CONFIGS)
@given(data=st.data())
@example(data=None)  # the skinny_config() example
@settings(max_examples=30)
def test_velocity_matches_loop_reference(surface_configs, data):
    surface, charts, coords, g, a, b = data.draw(surface_configs) if data else skinny_config()
    got = _plan(surface, coords, g, a, b).velocity(charts, coords)
    want = ref_velocity(surface, charts, coords, g, a, b)
    assert np.abs(got - want).max() <= REL_TOL * np.abs(want).max()


@pytest.mark.parametrize("surface_configs", SURFACE_CONFIGS)
@given(data=st.data())
@example(data=None)  # the skinny_config() example
@settings(max_examples=30)
def test_hamiltonian_matches_loop_reference(surface_configs, data):
    surface, charts, coords, g, a, b = data.draw(surface_configs) if data else skinny_config()
    got = _hamiltonian_raw(surface, build_basis(surface), charts, coords, g, a, b)
    terms = ref_hamiltonian_terms(surface, charts, coords, g, a, b)
    assert type(got) is float
    assert abs(got - 0.5 * math.fsum(terms)) <= REL_TOL * 0.5 * sum(abs(t) for t in terms)


@pytest.mark.parametrize("surface_configs", [
    pytest.param(torus_configs(taus=(tau,), sizes=(2, 3, 4)), id=f"tau={tau}") for tau in TAUS
] + [pytest.param(sphere_configs(sizes=(2, 3, 4)), id="sphere")])
@given(data=st.data())
@settings(max_examples=20)
def test_plan_velocity_matches_hamiltonian_velocity(surface_configs, data):
    # the direct law against finite differences of the energy, on admissible
    # states (canonical, so mixed sphere charts), to 1e-6 of the speed scale:
    # the largest speed, or max |Gamma| / 2 pi (the speed the strongest vortex
    # induces at unit distance) for near-stationary states such as an
    # antipodal sphere pair, where the speeds are finite-difference noise
    surface, charts, coords, g, a, b = data.draw(surface_configs)
    assume(min_ref_separation(surface, charts, coords) > 0.01)
    points = tuple(SurfacePoint(int(c), complex(z)) for c, z in zip(charts, coords))
    state = VortexState(surface, points, tuple(g), a, b, collision_threshold=1e-4)
    direct = [vortex_velocity(state, k) for k in range(state.n)]
    scale = max(*map(abs, direct), np.abs(g).max() / (2.0 * math.pi))
    for k, v in enumerate(direct):
        assert abs(v - hamiltonian_velocity(state, k)) <= 1e-6 * scale


@pytest.mark.parametrize("tau", TAUS)
@given(data=st.data())
def test_circulation_closed_forms_match_cycle_potentials(tau, data):
    # W = a tau - b + sum Gamma z against the per-cycle reference: W = A tau - B,
    # |W|^2 / Im tau = (A, B) P (A, B)^T and du*/dz = conj(W) / (2 Im tau);
    # tolerances are relative to the size of the summands
    surface, _, coords, g, base_a, base_b = data.draw(torus_configs(taus=(tau,)))
    basis = build_basis(surface)
    w = circulation_state(basis, coords, g, base_a, base_b)
    a, b = ref_circulation(tau, coords, g, base_a, base_b)
    scale = abs(a * tau) + abs(b) + float(np.abs(g * coords).sum())
    assert abs(w - (a * tau - b)) <= REL_TOL * scale
    energy = ref_circulation_energy(tau, a, b)
    assert abs(circulation_energy(basis, w) - energy) <= REL_TOL * scale**2 / tau.imag
    assert abs(circulation_form(basis, w) - ref_u_star_grad(tau, a, b)) <= (
        REL_TOL * scale / tau.imag)


# ---------------------------------------------------------------------------
# (b)-(d) invariances of G and its gradient


@given(st.sampled_from(TAUS), unit, unit, unit, unit, wrap, wrap)
def test_torus_lattice_periodicity(tau, s1, t1, s2, t2, m, k):
    surface = Surface.flat_torus(tau)
    z, a = s1 + t1 * tau, s2 + t2 * tau
    assume(min_ref_separation(surface, [0, 0], [z, a]) > 0.1 * min(1.0, tau.imag))
    g0, d0, _ = pair_terms(surface, 0, z, 0, a)
    g1, d1, _ = pair_terms(surface, 0, z + m + k * tau, 0, a)
    assert abs(g1 - g0) <= REL_TOL * max(1.0, abs(g0))
    assert abs(d1 - d0) <= REL_TOL * max(1.0, abs(d0))


@given(st.sampled_from(TAUS), unit, unit, unit, unit)
def test_torus_gradient_antisymmetry(tau, s1, t1, s2, t2):
    surface = Surface.flat_torus(tau)
    z, a = s1 + t1 * tau, s2 + t2 * tau
    assume(min_ref_separation(surface, [0, 0], [z, a]) > 0.02 * min(1.0, tau.imag))
    g_za, d_za, _ = pair_terms(surface, 0, z, 0, a)
    g_az, d_az, _ = pair_terms(surface, 0, a, 0, z)
    assert abs(g_za - g_az) <= REL_TOL * max(1.0, abs(g_za))
    assert abs(d_za + d_az) <= REL_TOL * max(1.0, abs(d_za))


@given(sphere_configs(sizes=(2,)))
def test_sphere_orientations_agree(config):
    _, charts, coords, _, _, _ = config
    g_ij, di, dj = pair_terms(SPHERE, charts[0], coords[0], charts[1], coords[1])
    g_ji, dj_swapped, di_swapped = pair_terms(SPHERE, charts[1], coords[1], charts[0], coords[0])
    assert abs(g_ij - g_ji) <= REL_TOL * max(1.0, abs(g_ij))
    assert abs(di - di_swapped) <= REL_TOL * max(1.0, abs(di))
    assert abs(dj - dj_swapped) <= REL_TOL * max(1.0, abs(dj))


@given(sphere_configs(sizes=(2,)))
def test_sphere_chart_invariance(config):
    _, charts, coords, _, _, _ = config
    (cz, ca), (z, a) = charts, coords
    assume(0.05 < abs(z) < 20.0)
    value, grad, _ = pair_terms(SPHERE, cz, z, ca, a)
    w = 1.0 / z
    value_w, grad_w, _ = pair_terms(SPHERE, 1 - cz, w, ca, a)
    assert abs(value_w - value) <= REL_TOL * max(1.0, abs(value))
    # dG/dw = dG/dz dz/dw with z = 1/w
    expected = -grad / (w * w)
    assert abs(grad_w - expected) <= REL_TOL * max(1.0, abs(expected))


# ---------------------------------------------------------------------------
# (e) separation


@given(configs)
@example(skinny_config())
def test_min_separation_matches_scalar_minimum(config):
    surface, charts, coords, _, _, _ = config
    pts = [SurfacePoint(int(c), complex(z)) for c, z in zip(charts, coords)]
    pairs = [(i, j) for i in range(len(pts)) for j in range(i + 1, len(pts))]
    scalar = [geodesic_distance(surface, pts[i], pts[j]) for i, j in pairs]
    best = min(scalar)
    assert min_separation(surface, pts) == best
    reference = min(ref_geodesic(surface, pts[i], pts[j]) for i, j in pairs)
    assert abs(best - reference) <= REL_TOL * reference
    with pytest.raises(CollisionError) as err:
        _check_separation(surface, charts, coords, 2.0 * best, 0.5)
    assert err.value.pair == pairs[scalar.index(best)]
    assert err.value.separation == best
    assert err.value.time == 0.5


@pytest.mark.parametrize("tau", (0.4 + 0.02j, 0.3 + 0.001j, 0.5 + 0.005j))
def test_pair_distances_are_nearest_images_on_skinny_tori(tau):
    rng = np.random.default_rng(5)
    coords = rng.uniform(-2.0, 2.0, 41) + rng.uniform(-2.0, 2.0, 41) * tau
    i, k = np.arange(40), np.arange(1, 41)
    got = pair_distances(Surface.flat_torus(tau), np.zeros(41, dtype=int), coords, i, k)
    expected = np.array([ref_nearest_image(tau, coords[a] - coords[b]) for a, b in zip(i, k)])
    assert (np.abs(got - expected) <= REL_TOL * expected).all()


def test_collision_seen_across_a_skinny_lattice():
    # the two points are 0.05 apart through the lattice vector 1 - 2 tau
    surface = Surface.flat_torus(0.4 + 0.02j)
    with pytest.raises(ValueError, match="separation 5.000e-02"):
        VortexState(surface, (SurfacePoint(0, 0.1 + 0.002j), SurfacePoint(0, 0.3 + 0.012j)),
                    (1.0, -1.0), (0.0,), (0.0,), collision_threshold=0.1)


def test_check_separation_reports_first_closest_pair():
    # (0, 1) and (1, 2) are exactly 0.25 apart; (i, j) order picks (0, 1)
    torus = Surface.flat_torus(1j)
    coords = np.array([0.25 + 0.5j, 0.5 + 0.5j, 0.75 + 0.5j])
    with pytest.raises(CollisionError) as err:
        _check_separation(torus, np.zeros(3, dtype=int), coords, 0.3, 2.0)
    assert err.value.pair == (0, 1)
    assert err.value.separation == 0.25


# ---------------------------------------------------------------------------
# (f) wrap bookkeeping


@given(st.sampled_from(TAUS), st.floats(-4.0, 4.0), st.floats(-4.0, 4.0))
@example(1j, -1e-17, 0.3)  # s - floor(s) rounds to the excluded endpoint 1
def test_canonical_coords_properties(tau, s, t):
    surface = Surface.flat_torus(tau)
    z = complex(s + t * tau.real, t * tau.imag)
    _, once, m, n = canonical_coords(surface, [0], [z])
    # lands in the fundamental domain [0, 1)^2
    s1, t1 = lattice_split(tau, once[0])
    assert 0.0 <= s1 < 1.0 and 0.0 <= t1 < 1.0
    # the counts are the lattice vector removed: adding it back recovers z
    assert abs(once[0] + m[0] + n[0] * tau - z) <= 1e-14 * (1.0 + abs(z))
    # idempotent
    _, twice, m2, n2 = canonical_coords(surface, [0], once)
    assert twice[0] == once[0] and m2[0] == 0 and n2[0] == 0


@pytest.mark.parametrize("tau", TAUS)
@given(data=st.data())
def test_canonical_state_round_trip(tau, data):
    # cover coordinates z_j = p_j + m_j + n_j tau (|m|, |n| <= 3) and the
    # state built from them (canonical positions, compensated base
    # circulations) carry the same W and the same velocities
    surface, charts, coords, g, a, b = data.draw(torus_configs(taus=(tau,)))
    back = VortexState(surface, tuple(SurfacePoint(0, complex(z)) for z in coords),
                       tuple(g), a, b, collision_threshold=1e-4)
    basis = build_basis(surface)
    back_coords = np.array([p.coord for p in back.positions])
    w_raw = circulation_state(basis, coords, g, a, b)
    w_back = circulation_state(basis, back_coords, g, back.base_a, back.base_b)
    scale = abs(a[0] * tau) + abs(b[0]) + float(np.abs(g * coords).sum())
    assert abs(w_back - w_raw) <= REL_TOL * scale
    v_raw = _plan(surface, coords, g, a, b).velocity(charts, coords)
    v_back = _plan(surface, back_coords, g, back.base_a, back.base_b).velocity(charts, back_coords)
    assert np.abs(v_back - v_raw).max() <= REL_TOL * np.abs(v_raw).max()
