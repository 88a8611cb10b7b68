"""The circulation state W of a torus, its Kelvin coefficients, flow and
energy, against the cycle potentials, contour periods and the paper's period
matrix P (`reference.period_matrix`)."""
import cmath
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pointvortex.oracles import contour_integral
from pointvortex.periods import (
    circulation_energy,
    circulation_form,
    circulation_state,
    kelvin_coefficients,
)
from pointvortex.surfaces import Surface
from pointvortex.verify import conjugate_period_residual

from reference import conjugate_potential, period_matrix


def const_form(cx, cy):
    return lambda z: (np.full(np.shape(z), cx), np.full(np.shape(z), cy))


def loops(tau):
    """(start, lattice vector) of an alpha and a beta loop."""
    return (0.11 + 0.13 * tau, 1.0), (0.17 + 0j, tau)


def u_alpha(tau, z):
    return z.imag / tau.imag


def u_beta(tau, z):
    return -z.real + tau.real * z.imag / tau.imag


def coefficients(tau, w):
    """Kelvin coefficients (A, B) with W = A tau - B."""
    return w.imag / tau.imag, (w * tau.conjugate()).imag / tau.imag


def flow_form(surface, w):
    """(cx, cy) of the circulating flow's 1-form -*du*, from du*/dz."""
    g = circulation_form(surface, w)
    return -2.0 * g.imag, -2.0 * g.real


def loop_periods(tau, cx, cy):
    la, lb = loops(tau)
    return (contour_integral(const_form(cx, cy), *la),
            contour_integral(const_form(cx, cy), *lb))


class TestBasis:
    """The cycle basis alpha, beta: its forms, periods and period matrix."""

    def test_sphere_basis_is_empty(self, sphere):
        assert sphere.genus == 0
        assert kelvin_coefficients(sphere, 0j) == ()
        assert circulation_form(sphere, 0j) == 0j
        assert circulation_energy(sphere, 0j) == 0.0

    def test_square_torus_forms(self, torus_i):
        assert torus_i.genus == 1 and torus_i.tau == 1j
        # A = 1, B = 0 is W = tau; A = 0, B = 1 is W = -1
        assert flow_form(torus_i, 1j) == (1.0, 0.0)
        assert flow_form(torus_i, -1.0 + 0j) == (0.0, 1.0)
        np.testing.assert_allclose(period_matrix(1j), np.eye(2), atol=1e-14)

    def test_skew_torus_beta_form(self, torus_skew):
        # A = 1 carries -dU_beta = dx - (tau1/tau2) dy
        assert flow_form(torus_skew, torus_skew.tau) == (1.0, -0.5)

    @pytest.mark.parametrize("tau", (1j, 0.5 + 1j, 2j))
    def test_period_normalization_by_contour_integration(self, tau):
        surface = Surface.flat_torus(tau)
        pa, pb = loop_periods(tau, *flow_form(surface, tau))  # A = 1, B = 0
        assert abs(pa - 1.0) < 1e-10
        assert abs(pb) < 1e-10
        pa, pb = loop_periods(tau, *flow_form(surface, -1.0 + 0j))  # A = 0, B = 1
        assert abs(pa) < 1e-10
        assert abs(pb - 1.0) < 1e-10

    @pytest.mark.parametrize("tau", (1j, 0.5 + 1j, 2j))
    def test_period_matrix_from_independent_solve(self, tau):
        # oracle: recover the basis forms by solving the 2x2 period system
        # numerically, then assemble the matrix from contour integrals
        def periods_of(cx, cy):
            pa, pb = loop_periods(tau, cx, cy)
            return pa.real, pb.real

        sys = np.array([periods_of(1.0, 0.0), periods_of(0.0, 1.0)]).T
        # dU_alpha: loop_a = 0, loop_b = 1; -dU_beta: loop_a = 1, loop_b = 0
        da = np.linalg.solve(sys, [0.0, 1.0])
        mdb = np.linalg.solve(sys, [1.0, 0.0])

        def star(c):
            return -c[1], c[0]

        sa, sb = star(da), star(-mdb)
        expected = np.array([
            [-periods_of(*sb)[1], periods_of(*sa)[1]],
            [periods_of(*sb)[0], -periods_of(*sa)[0]],
        ])
        np.testing.assert_allclose(period_matrix(tau), expected, atol=1e-10)

    @pytest.mark.parametrize("tau", (1j, 0.5 + 1j, 2j, 0.3 + 0.7j))
    def test_period_matrix_symmetric_positive_definite(self, tau):
        m = period_matrix(tau)
        assert np.abs(m - m.T).max() < 1e-12
        assert np.linalg.eigvalsh(m).min() > 0


class TestCyclePotential:
    def test_alpha_value_is_scaled_height(self, torus_i):
        w = circulation_state(torus_i, [0.3 + 0.7j, 0j], [1.0, -1.0], (0.0,), (0.0,))
        assert coefficients(torus_i.tau, w)[0] == pytest.approx(0.7)

    def test_unit_jumps(self, torus_skew):
        # moving a vortex across a period steps A or B by its strength
        tau = torus_skew.tau
        zs, gs = [0.21 + 0.37j, 0.6 + 0.1j], [1.5, -1.5]

        def coeffs(z0):
            w = circulation_state(torus_skew, [z0, zs[1]], gs, (0.0,), (0.0,))
            return np.array(coefficients(tau, w))

        base = coeffs(zs[0])
        np.testing.assert_allclose(coeffs(zs[0] + tau) - base, [1.5, 0.0], atol=1e-12)
        np.testing.assert_allclose(coeffs(zs[0] + 1) - base, [0.0, -1.5], atol=1e-12)

    def test_gradients_match_finite_differences(self, torus_skew, rng):
        h = 1e-6
        for _ in range(2):
            w = complex(*rng.normal(size=2))
            z = complex(*rng.uniform(0.1, 0.9, 2))

            def val(c, w=w):
                return conjugate_potential(torus_skew, w, c)

            fx = (val(z + h) - val(z - h)) / (2 * h)
            fy = (val(z + 1j * h) - val(z - 1j * h)) / (2 * h)
            fd = 0.5 * (fx - 1j * fy)
            assert abs(circulation_form(torus_skew, w) - fd) < 1e-10

    def test_conjugate_gradient_is_rotated_gradient(self, torus_skew, rng):
        # u* is the harmonic conjugate of u = B U_alpha - A U_beta: du*/dz = -i du/dz
        tau = torus_skew.tau
        h = 1e-6
        w = complex(*rng.normal(size=2))
        big_a, big_b = coefficients(tau, w)

        def u(c):
            return big_b * u_alpha(tau, c) - big_a * u_beta(tau, c)

        z = 0.4 + 0.2j
        fx = (u(z + h) - u(z - h)) / (2 * h)
        fy = (u(z + 1j * h) - u(z - 1j * h)) / (2 * h)
        assert circulation_form(torus_skew, w) == pytest.approx(-0.5j * (fx - 1j * fy))


class TestCirculationState:
    def test_genus_zero_is_empty(self, sphere):
        assert circulation_state(sphere, [], [], (), ()) == 0j
        # no balance rule on the sphere, but no base circulations either
        assert circulation_state(sphere, [0.1j, 0.5], [1.0, 2.0], (), ()) == 0j
        with pytest.raises(ValueError, match="length 0"):
            circulation_state(sphere, [0.1j, 0.5], [1.0, -1.0], (0.0,), (0.0,))

    def test_invariant_reconstruction(self, torus_skew, rng):
        tau = torus_skew.tau
        zs = [complex(rng.uniform() + rng.uniform() * tau) for _ in range(4)]
        gs = [1.0, -0.5, 0.25, -0.75]
        big_a, big_b = coefficients(tau, circulation_state(torus_skew, zs, gs, (0.3,), (-0.2,)))
        back_a = big_a - sum(g * u_alpha(tau, z) for z, g in zip(zs, gs))
        back_b = big_b - sum(g * u_beta(tau, z) for z, g in zip(zs, gs))
        assert abs(back_a - 0.3) < 1e-10
        assert abs(back_b + 0.2) < 1e-10

    def test_common_lattice_shift_invariance(self, torus_skew):
        tau = torus_skew.tau
        zs = [0.2 + 0.3j, 0.6 + 0.1j]
        gs = [1.5, -1.5]
        base = circulation_state(torus_skew, zs, gs, (0.0,), (0.0,))
        shifted = circulation_state(torus_skew, [z + 2 - tau for z in zs], gs, (0.0,), (0.0,))
        assert base == pytest.approx(shifted)

    def test_one_configuration_gives_the_complex_w(self, torus_skew, rng):
        # (n,) positions: a complex, bit for bit a tau - b + Gamma @ z
        zs = rng.normal(size=5) * 3 + 1j * rng.normal(size=5) * 3
        gs = rng.normal(size=5)
        gs -= gs.mean()
        w = circulation_state(torus_skew, zs, gs, (0.3,), (-0.2,))
        assert type(w) is complex
        assert w == complex(0.3 * torus_skew.tau + 0.2 + gs @ zs)

    def test_batch_gives_one_w_per_configuration(self, sphere, torus_skew, rng):
        # (..., n) positions: an array of W over the leading axes, each its
        # configuration's one-configuration W to rounding
        zs = rng.normal(size=(2, 3, 4)) + 1j * rng.normal(size=(2, 3, 4))
        gs = np.array([1.0, -0.5, 0.25, -0.75])
        w = circulation_state(torus_skew, zs, gs, (0.3,), (-0.2,))
        assert w.shape == (2, 3) and w.dtype == complex
        for idx in np.ndindex(2, 3):
            one = circulation_state(torus_skew, zs[idx], gs, (0.3,), (-0.2,))
            assert abs(w[idx] - one) <= 1e-15 * (1.0 + np.abs(gs * zs[idx]).sum())
        zero = circulation_state(sphere, zs, [1.0, 2.0, 3.0, 4.0], (), ())
        assert zero.shape == (2, 3) and not zero.any()

    def test_strength_sum_enforced(self, torus_i):
        with pytest.raises(ValueError, match="sum to zero"):
            circulation_state(torus_i, [0.1 + 0.1j, 0.5 + 0.5j], [1.0, 1.0], (0.0,), (0.0,))

    def test_base_length_enforced(self, torus_i):
        with pytest.raises(ValueError, match="length 1"):
            circulation_state(torus_i, [0.1 + 0.1j, 0.5 + 0.5j], [1.0, -1.0], (), ())

    def test_position_derivative(self, torus_skew):
        # dA/dz1 = Gamma_1 dU_alpha/dz1, by finite differences of the state
        tau = torus_skew.tau
        zs = [0.2 + 0.3j, 0.6 + 0.1j]
        gs = [1.25, -1.25]
        h = 1e-6

        def A_at(z1):
            w = circulation_state(torus_skew, [z1, zs[1]], gs, (0.0,), (0.0,))
            return coefficients(tau, w)[0]

        fx = (A_at(zs[0] + h) - A_at(zs[0] - h)) / (2 * h)
        fy = (A_at(zs[0] + 1j * h) - A_at(zs[0] - 1j * h)) / (2 * h)
        fd = 0.5 * (fx - 1j * fy)
        expected = gs[0] * -0.5j / tau.imag
        assert abs(fd - expected) < 1e-8


class TestCirculationForm:
    def test_zero_coefficients_zero_form(self, torus_i):
        assert circulation_form(torus_i, 0j) == 0j

    def test_unit_alpha_coefficient_on_square_torus(self, torus_i):
        got_a, got_b = loop_periods(torus_i.tau, *flow_form(torus_i, torus_i.tau))
        assert abs(got_a - 1.0) < 1e-10
        assert abs(got_b) < 1e-10

    def test_periods_reproduce_coefficients(self, torus_skew, rng):
        tau = torus_skew.tau
        for _ in range(20):
            A, B = rng.normal(size=2)
            got_a, got_b = loop_periods(tau, *flow_form(torus_skew, A * tau - B))
            assert abs(got_a - A) < 1e-10
            assert abs(got_b - B) < 1e-10


class TestCirculationEnergy:
    def test_zero(self, torus_i):
        assert circulation_energy(torus_i, 0j) == 0.0

    @pytest.mark.parametrize("tau", (1j, 0.5 + 1j))
    def test_matches_grid_quadrature(self, tau, rng):
        surface = Surface.flat_torus(tau)
        for _ in range(10):
            A, B = rng.normal(size=2)
            w = A * tau - B
            cx, cy = flow_form(surface, w)
            # direct quadrature of the squared pointwise norm over the domain
            quad = (cx**2 + cy**2) * tau.imag
            assert abs(circulation_energy(surface, w) - quad) < 1e-10 * max(1.0, quad)

    def test_positive_for_nonzero_coefficients(self, torus_skew, rng):
        for _ in range(500):
            A, B = rng.normal(size=2)
            if abs(A) + abs(B) < 1e-6:
                continue
            assert circulation_energy(torus_skew, A * torus_skew.tau - B) > 0


# reduced by an inversion (|j| != 1), hexagonal, skinny, and random moduli
MODULI = st.one_of(
    st.sampled_from((0.3 + 0.001j, 0.4 + 0.02j, 0.02j, cmath.exp(1j * math.pi / 3))),
    st.builds(complex, st.floats(-2.0, 2.0), st.floats(0.05, 3.0)))
# no subnormal squares
COEFFICIENTS = st.floats(-10.0, 10.0).filter(lambda x: x == 0.0 or abs(x) >= 1e-6)


@given(MODULI, COEFFICIENTS, COEFFICIENTS)
@example(0.3 + 0.001j, 1.0, 0.3)   # W = tau - 0.3 = 0.001i: P's terms cancel
@settings(max_examples=200)
def test_energy_is_the_period_matrix_form(tau, big_a, big_b):
    # the energy H adds is (A, B) P (A, B)^T, and (A, B) come back from W;
    # both to 1e-12 of the size of the summands, (|A| |tau| + |B|) per factor
    surface, ab = Surface.flat_torus(tau), np.array([big_a, big_b])
    w = big_a * tau - big_b
    size = abs(big_a) * abs(tau) + abs(big_b)
    quad = float(ab @ period_matrix(tau) @ ab)
    assert abs(circulation_energy(surface, w) - quad) <= 1e-12 * size**2 / tau.imag
    got = np.array(kelvin_coefficients(surface, w))
    assert np.abs(got - ab).max() <= 1e-12 * size * max(1.0, abs(tau)) / tau.imag


@pytest.mark.parametrize("tau", (1j, 0.5 + 1j))
def test_bilinear_period_identity(tau, rng):
    # wedge integral of two constant closed forms against the period pairing
    for _ in range(20):
        p = rng.normal(size=2)
        q = rng.normal(size=2)
        wedge = (p[0] * q[1] - p[1] * q[0]) * tau.imag
        pa, pb = loop_periods(tau, *p)
        qa, qb = loop_periods(tau, *q)
        assert abs(wedge - (pa * qb - qa * pb)) < 1e-10


def test_conjugate_periods_of_two_point_potential(torus_skew, rng):
    assert conjugate_period_residual(torus_skew, rng, pairs=20) < 1e-6
