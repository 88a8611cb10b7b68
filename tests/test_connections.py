import cmath
import math

import pytest

from pointvortex.connections import TransitionJet, bracket, chain_check
from pointvortex.oracles import wirtinger_fd
from pointvortex.surfaces import Surface, SurfacePoint

from reference import (
    ConnectionValue,
    covariant_derivative,
    curvature,
    inverse_jet,
    lambda2_operator,
    metric_connection,
    transform_connection,
)

_TWO_PI = 2.0 * math.pi


def random_jet(rng, min_phi1=0.3):
    c = rng.normal(size=3) + 1j * rng.normal(size=3)
    while abs(c[0]) < min_phi1:
        c[0] = rng.normal() + 1j * rng.normal()
    return TransitionJet(c[0], c[1], c[2])


def mobius_jet(rng):
    while True:
        a, b, c, d = rng.normal(size=4) + 1j * rng.normal(size=4)
        det = a * d - b * c
        z = complex(*rng.normal(size=2))
        den = c * z + d
        if abs(det) > 1e-2 and abs(den) > 0.3:
            return TransitionJet(
                det / den**2, -2 * c * det / den**3, 6 * c**2 * det / den**4
            )


def mod_2pi_i(value):
    return value - _TWO_PI * 1j * round(value.imag / _TWO_PI)


class TestBracket:
    def test_identity_jet_vanishes(self):
        jet = TransitionJet(1, 0, 0)
        for k in (0, 1, 2):
            assert bracket(jet, k) == 0

    def test_affine_jet(self):
        jet = TransitionJet(2.0 + 1j, 0.0, 0.0)
        assert bracket(jet, 0) == cmath.log(2.0 + 1j)
        assert bracket(jet, 1) == 0
        assert bracket(jet, 2) == 0

    def test_inversion_jet_has_zero_schwarzian(self):
        # jet of w = 1/z at z = 1
        jet = TransitionJet(-1.0, 2.0, -6.0)
        assert bracket(jet, 2) == pytest.approx(0.0, abs=1e-14)

    def test_mobius_schwarzian_vanishes(self, rng):
        worst = max(abs(bracket(mobius_jet(rng), 2)) for _ in range(500))
        assert worst < 1e-12

    def test_antisymmetry(self, rng):
        # {z,w}_k (dw)^k = -{w,z}_k (dz)^k, i.e. bracket of the inverse jet
        # times phi'^k cancels the forward bracket
        for _ in range(100):
            jet = random_jet(rng)
            inv = inverse_jet(jet)
            for k in (0, 1, 2):
                resid = bracket(inv, k) * jet.phi1**k + bracket(jet, k)
                if k == 0:
                    resid = mod_2pi_i(resid)
                assert abs(resid) < 1e-10


class TestChainRule:
    def test_identity_composition(self):
        ident = TransitionJet(1, 0, 0)
        for k in (0, 1, 2):
            assert chain_check(ident, ident, ident, k) == 0

    def test_mobius_composition_schwarzian(self, rng):
        for _ in range(50):
            ja, jb = mobius_jet(rng), mobius_jet(rng)
            assert chain_check(ja, jb, ja.compose(jb), 2) < 1e-12

    def test_random_cubic_jets(self, rng):
        for _ in range(200):
            ja, jb = random_jet(rng), random_jet(rng)
            jab = ja.compose(jb)
            for k in (0, 1, 2):
                assert chain_check(ja, jb, jab, k) < 1e-10

    def test_explicit_polynomial_composition(self):
        # z = f(u) = u + u^2, u = g(w) = 2w + w^3, composed symbolically at w0
        w0 = 0.3 + 0.1j
        u0 = 2 * w0 + w0**3
        jf = TransitionJet(1 + 2 * u0, 2.0, 0.0)
        jg = TransitionJet(2 + 3 * w0**2, 6 * w0, 6.0)
        # derivatives of the explicit composition h(w) = g + g^2
        h1 = (1 + 2 * u0) * jg.phi1
        h2 = 2 * jg.phi1**2 + (1 + 2 * u0) * jg.phi2
        h3 = 3 * 2 * jg.phi1 * jg.phi2 + (1 + 2 * u0) * jg.phi3
        jh = TransitionJet(h1, h2, h3)
        for k in (0, 1, 2):
            assert chain_check(jf, jg, jh, k) < 1e-12


class TestTransformConnection:
    def test_identity_jet_is_noop(self, rng):
        for order in (0, 1, 2):
            c = ConnectionValue(order, complex(*rng.normal(size=2)))
            out = transform_connection(c, TransitionJet(1, 0, 0))
            assert out.value == c.value

    def test_inversion_of_zero_affine_connection(self):
        # r = 0 pushed through w = 1/z at z = 2
        jet = TransitionJet(-0.25, 0.25, -0.375)
        out = transform_connection(ConnectionValue(1, 0.0), jet)
        assert out.value == pytest.approx(-4.0)
        # cross-check via bracket antisymmetry: -{w,z}_1/phi' = {z,w}_1, the
        # bracket of the inverse jet
        expected = bracket(inverse_jet(jet), 1)
        assert out.value == pytest.approx(expected)

    def test_round_trip_is_identity(self, rng):
        for _ in range(100):
            jet = random_jet(rng)
            for order in (0, 1, 2):
                c = ConnectionValue(order, complex(*rng.normal(size=2)))
                back = transform_connection(transform_connection(c, jet), inverse_jet(jet))
                assert back.close_to(c, tol=1e-12 * max(1.0, abs(c.value)))

    def test_cocycle(self, rng):
        # transforming along g then f equals transforming along f(g(.))
        for _ in range(100):
            jf, jg = random_jet(rng), random_jet(rng)
            for order in (0, 1, 2):
                c = ConnectionValue(order, complex(*rng.normal(size=2)))
                two_step = transform_connection(transform_connection(c, jg), jf)
                one_step = transform_connection(c, jf.compose(jg))
                assert two_step.close_to(one_step, tol=1e-10)

    def test_metric_connection_cross_chart(self, rng):
        # pushing the chart-0 Levi-Civita coefficient through w = 1/z lands on
        # the chart-1 evaluation
        from pointvortex.surfaces import transition

        sphere = Surface.sphere()
        count = 0
        while count < 100:
            z = complex(*rng.uniform(-2, 2, 2))
            if not 0.3 < abs(z) < 3.0:
                continue
            r0 = ConnectionValue(1, metric_connection(sphere, SurfacePoint(0, z)))
            w, jet = transition(SurfacePoint(0, z))
            pushed = transform_connection(r0, jet)
            direct = metric_connection(sphere, w)
            assert abs(pushed.value - direct) < 1e-10
            count += 1


class TestCurvature:
    def test_zero_connection(self):
        q = curvature(ConnectionValue(1, 0.0), 0.0)
        assert q.order == 2 and q.value == 0

    def test_torus_metric_connection_is_flat(self):
        torus = Surface.flat_torus(1j)
        r = metric_connection(torus, SurfacePoint(0, 0.2 + 0.7j))
        assert curvature(ConnectionValue(1, r), 0.0).value == 0

    def test_sphere_metric_connection_fd(self, rng):
        # q from the analytic r and a finite-difference dr/dz; the round
        # metric's affine connection has vanishing order-2 coefficient
        sphere = Surface.sphere()
        for _ in range(20):
            z = complex(*rng.uniform(-0.9, 0.9, 2))

            def r_at(c):
                return metric_connection(sphere, SurfacePoint(0, c))

            dr, _ = wirtinger_fd(r_at, z, h=1e-6)
            q = curvature(ConnectionValue(1, r_at(z)), dr)
            assert abs(q.value) < 1e-8


def _mobius_maps(rng):
    """A Mobius map w(z) with the 3-jet closures of its inverse z(w)."""
    while True:
        a, b, c, d = rng.normal(size=4) + 1j * rng.normal(size=4)
        if abs(a * d - b * c) > 0.5:
            break
    det = a * d - b * c

    def fwd(z):
        return (a * z + b) / (c * z + d)

    def inv(w):
        return (d * w - b) / (-c * w + a)

    def inv_jet(w):
        den = -c * w + a
        return TransitionJet(det / den**2, 2 * c * det / den**3,
                             6 * c**2 * det / den**4)

    return fwd, inv, inv_jet


class TestCovariantDerivative:
    def test_zero_weight_is_plain_derivative(self):
        r = ConnectionValue(1, 2.0 + 1j)
        assert covariant_derivative(3.0, 5.0 - 1j, 0.0, r) == 5.0 - 1j

    def test_zero_section(self):
        r = ConnectionValue(1, 2.0 + 1j)
        assert covariant_derivative(0.0, 7.0, 1.5, r) == 7.0

    @pytest.mark.parametrize("k", [-1.0, -0.5, 0.5, 1.0, 2.0])
    def test_covariance_under_mobius_maps(self, rng, k):
        # phi (dz)^k = phitilde (dw)^k  =>  nabla_k transforms with weight k+1
        done = 0
        while done < 20:
            fwd, inv, inv_jet = _mobius_maps(rng)
            z0 = complex(*rng.uniform(-0.5, 0.5, 2))
            w0 = fwd(z0)
            if abs(w0) > 5:
                continue

            def phi(z):
                return z**2 * z.conjugate() + 2 * z - z.conjugate()

            def dphi_dz(z):
                return 2 * z * z.conjugate() + 2

            def r_z(z):
                return 0.7 * z + 0.3j * z.conjugate() - 0.2

            jz_of_w = inv_jet(w0)          # jet of z(w) at w0
            g = jz_of_w.phi1               # dz/dw
            jw_of_z = inverse_jet(jz_of_w)  # jet of w(z) at z0

            phi_w = phi(z0) * g**k
            dphi_w = dphi_dz(z0) * g ** (k + 1) + phi(z0) * k * g ** (k - 1) * jz_of_w.phi2
            r_w = transform_connection(ConnectionValue(1, r_z(z0)), jw_of_z)

            lhs = covariant_derivative(phi_w, dphi_w, k, r_w)
            rhs = covariant_derivative(phi(z0), dphi_dz(z0), k,
                                       ConnectionValue(1, r_z(z0))) * g ** (k + 1)
            assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(rhs))
            done += 1


class TestLambda2:
    def test_flat_case_is_plain_second_derivative(self):
        q = ConnectionValue(2, 0.0)
        assert lambda2_operator(3.0 + 1j, 4.0, q) == 4.0

    def test_zero_section(self):
        q = ConnectionValue(2, 5.0)
        assert lambda2_operator(0.0, 4.0 - 2j, q) == 4.0 - 2j

    def test_composition_of_covariant_derivatives(self, rng):
        # d^2/dz^2 + q/2 equals nabla_{1/2} nabla_{-1/2} when q is the
        # curvature of r; inner derivative by finite differences
        for _ in range(20):
            z0 = complex(*rng.uniform(-0.5, 0.5, 2))

            def phi(z):
                return z**3 + 0.5 * z * z.conjugate() - 1j * z.conjugate() ** 2

            def dphi_dz(z):
                return 3 * z**2 + 0.5 * z.conjugate()

            def d2phi_dz2(z):
                return 6 * z

            def r_fn(z):
                return 0.4 * z**2 - 0.1j * z.conjugate() + 0.7

            def dr_dz(z):
                return 0.8 * z

            r0 = ConnectionValue(1, r_fn(z0))
            q0 = curvature(r0, dr_dz(z0))

            def inner(z):
                return covariant_derivative(
                    phi(z), dphi_dz(z), -0.5, ConnectionValue(1, r_fn(z))
                )

            d_inner, _ = wirtinger_fd(inner, z0, h=1e-6)
            composed = covariant_derivative(inner(z0), d_inner, 0.5, r0)
            direct = lambda2_operator(phi(z0), d2phi_dz2(z0), q0)
            assert abs(composed - direct) < 1e-8
