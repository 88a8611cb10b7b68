import math

import pytest

from pointvortex.errors import SingularityError
from pointvortex.green import green, robin_data
from pointvortex.oracles import delta_probe_points, wirtinger_fd
from pointvortex.surfaces import SurfacePoint, conformal_factor, transition
from pointvortex.verify import sphere_green_normalization

from reference import fundamental_potential


def test_green_value_at_origin_and_one(sphere):
    got = green(sphere, SurfacePoint(0, 0j), SurfacePoint(0, 1.0 + 0j)).value
    assert got == pytest.approx((math.log(2.0) - 1.0) / (4.0 * math.pi), abs=1e-15)


def test_green_matches_closed_form_expression(sphere, rng):
    # same expression, so the difference is exactly representable noise
    for _ in range(200):
        z = complex(*rng.uniform(-0.95, 0.95, 2))
        a = complex(*rng.uniform(-0.95, 0.95, 2))
        if abs(z - a) < 1e-3:
            continue
        expected = -(
            math.log(abs(z - a) ** 2 / ((1 + abs(z) ** 2) * (1 + abs(a) ** 2))) + 1.0
        ) / (4.0 * math.pi)
        assert green(sphere, SurfacePoint(0, z), SurfacePoint(0, a)).value == pytest.approx(
            expected, abs=1e-15
        )


def test_green_symmetry(sphere, rng):
    pts = delta_probe_points(sphere, rng, 400)
    for i in range(200):
        p, q = pts[2 * i], pts[2 * i + 1]
        if abs(p.coord - q.coord) < 1e-3 and p.chart_id == q.chart_id:
            continue
        assert abs(green(sphere, p, q).value - green(sphere, q, p).value) < 1e-12


def test_green_chart_invariance(sphere, rng):
    # the value is a function of the points, not of their representatives
    for _ in range(50):
        z = complex(*rng.uniform(-0.9, 0.9, 2))
        a = complex(*rng.uniform(-0.9, 0.9, 2))
        if abs(z) < 0.1 or abs(a) < 0.1 or abs(z - a) < 1e-2:
            continue
        v0 = green(sphere, SurfacePoint(0, z), SurfacePoint(0, a)).value
        v1 = green(sphere, SurfacePoint(1, 1 / z), SurfacePoint(0, a)).value
        v2 = green(sphere, SurfacePoint(1, 1 / z), SurfacePoint(1, 1 / a)).value
        assert v0 == pytest.approx(v1, abs=1e-12)
        assert v0 == pytest.approx(v2, abs=1e-12)


def test_green_gradient_against_finite_differences(sphere, rng):
    for _ in range(30):
        z = complex(*rng.uniform(-0.8, 0.8, 2))
        a = complex(*rng.uniform(-0.8, 0.8, 2))
        if abs(z - a) < 0.1:
            continue

        def value_at(c):
            return green(sphere, SurfacePoint(0, c), SurfacePoint(0, a)).value

        fd, _ = wirtinger_fd(value_at, z, h=1e-6)
        assert abs(green(sphere, SurfacePoint(0, z), SurfacePoint(0, a)).grad_z - fd) < 1e-8


def test_green_zero_mean(sphere):
    for pole in (SurfacePoint(0, 0.4 + 0.3j), SurfacePoint(1, -0.2 + 0.6j)):
        total = sphere_green_normalization((pole,))
        assert abs(total) < 1e-6


def test_green_rejects_coincident_points(sphere):
    p = SurfacePoint(0, 0.3 + 0.1j)
    with pytest.raises(SingularityError):
        green(sphere, p, p)


class TestRobinData:
    def test_values_at_origin(self, sphere):
        d = robin_data(sphere, SurfacePoint(0, 0j))
        assert d.h0 == pytest.approx(-0.5, abs=1e-15)
        assert d.h1 == 0
        assert d.h2 == 0
        assert d.h11 == pytest.approx(0.5, abs=1e-15)

    def test_values_at_one(self, sphere):
        d = robin_data(sphere, SurfacePoint(0, 1.0 + 0j))
        assert d.h1 == pytest.approx(0.5, abs=1e-15)
        assert d.h2 == pytest.approx(-0.125, abs=1e-15)

    def test_h11_matches_metric_density(self, sphere, rng):
        # h11 = pi lambda^2 / (2 area)
        for p in delta_probe_points(sphere, rng, 50):
            lam = conformal_factor(sphere, p)
            expected = math.pi * lam**2 / (2.0 * sphere.area)
            assert abs(robin_data(sphere, p).h11 - expected) < 1e-9

    def test_h1_is_derivative_of_h0(self, sphere, rng):
        for p in delta_probe_points(sphere, rng, 30):

            def h0_at(c):
                return robin_data(sphere, SurfacePoint(p.chart_id, c)).h0

            fd, _ = wirtinger_fd(h0_at, p.coord, h=1e-6)
            assert abs(robin_data(sphere, p).h1 - fd) < 1e-7

    def test_h2_from_mixed_derivative_of_regular_part(self, sphere, rng):
        # h2 = (1/2) dh1/da - d^2 H/(dz da) at z=a, with H recovered from the
        # Green value plus its log pole, everything finite-differenced
        for _ in range(10):
            a = complex(*rng.uniform(-0.7, 0.7, 2))

            def reg(z, aa):
                g = green(sphere, SurfacePoint(0, z), SurfacePoint(0, aa)).value
                return 2.0 * math.pi * g + math.log(abs(z - aa))

            def dH_da(z, h=1.3e-3):
                fx = (reg(z, a + h) - reg(z, a - h)) / (2 * h)
                fy = (reg(z, a + 1j * h) - reg(z, a - 1j * h)) / (2 * h)
                return 0.5 * (fx - 1j * fy)

            def mixed(h=1e-3):
                fx = (dH_da(a + h) - dH_da(a - h)) / (2 * h)
                fy = (dH_da(a + 1j * h) - dH_da(a - 1j * h)) / (2 * h)
                return 0.5 * (fx - 1j * fy)

            def h1_at(c):
                return robin_data(sphere, SurfacePoint(0, c)).h1

            dh1, _ = wirtinger_fd(h1_at, a, h=1e-5)
            mixed_r = (4.0 * mixed(1e-3) - mixed(2e-3)) / 3.0
            expected = 0.5 * dh1 - mixed_r
            assert abs(robin_data(sphere, SurfacePoint(0, a)).h2 - expected) < 1e-6

    def test_chart_handover_laws(self, sphere, rng):
        # h0 shifts by Re log phi'; h1 glues as an affine connection with
        # half weight; h11 scales as a metric density; the dh1/da - 2 h2
        # combination picks up one sixth of the Schwarzian
        from pointvortex.connections import bracket

        done = 0
        while done < 100:
            a = complex(*rng.uniform(-1.5, 1.5, 2))
            if not 0.5 < abs(a) < 2.0:
                continue
            p = SurfacePoint(0, a)
            q, jet = transition(p)
            d0 = robin_data(sphere, p)
            d1 = robin_data(sphere, q)
            assert abs(d1.h0 - d0.h0 - math.log(abs(jet.phi1))) < 1e-8
            assert abs(d1.h1 * jet.phi1 - d0.h1 - 0.5 * jet.phi2 / jet.phi1) < 1e-8
            assert abs(d1.h11 * abs(jet.phi1) ** 2 - d0.h11) < 1e-8

            def dh1(point):
                def h1_at(c):
                    return robin_data(sphere, SurfacePoint(point.chart_id, c)).h1

                return wirtinger_fd(h1_at, point.coord, h=1e-5)[0]

            lhs = (dh1(q) - 2.0 * d1.h2) * jet.phi1**2
            rhs = dh1(p) - 2.0 * d0.h2 + bracket(jet, 2) / 6.0
            assert abs(lhs - rhs) < 1e-8
            done += 1


class TestRobinMetric:
    def test_value_at_origin(self, sphere):
        assert math.exp(-robin_data(sphere, SurfacePoint(0, 0j)).h0) == pytest.approx(
            math.exp(0.5), abs=1e-12
        )

    def test_proportional_to_round_metric(self, sphere, rng):
        ratios = [
            math.exp(-robin_data(sphere, p).h0) / conformal_factor(sphere, p)
            for p in delta_probe_points(sphere, rng, 100)
        ]
        expected = math.sqrt(math.e) / 2.0
        assert max(abs(r - expected) for r in ratios) < 1e-10 * expected


class TestFundamentalPotential:
    def test_vanishes_at_probe_equal_reference(self, sphere):
        z = SurfacePoint(0, 0.2 + 0.1j)
        a = SurfacePoint(0, 0.7 + 0j)
        b = SurfacePoint(0, -0.4 + 0.4j)
        assert fundamental_potential(sphere, z, z, a, b) == 0.0

    def test_equals_log_cross_ratio(self, sphere, rng):
        done = 0
        while done < 100:
            z, w, a, b = (complex(*rng.uniform(-0.9, 0.9, 2)) for _ in range(4))
            pts = (z, w, a, b)
            if min(
                abs(p - q) for i, p in enumerate(pts) for q in pts[i + 1:]
            ) < 0.05:
                continue
            got = fundamental_potential(
                sphere,
                SurfacePoint(0, z), SurfacePoint(0, w),
                SurfacePoint(0, a), SurfacePoint(0, b),
            )
            cross = (z - a) * (w - b) / ((z - b) * (w - a))
            assert abs(got + math.log(abs(cross))) < 1e-10
            done += 1

    def test_additive_normalization_cancels(self, sphere):
        # shifting every Green value by a constant leaves the combination
        # untouched, so the potential is independent of the zero-mean gauge
        z = SurfacePoint(0, 0.2 + 0.1j)
        w = SurfacePoint(0, -0.5 + 0.3j)
        a = SurfacePoint(0, 0.7 + 0j)
        b = SurfacePoint(0, -0.1 - 0.6j)
        shift = 0.37
        direct = fundamental_potential(sphere, z, w, a, b)
        shifted = 2.0 * math.pi * (
            (green(sphere, z, a).value + shift)
            - (green(sphere, z, b).value + shift)
            - (green(sphere, w, a).value + shift)
            + (green(sphere, w, b).value + shift)
        )
        assert direct == pytest.approx(shifted, abs=1e-14)

    def test_pole_collision_raises(self, sphere):
        z = SurfacePoint(0, 0.2 + 0.1j)
        w = SurfacePoint(0, -0.5 + 0.3j)
        b = SurfacePoint(0, -0.1 - 0.6j)
        with pytest.raises(SingularityError):
            fundamental_potential(sphere, z, w, z, b)
