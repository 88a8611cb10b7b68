import math

import numpy as np
import pytest

from pointvortex.errors import ChartError
from pointvortex.surfaces import (
    FLAT_TORUS,
    Surface,
    SurfacePoint,
    canonical_coords,
    conformal_factor,
    geodesic_distance,
    transition,
)

from reference import dlog_lambda_dzbar, meridian_arc_length, metric_connection


def test_surface_descriptors(sphere, torus_skew):
    assert sphere.genus == 0
    assert abs(sphere.area - 4.0 * math.pi) < 1e-12 * 4.0 * math.pi
    assert torus_skew.genus == 1
    assert abs(torus_skew.area - 1.0) < 1e-12


def test_directly_built_torus_derives_genus_and_area():
    torus = Surface(FLAT_TORUS, tau=0.3 + 2j)
    assert torus.genus == 1
    assert torus.area == 2.0
    assert torus == Surface.flat_torus(0.3 + 2j)


def test_only_the_torus_has_a_modulus():
    assert Surface("sphere") == Surface.sphere() and Surface.sphere().tau is None
    with pytest.raises(ValueError, match="the sphere has none"):
        Surface("sphere", 2j)
    with pytest.raises(ValueError, match="needs a modulus"):
        Surface(FLAT_TORUS)


def test_torus_requires_upper_half_plane_modulus():
    with pytest.raises(ValueError):
        Surface.flat_torus(1.0 - 0.5j)
    with pytest.raises(ValueError):
        Surface(FLAT_TORUS, tau=1.0 - 0.5j)


def test_point_coordinates_must_be_finite():
    with pytest.raises(ValueError):
        SurfacePoint(0, complex(float("inf"), 0.0))


@pytest.mark.parametrize("z,expected", [(0j, 2.0), (1.0 + 0j, 1.0)])
def test_conformal_factor_sphere(sphere, z, expected):
    assert conformal_factor(sphere, SurfacePoint(0, z)) == pytest.approx(expected)
    assert conformal_factor(sphere, SurfacePoint(1, z)) == pytest.approx(expected)


def test_conformal_factor_torus_is_one(torus_i, rng):
    for _ in range(10):
        z = complex(rng.uniform(), rng.uniform())
        assert conformal_factor(torus_i, SurfacePoint(0, z)) == 1.0


def test_conformal_factor_rejects_bad_chart(sphere, torus_i):
    with pytest.raises(ChartError):
        conformal_factor(sphere, SurfacePoint(2, 0j))
    with pytest.raises(ChartError):
        conformal_factor(torus_i, SurfacePoint(1, 0j))


def test_metric_connection_values(sphere, torus_i):
    assert metric_connection(sphere, SurfacePoint(0, 0j)) == 0
    assert metric_connection(sphere, SurfacePoint(0, 1.0 + 0j)) == pytest.approx(-1.0)
    assert metric_connection(torus_i, SurfacePoint(0, 0.3 + 0.4j)) == 0


def test_metric_connection_is_wirtinger_derivative_of_log_lambda(sphere, rng):
    # r = 2 d(log lambda)/dz against central finite differences
    h = 1e-6
    for _ in range(25):
        z = complex(*rng.uniform(-0.9, 0.9, 2))

        def ll(c):
            return math.log(conformal_factor(sphere, SurfacePoint(0, c)))

        fx = (ll(z + h) - ll(z - h)) / (2 * h)
        fy = (ll(z + 1j * h) - ll(z - 1j * h)) / (2 * h)
        fd = 0.5 * (fx - 1j * fy)
        assert abs(metric_connection(sphere, SurfacePoint(0, z)) - 2 * fd) < 1e-8
        assert abs(dlog_lambda_dzbar(sphere, SurfacePoint(0, z)) - 0.5 * (fx + 1j * fy)) < 1e-8


def test_sphere_transition_examples(sphere):
    p, jet = transition(SurfacePoint(0, 2.0 + 0j))
    assert p.chart_id == 1
    assert p.coord == pytest.approx(0.5 + 0j)
    assert jet.phi1 == pytest.approx(-0.25)

    p, jet = transition(SurfacePoint(1, 1.0 + 0j))
    assert p.chart_id == 0
    assert (jet.phi1, jet.phi2, jet.phi3) == (-1.0, 2.0, -6.0)

    with pytest.raises(ChartError):
        transition(SurfacePoint(0, 0j))
    with pytest.raises(ChartError):
        transition(SurfacePoint(2, 0.5 + 0j))


def test_torus_reduction_idempotent(torus_skew, rng):
    z = rng.uniform(-5, 5, 50) + 1j * rng.uniform(-5, 5, 50)
    _, once, _, _ = canonical_coords(torus_skew, np.zeros(50, dtype=int), z)
    _, twice, m, n = canonical_coords(torus_skew, np.zeros(50, dtype=int), once)
    assert (once == twice).all()
    assert not m.any() and not n.any()


def test_canonical_point(sphere, torus_i):
    charts, coords, _, _ = canonical_coords(sphere, [0, 0], [0.5 + 0.5j, 2.0 + 0j])
    assert charts.tolist() == [0, 1]
    assert coords[1] == pytest.approx(0.5 + 0j)
    _, wrapped, m, n = canonical_coords(torus_i, [0], [-0.25 + 1.5j])
    assert wrapped[0] == pytest.approx(0.75 + 0.5j)
    assert (m[0], n[0]) == (-1, 1)


def test_geodesic_distance_examples(sphere, torus_i):
    o = SurfacePoint(0, 0j)
    assert geodesic_distance(sphere, o, o) == 0.0
    antipode = SurfacePoint(1, 0j)
    # meridian arc-length oracle: integrate the metric factor pole to pole
    oracle = meridian_arc_length()
    assert abs(oracle - math.pi) < 1e-9
    assert abs(geodesic_distance(sphere, o, antipode) - oracle) < 1e-9
    a = SurfacePoint(0, 0j)
    b = SurfacePoint(0, 0.9 + 0j)
    assert geodesic_distance(torus_i, a, b) == pytest.approx(0.1)


@pytest.mark.parametrize("z", (0.3 + 0.4j, 0.9 + 0.1j, 0.01, 0.7 - 0.7j))
def test_antipodal_separation_is_pi(sphere, z):
    # an arcsin of a clamped R^3 chord misses pi here by up to 3e-8
    charts, coords, _, _ = canonical_coords(sphere, [0], [-1.0 / complex(z).conjugate()])
    antipode = SurfacePoint(int(charts[0]), complex(coords[0]))
    assert antipode.chart_id == 1
    assert abs(geodesic_distance(sphere, SurfacePoint(0, z), antipode) - math.pi) <= 1e-15


def test_geodesic_distance_cross_chart_consistency(sphere, rng):
    for _ in range(30):
        z = complex(*rng.uniform(-0.9, 0.9, 2))
        w = complex(*rng.uniform(-0.9, 0.9, 2))
        p0 = SurfacePoint(0, z)
        # the same physical point handed over to the other chart
        p1 = SurfacePoint(1, 1.0 / z) if z != 0 else None
        q = SurfacePoint(0, w)
        if p1 is not None:
            assert geodesic_distance(sphere, p0, q) == pytest.approx(
                geodesic_distance(sphere, p1, q), abs=1e-12
            )


def test_chart_consistency_of_metric(sphere, rng):
    # lambda(chart0)|dz| = lambda(chart1)|dw| through w = 1/z
    count = 0
    while count < 200:
        z = complex(*rng.uniform(-2, 2, 2))
        if not 0.5 < abs(z) < 2.0:
            continue
        lam0 = conformal_factor(sphere, SurfacePoint(0, z))
        w, jet = transition(SurfacePoint(0, z))
        lam1 = conformal_factor(sphere, w)
        assert abs(lam1 * abs(jet.phi1) - lam0) < 1e-12 * lam0
        count += 1


def test_metric_connection_transforms_as_affine_connection(sphere, rng):
    # rtilde * phi' = r - phi''/phi' at the image point
    count = 0
    while count < 200:
        z = complex(*rng.uniform(-2, 2, 2))
        if not 0.3 < abs(z) < 3.0:
            continue
        r0 = metric_connection(sphere, SurfacePoint(0, z))
        w, jet = transition(SurfacePoint(0, z))
        r1 = metric_connection(sphere, w)
        assert abs(r1 * jet.phi1 - (r0 - jet.phi2 / jet.phi1)) < 1e-10
        count += 1
