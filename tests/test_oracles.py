import ast
import cmath
import math
from pathlib import Path

import numpy as np
import pytest

from pointvortex import oracles
from pointvortex.green import torus_pair_terms
from pointvortex.oracles import (
    contour_integral,
    gradient_form,
    min_image_distance_grid,
    mollified_delta,
    sphere_quadrature,
    torus_grid,
    torus_poisson_oracle,
    wirtinger_combine,
    wirtinger_fd,
    wirtinger_stencil,
)
from pointvortex.surfaces import SurfacePoint
from pointvortex.verify import sphere_green_normalization

from embedding import sphere_embedding


class TestPoissonOracle:
    def test_zero_source_gives_zero_potential(self):
        u = torus_poisson_oracle(1j, 64, np.zeros((64, 64)))
        assert np.abs(u).max() == 0.0

    def test_rejects_nonzero_mean(self):
        with pytest.raises(ValueError):
            torus_poisson_oracle(1j, 64, np.ones((64, 64)))

    def test_rejects_bad_grid(self):
        with pytest.raises(ValueError):
            torus_poisson_oracle(1j, 48, np.zeros((48, 48)))

    def test_manufactured_solution(self):
        # u = cos(2 pi (2s - t)) has -Laplace(u) known in closed form
        tau = 0.5 + 1j
        n = 128
        t2 = tau.imag
        z = torus_grid(tau, n)
        t = z.imag / t2
        s = z.real - t * tau.real
        u_exact = np.cos(2 * math.pi * (2 * s - t))
        eig = 4 * math.pi**2 * (4.0 + (-1.0 - tau.real * 2.0) ** 2 / t2**2)
        source = eig * u_exact
        u = torus_poisson_oracle(tau, n, source)
        assert np.abs(u - u_exact).max() < 1e-11

    def test_convergence_against_green(self):
        tau = 1j
        pole = 0.31 + 0.47j
        errs = []
        for n in (128, 256):
            source = mollified_delta(tau, n, pole, sigma_cells=2.0)
            solved = torus_poisson_oracle(tau, n, source)
            exact = torus_pair_terms(tau, torus_grid(tau, n) - pole)[0]
            mask = min_image_distance_grid(tau, n, pole) > 12.0 / n
            diff = solved[mask] - exact[mask]
            diff -= diff.mean()
            errs.append(np.abs(diff).max() / np.abs(exact[mask]).max())
        assert errs[0] < 1e-6
        assert errs[1] < errs[0]

    def test_two_point_source_matches_potential_difference(self):
        # +-delta pair source solves to G(., a) - G(., b) up to a constant
        tau = 1j
        n = 256
        a, b = 0.27 + 0.33j, 0.71 + 0.62j
        source = mollified_delta(tau, n, a) - mollified_delta(tau, n, b)
        solved = torus_poisson_oracle(tau, n, source)
        z = torus_grid(tau, n)
        exact = torus_pair_terms(tau, z - a)[0] - torus_pair_terms(tau, z - b)[0]
        mask = (min_image_distance_grid(tau, n, a) > 12.0 / n) & (
            min_image_distance_grid(tau, n, b) > 12.0 / n
        )
        diff = solved[mask] - exact[mask]
        diff -= diff.mean()
        assert np.abs(diff).max() / np.abs(exact[mask]).max() < 1e-6


class TestContourIntegral:
    def test_exact_form_integrates_to_zero_on_loops(self):
        # dF for F doubly periodic on C / (Z + tau Z), fed in via its Wirtinger
        # gradient: every lattice loop closes, so each integral vanishes
        tau = 0.5 + 1j

        def grad(z):
            t = z.imag / tau.imag
            s = z.real - t * tau.real
            f_s = 2 * math.pi * (np.cos(2 * math.pi * s) * np.cos(2 * math.pi * t)
                                 - np.sin(2 * math.pi * (s - 2 * t)))
            f_t = 2 * math.pi * (-np.sin(2 * math.pi * s) * np.sin(2 * math.pi * t)
                                 + 2 * np.sin(2 * math.pi * (s - 2 * t)))
            f_x, f_y = f_s, (f_t - tau.real * f_s) / tau.imag
            return 0.5 * (f_x - 1j * f_y)

        form = gradient_form(grad)
        for z0, delta in ((0.2 + 0.3j, 1.0), (0.1 + 0j, tau), (0.3 + 0.1j, 1.0 + tau)):
            assert abs(contour_integral(form, z0, delta)) < 1e-12

    def test_unit_alpha_period(self, torus_i):
        # loop along the first lattice direction sees -dU_beta = dx
        def form(z):
            return np.ones(np.shape(z)), np.zeros(np.shape(z))

        got = contour_integral(form, 0.2 + 0.4j, 1.0)
        assert abs(got - 1.0) < 1e-12

    def test_resolution_stability(self):
        # on the square torus the alpha and beta loops give cos(2 pi y0) I0(1)
        # and I0(1): the periodic trapezoid converges geometrically to both
        def form(z):
            x, y = z.real, z.imag
            return np.exp(np.sin(2 * math.pi * x)) * np.cos(2 * math.pi * y), \
                np.exp(np.cos(2 * math.pi * y))

        i0 = float(np.i0(1.0))
        for z0, delta, exact in ((0.3 + 0.2j, 1.0, math.cos(0.4 * math.pi) * i0),
                                 (0.3 + 0.2j, 1j, i0)):
            errs = [abs(contour_integral(form, z0, delta, n) - exact) for n in (4, 8, 16)]
            assert errs[0] > errs[1] > errs[2]
            a = contour_integral(form, z0, delta, n_points=512)
            b = contour_integral(form, z0, delta, n_points=1024)
            assert abs(a - b) < 1e-12
            assert abs(a - exact) < 1e-14


# both chart origins, a point on |z| = 1 in each chart, one interior point of each chart
POLES = (SurfacePoint(0, 0j), SurfacePoint(1, 0j), SurfacePoint(0, 1 + 0j),
         SurfacePoint(1, cmath.exp(2j)), SurfacePoint(0, 0.4 + 0.3j),
         SurfacePoint(1, -0.2 + 0.6j))
POLE_IDS = [f"chart{p.chart_id}-{p.coord}" for p in POLES]


class TestSphereQuadrature:
    def test_total_area(self):
        for pole in POLES:
            got = sphere_quadrature(lambda charts, z: np.ones(np.shape(z)), pole)
            assert abs(got - 4.0 * math.pi) < 1e-9

    def test_odd_function_integrates_to_zero(self):
        def integrand(charts, z):
            x, _, _ = sphere_embedding(charts, z)
            return x

        for pole in POLES:
            assert abs(sphere_quadrature(integrand, pole)) < 1e-8

    def test_smooth_nonsymmetric_integrand(self):
        # int of x3^2 over the unit sphere = 4 pi / 3
        def integrand(charts, z):
            _, _, x3 = sphere_embedding(charts, z)
            return x3**2

        for pole in POLES:
            got = sphere_quadrature(integrand, pole)
            assert abs(got - 4.0 * math.pi / 3.0) < 1e-8

    def test_integrand_is_called_once_on_chart_arrays(self):
        calls = []

        def integrand(charts, z):
            calls.append((charts, z))
            return np.ones(np.shape(z))

        sphere_quadrature(integrand, POLES[0], n=8)
        (charts, z), = calls
        assert charts.shape == z.shape == (8 * 16,)
        assert set(charts.tolist()) == {0, 1}
        assert np.abs(z).max() <= 1.0

    @pytest.mark.parametrize("pole", POLES, ids=POLE_IDS)
    def test_log_chord_closed_form(self, pole):
        # int log |x - p|^2 dA = 4 pi (2 log 2 - 1): the rule resolves the pole
        p = np.array(sphere_embedding(pole.chart_id, pole.coord))

        def integrand(charts, z):
            x = np.array(sphere_embedding(charts, z))
            return np.log(((x - p[:, None]) ** 2).sum(axis=0))

        exact = 4.0 * math.pi * (2.0 * math.log(2.0) - 1.0)
        errs = [abs(sphere_quadrature(integrand, pole, n) - exact) for n in (8, 16, 32, 48)]
        assert errs[0] > errs[1] > errs[2]
        assert errs[3] < 1e-10

    @pytest.mark.parametrize("pole", POLES, ids=POLE_IDS)
    def test_sphere_green_normalization_at_every_pole(self, pole):
        assert sphere_green_normalization((pole,)) < 1e-10


def test_wirtinger_fd_on_polynomial():
    def f(z):
        return z**3 + 2.0 * z * z.conjugate()

    z0 = 0.3 - 0.7j
    dz, dzbar = wirtinger_fd(f, z0, h=1e-5)
    assert abs(dz - (3 * z0**2 + 2 * z0.conjugate())) < 1e-9
    assert abs(dzbar - 2 * z0) < 1e-9


@pytest.mark.parametrize("richardson", (True, False))
def test_stencil_over_an_array_is_the_scalar_rule_pointwise(richardson):
    # one stencil and one combination: over an array of points a real f (an
    # energy) gives, bit for bit, what wirtinger_fd gives at each point alone
    def f(z):
        x, y = z.real, z.imag
        return x**3 * y - 2.0 * x * y * y + 1.0 / (1.0 + x * x + y * y)

    zs = np.array([0.3 - 0.7j, -1.2 + 0.1j, 0.0j, 2.5 + 2.5j])
    values = [f(p) for p in wirtinger_stencil(zs, 1e-5, richardson)]
    assert len(values) == (8 if richardson else 4)
    dz, dzbar = wirtinger_combine(values, 1e-5, richardson)
    for k, z in enumerate(zs):
        assert (dz[k], dzbar[k]) == wirtinger_fd(f, z, 1e-5, richardson)


def test_oracles_import_only_errors_and_surfaces_from_the_package():
    # the validators stay independent of the evaluators they check: of the
    # package, oracles may use only the error types and the surface geometry
    tree = ast.parse(Path(oracles.__file__).read_text())
    local = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level and module:
                local.add(module.split(".")[0])
            elif node.level:                       # from . import x
                local.update(alias.name for alias in node.names)
            elif module.split(".")[0] == "pointvortex":
                local.add(module.split(".")[1] if "." in module else module)
        elif isinstance(node, ast.Import):
            local.update(alias.name.split(".")[1] for alias in node.names
                         if alias.name.startswith("pointvortex."))
    assert "surfaces" in local, "the walk must see the relative imports"
    assert local <= {"errors", "surfaces"}, sorted(local)
