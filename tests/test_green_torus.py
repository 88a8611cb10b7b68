import cmath
import math

import numpy as np
import pytest

from pointvortex import theta
from pointvortex.green import green, robin_data, torus_pair_terms
from pointvortex.oracles import (
    delta_probe_points,
    min_image_distance_grid,
    mollified_delta,
    torus_grid,
    torus_poisson_oracle,
    wirtinger_fd,
)
from pointvortex.surfaces import Surface, SurfacePoint
from pointvortex.verify import torus_green_normalization

TAUS = (1j, 0.5 + 1j, 2j)


def dedekind_eta_log_abs(tau: complex, terms: int = 200) -> float:
    """log|eta(tau)| from the q-product with a fixed term count, written out
    apart from the library's adaptive one."""
    q = cmath.exp(2j * math.pi * tau)
    total = -math.pi * tau.imag / 12.0
    for n in range(1, terms):
        total += math.log(abs(1.0 - q**n))
    return total


@pytest.mark.parametrize("tau", TAUS)
def test_normalization_constant_matches_eta_oracle(tau):
    got = theta.green_normalization_constant(tau)
    expected = dedekind_eta_log_abs(tau) / (2.0 * math.pi)
    assert abs(got - expected) < 1e-12


@pytest.mark.parametrize("tau", TAUS + (0.3 + 0.1j,))
def test_green_has_zero_mean_by_quadrature(tau):
    # independent of the eta closed form: slice trapezoid x Gauss-Legendre
    assert torus_green_normalization(tau) < 1e-12


@pytest.mark.parametrize("tau", TAUS)
def test_theta_derivative_at_zero_matches_eta_cube(tau):
    # theta1'(0) = 2 pi eta^3 and C = log|eta| / 2 pi make the Robin constant
    # h0 = -log|theta1'(0)| + 2 pi C equal to -log 2 pi - 2 log|eta(tau)|
    h0 = theta.theta_context(tau).h0
    expected = -math.log(2.0 * math.pi) - 2.0 * dedekind_eta_log_abs(tau)
    assert h0 == pytest.approx(expected, rel=1e-12)


def theta1_longer_sum(tau: complex, u: complex, terms: int) -> tuple[complex, complex]:
    """(theta1(u), theta1'(u)) summed term by term with q = exp(i pi tau)."""
    th = dth = 0j
    for k in range(terms):
        c = (-1) ** k * cmath.exp(1j * math.pi * tau * (k + 0.5) ** 2)
        f = (2 * k + 1) * math.pi
        th += 2.0 * c * cmath.sin(f * u)
        dth += 2.0 * c * f * cmath.cos(f * u)
    return th, dth


def test_theta_truncation_self_consistency():
    # five more terms than the working truncation move nothing, over the
    # whole fundamental domain of the reduced modulus the series runs on
    for tau in TAUS + (0.4 + 0.02j,):
        ctx = theta.theta_context(tau)
        tau_r = ctx.tau
        for u in (0.31 + 0.17 * tau_r, 0.05 - 0.44 * tau_r, -0.49 + 0.5 * tau_r,
                  0.2 + tau_r):
            th, dth = theta1_longer_sum(tau_r, u, ctx.n_terms + 5)
            assert abs(theta.theta1(ctx, u) - th) <= 1e-12 * max(1.0, abs(th))
            assert abs(theta.theta1_dz(ctx, u) - dth) <= 1e-12 * max(1.0, abs(dth))


def centred_cell_truncation(ctx) -> float:
    """The worst of |series - 20-term sum| / (sum of the terms' moduli), for
    theta1 and theta1', over a 21 x 21 grid of the centred cell |Re z| <= 1/2,
    |Im z| <= Im tau' / 2 that reduce_centered leaves, edges included (at the
    zero z = 0, where theta1's terms all vanish, the plain difference)."""
    tau_r = ctx.tau
    xs = np.linspace(-0.5, 0.5, 21)
    ys = np.linspace(-0.5, 0.5, 21) * tau_r.imag
    z = (xs[None, :] + 1j * ys[:, None]).ravel()
    th, dth = theta.theta1_series(ctx, z)
    coeffs = [(-1) ** k * cmath.exp(1j * math.pi * tau_r * (k + 0.5) ** 2) for k in range(20)]
    worst = 0.0
    for u, got_th, got_dth in zip(z, th, dth):
        th_terms = [2.0 * c * cmath.sin((2 * k + 1) * math.pi * u) for k, c in enumerate(coeffs)]
        dth_terms = [2.0 * c * (2 * k + 1) * math.pi * cmath.cos((2 * k + 1) * math.pi * u)
                     for k, c in enumerate(coeffs)]
        for got, terms in ((got_th, th_terms), (got_dth, dth_terms)):
            worst = max(worst, abs(got - sum(terms)) / (sum(map(abs, terms)) or 1.0))
    return worst


def test_theta_truncation_at_least_conditioned_modulus():
    # tau' = exp(i pi / 3) has the smallest Im tau' of the reduced domain, and
    # the centred cell is where the series is run: there theta1 and theta1'
    # agree with a 20-term sum to 1e-14 of the sum of the terms' moduli.  The
    # working four terms read 4.1e-16, three 1.4e-10.
    ctx = theta.theta_context(cmath.exp(1j * math.pi / 3.0))
    assert abs(abs(ctx.tau) - 1.0) < 1e-15 and abs(abs(ctx.tau.real) - 0.5) < 1e-15
    assert centred_cell_truncation(ctx) <= 1e-14


def test_three_theta_terms_fail_the_centred_cell_bound(monkeypatch):
    # the bound above can fail: one term fewer misses it by four orders
    monkeypatch.setattr(theta, "_TERMS", 3)
    ctx = theta.theta_context.__wrapped__(cmath.exp(1j * math.pi / 3.0))   # bypass the cache
    assert ctx.n_terms == 3
    assert centred_cell_truncation(ctx) > 1e-12


@pytest.mark.parametrize("tau", (1j, 0.5 + 1j, cmath.exp(1j * math.pi / 3.0), 0.4 + 0.02j, 8j))
def test_theta_near_its_zero_keeps_relative_precision(tau):
    # theta1 = theta1'(0) z + theta1'''(0) z^3 / 6 + O(z^5), with both derivatives
    # from a 12-term sum on the modulus the series runs on; forming sin x from
    # exponentials as (e - 1/e) / 2i would miss here by about 1e-7
    ctx = theta.theta_context(tau)
    coeffs = [(-1) ** k * cmath.exp(1j * math.pi * ctx.tau * (k + 0.5) ** 2) for k in range(12)]
    d1 = 2.0 * sum(c * (2 * k + 1) * math.pi for k, c in enumerate(coeffs))
    d3 = -2.0 * sum(c * ((2 * k + 1) * math.pi) ** 3 for k, c in enumerate(coeffs))
    for z in (1e-9, 1e-6 * (1 + 1j), -3e-8j, 2e-5 - 1e-5j, 1e-12j):
        th, dth = d1 * z + d3 * z**3 / 6.0, d1 + d3 * z**2 / 2.0
        assert abs(theta.theta1(ctx, z) - th) <= 2e-15 * abs(th)
        assert abs(theta.theta1_dz(ctx, z) - dth) <= 2e-15 * abs(dth)


@pytest.mark.parametrize("tau", (0.5 + 1j, cmath.exp(1j * math.pi / 3.0), 0.4 + 0.02j,
                                 0.3 + 0.001j))
def test_green_gradient_near_a_collision(tau):
    # at |u| = 1e-10, dG/dz = -(theta1'/theta1(u') + 2 pi i Im u' / Im tau') / (4 pi j)
    # with u' = u / j, and theta1 = d1 u' + d3 u'^3 / 6 + O(u'^5) there, d1 and d3
    # the first and third derivatives at 0 from 12-term sums: the Im term
    # folded into the ratio's imaginary part loses nothing next to the pole
    ctx = theta.theta_context(tau)
    tau_r, j = ctx.tau, ctx.j
    coeffs = [(-1) ** k * cmath.exp(1j * math.pi * tau_r * (k + 0.5) ** 2) for k in range(12)]
    d1 = 2.0 * sum(c * (2 * k + 1) * math.pi for k, c in enumerate(coeffs))
    d3 = -2.0 * sum(c * ((2 * k + 1) * math.pi) ** 3 for k, c in enumerate(coeffs))
    u = 1e-10 * np.exp(1j * (np.arange(12) * math.pi / 6.0 + 0.1))
    ur = u / j
    ratio = (d1 + d3 * ur**2 / 2.0) / (d1 * ur + d3 * ur**3 / 6.0)
    want = -(ratio + 2j * math.pi * ur.imag / tau_r.imag) / (4.0 * math.pi * j)
    got = torus_pair_terms(tau, u)[1]
    assert np.all(np.abs(got - want) <= 2e-15 * np.abs(want))


@pytest.mark.parametrize("tau", (100j, 199j, 0.5 + 199j))
def test_theta_log_derivative_on_tall_moduli(tau):
    # for Im tau >= 100 the q-corrections to theta1'/theta1 = pi cot(pi u) are
    # below 4 pi exp(-pi Im tau) over the centered cell, so the two agree to rounding,
    # with no overflow, division by zero or invalid operation in the cell
    ctx = theta.theta_context(tau)
    s = np.linspace(-0.5, 0.5, 41)
    u = (s[None, :] + s[:, None] * ctx.tau).ravel()
    u = u[u != 0]
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        th, dth = theta.theta1_series(ctx, u)
        expected = math.pi * np.cos(math.pi * u) / np.sin(math.pi * u)
        got = dth / th
    assert np.all(np.abs(got - expected) <= 1e-14 * np.abs(expected))


def test_green_symmetry(torus_skew, rng):
    pts = delta_probe_points(torus_skew, rng, 200)
    for i in range(100):
        p, q = pts[2 * i], pts[2 * i + 1]
        if abs(p.coord - q.coord) < 1e-3:
            continue
        assert abs(green(torus_skew, p, q).value - green(torus_skew, q, p).value) < 1e-12


def test_green_double_periodicity(torus_skew, rng):
    tau = torus_skew.tau
    a = SurfacePoint(0, 0.23 + 0.51 * tau)
    for _ in range(20):
        z = complex(rng.uniform() + rng.uniform() * tau)
        if abs(z - a.coord) < 0.05:
            continue
        base = green(torus_skew, SurfacePoint(0, z), a).value
        for shift in (1.0, tau, 3.0 - 2.0 * tau):
            moved = green(torus_skew, SurfacePoint(0, z + shift), a).value
            assert abs(moved - base) < 1e-12


def test_green_gradient_against_finite_differences(torus_skew, rng):
    a = SurfacePoint(0, 0.4 + 0.3j)
    for _ in range(20):
        z = complex(rng.uniform(), rng.uniform())
        if abs(z - a.coord) < 0.15:
            continue

        def value_at(c):
            return green(torus_skew, SurfacePoint(0, c), a).value

        fd, _ = wirtinger_fd(value_at, z, h=1e-6)
        assert abs(green(torus_skew, SurfacePoint(0, z), a).grad_z - fd) < 1e-8


@pytest.mark.parametrize("tau", TAUS)
def test_grid_mean_is_zero(tau):
    # uniform 512^2 grid with the pole parked mid-cell; aliasing of the 1/k^2
    # spectrum keeps the discrete mean within the stated bound
    n = 512
    z = torus_grid(tau, n)
    pole = (0.5 + 0.5 / n) + (0.5 + 0.5 / n) * tau
    values = torus_pair_terms(tau, z - pole)[0]
    assert abs(values.mean()) < 1e-6


@pytest.mark.parametrize("tau", (1j, 0.5 + 1j))
def test_poisson_oracle_agreement(tau):
    n = 128
    pole = 0.31 + 0.47 * tau
    source = mollified_delta(tau, n, pole, sigma_cells=2.0)
    solved = torus_poisson_oracle(tau, n, source)
    exact = torus_pair_terms(tau, torus_grid(tau, n) - pole)[0]
    mask = min_image_distance_grid(tau, n, pole) > 12.0 * max(1.0, abs(tau)) / n
    diff = solved[mask] - exact[mask]
    diff -= diff.mean()
    assert np.abs(diff).max() / np.abs(exact[mask]).max() < 1e-6


class TestRobinData:
    def test_h1_vanishes_by_translation_invariance(self, torus_skew, rng):
        # oracle: finite differences of h0 over sample points
        for p in delta_probe_points(torus_skew, rng, 10):
            d = robin_data(torus_skew, p)
            assert abs(d.h1) < 1e-10

            def h0_at(c):
                return robin_data(torus_skew, SurfacePoint(0, c)).h0

            fd, _ = wirtinger_fd(h0_at, p.coord, h=1e-6)
            assert abs(fd) < 1e-9

    @pytest.mark.parametrize("tau", TAUS)
    def test_h11_value(self, tau):
        surface = Surface.flat_torus(tau)
        d = robin_data(surface, SurfacePoint(0, 0.3 + 0.2j))
        assert d.h11 == pytest.approx(math.pi / (2.0 * surface.area), abs=1e-15)

    def test_h2_vanishes_on_square_torus(self, torus_i):
        # the quarter-turn symmetry of tau = i forces the quadratic
        # coefficient to zero
        d = robin_data(torus_i, SurfacePoint(0, 0.5 + 0.5j))
        assert abs(d.h2) < 1e-12

    @pytest.mark.parametrize("tau", TAUS)
    def test_h2_against_fd_of_regular_part(self, tau):
        # 4th-order extraction of the quadratic Taylor term of
        # 2 pi G + log|z-a| around the pole
        surface = Surface.flat_torus(tau)
        a = 0.41 + 0.37 * tau
        d = robin_data(surface, SurfacePoint(0, a))

        def reg(u):
            g = green(surface, SurfacePoint(0, a + u), SurfacePoint(0, a)).value
            return 2.0 * math.pi * g + math.log(abs(u)) - d.h0

        def sym(u):
            return 0.5 * (reg(u) + reg(-u))

        def estimate(h):
            re = (sym(h) - sym(1j * h)) / (2.0 * h * h)
            im = (sym(h * cmath.exp(3j * math.pi / 4)) - sym(h * cmath.exp(1j * math.pi / 4))) / (
                2.0 * h * h
            )
            return complex(re, im)

        h = 1e-2
        fd = (4.0 * estimate(h / 2) - estimate(h)) / 3.0
        assert abs(fd - d.h2) < 1e-6

    def test_chart_field_records_evaluation_chart(self, torus_i):
        assert robin_data(torus_i, SurfacePoint(0, 0.1 + 0.1j)).chart_id == 0


def test_robin_metric_constant(torus_skew, rng):
    values = [math.exp(-robin_data(torus_skew, p).h0)
              for p in delta_probe_points(torus_skew, rng, 100)]
    assert (max(values) - min(values)) < 1e-10 * max(values)
