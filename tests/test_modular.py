"""Modulus reduction: every torus evaluator works in the reduced basis.

The accuracy references here are built from product formulas on the modulus
as given (Jacobi triple product, the eta product and the Lambert series of
E2), so they share no code with the theta series or the reduction.
"""
import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pointvortex import theta
from pointvortex.green import robin_data, torus_pair_terms
from pointvortex.surfaces import Surface, SurfacePoint, pair_distances, reduced_modulus

SKINNY = (0.4 + 0.02j, 0.05j, 0.02j, 0.01j, 0.5 + 0.005j, 0.3 + 0.001j, 0.00503j,
          100j, 199j)


def centered(tau, u):
    t = u.imag / tau.imag
    s = u.real - t * tau.real
    s, t = s - np.floor(s + 0.5), t - np.floor(t + 0.5)
    return s + t * tau


def factors(tau):
    # the factors of the products below that are left out are within e^-40 of 1
    return np.arange(1, math.ceil(40.0 / (2.0 * math.pi * tau.imag)) + 2)


def ref_log_abs_eta(tau):
    q_n = np.exp(2j * math.pi * factors(tau) * tau)
    return -math.pi * tau.imag / 12.0 + float(np.log(np.abs(1.0 - q_n)).sum())


def ref_robin(tau):
    """h0 = -log 2 pi - 2 log|eta| (from theta1'(0) = 2 pi eta^3) and
    h2 = pi^2 E2 / 6 - pi / (2 Im tau) (from theta1'''(0) / theta1'(0) = -pi^2 E2)."""
    n = factors(tau)
    q_n = np.exp(2j * math.pi * n * tau)
    e2 = 1.0 - 24.0 * complex((n * q_n / (1.0 - q_n)).sum())
    h0 = -math.log(2.0 * math.pi) - 2.0 * ref_log_abs_eta(tau)
    return h0, math.pi**2 * e2 / 6.0 - math.pi / (2.0 * tau.imag)


def ref_green(tau, u):
    """(G, dG/dz) from the triple product theta1(u) = 2 q^{1/4} sin(pi u)
    prod (1 - q^{2n}) (1 - q^{2n} e^{2 pi i u}) (1 - q^{2n} e^{-2 pi i u})."""
    u = centered(tau, np.asarray(u, dtype=complex))
    n = factors(tau)[:, None]
    w_plus = np.exp(2j * math.pi * (n * tau + u))
    w_minus = np.exp(2j * math.pi * (n * tau - u))
    q_2n = np.exp(2j * math.pi * n * tau)
    log_theta = (math.log(2.0) - math.pi * tau.imag / 4.0
                 + np.log(np.abs(np.sin(math.pi * u)))
                 + (np.log(np.abs(1.0 - q_2n)) + np.log(np.abs(1.0 - w_plus))
                    + np.log(np.abs(1.0 - w_minus))).sum(axis=0))
    dlog_theta = (math.pi * np.cos(math.pi * u) / np.sin(math.pi * u)
                  + (2j * math.pi * (w_minus / (1.0 - w_minus)
                                     - w_plus / (1.0 - w_plus))).sum(axis=0))
    value = (ref_log_abs_eta(tau) - log_theta + math.pi * u.imag**2 / tau.imag) / (2.0 * math.pi)
    grad = -(0.5 * dlog_theta + 1j * math.pi * u.imag / tau.imag) / (2.0 * math.pi)
    return value, grad


def sl2z_entries(tau, tau_r, j):
    """(a, b, c, d) with j = c tau + d and tau_r j = a tau + b."""
    c = round(j.imag / tau.imag)
    d = round(j.real - c * tau.real)
    w = tau_r * j
    a = round(w.imag / tau.imag)
    return a, round(w.real - a * tau.real), c, d


@pytest.mark.parametrize("tau", (1j, 0.5 + 1j, -0.5 + 1j, 2j, 8j, 199j,
                                 0.5 + 0.5j * math.sqrt(3.0)))
def test_reduction_is_identity_on_fundamental_domain(tau):
    assert reduced_modulus(tau) == (tau, 1.0)
    assert theta.theta_context(tau).n_terms == 6


@pytest.mark.parametrize("tau", SKINNY + (0.1 + 0.9j, -2.7 + 0.3j, 5.5 + 0.01j))
def test_reduction_lands_in_fundamental_domain(tau):
    tau_r, j = reduced_modulus(tau)
    assert abs(tau_r.real) <= 0.5 + 1e-12 and abs(tau_r) >= 1.0 - 1e-12
    a, b, c, d = sl2z_entries(tau, tau_r, j)
    assert a * d - b * c == 1
    assert abs((a * tau + b) / (c * tau + d) - tau_r) <= 1e-12 * abs(tau_r)
    assert theta.theta_context(tau).n_terms == 6


@pytest.mark.parametrize("tau", (0j, -1j, 1.0 - 0.5j, 300j, 1e-300j, 0.3 + 1e-250j,
                                 complex(0.0, math.inf), complex(math.nan, 1.0)))
def test_invalid_moduli_raise_value_error(tau):
    for build in (reduced_modulus, theta.theta_context, Surface.flat_torus):
        with pytest.raises(ValueError):
            build(tau)


@pytest.mark.parametrize("tau", SKINNY)
def test_green_and_robin_match_product_formulas(tau):
    rng = np.random.default_rng(11)
    u = rng.uniform(size=60) + rng.uniform(size=60) * tau
    value, grad = torus_pair_terms(tau, u)
    ref_value, ref_grad = ref_green(tau, u)
    assert np.abs(value - ref_value).max() <= 1e-12
    assert (np.abs(grad - ref_grad) / np.abs(ref_grad)).max() <= 5e-12
    d = robin_data(Surface.flat_torus(tau), SurfacePoint(0, 0.3 * tau))
    h0, h2 = ref_robin(tau)
    assert abs(d.h0 - h0) <= 1e-12
    assert abs(d.h2 - h2) <= 1e-12 * max(1.0, abs(h2))


GAMMAS = [g for g in itertools.product(range(-4, 5), repeat=4)
          if g[0] * g[3] - g[1] * g[2] == 1 and g[2] != 0]


def close(x, y):
    return abs(x - y) <= 1e-11 * max(1.0, abs(y))


@given(st.floats(-0.5, 0.5), st.floats(0.05, 3.0), st.sampled_from(GAMMAS),
       st.floats(0.05, 0.95), st.floats(0.05, 0.95))
def test_modular_covariance(re, im, gamma, s, t):
    """G(u; tau) = G(u / j; gamma tau), with j = c tau + d; the gradient,
    the Robin data and separations carry the matching powers of j."""
    a, b, c, d = gamma
    tau = complex(re, im)
    j = c * tau + d
    moved = (a * tau + b) / j
    u = s + t * tau
    value, grad = torus_pair_terms(tau, u)
    value_m, grad_m = torus_pair_terms(moved, u / j)
    assert close(value[()], value_m[()])
    assert close(j * grad[()], grad_m[()])
    p0 = SurfacePoint(0, 0j)
    r, r_m = (robin_data(Surface.flat_torus(x), p0) for x in (tau, moved))
    assert close(r.h0 - math.log(abs(j)), r_m.h0)
    assert close(j**2 * r.h2, r_m.h2)
    dist, dist_m = (pair_distances(Surface.flat_torus(x), [0, 0], [0j, z], 0, 1)
                    for x, z in ((tau, u), (moved, u / j)))
    assert close(dist / abs(j), dist_m)

