"""The sampling loops of the verify battery are bounded, its tolerance
overrides name real checks, its direct velocity route makes one all-vortex
evaluation per state, its self-term check fails on a wrong metric, its
sphere normalization check on a shifted Green function, its Robin checks on
a position-dependent h0 defect, its velocity checks on a scaled velocity law,
its period matrix check on a scaled circulation energy, its sphere velocity
check on a velocity law without the net-strength metric term and both velocity
checks on a scaled pair sum in the energy."""
import math
import sys
from dataclasses import replace

import numpy as np
import pytest

from pointvortex import dynamics, periods, verify
from pointvortex.config import resolve_scenario
from pointvortex.green import sphere_point_terms
from pointvortex.surfaces import Surface
from pointvortex.verify import (
    _MAX_DRAWS,
    CHECK_NAMES,
    _random_jet,
    check_tolerance,
    conjugate_period_residual,
    robin_transformation_laws,
    run_suite,
    self_term_residual,
    velocity_equivalence,
    verify_scenario,
)


class StuckRng:
    """Returns zeros for every draw, which no acceptance condition takes."""

    def uniform(self, low=0.0, high=1.0, size=None):
        return 0.0 if size is None else np.zeros(size)

    def normal(self, size=None):
        return 0.0 if size is None else np.zeros(size)


@pytest.mark.parametrize("draw", [
    lambda rng: conjugate_period_residual(Surface.flat_torus(0.5 + 1j), rng, 1),
    lambda rng: robin_transformation_laws(rng, 1),
    _random_jet,
], ids=["conjugate_periods", "robin_transformation_laws", "random_jet"])
def test_sampling_gives_up_instead_of_hanging(draw):
    with pytest.raises(ValueError, match="draws"):
        draw(StuckRng())


class LateRng(StuckRng):
    """Like StuckRng, but its scalar normal draws turn to 1.0 from the
    `late`-th call on, so phi1 first qualifies on a chosen draw."""

    def __init__(self, late):
        self.calls, self.late = 0, late

    def normal(self, size=None):
        if size is not None:
            return np.zeros(size)
        self.calls += 1
        return 1.0 if self.calls >= self.late else 0.0


def test_random_jet_checks_every_draw_it_makes():
    # draw k >= 2 of phi1 reads calls 2k - 3 and 2k - 2; the last draw is k = _MAX_DRAWS
    jet = _random_jet(LateRng(2 * _MAX_DRAWS - 3))
    assert jet.phi1 == 1.0 + 1.0j
    rng = LateRng(2 * _MAX_DRAWS - 1)
    with pytest.raises(ValueError, match="draws"):
        _random_jet(rng)
    assert rng.calls == 2 * (_MAX_DRAWS - 1)  # no draw is made and left unchecked


@pytest.mark.parametrize("overrides, message", [
    ({"no_such_check": 1e-3}, "unknown check 'no_such_check'"),
    ({"mobius_schwarzian": math.nan}, "must be finite and > 0"),
    ({"mobius_schwarzian": math.inf}, "must be finite and > 0"),
    ({"mobius_schwarzian": -1e-3}, "must be finite and > 0"),
], ids=["unknown", "nan", "inf", "negative"])
def test_run_suite_refuses_bad_overrides_before_running(overrides, message, monkeypatch):
    def must_not_run(rng, full):
        raise AssertionError("a check ran before the overrides were validated")

    monkeypatch.setattr(verify, "_CHECKS", (("mobius_schwarzian", 1e-10, must_not_run),))
    with pytest.raises(ValueError, match=message):
        run_suite("quick", 7, overrides)


def test_check_names_are_the_suite_in_order():
    assert len(CHECK_NAMES) == len(set(CHECK_NAMES)) == 18
    assert CHECK_NAMES[0] == "sphere_robin_closed_forms"
    assert CHECK_NAMES[-1] == "kelvin_drift_short"
    assert check_tolerance("mobius_schwarzian", "1e-300") == 1e-300


@pytest.fixture
def plan_evaluations(monkeypatch):
    calls = []
    real = dynamics._Plan.velocity

    def velocity(self, *args):
        calls.append(args)
        return real(self, *args)

    monkeypatch.setattr(dynamics._Plan, "velocity", velocity)
    return calls


@pytest.mark.parametrize("name", ("torus_four_vortex", "sphere_antipodal_pair"))
def test_verify_scenario_evaluates_the_direct_law_once(name, plan_evaluations):
    # one all-vortex evaluation serves every vortex's cross-check
    results = verify_scenario(resolve_scenario(name))
    assert len(results) == resolve_scenario(name).state().n + 1
    assert len(plan_evaluations) == 1


@pytest.mark.parametrize("surface", (Surface.sphere(), Surface.flat_torus(0.5 + 1j)),
                         ids=("sphere", "torus"))
def test_velocity_equivalence_evaluates_the_direct_law_once_per_state(surface,
                                                                      plan_evaluations):
    velocity_equivalence(surface, np.random.default_rng(3), 3)
    assert len(plan_evaluations) == 3


def test_self_term_check_fails_on_a_wrong_metric(monkeypatch):
    # lambda -> lambda^(1 + 1e-6) moves d(log lambda)/dzbar by about 5e-7 but
    # leaves the closed-form Robin h1 alone; the check must see it
    assert self_term_residual(np.random.default_rng(7)) < 1e-12
    conformal_factor = verify.conformal_factor
    monkeypatch.setattr(verify, "conformal_factor",
                        lambda s, p: conformal_factor(s, p) ** (1.0 + 1e-6))
    assert self_term_residual(np.random.default_rng(7)) > 1e-7


def test_sphere_normalization_check_fails_on_a_shifted_green_function(monkeypatch):
    # G + 5e-8 integrates to 4 pi * 5e-8 = 6.3e-7 over the sphere, against a
    # residual near 1e-12; the suite's check alone must pass, then FAIL
    monkeypatch.setattr(verify, "_CHECKS", tuple(
        c for c in verify._CHECKS if c[0] == "sphere_green_normalization"))
    [clean] = run_suite("quick", 7)
    assert clean.passed and clean.residual < 1e-11
    pair_terms = verify.pair_terms

    def shifted(*args):
        value, *grads = pair_terms(*args)
        return (value + 5e-8, *grads)

    monkeypatch.setattr(verify, "pair_terms", shifted)
    [result] = run_suite("quick", 7)
    assert not result.passed and result.residual > 6e-7


def _failed(results):
    return {r.name for r in results if not r.passed}


def test_robin_checks_fail_on_a_position_dependent_h0(monkeypatch):
    # the energy takes R once, at one point, so the velocity checks cannot see
    # an h0 that varies with position; the closed forms and the chart-handover
    # law must (they read about 1e-6 and 4e-6 against 1e-12 and 1e-8)
    robin_data = verify.robin_data

    def shifted(surface, p):
        d = robin_data(surface, p)
        return replace(d, h0=d.h0 + 1e-6 * abs(p.coord) ** 2)

    monkeypatch.setattr(verify, "robin_data", shifted)
    assert _failed(run_suite("quick", 7)) == {
        "sphere_robin_closed_forms", "robin_transformation_laws"}


def test_velocity_checks_fail_on_a_scaled_velocity_law(monkeypatch):
    # v -> (1 + 1e-5) v rescales time only, so energy and Kelvin drift stay
    # put; every comparison with the Hamiltonian route must see it
    velocity = dynamics._Plan.velocity
    monkeypatch.setattr(dynamics._Plan, "velocity",
                        lambda self, coords: (1.0 + 1e-5) * velocity(self, coords))
    assert _failed(run_suite("quick", 7)) == {
        "velocity_equivalence_sphere", "velocity_equivalence_torus"}
    for name in ("sphere_antipodal_pair", "sphere_crossing_pair", "sphere_latitude_ring",
                 "torus_four_vortex", "torus_pair_translate"):
        cfg = resolve_scenario(name)
        rows = [r for r in verify_scenario(cfg) if r.name.startswith("velocity[")]
        assert len(rows) == cfg.state().n and not any(r.passed for r in rows), name


def test_each_suite_call_integrates_the_conservation_run_once(monkeypatch):
    # both conservation checks read one run; a later call integrates again
    steps = []
    integrate = verify.integrate

    def counted(state, dt, n, **kwargs):
        steps.append(n)
        return integrate(state, dt, n, **kwargs)

    monkeypatch.setattr(verify, "integrate", counted)
    monkeypatch.setattr(verify, "_CHECKS", tuple(
        c for c in verify._CHECKS if c[0] in ("energy_drift_short", "kelvin_drift_short")))
    for suite in ("quick", "quick", "full"):
        assert all(r.passed for r in run_suite(suite, 7))
    assert steps == [500, 500, 2000]


def test_green_identity_checks_fail_on_a_position_dependent_pair_value(monkeypatch):
    # G(z_i, z_j) + 1e-10 Re z_i is not symmetric and misses the closed form by
    # about 1e-10, against tolerances of 1e-12 and 1e-13; the sphere's zero-mean
    # quadrature reads far less than its 1e-10
    pair_terms = verify.pair_terms

    def shifted(surface, coords, pairs):
        value, *grads = pair_terms(surface, coords, pairs)
        return (value + 1e-10 * np.asarray(coords, dtype=complex)[pairs[0]].real, *grads)

    monkeypatch.setattr(verify, "pair_terms", shifted)
    assert _failed(run_suite("quick", 7)) == {
        "sphere_green_closed_form", "sphere_green_symmetry", "torus_green_symmetry"}


@pytest.mark.parametrize("suite", ["Full", "", "quick "])
def test_run_suite_refuses_an_unknown_suite_before_running(suite, monkeypatch):
    def must_not_run(rng, full):
        raise AssertionError("a check ran for an unknown suite")

    monkeypatch.setattr(verify, "_CHECKS", (("mobius_schwarzian", 1e-10, must_not_run),))
    with pytest.raises(ValueError, match="unknown suite"):
        run_suite(suite, 7)


def _patch_everywhere(monkeypatch, name, replacement):
    """Replace the package's function `name` in every module that holds it."""
    original = getattr(periods, name)
    for module in list(sys.modules.values()):
        if module.__name__.startswith("pointvortex") and getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, replacement)


def test_period_check_fails_on_a_scaled_circulation_energy(monkeypatch):
    # (1 + 1e-7) |W|^2 / Im tau: W is a constant of the motion, so the energy
    # drift stays put, and the energy's gradient moves by far less than the
    # velocity tolerance; the period matrix check compares this energy with
    # the contour periods' and must see it (about 2.5e-7 against 1e-12)
    energy = periods.circulation_energy
    _patch_everywhere(monkeypatch, "circulation_energy",
                      lambda surface, w: (1.0 + 1e-7) * energy(surface, w))
    assert _failed(run_suite("quick", 7)) == {"period_matrix_spd"}


def test_sphere_velocity_check_fails_without_the_net_strength_term(monkeypatch):
    # 4 pi (M Gamma)_k = h_k (sum Gamma - Gamma_k) - (P Gamma)_k with the
    # h_k sum Gamma part dropped: invisible at sum Gamma = 0, so the check's
    # random sphere states must carry net strength
    velocity = dynamics._Plan.velocity

    def without_net_term(self, coords):
        v = velocity(self, coords)
        if self.surface.genus:
            return v
        _, w, h = sphere_point_terms(coords)
        return v + 2j * w * w / (16.0 * math.pi) * (h * self.strengths.sum()).conjugate()

    monkeypatch.setattr(dynamics._Plan, "velocity", without_net_term)
    assert _failed(run_suite("quick", 7)) == {"velocity_equivalence_sphere"}


def test_velocity_checks_fail_on_a_scaled_pair_sum_in_the_energy(monkeypatch):
    # the pair sum x (1 + 1e-4) in the one energy assembly: the records'
    # energy and the Hamiltonian route's differences both move, and the
    # direct law does not (the residuals read 1.0e-4 and 5.3e-5 at seed 7)
    assemble = dynamics._assemble_energy

    def scaled(surface, strengths, value, weights, w):
        return assemble(surface, strengths, value, (1.0 + 1e-4) * weights, w)

    monkeypatch.setattr(dynamics, "_assemble_energy", scaled)
    assert _failed(run_suite("quick", 7)) == {"velocity_equivalence_sphere",
                                              "velocity_equivalence_torus"}
