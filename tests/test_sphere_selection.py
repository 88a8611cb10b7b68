"""The sphere pair kernel through its chart selection.

In vortex i's chart vortex j is the point a_j / b_j, and the pole term of
dG/dz_j has numerator c_i.  Every sphere pair evaluation gathers (a_j, b_j, c_i)
through index rows built from the charts (`surfaces.pair_selection`): a run's
plan rebuilds them once per chart change, a one-shot call once per call.  The kernel
on them must match the pole written out, in all four chart combinations, on
|z| = 1, near antipodes and 1e-9 apart.  The chart rule that sets the charts
must leave its own output unchanged at |z| = 1.
"""
import cmath
import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from pointvortex import dynamics
from pointvortex.dynamics import VortexState, _plan, integrate
from pointvortex.errors import SingularityError
from pointvortex.green import green, pair_terms
from pointvortex.surfaces import (
    Surface,
    SurfacePoint,
    canonical_coords,
    geodesic_distance,
    pair_distances,
    pair_selection,
)
from pointvortex.verify import random_state

SPHERE = Surface.sphere()
REL_TOL = 1e-12
angles = st.floats(0.0, 2.0 * math.pi)


def in_chart(chart, z, target):
    """The coordinate of the chart-`chart` point z in chart `target`."""
    return z if chart == target else 1.0 / z


@st.composite
def sphere_pairs(draw):
    """(ci, zi, cj, zj, kind): a generic pair, a pair on |z| = 1, a near-antipodal
    pair (the exact antipode moved by 0, 1e-15 or 1e-12) or a pair 1e-9 apart,
    in any of the four chart combinations."""
    ci, cj = draw(st.sampled_from(((0, 0), (0, 1), (1, 0), (1, 1))))
    kind = draw(st.sampled_from(("generic", "unit", "antipodal", "close")))
    r = 1.0 if kind == "unit" else draw(st.floats(1e-3, 3.0))
    zi = r * cmath.exp(1j * draw(angles))
    if kind == "antipodal":
        # the antipode of (ci, z) is (1 - ci, -conj(z)), exactly
        eps = draw(st.sampled_from((0.0, 1e-15, 1e-12)))
        zj = in_chart(1 - ci, -zi.conjugate() + eps * cmath.exp(1j * draw(angles)), cj)
    elif kind == "close":
        zj = in_chart(ci, zi + 1e-9 * cmath.exp(1j * draw(angles)), cj)
    else:
        rj = 1.0 if kind == "unit" else draw(st.floats(1e-3, 3.0))
        zj = rj * cmath.exp(1j * draw(angles))
        assume(abs(zj - in_chart(ci, zi, cj)) > 1e-6)
    return ci, zi, cj, zj, kind


def as_configuration(pairs):
    """Charts, coordinates and pair indices with pair k at (2k, 2k + 1)."""
    charts = np.array([c for ci, _, cj, _, _ in pairs for c in (ci, cj)])
    coords = np.array([z for _, zi, _, zj, _ in pairs for z in (zi, zj)])
    return charts, coords, np.arange(0, len(charts), 2), np.arange(1, len(charts), 2)


def ref_gradient(cz, z, ca, a):
    """(dG/dz, tolerance) for one orientation, with its pole written out; the
    tolerance scales with the terms' size and the cancellation in the pole's
    denominator (rounding of z a - 1 near a chart-crossing coincidence)."""
    den, num = (z - a, 1.0) if cz == ca else (a * z - 1.0, a)
    h = z.conjugate() / (1.0 + abs(z) ** 2)
    grad = -(num / den - h) / (4.0 * math.pi)
    cond = (abs(a * z) + 1.0) / abs(den) if cz != ca else 1.0
    return grad, (abs(num / den) + abs(h)) / (4.0 * math.pi) * (REL_TOL + 1e-15 * cond)


@given(st.lists(sphere_pairs(), min_size=1, max_size=8))
def test_selected_kernel_matches_reference(pairs):
    charts, coords, i, j = as_configuration(pairs)
    _, grad_i, grad_j = pair_terms(SPHERE, coords, pair_selection(SPHERE, charts, i, j))
    for k, (ci, zi, cj, zj, _) in enumerate(pairs):
        for got, (ref, tol) in ((grad_i[k], ref_gradient(ci, zi, cj, zj)),
                                (grad_j[k], ref_gradient(cj, zj, ci, zi))):
            assert abs(got - ref) <= tol


@given(st.lists(sphere_pairs(), min_size=1, max_size=8))
def test_selected_pair_distances_match_geodesic_distance(pairs):
    charts, coords, i, j = as_configuration(pairs)
    got = pair_distances(SPHERE, coords, pair_selection(SPHERE, charts, i, j))
    for k, (ci, zi, cj, zj, kind) in enumerate(pairs):
        assert got[k] == geodesic_distance(SPHERE, SurfacePoint(ci, zi), SurfacePoint(cj, zj))
        if kind == "antipodal":
            assert math.pi - got[k] <= 1e-11
        elif kind == "close":
            # 2 |dz| / (1 + |z|^2) to first order in the chart of zi
            want = 2e-9 / (1.0 + abs(zi) ** 2)
            assert abs(got[k] - want) <= 1e-6 * want


@pytest.mark.parametrize("ci, cj", [(0, 0), (0, 1), (1, 0), (1, 1)])
def test_exact_antipodes_are_pi_apart(ci, cj):
    for z in (0.3 + 0.4j, 1.0, 0.6 - 0.8j, 2.5j):
        zj = in_chart(1 - ci, -z.conjugate(), cj)
        charts, coords = np.array([ci, cj]), np.array([z, zj])
        i, j = np.array([0]), np.array([1])
        d = pair_distances(SPHERE, coords, pair_selection(SPHERE, charts, i, j))
        assert abs(d[0] - math.pi) <= 1e-15 * math.pi


@pytest.mark.parametrize("ci, cj", [(0, 0), (0, 1), (1, 0), (1, 1)])
def test_coincident_points_raise_in_both_orientations(ci, cj):
    z = 0.3 - 0.7j
    zj = in_chart(ci, z, cj)
    for (c1, z1), (c2, z2) in (((ci, z), (cj, zj)), ((cj, zj), (ci, z))):
        with pytest.raises(SingularityError):
            green(SPHERE, SurfacePoint(c1, z1), SurfacePoint(c2, z2))
        charts, coords = np.array([c1, c2]), np.array([z1, z2])
        plan = _plan(SPHERE, charts, coords, (1.0, -1.0), (), ())
        with pytest.raises(SingularityError):
            plan.velocity(coords)


def crossing_state(rng):
    """The 4-vortex sphere state of tests/test_integrate.py's handover tests,
    which crosses the equator near step 1,500 of 2,000 at dt = 5e-3."""
    return random_state(SPHERE, 4, rng, min_sep=0.5)


def test_selection_is_rebuilt_only_when_a_chart_changes(monkeypatch, rng):
    # every velocity evaluation of a step sees the step's pairs object;
    # a new one is built at the start and after each step whose charts
    # changed, and the records (one per step here) build none
    built, seen = [], []
    real_selection, real_velocity = dynamics.pair_selection, dynamics._Plan.velocity

    def selection(*args):
        built.append(real_selection(*args))
        return built[-1]

    def velocity(self, coords):
        seen.append(self.pairs)
        return real_velocity(self, coords)

    state = crossing_state(rng)
    monkeypatch.setattr(dynamics, "pair_selection", selection)
    monkeypatch.setattr(dynamics._Plan, "velocity", velocity)
    recs = integrate(state, 5e-3, 2000, record_every=1)
    changed = [k for k, (a, b) in enumerate(zip(recs, recs[1:]))
               if any(p.chart_id != q.chart_id for p, q in zip(a.positions, b.positions))]
    assert changed, "fixture must actually exercise the handover"
    assert len(built) == 1 + len(changed)
    assert len(seen) == 4 * 2000
    expected, current = [], iter(built)
    select = next(current)
    for step in range(2000):
        expected += [select] * 4
        if step in changed:
            select = next(current)
    assert all(a is b for a, b in zip(seen, expected))


@given(st.integers(-4, 8), angles, st.sampled_from((0, 1)))
def test_chart_rule_is_idempotent_at_the_unit_circle(k, theta, chart):
    # |z| and |1/z| can both read above 1 there: a second pass must keep the
    # first pass's charts and coordinates bit for bit, in either chart
    fan = theta + np.arange(64) * (2.0 * math.pi / 64)
    coords = (1.0 + k * 2.0**-52) * np.exp(1j * fan)
    charts = (chart + np.arange(64)) % 2
    once = canonical_coords(SPHERE, charts, coords)[:2]
    twice = canonical_coords(SPHERE, *once)[:2]
    assert twice[0].tobytes() == once[0].tobytes()
    assert twice[1].tobytes() == once[1].tobytes()


def test_record_after_a_handover_restarts_the_run(rng):
    st_ = crossing_state(rng)
    every = 100
    recs = integrate(st_, 5e-3, 2000, record_every=every)
    first = st_.positions
    later = [k for k, rec in enumerate(recs)
             if any(p.chart_id != q.chart_id for p, q in zip(rec.positions, first))]
    assert later, "fixture must actually exercise the handover"
    worst = 0.0
    for k in later[:-1]:
        again = VortexState(SPHERE, recs[k].positions, st_.strengths)
        got = integrate(again, 5e-3, every, record_every=every)[-1]
        for p, q in zip(got.positions, recs[k + 1].positions):
            assert p.chart_id == q.chart_id
            worst = max(worst, abs(p.coord - q.coord))
    assert worst <= 1e-12
