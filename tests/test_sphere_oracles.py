"""Closed-form motions of sphere states whose strengths do not sum to zero.

The round sphere has no balance rule: its zero-mean Green function carries the
compensating uniform vorticity.  These oracles need sum Gamma != 0:

- a latitude ring of N equal vortices at height h turns rigidly about the
  polar axis at Omega = Gamma (N - 1) h / (4 pi (1 - h^2)) (Polvani &
  Dritschel, J. Fluid Mech. 1993);
- equal vortices at the vertices of a Platonic solid stay fixed.

Points are placed through the inverse of `embedding.sphere_embedding`, so
nothing here reads the library's chart code.
"""
import math

import numpy as np
import pytest

from pointvortex.config import resolve_scenario
from pointvortex.dynamics import VortexState, integrate, vortex_velocities
from pointvortex.surfaces import SurfacePoint
from pointvortex.verify import velocity_residuals

from embedding import sphere_embedding


def chart_point(x, y, x3) -> SurfacePoint:
    """The unit vector (x, y, x3) in the chart that holds it with |coord| <= 1:
    chart 0 (southern hemisphere) z = (x + iy) / (1 - x3), chart 1 (northern,
    y and the polar axis mirrored) w = (x - iy) / (1 + x3)."""
    if x3 <= 0.0:
        return SurfacePoint(0, complex(x, y) / (1.0 - x3))
    return SurfacePoint(1, complex(x, -y) / (1.0 + x3))


def ring(sphere, n: int, h: float, gamma: float, phase: float = 0.3) -> VortexState:
    r = math.sqrt(1.0 - h * h)
    points = tuple(chart_point(r * math.cos(phase + 2 * math.pi * k / n),
                               r * math.sin(phase + 2 * math.pi * k / n), h)
                   for k in range(n))
    return VortexState(sphere, points, (gamma,) * n)


def ring_rate(n: int, h: float, gamma: float) -> float:
    """Angular velocity of the latitude ring about +x3, right-handed.  The
    embedding's charts reverse the orientation of the outward normal, so a
    positive vortex turns clockwise seen from outside: the sign is minus
    Polvani & Dritschel's."""
    return -gamma * (n - 1) * h / (4.0 * math.pi * (1.0 - h * h))


def embedded(state) -> np.ndarray:
    charts = [p.chart_id for p in state.positions]
    return np.array(sphere_embedding(charts, [p.coord for p in state.positions])).T


@pytest.mark.parametrize("n, h, chart", [(3, -0.3, 0), (5, -0.6, 0), (6, -0.1, 0),
                                         (3, 0.3, 1), (5, 0.45, 1)])
def test_latitude_ring_turns_rigidly(sphere, n, h, chart):
    gamma = 2.0 * math.pi
    state = ring(sphere, n, h, gamma)
    assert {p.chart_id for p in state.positions} == {chart}
    z = np.array([p.coord for p in state.positions])
    # a turn by phi about +x3 is z -> e^{i phi} z in chart 0, w -> e^{-i phi} w in chart 1
    omega = ring_rate(n, h, gamma) * (1.0 if chart == 0 else -1.0)
    v = vortex_velocities(state)
    assert np.abs(v - 1j * omega * z).max() <= 1e-13 * np.abs(v).max()


@pytest.mark.parametrize("h", (-0.3, 0.3), ids=("chart0", "chart1"))
def test_latitude_ring_returns_after_one_period(sphere, h):
    gamma = 2.0 * math.pi
    state = ring(sphere, 3, h, gamma)
    period = 2.0 * math.pi / abs(ring_rate(3, h, gamma))   # about 19.06
    steps = 2000
    stats = {}
    records = integrate(state, period / steps, steps, record_every=steps, stats_out=stats)
    assert stats["chart_handovers"] == 0
    start, end = records[0], records[-1]
    assert [p.chart_id for p in end.positions] == [p.chart_id for p in start.positions]
    back = max(abs(p.coord - q.coord) for p, q in zip(end.positions, start.positions))
    assert back <= 1e-9
    assert abs(end.hamiltonian - start.hamiltonian) <= 1e-10 * abs(start.hamiltonian)
    # a quarter period turns the ring by pi / 2 about the polar axis
    quarter = integrate(state, period / steps, steps // 4, record_every=steps // 4)[-1]
    turn = math.copysign(math.pi / 2, ring_rate(3, h, gamma))
    rot = np.array([[math.cos(turn), -math.sin(turn), 0.0],
                    [math.sin(turn), math.cos(turn), 0.0], [0.0, 0.0, 1.0]])
    x0 = embedded(state)
    x1 = np.array(sphere_embedding([p.chart_id for p in quarter.positions],
                                   [p.coord for p in quarter.positions])).T
    assert np.abs(x1 - x0 @ rot.T).max() <= 1e-9


def test_bundled_latitude_ring_turns_at_the_closed_form_rate():
    cfg = resolve_scenario("sphere_latitude_ring")
    state, spec = cfg.state(), cfg.integrator
    h = embedded(state)[:, 2]
    assert np.abs(h + 0.3).max() <= 1e-15 and sum(state.strengths) != 0.0
    end = integrate(state, spec.dt, spec.steps, record_every=spec.steps)[-1]
    turn = ring_rate(3, -0.3, state.strengths[0]) * end.time   # about one period
    assert abs(abs(turn) - 2.0 * math.pi) < 1e-3
    want = [p.coord * complex(math.cos(turn), math.sin(turn)) for p in state.positions]
    assert max(abs(p.coord - w) for p, w in zip(end.positions, want)) <= 1e-9


TETRAHEDRON = np.array([(1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)]) / math.sqrt(3.0)
OCTAHEDRON = np.array([(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)])


@pytest.mark.parametrize("vertices", (TETRAHEDRON, OCTAHEDRON), ids=("tetrahedron",
                                                                     "octahedron"))
def test_platonic_configurations_are_stationary(sphere, vertices):
    state = VortexState(sphere, tuple(chart_point(*map(float, x)) for x in vertices),
                        (1.0,) * len(vertices))
    assert np.abs(embedded(state) - vertices).max() <= 1e-15
    assert np.abs(vortex_velocities(state)).max() <= 1e-14


@pytest.mark.parametrize("strengths", ((1.0, 2.0, 0.5), (1.0, 1.0, 1.0, -0.5),
                                       (-2.0, 0.7, 0.3, 1.1, 0.4)))
def test_velocity_routes_agree_on_unbalanced_states(sphere, strengths):
    rng = np.random.default_rng(len(strengths))
    for _ in range(100):
        x = rng.normal(size=(len(strengths), 3))
        x /= np.linalg.norm(x, axis=1)[:, None]
        if min(np.linalg.norm(a - b) for i, a in enumerate(x) for b in x[i + 1:]) > 0.4:
            break
    else:
        raise AssertionError("no well-separated draw in 100 tries")
    state = VortexState(sphere, tuple(chart_point(*p) for p in x), strengths)
    assert abs(sum(state.strengths)) > 0.1
    assert max(velocity_residuals(state)) <= 1e-8
