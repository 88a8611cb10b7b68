"""Paper identities that the tests compare the package against.

The inverse of a transition jet, the connection calculus of the order-0/1/2
gluing rules, the metric's Levi-Civita connection, the two-point potential,
the torus period matrix P, the stream coefficients c0 (with the conjugate
potential u*) and c1, the velocity law summed over a dense gradient matrix,
row sums over a matrix filled by 2-D indexing, the Hamiltonian route one
vortex at a time through the whole energy, and a meridian arc-length
quadrature.  None of them is on a `run` or `verify`
path, so they live here, built on the package's public calls.
"""
import cmath
import math
from dataclasses import dataclass, replace

import numpy as np

from pointvortex.connections import TransitionJet, bracket
from pointvortex.dynamics import VortexState, hamiltonian
from pointvortex.errors import SingularityError
from pointvortex.green import green, pair_terms, robin_data
from pointvortex.oracles import wirtinger_fd
from pointvortex.periods import circulation_form, circulation_state
from pointvortex.surfaces import (
    SPHERE,
    Surface,
    SurfacePoint,
    conformal_factor,
    geodesic_distance,
    pair_selection,
)

_TWO_PI = 2.0 * cmath.pi


# ---------------------------------------------------------------------------
# connection calculus


@dataclass(frozen=True)
class ConnectionValue:
    """Coefficient of an order-0/1/2 connection at a point, in some stated chart.

    Order-0 values carry an additive 2*pi*i indeterminacy in the imaginary
    part; only their exponential is fully well defined, and `close_to`
    compares accordingly.
    """

    order: int
    value: complex

    def __post_init__(self):
        if self.order not in (0, 1, 2):
            raise ValueError(f"connection order must be 0, 1 or 2, got {self.order}")

    def close_to(self, other: "ConnectionValue", tol: float = 1e-12) -> bool:
        if self.order != other.order:
            return False
        d = self.value - other.value
        if self.order == 0:
            d -= _TWO_PI * 1j * round(d.imag / _TWO_PI)
        return abs(d) <= tol


def inverse_jet(jet: TransitionJet) -> TransitionJet:
    """Jet of the inverse map at the image point."""
    p1, p2, p3 = jet.phi1, jet.phi2, jet.phi3
    i1 = 1.0 / p1
    i2 = -p2 / p1**3
    i3 = (3.0 * p2 * p2 - p1 * p3) / p1**5
    return TransitionJet(i1, i2, i3)


def transform_connection(c: ConnectionValue, jet: TransitionJet) -> ConnectionValue:
    """Push a connection coefficient through the chart change with the given jet.

    Order 0: p~ = p - {w,z}_0.  Order 1: r~ = (r - {w,z}_1)/phi'.
    Order 2: q~ = (q - {w,z}_2)/phi'^2.
    """
    b = bracket(jet, c.order)
    if c.order == 0:
        return ConnectionValue(0, c.value - b)
    if c.order == 1:
        return ConnectionValue(1, (c.value - b) / jet.phi1)
    return ConnectionValue(2, (c.value - b) / (jet.phi1 * jet.phi1))


def curvature(r: ConnectionValue, dr_dz: complex) -> ConnectionValue:
    """Order-2 coefficient q = dr/dz - r^2/2 induced by an order-1 coefficient.

    `dr_dz` is the holomorphic (Wirtinger) z-derivative of the order-1
    coefficient at the point, supplied by the caller analytically or by
    finite differences.
    """
    if r.order != 1:
        raise ValueError("curvature expects an order-1 connection value")
    return ConnectionValue(2, dr_dz - 0.5 * r.value * r.value)


def covariant_derivative(phi: complex, dphi_dz: complex, k: float, r: ConnectionValue) -> complex:
    """nabla_k phi = dphi/dz - k*r*phi, taking order-k to order-(k+1) differentials."""
    if r.order != 1:
        raise ValueError("covariant derivative expects an order-1 connection value")
    return dphi_dz - k * r.value * phi


def lambda2_operator(phi: complex, d2phi_dz2: complex, q: ConnectionValue) -> complex:
    """Second covariant operator d^2 phi/dz^2 + q*phi/2 on order -1/2 differentials."""
    if q.order != 2:
        raise ValueError("lambda2 expects an order-2 connection value")
    return d2phi_dz2 + 0.5 * q.value * phi


def metric_connection(surface: Surface, p: SurfacePoint) -> complex:
    """Levi-Civita affine-connection coefficient 2 d(log lambda)/dz in p's chart."""
    surface.check_chart(p.chart_id)
    if surface.kind == SPHERE:
        z = p.coord
        return -2.0 * z.conjugate() / (1.0 + abs(z) ** 2)
    return 0.0


def dlog_lambda_dzbar(surface: Surface, p: SurfacePoint) -> complex:
    """d(log lambda)/dzbar at p: lambda is real, so half the conjugate connection."""
    return 0.5 * metric_connection(surface, p).conjugate()


def renormalized_robin_at(surface: Surface, z: complex, chart: int = 0) -> float:
    """R = (h0 + log lambda) / 2 pi at chart coordinate z, from the chart's Robin
    h0 and metric; chart-invariant, since h0 glues like -log lambda."""
    p = SurfacePoint(chart, z)
    return (robin_data(surface, p).h0 + math.log(conformal_factor(surface, p))) / _TWO_PI


# ---------------------------------------------------------------------------
# potentials and stream coefficients


def fundamental_potential(surface: Surface, z: SurfacePoint, w: SurfacePoint,
                          a: SurfacePoint, b: SurfacePoint) -> float:
    """Two-point potential 2 pi (G(z,a) - G(z,b) - G(w,a) + G(w,b)).

    Metric-independent, with +-1 logarithmic poles at a and b (in z) and
    normalized to vanish at z = w.
    """
    for probe in (z, w):
        for pole in (a, b):
            if geodesic_distance(surface, probe, pole) <= 1e-12:
                raise SingularityError("fundamental potential evaluated at a pole")
    if z.chart_id == w.chart_id and z.coord == w.coord:
        return 0.0
    return 2.0 * math.pi * (
        green(surface, z, a).value
        - green(surface, z, b).value
        - green(surface, w, a).value
        + green(surface, w, b).value
    )


def period_matrix(tau: complex) -> np.ndarray:
    """P = [[|tau|^2, -Re tau], [-Re tau, 1]] / Im tau: the circulating flow with
    Kelvin coefficients (A, B) has energy (A, B) P (A, B)^T."""
    return np.array([[abs(tau) ** 2, -tau.real], [-tau.real, 1.0]]) / tau.imag


def conjugate_potential(surface: Surface, w: complex, z: complex) -> float:
    """u*(z) = Re(conj(W) z) / Im tau, on the branch of the coordinate as given."""
    return (w.conjugate() * z).real / surface.tau.imag if surface.genus else 0.0


def c0_coefficient(state: VortexState, k: int) -> float:
    """Constant stream-expansion coefficient at vortex k, in its canonical chart:
    h0(z_k) + 2 pi (sum_{j != k} Gamma_j G(z_k, z_j) + u*(z_k)) / Gamma_k."""
    surface, points, g = state.surface, state.positions, state.strengths
    mutual = sum(g[j] * green(surface, points[k], p).value
                 for j, p in enumerate(points) if j != k)
    w = circulation_state(surface, [p.coord for p in points], g, state.base_a, state.base_b)
    mutual += conjugate_potential(surface, w, points[k].coord)
    return robin_data(surface, points[k]).h0 + _TWO_PI * mutual / g[k]


def c1_coefficient(state: VortexState, k: int) -> complex:
    """First stream-expansion coefficient at vortex k, in its canonical chart:
    h1(z_k) + 4 pi (sum_{j != k} Gamma_j dG(z_k, z_j)/dz_k + du*/dz) / Gamma_k."""
    surface, points, g = state.surface, state.positions, state.strengths
    mutual = sum(g[j] * green(surface, points[k], p).grad_z
                 for j, p in enumerate(points) if j != k)
    w = circulation_state(surface, [p.coord for p in points], g, state.base_a, state.base_b)
    mutual += circulation_form(surface, w)
    return robin_data(surface, points[k]).h1 + 2.0 * _TWO_PI * mutual / g[k]


def dense_velocity(surface: Surface, charts, coords, strengths,
                   base_a=(), base_b=()) -> np.ndarray:
    """-2i conj(M Gamma + du*/dz) / lambda^2 with M the dense n x n matrix of
    the `pair_terms` gradients M_kj = dG(z_k, z_j)/dz_k, which on the sphere
    carry the metric term h_k in every pair, not once per vortex."""
    coords, strengths = np.asarray(coords, dtype=complex), np.asarray(strengths, dtype=float)
    n = len(coords)
    i, j = np.triu_indices(n, 1)
    _, grad_i, grad_j = pair_terms(surface, coords, pair_selection(surface, charts, i, j))
    m = np.zeros((n, n), dtype=complex)
    m[i, j], m[j, i] = grad_i, grad_j
    flow = circulation_form(surface, circulation_state(surface, coords, strengths,
                                                       base_a, base_b))
    lam = np.array([conformal_factor(surface, SurfacePoint(int(c), complex(z)))
                    for c, z in zip(charts, coords)])
    return -2j * (m @ strengths + flow).conjugate() / lam**2


def row_sums_2d(i, j, upper, lower, weights) -> np.ndarray:
    """The n x n matrix filled by 2-D indexing, `upper` at (i, j), `lower` at
    (j, i) and 0 elsewhere, times weights by the einsum `dynamics._matvec`
    forms, so a plan's flat scatter compares with it bit for bit."""
    n = len(weights)
    m = np.zeros((n, n), dtype=upper.dtype)
    m[i, j] = upper
    m[j, i] = lower
    return np.einsum("ij,j->i", m, weights)


def fd_velocity(state: VortexState, k: int) -> complex:
    """Velocity of vortex k through the whole energy, one vortex at a time:
    -2i dH/dzbar_k / (Gamma_k lambda_k^2), dH/dzbar_k by `wirtinger_fd` (step
    1e-5, one Richardson level) of `hamiltonian` of the state with z_k moved
    in its chart."""
    p = state.positions[k]

    def energy(z: complex) -> float:
        points = list(state.positions)
        points[k] = SurfacePoint(p.chart_id, z)
        return hamiltonian(replace(state, positions=tuple(points)))

    lam2 = conformal_factor(state.surface, p) ** 2
    return -2j * wirtinger_fd(energy, p.coord, 1e-5)[1] / (state.strengths[k] * lam2)


# ---------------------------------------------------------------------------
# quadrature


def meridian_arc_length(n: int = 20000) -> float:
    """Chart-0 integral of the sphere metric factor along [0, 1] plus its
    chart-1 mirror: the pole-to-pole distance, by midpoint rule."""
    r = (np.arange(n) + 0.5) / n
    lam = 2.0 / (1.0 + r**2)
    return 2.0 * float(lam.mean())
