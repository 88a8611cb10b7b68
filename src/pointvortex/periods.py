"""Homology cycles, canonical harmonic differentials, and circulation bookkeeping.

On a genus-1 surface with modulus tau the cycles are alpha = [0, 1] and
beta = [0, tau].  The canonical harmonic 1-forms dual to them are constant in
the flat chart and satisfy the period normalization

    loop_alpha(-dU_beta) = 1,  loop_beta(-dU_beta) = 0,
    loop_alpha(dU_alpha) = 0,  loop_beta(dU_alpha) = 1.

The quadratic-form matrix pairing the circulation coefficients is assembled
in the block layout [[-B*dU_beta, B*dU_alpha], [A*dU_beta, -A*dU_alpha]]
(entry (k,j) a cycle integral of the starred form), which is symmetric
positive definite; the energy of the circulating flow is the associated
quadratic form.  Genus-0 surfaces get empty bases so the dynamics layer is
genus-agnostic.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .surfaces import FLAT_TORUS, Surface, SurfacePoint


@dataclass(frozen=True)
class HarmonicForm:
    """Real 1-form cx dx + cy dy with constant coefficients in the flat chart."""

    cx: float
    cy: float

    def star(self) -> "HarmonicForm":
        return HarmonicForm(-self.cy, self.cx)

    def loop_integral(self, delta: complex) -> float:
        """Integral along a straight loop with displacement `delta`."""
        return self.cx * delta.real + self.cy * delta.imag


@dataclass(frozen=True)
class CyclePotential:
    """Branch value and gradients of a multivalued potential and its conjugate."""

    value: float
    grad: complex          # dU/dz (constant covector)
    star_value: float      # conjugate potential U*, same branch convention
    star_grad: complex     # dU*/dz


@dataclass(frozen=True)
class PeriodBasis:
    surface: Surface
    dU_alpha: tuple[HarmonicForm, ...]
    dU_beta: tuple[HarmonicForm, ...]
    period_matrix: np.ndarray

    @property
    def genus(self) -> int:
        return len(self.dU_alpha)


@dataclass(frozen=True)
class CirculationState:
    """Fixed Kelvin circulations plus the position-dependent flow coefficients."""

    base_a: tuple[float, ...]
    base_b: tuple[float, ...]
    A: tuple[float, ...]
    B: tuple[float, ...]


@lru_cache(maxsize=None)
def build_basis(surface: Surface) -> PeriodBasis:
    """Canonical harmonic basis and period matrix for the surface."""
    if surface.genus == 0:
        return PeriodBasis(surface, (), (), np.zeros((0, 0)))
    if surface.kind != FLAT_TORUS:
        raise ValueError(f"no period basis for genus {surface.genus} {surface.kind}")
    tau = surface.tau
    t1, t2 = tau.real, tau.imag
    du_a = HarmonicForm(0.0, 1.0 / t2)
    du_b = HarmonicForm(-1.0, t1 / t2)
    alpha, beta = 1.0 + 0.0j, tau
    sa, sb = du_a.star(), du_b.star()
    matrix = np.array([
        [-sb.loop_integral(beta), sa.loop_integral(beta)],
        [sb.loop_integral(alpha), -sa.loop_integral(alpha)],
    ])
    return PeriodBasis(surface, (du_a,), (du_b,), matrix)


def cycle_potential(basis: PeriodBasis, cycle_index: int, kind: str,
                    z: SurfacePoint | complex) -> CyclePotential:
    """Fundamental-branch value/gradient of U_alpha or U_beta at z.

    The coordinate is taken as handed in (no lattice reduction), so callers
    choosing a cover representative get the matching continuous branch.
    """
    if basis.genus == 0:
        raise ValueError("genus-0 basis has no cycle potentials")
    if cycle_index != 0:
        raise IndexError(f"cycle index {cycle_index} out of range for genus {basis.genus}")
    tau = basis.surface.tau
    t1, t2 = tau.real, tau.imag
    c = z.coord if isinstance(z, SurfacePoint) else complex(z)
    x, y = c.real, c.imag
    if kind == "alpha":
        return CyclePotential(
            value=y / t2,
            grad=-0.5j / t2,
            star_value=-x / t2,
            star_grad=-0.5 / t2,
        )
    if kind == "beta":
        return CyclePotential(
            value=-x + (t1 / t2) * y,
            grad=0.5 * (-1.0 - 1j * t1 / t2),
            star_value=-(t1 / t2) * x - y,
            star_grad=0.5 * (-t1 / t2 + 1j),
        )
    raise ValueError(f"cycle kind must be 'alpha' or 'beta', got {kind!r}")


def circulation_state(basis: PeriodBasis, positions, strengths,
                      base_a, base_b) -> CirculationState:
    """A_k = a_k + sum_j Gamma_j U_alpha_k(z_j), and likewise B_k.

    All branch values are evaluated at the complex coordinates as given,
    which must share one consistent branch convention (canonical states use
    the fundamental domain).  Requires sum(strengths) = 0 so common branch
    shifts cancel.
    """
    g = basis.genus
    if g == 0:
        return CirculationState((), (), (), ())
    strengths = np.asarray(strengths, dtype=float)
    if abs(strengths.sum()) > 1e-12:
        raise ValueError("vortex strengths must sum to zero")
    a = tuple(float(v) for v in base_a)
    b = tuple(float(v) for v in base_b)
    if len(a) != g or len(b) != g:
        raise ValueError(f"base circulations must have length {g}")
    # the cycle potentials are linear in z with U(0) = 0, so the strength-
    # weighted sum over vortices is U at w = sum_j Gamma_j z_j
    w = complex((strengths * np.asarray(positions, dtype=complex)).sum())
    A = tuple(a[k] + cycle_potential(basis, k, "alpha", w).value for k in range(g))
    B = tuple(b[k] + cycle_potential(basis, k, "beta", w).value for k in range(g))
    return CirculationState(a, b, A, B)


@dataclass(frozen=True)
class CirculationField:
    """The harmonic 1-form carrying the circulating flow, with its potential data."""

    form: HarmonicForm
    u_star_grad: complex
    basis: PeriodBasis
    A: tuple[float, ...]
    B: tuple[float, ...]

    def u_star(self, z: SurfacePoint | complex) -> float:
        """Branch value of the conjugate potential at z (coordinate as given)."""
        if self.basis.genus == 0:
            return 0.0
        total = 0.0
        for k in range(self.basis.genus):
            pa = cycle_potential(self.basis, k, "alpha", z)
            pb = cycle_potential(self.basis, k, "beta", z)
            total += -self.A[k] * pb.star_value + self.B[k] * pa.star_value
        return total


def circulation_form(basis: PeriodBasis, circ: CirculationState) -> CirculationField:
    """Assemble eta = sum_j (-A_j dU_beta_j + B_j dU_alpha_j) and dU*/dz."""
    if basis.genus == 0:
        return CirculationField(HarmonicForm(0.0, 0.0), 0.0j, basis, (), ())
    cx = 0.0
    cy = 0.0
    grad = 0.0j
    for k in range(basis.genus):
        da, db = basis.dU_alpha[k], basis.dU_beta[k]
        cx += -circ.A[k] * db.cx + circ.B[k] * da.cx
        cy += -circ.A[k] * db.cy + circ.B[k] * da.cy
        pa = cycle_potential(basis, k, "alpha", 0.0j)
        pb = cycle_potential(basis, k, "beta", 0.0j)
        grad += -circ.A[k] * pb.star_grad + circ.B[k] * pa.star_grad
    return CirculationField(HarmonicForm(cx, cy), grad, basis, circ.A, circ.B)


def circulation_energy(basis: PeriodBasis, circ: CirculationState) -> float:
    """Energy of the circulating flow: (A, B) P (A, B)^T."""
    if basis.genus == 0:
        return 0.0
    v = np.array(list(circ.A) + list(circ.B))
    return float(v @ basis.period_matrix @ v)
