"""Circulation state of a flat torus: one complex number W.

On the torus C / (Z + tau Z) the cycles are alpha = [0, 1] and beta = [0, tau].
The multivalued cycle potentials, real-linear in z = x + iy,

    U_alpha(z) = y / Im tau,    U_beta(z) = -x + Re tau * y / Im tau,

gain 1 and -1 across the periods tau and 1 respectively (each is periodic
in the other direction), and satisfy U_alpha(z) tau - U_beta(z) = z.  The
Kelvin coefficients of the circulating flow, A = a + sum_j Gamma_j U_alpha(z_j)
and B = b + sum_j Gamma_j U_beta(z_j), therefore enter only through

    W = A tau - B = a tau - b + sum_j Gamma_j z_j,

so (A, B) = (Im W, Im(W conj(tau))) / Im tau, and

    circulation energy   (A, B) P (A, B)^T = |W|^2 / Im tau,
                         P = [[|tau|^2, -Re tau], [-Re tau, 1]] / Im tau,
    conjugate potential  u*(z) = Re(conj(W) z) / Im tau,
                         du*/dz = conj(W) / (2 Im tau).

Moving a vortex to another cover copy, z -> z - m - n tau, while a += Gamma n
and b -= Gamma m leaves W unchanged.  That needs sum_j Gamma_j = 0, a torus
rule whose one owner is `circulation_state` (`VortexState` validates through
it); the sphere's zero-mean Green function carries the compensating uniform
vorticity, so it takes any strengths.  Genus-0 surfaces have W = 0 and an
empty period matrix: there W, its flow and energy are 0 and the Kelvin
coefficients (), so the dynamics layer calls this module on both surfaces.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .surfaces import Surface


@dataclass(frozen=True)
class PeriodBasis:
    """Modulus (None on genus 0) and period matrix P of a surface."""

    tau: complex | None
    period_matrix: np.ndarray

    @property
    def genus(self) -> int:
        return len(self.period_matrix) // 2


@lru_cache(maxsize=None)
def build_basis(surface: Surface) -> PeriodBasis:
    if surface.genus == 0:
        return PeriodBasis(None, np.zeros((0, 0)))
    tau = surface.tau
    matrix = np.array([[abs(tau) ** 2, -tau.real], [-tau.real, 1.0]]) / tau.imag
    matrix.flags.writeable = False
    return PeriodBasis(tau, matrix)


def circulation_state(basis: PeriodBasis, positions, strengths,
                      base_a, base_b) -> complex:
    """W = a tau - b + sum_j Gamma_j z_j at the coordinates as given (0 on genus 0).

    The one check of circulation data: base circulations of the genus's length
    and, on the torus only, strengths summing to zero, so a common lattice shift
    of all coordinates leaves W unchanged.
    """
    if len(base_a) != basis.genus or len(base_b) != basis.genus:
        raise ValueError(f"base circulations must have length {basis.genus}")
    if not basis.genus:
        return 0j
    strengths = np.asarray(strengths, dtype=float)
    if abs(strengths.sum()) > 1e-12:
        raise ValueError(f"vortex strengths must sum to zero on the torus "
                         f"(got {strengths.sum():.3e})")
    w = strengths @ np.asarray(positions, dtype=complex)
    return complex(base_a[0] * basis.tau - base_b[0] + w)


def kelvin_coefficients(basis: PeriodBasis, w: complex) -> tuple[float, ...]:
    """(A, B) = (Im W, Im(W conj(tau))) / Im tau, so W = A tau - B; () on genus 0."""
    tau = basis.tau
    return (w.imag / tau.imag, (w * tau.conjugate()).imag / tau.imag) if basis.genus else ()


def circulation_form(basis: PeriodBasis, w: complex) -> complex:
    """du*/dz = conj(W) / (2 Im tau), the conjugate potential's constant gradient."""
    return w.conjugate() / (2.0 * basis.tau.imag) if basis.genus else 0j


def circulation_energy(basis: PeriodBasis, w: complex) -> float:
    """Energy of the circulating flow, |W|^2 / Im tau."""
    return abs(w) ** 2 / basis.tau.imag if basis.genus else 0.0
