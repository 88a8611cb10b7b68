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
vorticity, so it takes any strengths.  Each function takes the `Surface`, whose
tau and genus are all the period data: P is only a test reference, against
which `verify`'s period_matrix_spd checks the energy through contour periods.
On genus 0, W, its flow and energy are 0 and the Kelvin coefficients (), so
the dynamics layer calls this module on both surfaces.
"""
from __future__ import annotations

import numpy as np

from .surfaces import Surface


def build_basis(surface: Surface) -> Surface:
    """The surface itself, which carries tau and the genus.  Kept only because
    the benchmark (`perfbench/layers.py`) calls it."""
    return surface


def circulation_state(surface: Surface, positions, strengths,
                      base_a, base_b):
    """W = a tau - b + sum_j Gamma_j z_j at the coordinates as given (0 on genus 0):
    a complex for positions of shape (n,), an array of one W per configuration
    for shape (..., n).

    The one check of circulation data: base circulations of the genus's length
    and, on the torus only, strengths summing to zero, so a common lattice shift
    of all coordinates leaves W unchanged.
    """
    if len(base_a) != surface.genus or len(base_b) != surface.genus:
        raise ValueError(f"base circulations must have length {surface.genus}")
    positions = np.asarray(positions, dtype=complex)
    w = np.zeros(positions.shape[:-1], dtype=complex)
    if surface.genus:
        strengths = np.asarray(strengths, dtype=float)
        if abs(strengths.sum()) > 1e-12:
            raise ValueError(f"vortex strengths must sum to zero on the torus "
                             f"(got {strengths.sum():.3e})")
        # one configuration keeps its @; a batch sums by einsum, each row alike
        # whatever the batch size: BLAS (@, np.dot) rounds a one-row batch
        # differently, and starts threads over a large one
        sums = (strengths @ positions if positions.ndim == 1
                else np.einsum("...j,j->...", positions, strengths))
        w = base_a[0] * surface.tau - base_b[0] + sums
    return complex(w) if positions.ndim == 1 else w


def kelvin_coefficients(surface: Surface, w: complex) -> tuple[float, ...]:
    """(A, B) = (Im W, Im(W conj(tau))) / Im tau, so W = A tau - B; () on genus 0."""
    tau = surface.tau
    return (w.imag / tau.imag, (w * tau.conjugate()).imag / tau.imag) if surface.genus else ()


def circulation_form(surface: Surface, w: complex) -> complex:
    """du*/dz = conj(W) / (2 Im tau), the conjugate potential's constant gradient."""
    return w.conjugate() / (2.0 * surface.tau.imag) if surface.genus else 0j


def circulation_energy(surface: Surface, w: complex) -> float:
    """Energy of the circulating flow, |W|^2 / Im tau = (A, B) P (A, B)^T."""
    return abs(w) ** 2 / surface.tau.imag if surface.genus else 0.0
