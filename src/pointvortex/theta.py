"""Odd Jacobi theta series and per-modulus cached data for the torus Green function.

The series theta1(z | tau') = 2 sum_{n>=0} (-1)^n q^{(n+1/2)^2} sin((2n+1) pi z),
q = exp(i pi tau'), runs on the reduced modulus tau' = (a tau + b) / j of
`surfaces.reduced_modulus`, where Im tau' >= sqrt(3)/2: there its _TERMS = 9 terms
leave a first dropped term below exp(-71.1 pi Im tau') < exp(-190) of the leading
one over |Im z| <= 1.05 Im tau', and the eta sum's _ETA_TERMS = 8 a tail below
1e-21.  By modular covariance G(u; tau) = G(u / j; tau'), h0(tau) = h0(tau') +
log|j| and h2(tau) = h2(tau') / j^2.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .surfaces import reduced_modulus

_TERMS = 9
_ETA_TERMS = 8
_BLOCK = 4096    # points per series pass in theta1_series


@dataclass(frozen=True)
class ThetaContext:
    """Truncated series data on the reduced modulus tau' of one user modulus."""

    tau: complex                     # reduced modulus tau'
    j: complex                       # c tau + d, with tau' = (a tau + b) / j
    n_terms: int
    green_const: float               # C(tau') = log|eta(tau')| / 2 pi
    h0: float                        # Robin h0 of the user's tau
    h2: complex                      # Robin h2 of the user's tau
    # read-only (n_terms, 2, 1) array of (c_n, c_n (2n+1) pi), c_n = (-1)^n q^{(n+1/2)^2}
    weights: np.ndarray = field(compare=False, repr=False)


@lru_cache(maxsize=None)
def theta_context(tau: complex) -> ThetaContext:
    """Series data for the user modulus tau; ValueError if tau is invalid."""
    tau_r, j = reduced_modulus(complex(tau))
    q = cmath.exp(1j * math.pi * tau_r)
    coeffs = [(-1) ** n * q ** ((n + 0.5) ** 2) for n in range(_TERMS)]
    freqs = [(2 * n + 1) * math.pi for n in range(_TERMS)]
    d1 = 2.0 * sum(c * f for c, f in zip(coeffs, freqs))        # theta1'(0 | tau')
    d3 = -2.0 * sum(c * f**3 for c, f in zip(coeffs, freqs))    # theta1'''(0 | tau')
    # C(tau') = log|eta(tau')| / 2 pi, the domain mean of log|theta1| - pi Im(z)^2 / Im tau'
    eta_q = cmath.exp(2j * math.pi * tau_r) ** np.arange(1, _ETA_TERMS + 1)
    log_abs_eta = -math.pi * tau_r.imag / 12.0 + float(np.log(np.abs(1.0 - eta_q)).sum())
    green_const = log_abs_eta / (2.0 * math.pi)
    h0 = -math.log(abs(d1)) + 2.0 * math.pi * green_const + math.log(abs(j))
    h2 = (-d3 / (6.0 * d1) - math.pi / (2.0 * tau_r.imag)) / j**2
    weights = np.array([((c,), (c * f,)) for c, f in zip(coeffs, freqs)])
    weights.flags.writeable = False
    return ThetaContext(tau_r, j, _TERMS, green_const, h0, h2, weights)


def theta1_series(ctx: ThetaContext, z):
    """(theta1(z | ctx.tau), theta1'(z | ctx.tau)) from one series pass.

    With x = pi z, sin((2k+1)x) and cos((2k+1)x) both obey the recurrence
    f_{k+1} = 2 cos(2x) f_k - f_{k-1}, so one Clenshaw pass over a (2, m)
    array sums both series.  It ends in sin x (b0 + b1) and cos x (b0 - b1),
    keeping theta1 at full relative precision near its zero at z = 0.  Points
    go through in blocks of _BLOCK, which bounds the temporaries' memory.
    """
    n = ctx.n_terms
    z = np.asarray(z, dtype=complex)
    out = np.empty((2,) + z.shape, dtype=complex)
    flat_z, flat_out = z.reshape(-1), out.reshape(2, -1)
    for start in range(0, flat_z.size, _BLOCK):
        x = math.pi * flat_z[start:start + _BLOCK]
        # complex sin x and cos x from real parts: numpy's complex sin is slower
        sin_a, cos_a = np.sin(x.real), np.cos(x.real)
        sinh_b, cosh_b = np.sinh(x.imag), np.cosh(x.imag)
        sin_x = sin_a * cosh_b + 1j * (cos_a * sinh_b)
        cos_x = cos_a * cosh_b - 1j * (sin_a * sinh_b)
        two_cos2x = 2.0 - 4.0 * sin_x * sin_x
        b1 = np.zeros((2, x.size), dtype=complex)
        b0 = b1 + ctx.weights[n - 1]
        for k in range(n - 2, -1, -1):
            b = two_cos2x * b0
            b -= b1
            b += ctx.weights[k]
            b0, b1 = b, b0
        flat_out[0, start:start + _BLOCK] = 2.0 * sin_x * (b0[0] + b1[0])
        flat_out[1, start:start + _BLOCK] = 2.0 * cos_x * (b0[1] - b1[1])
    return out[0], out[1]


def theta1(ctx: ThetaContext, z):
    """theta1(z | ctx.tau); scalar complex in, scalar out; ndarray in, ndarray out."""
    th = theta1_series(ctx, z)[0]
    return th if isinstance(z, np.ndarray) else complex(th)


def theta1_dz(ctx: ThetaContext, z):
    """d theta1/dz."""
    dth = theta1_series(ctx, z)[1]
    return dth if isinstance(z, np.ndarray) else complex(dth)


def green_normalization_constant(tau: complex) -> float:
    """Additive constant C(tau) = log|eta(tau)| / 2 pi making the torus Green
    function integrate to zero over the fundamental domain; from the reduced
    modulus as C(tau') - log|j| / 4 pi."""
    ctx = theta_context(tau)
    return ctx.green_const - math.log(abs(ctx.j)) / (4.0 * math.pi)
