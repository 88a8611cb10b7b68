"""Odd Jacobi theta series and per-modulus cached data for the torus Green function.

The series theta1(z | tau) = 2 * sum_{n>=0} (-1)^n q^{(n+1/2)^2} sin((2n+1) pi z)
with nome q = exp(i pi tau) converges double-exponentially once |Im z| stays
below Im(tau)/2, which lattice-centered reduction of arguments guarantees.
The truncation length is fixed per tau so that the first dropped term is below
1e-15 of the leading one on that strip (never fewer than 8 terms).
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

_MIN_TERMS = 8
_MAX_TERMS = 400
_BLOCK = 4096    # points per series pass in theta1_series
_MAX_ETA_TERMS = 1 << 16


def _term_count(tau_im: float) -> int:
    # magnitude bound of term n on |Im z| <= 1.05 * Im tau (covers the whole
    # fundamental domain, not just the centered strip), relative to term 0
    imax = 1.05 * tau_im
    lead = -math.pi * tau_im * 0.25 + math.pi * imax
    n = 1
    while n < _MAX_TERMS:
        expo = -math.pi * tau_im * (n + 0.5) ** 2 + (2 * n + 1) * math.pi * imax
        if expo - lead < math.log(1e-15) and n >= _MIN_TERMS:
            break
        n += 1
    return n + 1


@dataclass(frozen=True)
class ThetaContext:
    """Truncated series data for one modulus tau."""

    tau: complex
    n_terms: int
    coeffs: tuple[complex, ...]      # (-1)^n q^{(n+1/2)^2}
    freqs: tuple[float, ...]         # (2n+1) pi
    d1_zero: complex                 # theta1'(0)
    d3_zero: complex                 # theta1'''(0)
    green_const: float               # log|eta(tau)| / 2 pi
    # read-only (n_terms, 2, 1) array of (coeffs, coeffs * freqs)
    weights: np.ndarray = field(compare=False, repr=False)


@lru_cache(maxsize=None)
def theta_context(tau: complex) -> ThetaContext:
    tau = complex(tau)
    if not tau.imag > 0:
        raise ValueError("theta modulus must have Im(tau) > 0")
    n = _term_count(tau.imag)
    q = cmath.exp(1j * math.pi * tau)
    coeffs = []
    freqs = []
    for j in range(n):
        coeffs.append((-1) ** j * q ** ((j + 0.5) ** 2))
        freqs.append((2 * j + 1) * math.pi)
    d1 = 2.0 * sum(c * f for c, f in zip(coeffs, freqs))
    d3 = -2.0 * sum(c * f**3 for c, f in zip(coeffs, freqs))
    weights = np.array([((c,), (c * f,)) for c, f in zip(coeffs, freqs)])
    weights.flags.writeable = False
    return ThetaContext(tau, n, tuple(coeffs), tuple(freqs), d1, d3,
                        _log_abs_eta(tau) / (2.0 * math.pi), weights)


def _log_abs_eta(tau: complex) -> float:
    """log|eta(tau)| = -pi Im(tau) / 12 + sum_{n>=1} log|1 - q^n|, q = exp(2 pi i tau).

    This is the mean of log|theta1(s + t tau)| - pi Im(tau) t^2 over the
    fundamental domain (Jensen's formula on each slice of the theta product).
    The sum stops once its tail, below |q|^N / (1 - |q|), is under 1e-17.
    """
    q = cmath.exp(2j * math.pi * tau)
    r = abs(q)
    n_terms = 1 if r < 1e-17 else math.ceil(math.log(1e-17 * (1.0 - r)) / math.log(r))
    n = np.arange(1, min(n_terms, _MAX_ETA_TERMS) + 1)
    return -math.pi * tau.imag / 12.0 + float(np.log(np.abs(1.0 - q**n)).sum())


def theta1_series(ctx: ThetaContext, z):
    """(theta1(z), theta1'(z)) from one pass of the truncated series.

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
    """theta1(z | tau); scalar complex in, scalar out; ndarray in, ndarray out."""
    th = theta1_series(ctx, z)[0]
    return th if isinstance(z, np.ndarray) else complex(th)


def theta1_dz(ctx: ThetaContext, z):
    """d theta1/dz."""
    dth = theta1_series(ctx, z)[1]
    return dth if isinstance(z, np.ndarray) else complex(dth)


def green_normalization_constant(tau: complex) -> float:
    """Additive constant C(tau) = log|eta(tau)| / 2 pi making the torus Green
    function integrate to zero over the fundamental domain."""
    return theta_context(tau).green_const
