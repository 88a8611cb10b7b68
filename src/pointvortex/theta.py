"""Odd Jacobi theta series and per-modulus cached data for the torus Green function.

The series theta1(z | tau') = 2 sum_{n>=0} (-1)^n q^{(n+1/2)^2} sin((2n+1) pi z),
q = exp(i pi tau'), runs on the reduced modulus tau' = (a tau + b) / j of
`surfaces.reduced_modulus`, where Im tau' >= sqrt(3)/2: there its _TERMS = 6 terms
leave a first dropped term below exp(-29.4 pi Im tau') < exp(-79.9) of the leading
one over |Im z| <= 1.05 Im tau' (term n is below exp(-pi Im tau' ((n + 1/2)^2 - 1/4
- 2.1 n)) of it there), and the eta sum's _ETA_TERMS = 8 a tail below 1e-21.
By modular covariance G(u; tau) = G(u / j; tau'), h0(tau) = h0(tau') + log|j|
and h2(tau) = h2(tau') / j^2.

The series runs on at most `surfaces.BLOCK` points at a time, the one pass
length of the torus pair evaluations, and the context keeps its coefficient
rows laid out at that length.  A `SeriesBlock` holds the buffers and views of
one series length; the torus pass builds one per block length once per run
(`green.TorusBlock`), a one-shot `theta1_series` one per call, and a run,
`theta1_block`, then only calls its ufuncs.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .surfaces import BLOCK, COINCIDENCE_TOL, reduced_modulus

_TERMS = 6
_ETA_TERMS = 8


@dataclass(frozen=True)
class ThetaContext:
    """Truncated series data on the reduced modulus tau' of one user modulus."""

    tau: complex                     # reduced modulus tau'
    j: complex                       # c tau + d, with tau' = (a tau + b) / j
    inv_j: complex                   # 1 / j
    n_terms: int
    green_const: float               # C(tau') = log|eta(tau')| / 2 pi
    h0: float                        # Robin h0 of the user's tau
    h2: complex                      # Robin h2 of the user's tau
    # dG/dz = log_coeff theta1'(u')/theta1(u') + im_coeff Im u' at u' = u / j centred
    log_coeff: complex               # -1 / (4 pi j)
    im_coeff: complex                # -i / (2 j Im tau')
    coincidence: float               # |u'| at or below which u is a lattice point
    # read-only (n_terms, 2 BLOCK): row k is the c^k coefficient of theta1 / sin x
    # BLOCK times, then that of theta1' / cos x BLOCK times, so that its columns
    # BLOCK - m .. BLOCK + m are one contiguous (2, m) block for any m <= BLOCK
    rows: np.ndarray = field(compare=False, repr=False)


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
    # theta1 / sin x = sum_n 2 c_n D_n(c) and theta1' / cos x = sum_n 2 c_n f_n (-1)^n D_n(-c)
    # in c = cos 2x, x = pi z, with D_n = 1 + 2 (T_1 + ... + T_n) in monomials of c
    weights = np.zeros((_TERMS, 2), dtype=complex)
    zeros = [0] * (_TERMS - 1)
    t_prev, t, kernel = [0, 1] + zeros[1:], [1] + zeros, [-1] + zeros
    for n, (c, f) in enumerate(zip(coeffs, freqs)):
        kernel = [d + 2 * a for d, a in zip(kernel, t)]              # D_n, from D_-1 = -1
        weights[:, 0] += [2 * c * d for d in kernel]
        weights[:, 1] += [2 * (-1) ** (n + m) * c * f * d for m, d in enumerate(kernel)]
        t_prev, t = t, [2 * a - b for a, b in zip([0] + t, t_prev)]   # T_{n+1}, from T_-1 = T_1
    rows = np.repeat(weights, BLOCK, axis=1)
    rows.flags.writeable = False
    inv_j = 1.0 / j
    return ThetaContext(tau_r, j, inv_j, _TERMS, green_const, h0, h2,
                        -inv_j / (4.0 * math.pi), -0.5j * inv_j / tau_r.imag,
                        COINCIDENCE_TOL * abs(inv_j), rows)


def theta1_series(ctx: ThetaContext, z):
    """(theta1(z | ctx.tau), theta1'(z | ctx.tau)) at z of any shape with at
    most BLOCK points, from `theta1_block` on a `SeriesBlock` built for them."""
    z = np.asarray(z, dtype=complex)
    block = SeriesBlock(ctx, z.size)
    block.z[:] = z.reshape(-1)
    th = theta1_block(block)
    return th[0].reshape(z.shape), th[1].reshape(z.shape)


class SeriesBlock:
    """`theta1_block`'s buffers and views on m <= BLOCK points, laid out once
    for every run: the caller writes the points into z, and a run leaves
    theta1 and theta1' in out's rows th and dth.  rows are the (2, m)
    coefficient rows cut from `ThetaContext.rows`; out, c and p share one work
    buffer with the real parts of sin x and cos x, which sit where c and p go."""

    __slots__ = ("z", "z_re", "z_im", "rows", "inner", "out", "th", "dth", "c", "c0", "c1",
                 "p", "a", "b", "sin_a", "cos_a", "sinh_b", "cosh_b", "parts")

    def __init__(self, ctx: ThetaContext, m: int):
        width = ctx.rows.shape[1] // 2
        self.rows = tuple(ctx.rows[:, width - m:width + m].reshape(ctx.n_terms, 2, m))
        self.inner = self.rows[-2:0:-1]            # the Horner steps between the ends
        self.z = np.empty(m, dtype=complex)
        self.z_re, self.z_im = self.z.real, self.z.imag
        work = np.empty(6 * m, dtype=complex)
        self.out, self.c, self.p = work.reshape(3, 2, m)
        self.th, self.dth = self.out
        self.c0, self.c1 = self.c
        self.a, self.b, self.sin_a, self.cos_a, self.sinh_b, self.cosh_b, _, _ = (
            work[2 * m:].view(float).reshape(8, m))
        self.parts = (self.th.real, self.th.imag, self.dth.real, self.dth.imag)


def theta1_block(s: SeriesBlock) -> np.ndarray:
    """theta1 and theta1' at the points s.z, as s.out, (2, m).

    With x = pi z, theta1 / sin x and theta1' / cos x are degree n_terms - 1
    polynomials in c = cos 2x (`ThetaContext.rows`): one Horner pass over a
    (2, m) array, then times sin x and cos x, which the result holds
    meanwhile; the factors keep theta1 at full relative precision near z = 0."""
    a, b, sin_a, cos_a, sinh_b, cosh_b = s.a, s.b, s.sin_a, s.cos_a, s.sinh_b, s.cosh_b
    out, c, c0, c1, p = s.out, s.c, s.c0, s.c1, s.p
    sin_re, sin_im, cos_re, cos_im = s.parts
    # complex sin x and cos x from real parts (numpy's complex sin is slower)
    np.multiply(s.z_re, math.pi, out=a)
    np.multiply(s.z_im, math.pi, out=b)
    np.sin(a, out=sin_a)
    np.cos(a, out=cos_a)
    np.sinh(b, out=sinh_b)
    np.cosh(b, out=cosh_b)
    np.multiply(sin_a, cosh_b, out=sin_re)
    np.multiply(cos_a, sinh_b, out=sin_im)
    np.multiply(cos_a, cosh_b, out=cos_re)
    np.multiply(sin_a, sinh_b, out=cos_im)
    np.negative(cos_im, out=cos_im)
    # c = 1 - 2 sin^2 x in both rows, 2 sin x in c[1] first: a one-element
    # complex product in place would round differently (`green._torus_block`)
    np.multiply(s.th, 2.0, out=c1)
    np.multiply(c1, s.th, out=c0)
    np.subtract(1.0, c0, out=c0)
    np.copyto(c1, c0)
    np.multiply(s.rows[-1], c, out=p)
    for row in s.inner:
        p += row
        p *= c
    p += s.rows[0]
    out *= p
    return out


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
