"""Coordinate-change brackets of chart transitions.

A holomorphic change of chart w = phi(z) acts on the coefficient of an
order-k connection through one of three nonlinear differential expressions
of the 3-jet of phi: the log-derivative, its derivative, and the Schwarzian
derivative.  This module holds the jets and those brackets, which the sphere
chart transition and `verify` use; the gluing rules, covariant derivatives
and curvature built on them are test references (`tests/reference.py`).
"""
from __future__ import annotations

import cmath
from dataclasses import dataclass

_TWO_PI = 2.0 * cmath.pi


@dataclass(frozen=True)
class TransitionJet:
    """First three derivatives (phi', phi'', phi''') of a chart change at a point."""

    phi1: complex
    phi2: complex
    phi3: complex

    def __post_init__(self):
        if self.phi1 == 0:
            raise ValueError("transition jet must have phi' != 0")

    def compose(self, inner: "TransitionJet") -> "TransitionJet":
        """Jet of f(g(.)) where self is the jet of f at g's image and `inner` is g's jet."""
        f1, f2, f3 = self.phi1, self.phi2, self.phi3
        g1, g2, g3 = inner.phi1, inner.phi2, inner.phi3
        return TransitionJet(
            f1 * g1,
            f2 * g1 * g1 + f1 * g2,
            f3 * g1**3 + 3.0 * f2 * g1 * g2 + f1 * g3,
        )


def bracket(jet: TransitionJet, k: int) -> complex:
    """The order-k change-of-coordinate expression of a 3-jet.

    k=0: log phi' (principal branch); k=1: phi''/phi';
    k=2: phi'''/phi' - (3/2)(phi''/phi')^2, the Schwarzian derivative.
    """
    if k == 0:
        return cmath.log(jet.phi1)
    r = jet.phi2 / jet.phi1
    if k == 1:
        return r
    if k == 2:
        return jet.phi3 / jet.phi1 - 1.5 * r * r
    raise ValueError(f"bracket order must be 0, 1 or 2, got {k}")


def chain_check(jet_a: TransitionJet, jet_b: TransitionJet,
                jet_ab: TransitionJet, k: int) -> float:
    """Residual of the order-k chain rule for a composed chart change.

    `jet_b` is the jet of u(w) at w0, `jet_a` the jet of z(u) at u0 = u(w0),
    and `jet_ab` the jet of the composition z(u(w)) at w0.  The chain rule
    states {z,w}_k = {z,u}_k * (u'(w0))^k + {u,w}_k in the w-chart; the
    absolute residual is returned (order-0 residual taken modulo 2*pi*i).
    """
    lhs = bracket(jet_ab, k)
    rhs = bracket(jet_a, k) * jet_b.phi1**k + bracket(jet_b, k)
    d = lhs - rhs
    if k == 0:
        d -= _TWO_PI * 1j * round(d.imag / _TWO_PI)
    return abs(d)
