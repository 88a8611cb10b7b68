"""The torus collision check against an exhaustive nearest-image search.

`pair_distances` forms lattice translates only where the centered reduced
difference u' has |u'| >= 1/2, and with `min_only` (the run's collision check
and `min_separation`) only for pairs that could reach the minimum,
|u'| >= 1 - min |u'|; both rest on every nonzero reduced lattice vector being
at least 1 long.  The search below takes every image that can be nearest, so
a wrong bound shows as a different minimum.  It forms each image distance
with the kernel's floating-point operations in the reduced basis (numpy's
complex product and modulus round differently from Python's), so the run's
minimum, its first closest pair and each per-pair value must agree with it
exactly; the reference in the modulus as given, `ref_nearest_image`, rounds
differently and agrees to 1e-12.
"""
import cmath
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pointvortex.dynamics import _plan, min_separation
from pointvortex.errors import CollisionError
from pointvortex.surfaces import (
    Surface,
    SurfacePoint,
    pair_distances,
    pair_indices,
    reduced_modulus,
)

from test_pair_kernel import TAUS, ref_nearest_image

# e^{i pi/3}: |tau'| = 1 to rounding, the edge of the bound; 0.3+0.001i: |j| != 1
MODULI = (*TAUS, cmath.exp(1j * math.pi / 3), 0.3 + 0.001j)
HEX = MODULI[-2]


def ref_centered(tau, u):
    """u less floor(Im u / Im tau + 1/2) tau, then less floor(Re + 1/2): the
    kernel's centring, in its order of operations."""
    w = u - math.floor(u.imag / tau.imag + 0.5) * tau
    return w - math.floor(w.real + 0.5)


def ref_image_distance(tau, u):
    """|j| min |u' + m + n tau'| over the rows |n| <= 3 of images and the three
    m around each row's nearest integer, u' = u / j centered in the reduced
    basis (tau', j) of `reduced_modulus`, whose Im tau' >= sqrt(3) / 2."""
    tau_r, j = reduced_modulus(tau)
    w = ref_centered(tau_r, complex((np.array([u]) * (1.0 / j))[0]))
    images = []
    for n in range(-3, 4):
        c = round((w + n * tau_r).real)
        images += [m + n * tau_r for m in (-c - 1, -c, 1 - c)]
    return abs(j) * float(np.abs(w + np.array(images)).min())


@st.composite
def cover_configs(draw):
    """A modulus and 2-16 cover coordinates s + t tau, s and t within 3 cells."""
    tau = draw(st.sampled_from(MODULI))
    n = draw(st.integers(2, 16))
    cells = draw(st.lists(st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)),
                          min_size=n, max_size=n))
    return tau, np.array([s + t * tau for s, t in cells])


@given(cover_configs())
# u' = 0.675+0.45i, |u'| = 0.81: the nearest image is the translate u' - 1
@example((0.5 + 1j, np.array([0j, 0.45 + 0.45 * (0.5 + 1j)])))
# n = 2 at the hexagonal cell's deep hole, min |u'| = 1/sqrt(3) >= 1/2: the pair
# takes translates, and three images tie
@example((HEX, np.array([0j, (1.0 + HEX) / 3.0])))
@settings(max_examples=80)
def test_torus_minimum_is_the_exhaustive_nearest_image(config):
    tau, coords = config
    surface, n = Surface.flat_torus(tau), len(coords)
    i, j = pair_indices(n)
    pairs = np.stack((i, j))
    ref = [ref_image_distance(tau, complex(coords[a]) - complex(coords[b])) for a, b in pairs.T]
    best = min(ref)
    k = ref.index(best)   # the first closest pair in (i, j) order

    assert pair_distances(surface, coords, pairs).tolist() == ref
    least = pair_distances(surface, coords, pairs, min_only=True)
    assert (least.min(), int(least.argmin())) == (best, k)
    assert min_separation(surface, [SurfacePoint(0, z) for z in coords.tolist()]) == best
    g = np.ones(n)
    g[-1] = 1.0 - n
    plan = _plan(surface, np.zeros(n, dtype=int), coords, g, (0.0,), (0.0,))
    assert plan.separation(coords, -math.inf, 0.0) == (best, (i[k], j[k]))
    with pytest.raises(CollisionError) as err:
        plan.separation(coords, np.nextafter(best, math.inf), 0.25)
    assert (err.value.pair, err.value.separation) == ((i[k], j[k]), best)

    independent = min(ref_nearest_image(tau, complex(coords[a]) - complex(coords[b]))
                      for a, b in pairs.T)
    assert abs(best - independent) <= 1e-12


def test_no_pairs_give_no_separations():
    no_pairs = np.zeros((2, 0), dtype=int)
    assert pair_distances(Surface.flat_torus(0.5 + 1j), np.zeros(2), no_pairs).shape == (0,)
