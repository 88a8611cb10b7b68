"""Bounded, seeded generation of admissible vortex states.

Points are placed one at a time: each candidate is drawn uniformly (area
measure) and kept only if it is at least `min_sep` from every point placed so
far.  Each point gets at most MAX_ATTEMPTS candidates, so the generator
always finishes; a density it cannot reach raises `SamplerError` instead of
looping.  Distances here are the benchmark's own numpy geometry; the library
checks them again when `VortexState` is built.
"""
from __future__ import annotations

import math

import numpy as np

from pointvortex import Surface, SurfacePoint, VortexState

MAX_ATTEMPTS = 2000
FILL = 0.25                  # share of the area covered by discs of diameter min_sep
BASE_CIRCULATIONS = (0.3, -0.2)


class SamplerError(RuntimeError):
    """The sampler could not place a point within its attempt cap."""


def _torus_candidate(rng, tau):
    return complex(rng.uniform() + rng.uniform() * tau)


def _torus_distances(tau, placed: np.ndarray, z: complex) -> np.ndarray:
    u = placed - z
    t = u.imag / tau.imag
    s = u.real - t * tau.real
    s -= np.round(s)
    t -= np.round(t)
    u = s + t * tau
    best = np.abs(u)
    for m in (-1, 0, 1):
        for n in (-1, 0, 1):
            best = np.minimum(best, np.abs(u + m + n * tau))
    return best


def _sphere_candidate(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def _sphere_distances(placed: np.ndarray, v: np.ndarray) -> np.ndarray:
    chord = np.linalg.norm(placed - v, axis=1)
    return 2.0 * np.arcsin(np.minimum(1.0, 0.5 * chord))


def _sphere_point(v) -> SurfacePoint:
    """Canonical chart point of a unit vector (chart 0 on the southern half)."""
    x, y, zc = v
    if zc <= 0.0:
        return SurfacePoint(0, complex(x, y) / (1.0 - zc))
    return SurfacePoint(1, complex(x, -y) / (1.0 + zc))


def sample_positions(surface: Surface, n: int, min_sep: float,
                     rng: np.random.Generator) -> list[SurfacePoint]:
    """`n` points pairwise at least `min_sep` apart; raises SamplerError."""
    torus = surface.genus == 1
    placed = []
    for i in range(n):
        for _ in range(MAX_ATTEMPTS):
            cand = _torus_candidate(rng, surface.tau) if torus else _sphere_candidate(rng)
            if not placed:
                break
            arr = np.array(placed)
            dist = (_torus_distances(surface.tau, arr, cand) if torus
                    else _sphere_distances(arr, cand))
            if dist.min() >= min_sep:
                break
        else:
            raise SamplerError(
                f"could not place point {i + 1} of {n} at separation {min_sep} "
                f"within {MAX_ATTEMPTS} attempts"
            )
        placed.append(cand)
    if torus:
        return [SurfacePoint(0, z) for z in placed]
    return [_sphere_point(v) for v in placed]


def balanced_strengths(n: int, rng: np.random.Generator) -> list[float]:
    """Strengths in +-[0.4, 1.6] summing to zero: each magnitude appears once
    with each sign (n must be even), in a seeded order."""
    if n % 2:
        raise ValueError("balanced strengths need an even vortex count")
    mags = rng.uniform(0.4, 1.6, n // 2)
    g = np.concatenate([mags, -mags])
    rng.shuffle(g)
    return [float(x) for x in g]


def random_state(surface: Surface, n: int, min_sep: float, seed: int) -> VortexState:
    """Seeded admissible state; torus states carry BASE_CIRCULATIONS."""
    rng = np.random.default_rng(seed)
    pts = sample_positions(surface, n, min_sep, rng)
    g = balanced_strengths(n, rng)
    a, b = ((BASE_CIRCULATIONS[0],), (BASE_CIRCULATIONS[1],)) if surface.genus else ((), ())
    return VortexState(surface, tuple(pts), tuple(g), a, b)


def min_sep_for(surface: Surface, n: int) -> float:
    """Separation at which n discs of that diameter cover FILL of the area.

    Random sequential placement jams near 0.55 in the plane, so 0.25 stays
    far from the attempt cap at every n the benchmark uses.
    """
    return math.sqrt(4.0 * FILL * surface.area / (math.pi * n))
