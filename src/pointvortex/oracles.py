"""Independent brute-force validators: spectral Poisson solves, quadrature
over the torus and over the sphere, contour integration along closed lattice
loops and finite-difference derivatives.

Everything here exists to check the analytic machinery through a second
route, so none of it shares code with the closed-form / series evaluators:
of the package it imports only `surfaces`, for the point and surface types.
The sphere's stereographic rule (`_stereographic`) is written out here, not
taken from the chart code.
"""
from __future__ import annotations

import math
from collections.abc import Callable

import numpy as np

from .surfaces import SPHERE, Surface, SurfacePoint

# ---------------------------------------------------------------------------
# spectral Poisson solver on the flat torus


def torus_grid(tau: complex, n: int) -> np.ndarray:
    """Lattice-adapted grid z[i, j] = (i + j*tau)/n over the fundamental domain."""
    s = np.arange(n) / n
    t = np.arange(n) / n
    return s[:, None] + t[None, :] * tau


def torus_poisson_oracle(tau: complex, grid_n: int, source: np.ndarray) -> np.ndarray:
    """Solve -Laplace(u) = source on the flat torus by Fourier inversion.

    `source` is sampled on `torus_grid(tau, grid_n)` (axis 0 along 1, axis 1
    along tau) and must have zero mean; the returned potential has zero mean.
    """
    if grid_n < 64 or grid_n & (grid_n - 1):
        raise ValueError("grid_n must be a power of two >= 64")
    source = np.asarray(source, dtype=float)
    if source.shape != (grid_n, grid_n):
        raise ValueError(f"source must be {grid_n}x{grid_n}")
    mean = abs(source.mean())
    if mean > 1e-9 * max(1.0, np.abs(source).max()):
        raise ValueError(f"source must have zero mean (got mean {source.mean():.3e})")
    tau = complex(tau)
    t1, t2 = tau.real, tau.imag
    m = np.fft.fftfreq(grid_n, d=1.0 / grid_n)
    mm, nn = np.meshgrid(m, m, indexing="ij")
    eig = 4.0 * math.pi**2 * (mm**2 + (nn - t1 * mm) ** 2 / t2**2)
    eig[0, 0] = 1.0
    u_hat = np.fft.fft2(source) / eig
    u_hat[0, 0] = 0.0
    return np.real(np.fft.ifft2(u_hat))


def torus_domain_mean(f: Callable[[np.ndarray], np.ndarray], tau: complex) -> float:
    """Mean of f over the fundamental domain {s + t*tau : s, t in [0, 1)}, for f
    doubly periodic and smooth away from logarithmic poles on the lattice.

    Each fixed-t slice is a smooth periodic function of s, handled by the
    trapezoid rule with a t-dependent point count (the slice's Fourier decay
    degrades as t approaches the lattice points); the t integral uses
    Gauss-Legendre, whose interior nodes avoid the singular slices entirely.
    """
    tau = complex(tau)
    nodes, weights = np.polynomial.legendre.leggauss(48)
    total = 0.0
    for t, w in zip(0.5 * (nodes + 1.0), 0.5 * weights):
        n_s = min(max(128, math.ceil(40.0 / (min(t, 1.0 - t) * tau.imag))), 1 << 17)
        s = (np.arange(n_s) + 0.5) / n_s
        total += w * float(np.mean(f(s + t * tau)))
    return total


def _centred_grid_difference(tau: complex, n: int, a: complex) -> np.ndarray:
    """torus_grid(tau, n) - a, lattice-centred: s + t tau with |s|, |t| <= 1/2."""
    d = torus_grid(tau, n) - a
    t = d.imag / tau.imag
    s = d.real - t * tau.real
    s -= np.round(s)
    t -= np.round(t)
    return s + t * tau


def mollified_delta(tau: complex, grid_n: int, a: complex,
                    sigma_cells: float = 2.0) -> np.ndarray:
    """Gaussian approximation of a unit point mass at `a`, minus its uniform
    compensating background, sampled on the torus grid.  Zero mean by
    construction; width is in units of the largest grid-cell diameter."""
    tau = complex(tau)
    sigma = sigma_cells * max(1.0, abs(tau)) / grid_n
    r2 = np.abs(_centred_grid_difference(tau, grid_n, a)) ** 2
    g = np.exp(-r2 / (2.0 * sigma**2))
    cell_area = tau.imag / grid_n**2
    g /= g.sum() * cell_area
    g -= 1.0 / tau.imag
    return g


# ---------------------------------------------------------------------------
# contour integration of real 1-forms c_x dx + c_y dy

FormFn = Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]


def contour_integral(form: FormFn, z0: complex, delta: complex, n_points: int = 512) -> complex:
    """Integrate the 1-form along the straight closed loop z0 + t delta, t in
    [0, 1], with delta a lattice vector of a torus and the form periodic under
    it: the periodic trapezoid rule, spectrally accurate for smooth forms."""
    cx, cy = form(z0 + np.arange(n_points) / n_points * delta)
    return complex(np.mean(cx * delta.real + cy * delta.imag))


def gradient_form(grad_fn: Callable[[np.ndarray], np.ndarray]) -> FormFn:
    """1-form df of a real function from its Wirtinger gradient df/dz."""

    def form(z):
        g = grad_fn(z)
        return 2.0 * g.real, -2.0 * g.imag

    return form


def star_gradient_form(grad_fn: Callable[[np.ndarray], np.ndarray]) -> FormFn:
    """Hodge star *df from the Wirtinger gradient: *(f_x dx + f_y dy) = f_x dy - f_y dx."""

    def form(z):
        g = grad_fn(z)
        return 2.0 * g.imag, 2.0 * g.real

    return form


# ---------------------------------------------------------------------------
# quadrature over the sphere, centred on the integrand's pole

SphereIntegrand = Callable[[np.ndarray, np.ndarray], np.ndarray]


def _stereographic(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(charts, coords) of the unit vectors v[m, 3]: chart 0, z = (x1 + i x2) /
    (1 - x3), where x3 <= 0, else chart 1, w = (x1 - i x2) / (1 + x3).  The
    parts are divided separately: numpy's complex / real multiplies by the
    reciprocal, one rounding more."""
    x1, x2, x3 = v.T
    south = x3 <= 0.0
    d = np.where(south, 1.0 - x3, 1.0 + x3)
    coords = np.empty(x3.shape, dtype=complex)
    coords.real = x1 / d
    coords.imag = np.where(south, x2, -x2) / d
    return np.where(south, 0, 1), coords


def sphere_quadrature(f: SphereIntegrand, pole: SurfacePoint, n: int = 48) -> float:
    """Integrate f against the area form of the unit sphere, for f smooth
    except for at most a logarithmic singularity at `pole`.

    One product rule about the pole's unit vector p: polar angle theta =
    pi s^2 at n Gauss-Legendre nodes s in [0, 1] (the substitution smooths
    the singularity) times 2n equispaced azimuths, with weights
    2 pi s sin(theta) w_s 2 pi / 2n.  `f(charts, coords)` takes the nodes'
    chart ids and coordinates as arrays and is called once.
    """
    z = pole.coord
    r2 = abs(z) ** 2
    sign = 1.0 - 2.0 * pole.chart_id           # chart 1 mirrors x2 and x3
    p = np.array([2.0 * z.real, sign * 2.0 * z.imag, sign * (r2 - 1.0)]) / (1.0 + r2)
    e1 = np.cross(p, np.eye(3)[np.argmin(np.abs(p))])
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(p, e1)
    s, w_s = np.polynomial.legendre.leggauss(n)
    s, w_s = 0.5 * (s + 1.0), 0.5 * w_s
    theta = math.pi * s * s
    phi = np.arange(2 * n) * (math.pi / n)
    ring = np.cos(phi)[:, None] * e1 + np.sin(phi)[:, None] * e2
    v = np.cos(theta)[:, None, None] * p + np.sin(theta)[:, None, None] * ring
    charts, coords = _stereographic(v.reshape(-1, 3))
    weights = 2.0 * math.pi * s * np.sin(theta) * w_s * (math.pi / n)
    return float(weights @ f(charts, coords).reshape(n, 2 * n).sum(axis=1))


# ---------------------------------------------------------------------------
# finite-difference derivatives (central, optionally Richardson-extrapolated)


def wirtinger_stencil(z, h: float, richardson: bool = True) -> list:
    """The points z + hh, z - hh, z + i hh, z - i hh for hh = h and, with
    `richardson`, h / 2, in the order `wirtinger_combine` takes f at them; z
    a complex number or an array of them (then each point is an array)."""
    steps = (h, h / 2.0) if richardson else (h,)
    return [p for hh in steps for p in (z + hh, z - hh, z + 1j * hh, z - 1j * hh)]


def wirtinger_combine(values, h: float, richardson: bool = True) -> tuple[complex, complex]:
    """(df/dz, df/dzbar) from `values`, f at the `wirtinger_stencil` points in
    order: central differences, with `richardson` extrapolated from h and h / 2
    to (4 d(h / 2) - d(h)) / 3.  Values may be numbers or arrays of them."""

    def once(v, hh: float) -> tuple[complex, complex]:
        fx = (v[0] - v[1]) / (2.0 * hh)
        fy = (v[2] - v[3]) / (2.0 * hh)
        return 0.5 * (fx - 1j * fy), 0.5 * (fx + 1j * fy)

    d1 = once(values[:4], h)
    if not richardson:
        return d1
    d2 = once(values[4:], h / 2.0)
    return (
        (4.0 * d2[0] - d1[0]) / 3.0,
        (4.0 * d2[1] - d1[1]) / 3.0,
    )


def wirtinger_fd(f: Callable[[complex], complex], z: complex, h: float = 1e-6,
                 richardson: bool = True) -> tuple[complex, complex]:
    """(df/dz, df/dzbar) of a smooth function of (z, zbar) at z."""
    values = [f(p) for p in wirtinger_stencil(z, h, richardson)]
    return wirtinger_combine(values, h, richardson)


def min_image_distance_grid(tau: complex, n: int, a: complex) -> np.ndarray:
    """Lattice-minimal distance from each grid node to `a` (for masks)."""
    u = _centred_grid_difference(tau, n, a)
    best = np.abs(u)
    for m in (-1, 0, 1):
        for k in (-1, 0, 1):
            best = np.minimum(best, np.abs(u + m + k * tau))
    return best


def delta_probe_points(surface: Surface, rng: np.random.Generator,
                       count: int) -> list[SurfacePoint]:
    """Uniformly distributed sample points (area measure) for randomized checks."""
    if surface.kind == SPHERE:
        # normalized one vector at a time: a batched norm rounds differently
        # in the last bit, and every randomized check's points would move
        units = [u / np.linalg.norm(u) for u in (rng.normal(size=3) for _ in range(count))]
        charts, coords = _stereographic(np.reshape(units, (-1, 3)))
        return [SurfacePoint(int(c), complex(z)) for c, z in zip(charts, coords)]
    return [SurfacePoint(0, rng.uniform() + rng.uniform() * surface.tau) for _ in range(count)]
