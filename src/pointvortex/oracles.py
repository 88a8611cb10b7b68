"""Independent brute-force validators: spectral Poisson solves, quadrature,
contour integration along closed lattice loops and finite-difference
derivatives.

Everything here exists to check the analytic machinery through a second
route, so none of it shares code with the closed-form / series evaluators.
"""
from __future__ import annotations

import heapq
import math
from collections.abc import Callable

import numpy as np

from .errors import QuadratureError
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


def mollified_delta(tau: complex, grid_n: int, a: complex,
                    sigma_cells: float = 2.0) -> np.ndarray:
    """Gaussian approximation of a unit point mass at `a`, minus its uniform
    compensating background, sampled on the torus grid.  Zero mean by
    construction; width is in units of the largest grid-cell diameter."""
    tau = complex(tau)
    z = torus_grid(tau, grid_n)
    sigma = sigma_cells * max(1.0, abs(tau)) / grid_n
    d = z - a
    t = d.imag / tau.imag
    s = d.real - t * tau.real
    s -= np.round(s)
    t -= np.round(t)
    r2 = np.abs(s + t * tau) ** 2
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
# adaptive quadrature over the sphere

SphereIntegrand = Callable[[int, np.ndarray], np.ndarray]


def _cell_estimate(f, chart, r0, r1, th0, th1, nodes, weights):
    rm, rw = 0.5 * (r1 + r0), 0.5 * (r1 - r0)
    tm, tw = 0.5 * (th1 + th0), 0.5 * (th1 - th0)
    r = rm + rw * nodes
    th = tm + tw * nodes
    rr, tt = np.meshgrid(r, th, indexing="ij")
    z = rr * np.exp(1j * tt)
    lam2 = (2.0 / (1.0 + rr**2)) ** 2
    vals = f(chart, z) * lam2 * rr
    return rw * tw * float(weights @ vals @ weights)


def sphere_quadrature(f: SphereIntegrand, abs_tol: float = 1e-7,
                      max_cells: int = 60000) -> float:
    """Integrate f against the area form over the sphere.

    `f(chart_id, z)` must accept complex arrays and is integrated over the
    unit disks of both charts in polar coordinates with the lambda^2 weight.
    Cells are bisected worst-error-first until the summed error estimate
    drops below `abs_tol`; integrable (log-type) singularities refine
    geometrically.  Raises QuadratureError if the budget runs out first.
    Its 4- and 8-node Gauss-Legendre rules are formed per call, not on import.
    """
    lo, hi = (np.polynomial.legendre.leggauss(m) for m in (4, 8))

    def evaluate(chart, cell):
        coarse = _cell_estimate(f, chart, *cell, *lo)
        fine = _cell_estimate(f, chart, *cell, *hi)
        return fine, abs(fine - coarse)

    heap = []
    total = 0.0
    total_err = 0.0
    count = 0
    for chart in (0, 1):
        for th0 in (0.0, math.pi):
            cell = (0.0, 1.0, th0, th0 + math.pi)
            fine, err = evaluate(chart, cell)
            heapq.heappush(heap, (-err, count, chart, cell, fine))
            total += fine
            total_err += err
            count += 1
    while total_err > abs_tol:
        if count >= max_cells:
            raise QuadratureError(
                f"sphere quadrature exhausted {max_cells} cells with error "
                f"estimate {total_err:.2e} > tol {abs_tol:.2e}"
            )
        neg_err, _, chart, (r0, r1, th0, th1), fine = heapq.heappop(heap)
        total -= fine
        total_err += neg_err
        rm, tm = 0.5 * (r0 + r1), 0.5 * (th0 + th1)
        for sub in (
            (r0, rm, th0, tm), (r0, rm, tm, th1),
            (rm, r1, th0, tm), (rm, r1, tm, th1),
        ):
            sub_fine, sub_err = evaluate(chart, sub)
            heapq.heappush(heap, (-sub_err, count, chart, sub, sub_fine))
            total += sub_fine
            total_err += sub_err
            count += 1
    return total


# ---------------------------------------------------------------------------
# finite-difference derivatives (central, optionally Richardson-extrapolated)


def wirtinger_fd(f: Callable[[complex], complex], z: complex, h: float = 1e-6,
                 richardson: bool = True) -> tuple[complex, complex]:
    """(df/dz, df/dzbar) of a smooth function of (z, zbar) at z."""

    def once(hh: float) -> tuple[complex, complex]:
        fx = (f(z + hh) - f(z - hh)) / (2.0 * hh)
        fy = (f(z + 1j * hh) - f(z - 1j * hh)) / (2.0 * hh)
        return 0.5 * (fx - 1j * fy), 0.5 * (fx + 1j * fy)

    d1 = once(h)
    if not richardson:
        return d1
    d2 = once(h / 2.0)
    return (
        (4.0 * d2[0] - d1[0]) / 3.0,
        (4.0 * d2[1] - d1[1]) / 3.0,
    )


def min_image_distance_grid(tau: complex, n: int, a: complex) -> np.ndarray:
    """Lattice-minimal distance from each grid node to `a` (for masks)."""
    z = torus_grid(tau, n)
    d = z - a
    t = d.imag / tau.imag
    s = d.real - t * tau.real
    s -= np.round(s)
    t -= np.round(t)
    u = s + t * tau
    best = np.abs(u)
    for m in (-1, 0, 1):
        for k in (-1, 0, 1):
            best = np.minimum(best, np.abs(u + m + k * tau))
    return best


def delta_probe_points(surface: Surface, rng: np.random.Generator,
                       count: int) -> list[SurfacePoint]:
    """Uniformly distributed sample points (area measure) for randomized checks."""
    pts: list[SurfacePoint] = []
    if surface.kind == SPHERE:
        while len(pts) < count:
            v = rng.normal(size=3)
            v /= np.linalg.norm(v)
            x, y, zc = v
            if zc <= 0.0:
                z = complex(x, y) / (1.0 - zc)
                pts.append(SurfacePoint(0, z))
            else:
                w = complex(x, -y) / (1.0 + zc)
                pts.append(SurfacePoint(1, w))
        return pts
    tau = surface.tau
    for _ in range(count):
        pts.append(SurfacePoint(0, rng.uniform() + rng.uniform() * tau))
    return pts
