"""Cross-validation battery behind `pointvortex verify`.

Every check compares two independent routes to the same quantity (closed form
vs series, analytic assembly vs finite-differenced energy, analytic periods vs
numerical contour integration, spectral solve vs theta series) and reports the
measured residual against its tolerance.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .config import ScenarioConfig, resolve_scenario
from .connections import TransitionJet, bracket, chain_check
from .dynamics import (
    VortexState,
    hamiltonian,
    hamiltonian_velocities,
    integrate,
    min_separation,
    vortex_velocities,
)
from .green import pair_terms, robin_data, torus_pair_terms
from .oracles import (
    contour_integral,
    delta_probe_points,
    gradient_form,
    min_image_distance_grid,
    mollified_delta,
    sphere_quadrature,
    star_gradient_form,
    torus_domain_mean,
    torus_grid,
    torus_poisson_oracle,
    wirtinger_fd,
)
from .periods import circulation_energy, circulation_form, circulation_state
from .surfaces import (
    Surface,
    SurfacePoint,
    conformal_factor,
    lattice_split,
    pair_distances,
    pair_selection,
    transition,
)

_SPHERE = Surface.sphere()
_TORUS_SKEW = Surface.flat_torus(0.5 + 1j)


@dataclass(frozen=True)
class CheckResult:
    name: str
    residual: float
    tolerance: float
    passed: bool
    elapsed: float


_MAX_DRAWS = 1000


def random_state(surface: Surface, n: int, rng: np.random.Generator,
                 circulations: bool = False, min_sep: float = 0.15) -> VortexState:
    """Random admissible vortex state: uniform positions, and strengths of size
    0.25 or more that sum to zero on the torus only (the sphere's net strength is
    free).  Each is redrawn at most _MAX_DRAWS times, then ValueError is raised."""
    for _ in range(_MAX_DRAWS):
        pts = delta_probe_points(surface, rng, n)
        if min_separation(surface, pts) > min_sep:
            break
    else:
        raise ValueError(f"no {n} positions pairwise farther apart than "
                         f"min_sep={min_sep} in {_MAX_DRAWS} draws")
    for _ in range(_MAX_DRAWS):
        g = rng.uniform(0.4, 1.6, n) * rng.choice([-1.0, 1.0], n)
        if surface.genus:
            g -= g.mean()
        if np.abs(g).min() > 0.25:
            break
    else:
        raise ValueError(f"no strengths above 0.25 for n={n} in {_MAX_DRAWS} draws")
    genus = surface.genus
    if circulations and genus:
        a = tuple(rng.uniform(-1.0, 1.0, genus))
        b = tuple(rng.uniform(-1.0, 1.0, genus))
    else:
        a = (0.0,) * genus
        b = (0.0,) * genus
    return VortexState(surface, tuple(pts), tuple(g), a, b)


# ---------------------------------------------------------------------------
# individual checks; each returns the measured residual


def sphere_robin_closed_forms(rng: np.random.Generator, count: int = 200) -> float:
    worst = 0.0
    for p in delta_probe_points(_SPHERE, rng, count):
        a = p.coord
        m2 = abs(a) ** 2
        d = robin_data(_SPHERE, p)
        worst = max(
            worst,
            abs(d.h0 - (math.log(1.0 + m2) - 0.5)),
            abs(d.h1 - a.conjugate() / (1.0 + m2)),
            abs(d.h2 + a.conjugate() ** 2 / (2.0 * (1.0 + m2) ** 2)),
            abs(d.h11 - 1.0 / (2.0 * (1.0 + m2) ** 2)),
        )
    return worst


def sphere_green_closed_form(rng: np.random.Generator, count: int = 200) -> float:
    """G against its closed form over `count` chart-0 pairs, as one configuration."""
    z, a = rng.uniform(-0.95, 0.95, (count, 4)).view(complex).T
    keep = np.abs(z - a) >= 1e-3
    z, a = z[keep], a[keep]
    expected = -(
        np.log(np.abs(z - a) ** 2 / ((1.0 + np.abs(z) ** 2) * (1.0 + np.abs(a) ** 2))) + 1.0
    ) / (4.0 * math.pi)
    n = len(z)
    pairs = pair_selection(_SPHERE, np.zeros(2 * n, dtype=int), np.arange(n), np.arange(n, 2 * n))
    got = pair_terms(_SPHERE, np.concatenate((z, a)), pairs)[0]
    return float(np.abs(got - expected).max(initial=0.0))


def green_symmetry(surface: Surface, rng: np.random.Generator,
                   count: int = 200) -> float:
    """|G(p, q) - G(q, p)| over `count` probe pairs, both orders in one configuration."""
    pts = delta_probe_points(surface, rng, 2 * count)
    charts = np.array([p.chart_id for p in pts])
    coords = np.array([p.coord for p in pts])
    i, j = np.arange(0, 2 * count, 2), np.arange(1, 2 * count, 2)
    keep = pair_distances(surface, coords, pair_selection(surface, charts, i, j)) >= 1e-3
    i, j = i[keep], j[keep]
    pairs = pair_selection(surface, charts, np.concatenate((i, j)), np.concatenate((j, i)))
    value = pair_terms(surface, coords, pairs)[0]
    return float(np.abs(value[:len(i)] - value[len(i):]).max(initial=0.0))


def sphere_green_normalization(poles=None) -> float:
    """|Integral of G(., p) dA| over the sphere, by the quadrature centred on p."""
    if poles is None:
        poles = (SurfacePoint(0, 0.4 + 0.3j), SurfacePoint(1, -0.2 + 0.6j))
    worst = 0.0
    for pole in poles:
        def integrand(charts, coords, pole=pole):
            # the m nodes and the pole as one (m+1)-point configuration
            m = coords.size
            i, j = np.arange(m), np.full(m, m)
            pairs = pair_selection(_SPHERE, np.append(charts, pole.chart_id), i, j)
            return pair_terms(_SPHERE, np.append(coords, pole.coord), pairs)[0]

        worst = max(worst, abs(sphere_quadrature(integrand, pole)))
    return worst


def torus_green_normalization(tau: complex = 0.5 + 1j) -> float:
    """|Mean of G(., 0)| over the torus, by quadrature that does not use C(tau)."""
    return abs(torus_domain_mean(lambda z: torus_pair_terms(tau, z)[0], tau))


def torus_green_vs_poisson(tau: complex, grid_n: int = 256) -> float:
    """Relative disagreement (mean-matched) between the spectral solve and the
    theta-series Green function, away from the mollified pole."""
    pole = 0.31 + 0.47 * tau
    source = mollified_delta(tau, grid_n, pole, sigma_cells=2.0)
    solved = torus_poisson_oracle(tau, grid_n, source)
    z = torus_grid(tau, grid_n)
    exact = torus_pair_terms(tau, z - pole)[0]
    dist = min_image_distance_grid(tau, grid_n, pole)
    mask = dist > 12.0 * max(1.0, abs(tau)) / grid_n
    diff = solved[mask] - exact[mask]
    diff -= diff.mean()
    return float(np.abs(diff).max() / np.abs(exact[mask]).max())


def _flow_periods(tau: complex, grad: complex, star: bool) -> tuple[float, float]:
    """Periods of du* (star: of *du*) around alpha = [0, 1] and beta = [0, tau],
    by contour integration of the constant gradient du*/dz = grad."""
    form = (star_gradient_form if star else gradient_form)(
        lambda z: np.full(np.shape(z), grad))
    return tuple(contour_integral(form, 0j, d).real for d in (1.0, tau))


def period_relation_residual(tau: complex) -> float:
    """Periods of *du* of the circulating flow around alpha and beta vs -(A, B).

    du*/dz comes from the W closed form (`circulation_form`); A and B are
    summed here from the cycle potentials U_alpha = Im z / Im tau and
    U_beta = -Re z + Re tau Im z / Im tau, with one vortex off the
    fundamental domain.
    """
    t1, t2 = tau.real, tau.imag
    zs = (0.21 + 0.33 * tau, 1.68 + 0.41 * tau, 0.45 - 0.72 * tau)
    gs = (1.0, -1.6, 0.6)
    a, b = 0.3, -0.2
    big_a = a + sum(g * z.imag / t2 for z, g in zip(zs, gs))
    big_b = b + sum(g * (-z.real + t1 * z.imag / t2) for z, g in zip(zs, gs))
    surface = Surface.flat_torus(tau)
    grad = circulation_form(surface, circulation_state(surface, zs, gs, (a,), (b,)))
    got_a, got_b = _flow_periods(tau, grad, star=True)
    return max(abs(got_a + big_a), abs(got_b + big_b))


def period_matrix_residual(tau: complex) -> float:
    """`circulation_energy`, the energy H adds for the circulating flow, against
    the Riemann bilinear relation: the flow with Kelvin coefficients (A, B),
    W = A tau - B, has energy E(A, B) = per_alpha(du*) per_beta(*du*)
    - per_beta(du*) per_alpha(*du*), by contour integration of its form
    `circulation_form`.  E(1, 0), E(0, 1) and E(1, 1) fix the quadratic form,
    the period matrix P, by polarization; E is a Dirichlet energy, so agreement
    also makes P positive definite."""
    surface = Surface.flat_torus(tau)
    worst = 0.0
    for a, b in ((1.0, 0.0), (0.0, 1.0), (1.0, 1.0)):
        w = a * tau - b
        grad = circulation_form(surface, w)
        (d_alpha, d_beta), (s_alpha, s_beta) = (
            _flow_periods(tau, grad, star) for star in (False, True))
        worst = max(worst, abs(circulation_energy(surface, w)
                               - (d_alpha * s_beta - d_beta * s_alpha)))
    return worst


def conjugate_period_residual(surface: Surface, rng: np.random.Generator,
                              pairs: int = 20) -> float:
    """Conjugate periods of the two-point potential vs potential differences."""
    tau = surface.tau
    t2 = tau.imag
    worst = 0.0
    for _ in range(pairs):
        for _ in range(_MAX_DRAWS):
            a = complex(rng.uniform(0.1, 0.9) + rng.uniform(0.05, 0.40) * tau)
            b = complex(rng.uniform(0.1, 0.9) + rng.uniform(0.05, 0.40) * tau)
            sa, _ = lattice_split(tau, a)
            sb, _ = lattice_split(tau, b)
            if abs(a - b) >= 0.1 and abs(sa - sb) <= 0.6:
                break
        else:
            raise ValueError(f"no admissible pole pair in {_MAX_DRAWS} draws")
        form = star_gradient_form(
            lambda z: torus_pair_terms(tau, z - a)[1] - torus_pair_terms(tau, z - b)[1])
        # alpha-homologous loop at lattice height t0=0.7: the poles sit at
        # t in (0.05, 0.40), so neither the loop nor the straight b->a path
        # meets it
        lhs_a = contour_integral(form, 0.7 * tau, 1.0, 1024).real
        rhs_a = (a.imag - b.imag) / t2
        # beta-homologous loop on the midline of the complementary s-arc
        lo, hi = min(sa, sb), max(sa, sb)
        s0 = (hi + lo + 1.0) / 2.0 % 1.0
        lhs_b = contour_integral(form, complex(s0, 0.0), tau, 1024).real
        rhs_b = -(a.real - b.real) + (tau.real / t2) * (a.imag - b.imag)
        worst = max(worst, abs(lhs_a - rhs_a), abs(lhs_b - rhs_b))
    return worst


def robin_transformation_laws(rng: np.random.Generator, count: int = 100) -> float:
    """Chart-handover laws for (h0, h1, h11) and the h2 combination on the sphere."""
    worst = 0.0
    for _ in range(count):
        for _ in range(_MAX_DRAWS):
            a = complex(*rng.uniform(-1.5, 1.5, 2))
            if 0.5 < abs(a) < 2.0:
                break
        else:
            raise ValueError(f"no point with 0.5 < |a| < 2 in {_MAX_DRAWS} draws")
        p = SurfacePoint(0, a)
        q, jet = transition(p)
        d0 = robin_data(_SPHERE, p)
        d1 = robin_data(_SPHERE, q)
        worst = max(
            worst,
            abs(d1.h0 - d0.h0 - math.log(abs(jet.phi1))),
            abs(d1.h1 * jet.phi1 - d0.h1 - 0.5 * jet.phi2 / jet.phi1),
            abs(d1.h11 * abs(jet.phi1) ** 2 - d0.h11),
        )

        def dh1_da(point: SurfacePoint) -> complex:
            return wirtinger_fd(
                lambda c: robin_data(_SPHERE, SurfacePoint(point.chart_id, c)).h1,
                point.coord, 1e-5, richardson=False)[0]

        lhs = (dh1_da(q) - 2.0 * d1.h2) * jet.phi1**2
        rhs = dh1_da(p) - 2.0 * d0.h2 + bracket(jet, 2) / 6.0
        worst = max(worst, abs(lhs - rhs))
    return worst


def _random_jet(rng: np.random.Generator) -> TransitionJet:
    """Random 3-jet with |phi1| >= 0.3, from at most _MAX_DRAWS draws of phi1."""
    c = rng.normal(size=3) + 1j * rng.normal(size=3)
    for _ in range(_MAX_DRAWS - 1):
        if abs(c[0]) >= 0.3:
            break
        c[0] = rng.normal() + 1j * rng.normal()
    if abs(c[0]) < 0.3:
        raise ValueError(f"no jet with |phi1| >= 0.3 in {_MAX_DRAWS} draws")
    return TransitionJet(c[0], c[1], c[2])


def bracket_chain_rules(rng: np.random.Generator, count: int = 200) -> float:
    worst = 0.0
    for _ in range(count):
        jb = _random_jet(rng)
        ja = _random_jet(rng)
        jab = ja.compose(jb)
        for k in (0, 1, 2):
            worst = max(worst, chain_check(ja, jb, jab, k))
    return worst


def mobius_schwarzian(rng: np.random.Generator, count: int = 500) -> float:
    worst = 0.0
    for _ in range(count):
        a, b, c, d = rng.normal(size=4) + 1j * rng.normal(size=4)
        det = a * d - b * c
        if abs(det) < 1e-2:
            continue
        z = complex(*rng.normal(size=2))
        den = c * z + d
        if abs(den) < 0.3:
            continue
        jet = TransitionJet(
            det / den**2, -2.0 * c * det / den**3, 6.0 * c**2 * det / den**4
        )
        worst = max(worst, abs(bracket(jet, 2)))
    return worst


def self_term_residual(rng: np.random.Generator, count: int = 200) -> float:
    """A lone vortex's velocity contribution conj(h1) + dlog(lambda)/dzbar, the
    derivative by finite differences of log lambda."""
    worst = 0.0
    for p in delta_probe_points(_SPHERE, rng, count):
        h1 = robin_data(_SPHERE, p).h1
        dlog_dzbar = wirtinger_fd(
            lambda c: math.log(conformal_factor(_SPHERE, SurfacePoint(p.chart_id, c))),
            p.coord, 1e-3)[1]
        worst = max(worst, abs(h1.conjugate() + dlog_dzbar))
    return worst


def velocity_residuals(state: VortexState) -> list[float]:
    """|v_k - v_k^H| / max(max_k |v_k|, 1e-4) for each vortex k: the direct law
    against the Hamiltonian route, on the configuration's speed scale."""
    direct = vortex_velocities(state)
    scale = max(float(np.abs(direct).max()), 1e-4)
    return (np.abs(direct - hamiltonian_velocities(state)) / scale).tolist()


def velocity_equivalence(surface: Surface, rng: np.random.Generator, states: int) -> float:
    """Worst `velocity_residuals` over random states of 2 and 4 vortices in turn."""
    return max(max(velocity_residuals(random_state(
        surface, (2, 4)[i % 2], rng, circulations=surface.genus > 0))) for i in range(states))


@lru_cache(maxsize=1)
def conservation_residuals(full: bool) -> tuple[float, float]:
    """(relative energy drift, drift of the Kelvin coefficients (A, B), each record's
    from its own positions and circulations) over one RK4 run of the bundled
    torus_four_vortex, whose vortices wrap unevenly: 2000 steps if `full`, else 500.
    Both conservation checks read this run; `run_suite` clears it before its checks."""
    cfg = resolve_scenario("torus_four_vortex")
    steps = 2000 if full else 500
    recs = integrate(cfg.state(), cfg.integrator.dt, steps, method="rk4",
                     record_every=max(1, steps // 20))
    h0 = recs[0].hamiltonian
    drift = max(abs(r.hamiltonian - h0) for r in recs) / abs(h0)
    kelvin = max(abs(x - y) for r in recs for x, y in zip(r.kelvin, recs[0].kelvin))
    return drift, kelvin


# ---------------------------------------------------------------------------
# suite assembly

# (name, tolerance, residual(rng, full)) in suite order; the rng draws are sequential
_CHECKS = (
    ("sphere_robin_closed_forms", 1e-12, lambda rng, full: sphere_robin_closed_forms(rng)),
    ("sphere_green_closed_form", 1e-13, lambda rng, full: sphere_green_closed_form(rng)),
    ("sphere_green_symmetry", 1e-12, lambda rng, full: green_symmetry(_SPHERE, rng, 200)),
    ("torus_green_symmetry", 1e-12, lambda rng, full: green_symmetry(_TORUS_SKEW, rng, 100)),
    ("sphere_green_normalization", 1e-10, lambda rng, full: sphere_green_normalization()),
    ("torus_green_normalization", 1e-12, lambda rng, full: torus_green_normalization()),
    ("torus_green_vs_poisson", 1e-6, lambda rng, full: max(
        torus_green_vs_poisson(t, 256 if full else 128)
        for t in ((1j, 0.5 + 1j, 2j) if full else (1j,)))),
    ("period_relations", 1e-10,
     lambda rng, full: max(period_relation_residual(t) for t in (1j, 0.5 + 1j))),
    ("period_matrix_spd", 1e-12,
     lambda rng, full: max(period_matrix_residual(t) for t in (1j, 0.5 + 1j, 2j))),
    ("conjugate_periods", 1e-6,
     lambda rng, full: conjugate_period_residual(_TORUS_SKEW, rng, 20 if full else 5)),
    ("robin_transformation_laws", 1e-8, lambda rng, full: robin_transformation_laws(rng)),
    ("bracket_chain_rules", 1e-10, lambda rng, full: bracket_chain_rules(rng)),
    ("mobius_schwarzian", 1e-10, lambda rng, full: mobius_schwarzian(rng)),
    ("single_vortex_self_term", 1e-10, lambda rng, full: self_term_residual(rng)),
    ("velocity_equivalence_sphere", 1e-6,
     lambda rng, full: velocity_equivalence(_SPHERE, rng, 50 if full else 8)),
    ("velocity_equivalence_torus", 1e-6,
     lambda rng, full: velocity_equivalence(_TORUS_SKEW, rng, 50 if full else 8)),
    ("energy_drift_short", 1e-7, lambda rng, full: conservation_residuals(full)[0]),
    ("kelvin_drift_short", 1e-8, lambda rng, full: conservation_residuals(full)[1]),
)
CHECK_NAMES = tuple(name for name, _, _ in _CHECKS)


def check_tolerance(name: str, tol: float | str) -> float:
    """float(tol) as the tolerance of suite check `name`; ValueError unless the
    check exists and the value is finite and > 0."""
    if name not in CHECK_NAMES:
        raise ValueError(f"unknown check {name!r} (checks: {', '.join(CHECK_NAMES)})")
    tol = float(tol)
    if not 0.0 < tol < math.inf:   # NaN fails too
        raise ValueError(f"tolerance of {name} must be finite and > 0, got {tol}")
    return tol


def _check(name: str, tol: float, residual_fn) -> CheckResult:
    """Time residual_fn() and pass it if the residual is below tol."""
    start = time.perf_counter()
    residual = float(residual_fn())
    return CheckResult(name, residual, tol, residual < tol, time.perf_counter() - start)


def run_suite(suite: str = "quick", seed: int = 7,
              overrides: dict[str, float] | None = None) -> list[CheckResult]:
    """Run the "quick" or "full" checks in order, with `overrides` mapping names to
    `check_tolerance`s, and one run of torus_four_vortex for both conservation
    checks; ValueError for another suite or a bad override, before any check."""
    if suite not in ("quick", "full"):
        raise ValueError(f"unknown suite {suite!r} (suites: quick, full)")
    overrides = {k: check_tolerance(k, v) for k, v in (overrides or {}).items()}
    conservation_residuals.cache_clear()
    rng = np.random.default_rng(seed)
    return [_check(name, overrides.get(name, tol), lambda: fn(rng, suite == "full"))
            for name, tol, fn in _CHECKS]


def verify_scenario(cfg: ScenarioConfig) -> list[CheckResult]:
    """One scenario's `velocity[k]` rows, the `velocity_residuals` of its state
    (each row's elapsed is that call's time / n), and `hamiltonian_finite`."""
    state = cfg.state()
    tol = cfg.velocity_tolerance
    start = time.perf_counter()
    residuals = velocity_residuals(state)
    elapsed = (time.perf_counter() - start) / state.n
    results = [CheckResult(f"velocity[{k}]", r, tol, r < tol, elapsed)
               for k, r in enumerate(residuals)]
    results.append(_check("hamiltonian_finite", 1.0,
                          lambda: 0.0 if math.isfinite(hamiltonian(state)) else math.inf))
    return results


def format_report(results: list[CheckResult]) -> str:
    width = max(len(r.name) for r in results)
    lines = [f"{'check':<{width}}  {'residual':>12}  {'tolerance':>10}  status"]
    for r in results:
        status = "pass" if r.passed else "FAIL"
        lines.append(
            f"{r.name:<{width}}  {r.residual:>12.3e}  {r.tolerance:>10.1e}  {status}"
            f"  ({r.elapsed:.2f}s)"
        )
    n_fail = sum(not r.passed for r in results)
    lines.append(
        f"{len(results) - n_fail}/{len(results)} checks passed"
        + (f", {n_fail} FAILED" if n_fail else "")
    )
    return "\n".join(lines)
