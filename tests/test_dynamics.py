import cmath
import math
import time

import numpy as np
import pytest

from pointvortex.dynamics import (
    VortexState,
    hamiltonian,
    hamiltonian_velocity,
    integrate,
    min_separation,
    vortex_velocities,
    vortex_velocity,
    _plan,
)
from pointvortex.errors import CollisionError
from pointvortex.green import green, robin_data
from pointvortex.periods import circulation_state
from pointvortex.surfaces import SurfacePoint, conformal_factor, transition
from pointvortex.verify import random_state

from reference import (
    c0_coefficient,
    c1_coefficient,
    conjugate_potential,
    dlog_lambda_dzbar,
    renormalized_robin_at,
)


def antipodal_pair(sphere, gamma=1.0):
    return VortexState(
        sphere,
        (SurfacePoint(0, 0j), SurfacePoint(1, 0j)),
        (gamma, -gamma),
    )


def diametral_pair(sphere, r=0.5, gamma=2.0 * math.pi):
    return VortexState(
        sphere,
        (SurfacePoint(0, complex(r, 0.0)), SurfacePoint(0, complex(-r, 0.0))),
        (gamma, -gamma),
    )


class TestStateValidation:
    def test_strengths_must_balance(self, torus_i):
        with pytest.raises(ValueError, match="sum to zero"):
            VortexState(torus_i, (SurfacePoint(0, 0j), SurfacePoint(0, 0.5 + 0j)),
                        (1.0, 1.0), (0.0,), (0.0,))

    @pytest.mark.parametrize("threshold", (math.nan, -1.0, -math.inf, 0.0, math.inf, 1e-16))
    def test_collision_threshold_must_be_finite_and_positive(self, sphere, threshold):
        # with NaN no collision could ever be raised: `sep < nan` is always false;
        # below MIN_COLLISION_THRESHOLD the kernel would see coincident points first
        with pytest.raises(ValueError, match="^collision_threshold: must be finite"):
            VortexState(sphere, (SurfacePoint(0, 0j), SurfacePoint(0, 0.5 + 0j)),
                        (1.0, -1.0), collision_threshold=threshold)

    def test_strengths_must_be_nonzero(self, sphere):
        with pytest.raises(ValueError, match="nonzero"):
            VortexState(sphere, (SurfacePoint(0, 0j), SurfacePoint(0, 0.5 + 0j)),
                        (0.0, 0.0))

    def test_minimum_two_vortices(self, sphere):
        with pytest.raises(ValueError, match="two"):
            VortexState(sphere, (SurfacePoint(0, 0j),), (1.0,))

    def test_close_pair_rejected(self, sphere):
        with pytest.raises(ValueError, match="separation"):
            VortexState(sphere, (SurfacePoint(0, 0j), SurfacePoint(0, 1e-5 + 0j)),
                        (1.0, -1.0))

    def test_collision_rule_is_the_runs(self, sphere):
        # a run collides only below its threshold, so a state (a record) whose
        # separation equals its threshold is admissible and runs
        points = tuple(SurfacePoint(0, z) for z in (0j, 0.3 + 0j, 0.15 + 0.1j))
        sep = min_separation(sphere, points)
        st = VortexState(sphere, points, (1.0, 1.0, -1.0), collision_threshold=sep)
        records = integrate(st, 1e-3, 20, record_every=10)
        assert records[0].min_separation == sep
        assert min(r.min_separation for r in records) >= sep
        with pytest.raises(ValueError, match="separation"):
            VortexState(sphere, points, (1.0, 1.0, -1.0),
                        collision_threshold=float(np.nextafter(sep, math.inf)))

    def test_positions_canonicalized(self, torus_i):
        st = VortexState(torus_i, (SurfacePoint(0, 1.2 + 0.3j), SurfacePoint(0, 0.5 + 0.5j)),
                         (1.0, -1.0), (0.0,), (0.0,))
        assert st.positions[0].coord == pytest.approx(0.2 + 0.3j)
        # the wrap by m = 1 of the unit-strength vortex moves into b
        assert st.base_a == (0.0,) and st.base_b == (-1.0,)

    def test_circulation_lengths_checked(self, torus_i, sphere):
        with pytest.raises(ValueError, match="length 1"):
            VortexState(torus_i, (SurfacePoint(0, 0.2 + 0.3j), SurfacePoint(0, 0.5 + 0.5j)),
                        (1.0, -1.0))
        with pytest.raises(ValueError, match="length 0"):
            VortexState(sphere, (SurfacePoint(0, 0.2 + 0.3j), SurfacePoint(0, 0.5 + 0.5j)),
                        (1.0, -1.0), (0.0,), (0.0,))

    @pytest.mark.parametrize("strengths, a, b", [
        ((math.nan, -1.0), (0.0,), (0.0,)),
        ((math.inf, -math.inf), (0.0,), (0.0,)),
        ((1.0, -1.0), (math.nan,), (0.0,)),
        ((1.0, -1.0), (0.0,), (-math.inf,)),
    ])
    def test_non_finite_numbers_rejected(self, torus_i, strengths, a, b):
        with pytest.raises(ValueError, match="finite"):
            VortexState(torus_i, (SurfacePoint(0, 0.2 + 0.3j), SurfacePoint(0, 0.5 + 0.5j)),
                        strengths, a, b)


class TestC1:
    def test_antipodal_pair_is_stationary(self, sphere):
        st = antipodal_pair(sphere)
        for k in (0, 1):
            # mutual gradient cancels the self terms entirely
            assert abs(vortex_velocity(st, k)) < 1e-12

    def test_general_antipodal_pair_is_stationary(self, sphere, rng):
        for _ in range(10):
            z = complex(*rng.uniform(-0.8, 0.8, 2))
            if abs(z) < 0.05:
                continue
            st = VortexState(
                sphere,
                (SurfacePoint(0, z), SurfacePoint(0, -1.0 / z.conjugate())),
                (1.3, -1.3),
            )
            assert abs(vortex_velocity(st, 0)) < 1e-12
            assert abs(vortex_velocity(st, 1)) < 1e-12

    def test_diametral_pair_value(self, sphere):
        # the mutual term collapses to 1/(2r) for the mirror pair
        st = diametral_pair(sphere, r=0.5)
        assert c1_coefficient(st, 0) == pytest.approx(1.0, abs=1e-12)

    def test_symmetric_torus_pair_parity(self, torus_i):
        # conjugation symmetry of the theta series: a real-axis pair has a
        # real coefficient, an imaginary-axis pair a purely imaginary one
        d = 0.4
        st_real = VortexState(
            torus_i,
            (SurfacePoint(0, complex(d / 2, 0)), SurfacePoint(0, complex(-d / 2, 0))),
            (1.0, -1.0), (0.0,), (0.0,),
        )
        st_imag = VortexState(
            torus_i,
            (SurfacePoint(0, 1j * d / 2), SurfacePoint(0, -1j * d / 2)),
            (1.0, -1.0), (0.0,), (0.0,),
        )
        assert abs(c1_coefficient(st_real, 0).imag) < 1e-10
        assert abs(c1_coefficient(st_imag, 0).real) < 1e-10

    @pytest.mark.parametrize("surface", ("sphere", "torus_skew"))
    def test_velocity_law_from_c1(self, surface, rng, request):
        # the paper's law Gamma_k / (2 pi i lambda^2) (conj(c1_k) + dlog lambda/dzbar),
        # with c1 assembled from Robin h1, scalar Green gradients and du*/dz,
        # against the velocity law's one vectorized evaluation
        surface = request.getfixturevalue(surface)
        for n in (2, 3, 5):
            st = random_state(surface, n, rng, circulations=True)
            got = vortex_velocities(st)
            for k, p in enumerate(st.positions):
                lam2 = conformal_factor(surface, p) ** 2
                want = st.strengths[k] / (2j * math.pi * lam2) * (
                    c1_coefficient(st, k).conjugate() + dlog_lambda_dzbar(surface, p))
                assert abs(got[k] - want) <= 1e-12 * np.abs(got).max()


class TestC0:
    def test_antipodal_pair_vanishes(self, sphere):
        st = antipodal_pair(sphere)
        # h0(0) = -1/2 cancels against the mutual Green value
        assert abs(c0_coefficient(st, 0)) < 1e-14
        assert abs(c0_coefficient(st, 1)) < 1e-14

    def test_swap_with_reversed_strengths(self, sphere):
        st = antipodal_pair(sphere, gamma=2.0)
        swapped = VortexState(
            sphere, (st.positions[1], st.positions[0]), (-2.0, 2.0)
        )
        assert c0_coefficient(st, 0) == pytest.approx(c0_coefficient(swapped, 1))

    def test_matches_regular_part_of_stream_function(self, torus_skew, rng):
        # ring-average oracle: psi + (Gamma_k / 2 pi) log eps at radius eps
        # around the vortex recovers (Gamma_k / 2 pi) c0
        st = random_state(torus_skew, 3, rng, circulations=True, min_sep=0.25)
        w = circulation_state(torus_skew, [p.coord for p in st.positions],
                              st.strengths, st.base_a, st.base_b)

        def stream(z):
            total = conjugate_potential(torus_skew, w, z)
            for p, g in zip(st.positions, st.strengths):
                total += g * green(torus_skew, SurfacePoint(0, z), p).value
            return total

        for k in range(3):
            zk = st.positions[k].coord
            gk = st.strengths[k]
            eps = 1e-3
            ring = [
                stream(zk + eps * cmath.exp(2j * math.pi * t / 64))
                + (gk / (2 * math.pi)) * math.log(eps)
                for t in range(64)
            ]
            reg = sum(ring) / len(ring)
            assert abs(reg - gk / (2 * math.pi) * c0_coefficient(st, k)) < 1e-6

    def test_log_divergence_sign_for_opposite_pair(self, torus_i):
        def c0_at(d):
            st = VortexState(
                torus_i,
                (SurfacePoint(0, 0.5 + 0.5j), SurfacePoint(0, 0.5 + d + 0.5j)),
                (1.0, -1.0), (0.0,), (0.0,),
            )
            return c0_coefficient(st, 0)

        assert c0_at(0.01) < c0_at(0.1) < c0_at(0.3)


class TestVelocityLaw:
    def test_self_term_vanishes_on_sphere(self, sphere, rng):
        from pointvortex.oracles import delta_probe_points

        for p in delta_probe_points(sphere, rng, 200):
            h1 = robin_data(sphere, p).h1
            assert abs(h1.conjugate() + dlog_lambda_dzbar(sphere, p)) < 1e-10

    def test_torus_pair_translates_rigidly(self, torus_skew):
        st = VortexState(
            torus_skew,
            (SurfacePoint(0, 0.3 + 0.5j), SurfacePoint(0, 0.7 + 0.45j)),
            (1.0, -1.0), (0.0,), (0.0,),
        )
        v0 = vortex_velocity(st, 0)
        v1 = vortex_velocity(st, 1)
        assert abs(v0 - v1) < 1e-9

    def test_velocity_transforms_contravariantly(self, sphere, rng):
        # evaluating with the position handed over to the other chart must
        # multiply the velocity by the transition derivative
        done = 0
        while done < 25:
            z = complex(*rng.uniform(-0.9, 0.9, 2))
            a = complex(*rng.uniform(-0.9, 0.9, 2))
            if abs(z) < 0.2 or abs(z - a) < 0.2:
                continue
            strengths = (1.7, -1.7)
            coords0, coords1 = np.array([z, a]), np.array([1.0 / z, a])
            v0 = _plan(sphere, [0, 0], coords0, strengths, (), ()).velocity(coords0)[0]
            _, jet = transition(SurfacePoint(0, z))
            v1 = _plan(sphere, [1, 0], coords1, strengths, (), ()).velocity(coords1)[0]
            assert abs(v1 - jet.phi1 * v0) < 1e-9 * max(1.0, abs(v1))
            done += 1

    def test_strength_and_circulation_reversal_negates_velocity(self, torus_skew, rng):
        st = random_state(torus_skew, 4, rng, circulations=True)
        flipped = VortexState(
            torus_skew, st.positions, tuple(-g for g in st.strengths),
            tuple(-a for a in st.base_a), tuple(-b for b in st.base_b),
        )
        for k in range(4):
            assert vortex_velocity(flipped, k) == pytest.approx(
                -vortex_velocity(st, k), abs=1e-13
            )

    def test_relabeling_swaps_velocities(self, sphere, rng):
        st = random_state(sphere, 2, rng)
        swapped = VortexState(
            sphere, (st.positions[1], st.positions[0]),
            (st.strengths[1], st.strengths[0]),
        )
        assert vortex_velocity(st, 0) == pytest.approx(vortex_velocity(swapped, 1))
        assert hamiltonian(st) == pytest.approx(hamiltonian(swapped))


class TestHamiltonian:
    def test_renormalized_robin_chart_invariant(self, sphere, rng):
        for _ in range(25):
            z = complex(*rng.uniform(-2.0, 2.0, 2))
            if not 0.3 < abs(z) < 3.0:
                continue
            r0 = renormalized_robin_at(sphere, z)
            r1 = renormalized_robin_at(sphere, 1.0 / z, chart=1)
            assert abs(r0 - r1) < 1e-10

    def test_antipodal_pair_closed_form(self, sphere):
        st = antipodal_pair(sphere, gamma=1.0)
        assert hamiltonian(st) == pytest.approx(math.log(2.0) / (2.0 * math.pi),
                                                abs=1e-14)

    def test_antipodal_pair_energy_quadrature(self, sphere):
        # independent oracle: the kinetic energy integral over the surface
        # minus geodesic eps-disks, plus the matched log counterterm,
        # converges to twice the Hamiltonian; gradients come from green()
        gamma = 1.0
        st = antipodal_pair(sphere, gamma)

        def energy(eps):
            rho1 = math.tan(eps / 2.0)   # chart radius of a geodesic eps-disk
            rho2 = 1.0 / rho1
            nr, nt = 120, 64
            nodes, weights = np.polynomial.legendre.leggauss(nr)
            # integrate in log-radius to resolve both disk boundaries
            half = 0.5 * (math.log(rho2) - math.log(rho1))
            mid = 0.5 * (math.log(rho2) + math.log(rho1))
            theta = 2.0 * math.pi * np.arange(nt) / nt
            total = 0.0
            for node, w in zip(nodes, weights):
                r = math.exp(half * node + mid)
                ring = r * np.exp(1j * theta)
                grad = np.zeros(nt, dtype=complex)
                for pole, g in zip(st.positions, st.strengths):
                    grad += g * np.array([
                        green(sphere, SurfacePoint(0, c), pole).grad_z for c in ring
                    ])
                density = 4.0 * np.abs(grad) ** 2  # |grad psi|^2 = 4|dpsi/dz|^2
                # area element r dr dtheta, dr = r d(log r)
                total += half * w * r * r * float(density.mean()) * 2.0 * math.pi
            return total

        eps = 0.05
        renorm = energy(eps) + (gamma**2 / math.pi) * math.log(eps)
        expected = 2.0 * hamiltonian(st)
        # exact eps-dependence for this configuration: the geodesic disk has
        # chart radius tan(eps/2), so the counterterm overshoots by
        # log(eps / (2 tan(eps/2)))
        correction = (gamma**2 / math.pi) * math.log(eps / (2.0 * math.tan(eps / 2.0)))
        assert abs(renorm - correction - expected) < 1e-8

    def test_quadratic_scaling_in_strengths(self, torus_skew, rng):
        st = random_state(torus_skew, 4, rng, circulations=False)
        doubled = VortexState(
            torus_skew, st.positions, tuple(2 * g for g in st.strengths),
            st.base_a, st.base_b,
        )
        assert hamiltonian(doubled) == pytest.approx(4.0 * hamiltonian(st), rel=1e-12)

    def test_wrap_compensation_preserves_dynamics(self, torus_skew, rng):
        # a state built from raw cover coordinates describes the same flow as
        # those coordinates: canonical positions, compensated circulations
        st = random_state(torus_skew, 3, rng, circulations=True)
        tau = torus_skew.tau
        raw = np.array([p.coord + m + n * tau for p, (m, n) in zip(
            st.positions, ((2, -1), (0, 3), (-1, 0))
        )])
        v_raw = _plan(torus_skew, [0, 0, 0], raw, st.strengths, st.base_a,
                      st.base_b).velocity(raw)
        reduced = VortexState(torus_skew, tuple(SurfacePoint(0, z) for z in raw),
                              st.strengths, st.base_a, st.base_b)
        for p, q in zip(reduced.positions, st.positions):
            assert abs(p.coord - q.coord) < 1e-12
        for k in range(3):
            assert abs(vortex_velocity(reduced, k) - v_raw[k]) < 1e-12


class TestVelocityEquivalence:
    @pytest.mark.parametrize("n", (2, 4))
    def test_sphere(self, sphere, rng, n):
        for _ in range(5):
            st = random_state(sphere, n, rng)
            for k in range(n):
                v1 = vortex_velocity(st, k)
                v2 = hamiltonian_velocity(st, k)
                assert abs(v1 - v2) / max(abs(v1), 1e-12) < 1e-6

    @pytest.mark.parametrize("n", (2, 4))
    def test_torus_with_circulations(self, torus_skew, rng, n):
        for _ in range(5):
            st = random_state(torus_skew, n, rng, circulations=True)
            for k in range(n):
                v1 = vortex_velocity(st, k)
                v2 = hamiltonian_velocity(st, k)
                assert abs(v1 - v2) / max(abs(v1), 1e-12) < 1e-6


def test_raw_evaluation_checks_collisions(torus_i):
    # the integrator hands evolving raw coordinates to the separation check;
    # the public constructor would already reject this configuration
    coords = np.array([0.2 + 0.2j, 0.2 + 0.21j])
    plan = _plan(torus_i, [0, 0], coords, (1.0, -1.0), (0.0,), (0.0,))
    with pytest.raises(CollisionError):
        plan.separation(coords, 0.05, 1.0)


def test_random_state_impossible_request_raises(torus_i):
    # four points pairwise farther apart than 1.0 do not fit on the unit
    # square torus (its diameter is sqrt(2)/2): the sampler must give up
    rng = np.random.default_rng(0)
    start = time.perf_counter()
    with pytest.raises(ValueError, match=r"4 positions.*min_sep=1\.0"):
        random_state(torus_i, 4, rng, min_sep=1.0)
    assert time.perf_counter() - start < 1.0
