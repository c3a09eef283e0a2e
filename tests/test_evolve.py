"""Tests for the split-step integrator.

Oracles: exact standing-wave evolution (pure phase rotation), discrete
conservation laws, self-convergence under step halving, cross-validation
of the two linear schemes, and brute-force optimization of the orbit
distance over the phase circle.
"""

import math

import numpy as np
import pytest

from nlsdelta import evolve
from nlsdelta.errors import AdmissibilityError, NumericsError
from nlsdelta.evolve import (
    SplitStepEvolver,
    State,
    orbit_distance,
    parse_perturbation,
    run_experiment,
)
from nlsdelta.wave import WaveParams, build_profile

POINT = WaveParams(6.0, 1.0, 0.5)


def standing_wave_error(params, n, dt, T, scheme="exact"):
    profile = build_profile(params, n=max(2048, n))
    ev = SplitStepEvolver(params.z, params.halfperiod, n=n, scheme=scheme)
    phi = profile.evaluate(ev.x).astype(complex)
    state = State(0.0, phi)
    steps = int(round(T / dt))
    for _ in range(steps):
        state = ev.step(state, dt)
    exact = phi * np.exp(1j * params.omega * state.t)
    return float(np.abs(state.u - exact).max())


class TestEvolverBasics:
    def test_zero_state_stays_zero(self):
        ev = SplitStepEvolver(1.0, 0.5, n=256)
        state = State(0.0, np.zeros(256, dtype=complex))
        state = ev.step(state, 1e-2)
        assert np.all(state.u == 0.0)
        assert state.t == pytest.approx(1e-2)

    def test_charge_preserved_fd_scheme_exactly(self):
        # the fd propagator is unitary, so charge holds to rounding even
        # for rough data
        ev = SplitStepEvolver(1.0, 0.5, n=256, scheme="fd")
        rng = np.random.default_rng(7)
        u = rng.standard_normal(256) + 1j * rng.standard_normal(256)
        state = State(0.0, u)
        q0, _ = ev.conserved(state)
        for _ in range(100):
            state = ev.step(state, 1e-4)
        q1, _ = ev.conserved(state)
        assert q1 == pytest.approx(q0, rel=1e-12)

    def test_charge_nearly_preserved_exact_scheme(self):
        # the oblique closed-form-basis propagator is unitary only up to
        # the conditioning of the sampled basis; smooth data drifts far
        # below discretization error
        params = POINT
        profile = build_profile(params, n=2048)
        ev = SplitStepEvolver(params.z, params.halfperiod, n=256)
        state = State(0.0, profile.evaluate(ev.x).astype(complex))
        q0, _ = ev.conserved(state)
        for _ in range(100):
            state = ev.step(state, 1e-4)
        q1, _ = ev.conserved(state)
        assert q1 == pytest.approx(q0, rel=1e-8)

    def test_charge_quadratic_scaling(self):
        ev = SplitStepEvolver(0.0, 0.5, n=256)
        u = np.cos(math.pi * ev.x / 0.5).astype(complex)
        q1, _ = ev.conserved(State(0.0, u))
        q2, _ = ev.conserved(State(0.0, 3.0 * u))
        assert q2 == pytest.approx(9.0 * q1, rel=1e-12)

    def test_invalid_inputs(self):
        with pytest.raises(AdmissibilityError):
            SplitStepEvolver(1.0, 0.5, n=256, scheme="spectral")
        ev = SplitStepEvolver(1.0, 0.5, n=256)
        with pytest.raises(AdmissibilityError):
            ev.step(State(0.0, np.zeros(256, dtype=complex)), -1e-3)
        with pytest.raises(NumericsError):
            State(0.0, np.array([np.nan + 0j]))

    def test_blowup_detection(self):
        profile = build_profile(POINT, n=2048)
        ev = SplitStepEvolver(POINT.z, POINT.halfperiod, n=256)
        phi = profile.evaluate(ev.x)
        state = State(0.0, (2e3 * phi).astype(complex))
        with pytest.raises(NumericsError, match="blow-up"):
            ev.step(state, 1e-3, blowup_ref=float(phi.max()))

    def test_overflow_within_one_step_is_blowup(self):
        # no amplitude reference: the state's finiteness check catches it
        ev = SplitStepEvolver(1.0, 0.5, n=256)
        state = State(0.0, np.full(256, 1e200, dtype=complex))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericsError, match=r"blow-up detected; last good time t=0\.0$"):
                ev.step(state, 1e-3)


class TestStandingWave:
    def test_exact_scheme_reproduces_phase_rotation(self):
        err = standing_wave_error(POINT, n=512, dt=1e-4, T=0.5)
        assert err < 2e-5

    def test_defect_free_scheme_agreement(self):
        # dual route: closed-form eigenbasis vs finite-difference eigenbasis
        params = WaveParams(8.0, 0.0, 1.0)
        e_exact = standing_wave_error(params, n=256, dt=1e-3, T=0.2, scheme="exact")
        e_fd = standing_wave_error(params, n=256, dt=1e-3, T=0.2, scheme="fd")
        assert e_exact < 1e-3
        assert e_fd < 1e-2
        assert abs(e_exact - e_fd) < 1e-2

    def test_self_convergence_second_order_without_defect(self):
        params = WaveParams(8.0, 0.0, 1.0)
        errs = [standing_wave_error(params, 256, dt, 0.2) for dt in (4e-3, 2e-3, 1e-3)]
        r1, r2 = errs[0] / errs[1], errs[1] / errs[2]
        assert 3.5 < r1 < 4.5 and 3.5 < r2 < 4.5

    def test_self_convergence_with_defect(self):
        # the defect reduces the splitting order below 2; the error must
        # still decrease monotonically under step halving
        errs = [standing_wave_error(POINT, 256, dt, 0.2) for dt in (4e-3, 2e-3, 1e-3)]
        assert errs[0] > errs[1] > errs[2]
        assert errs[0] / errs[2] > 2.0


class TestOrbitDistance:
    def test_orbit_member_at_distance_zero(self):
        profile = build_profile(POINT, n=2048)
        ev = SplitStepEvolver(POINT.z, POINT.halfperiod, n=512)
        phi = profile.evaluate(ev.x)
        for theta in (0.0, 0.7, -2.1):
            d = orbit_distance(phi * np.exp(1j * theta), phi, ev.h)
            assert d < 1e-10

    def test_linear_in_small_perturbations(self):
        profile = build_profile(POINT, n=2048)
        ev = SplitStepEvolver(POINT.z, POINT.halfperiod, n=512)
        phi = profile.evaluate(ev.x)
        bump = np.cos(math.pi * ev.x / POINT.halfperiod)
        d1 = orbit_distance(phi + 1e-3 * bump, phi, ev.h)
        d2 = orbit_distance(phi + 2e-3 * bump, phi, ev.h)
        assert d2 == pytest.approx(2.0 * d1, rel=1e-2)

    def test_linear_at_tiny_perturbations(self):
        profile = build_profile(POINT, n=2048)
        ev = SplitStepEvolver(POINT.z, POINT.halfperiod, n=512)
        phi = profile.evaluate(ev.x)
        bump = np.cos(math.pi * ev.x / POINT.halfperiod)
        dbump = (np.roll(bump, -1) - np.roll(bump, 1)) / (2.0 * ev.h)
        norm = math.sqrt(ev.h * float(np.sum(bump**2 + dbump**2)))
        d1 = orbit_distance(phi + 1e-10 * bump, phi, ev.h)
        d2 = orbit_distance(phi + 2e-10 * bump, phi, ev.h)
        assert d1 == pytest.approx(1e-10 * norm, rel=1e-4)
        assert d2 == pytest.approx(2.0 * d1, rel=1e-4)

    def test_phase_minimization_against_brute_force(self):
        profile = build_profile(POINT, n=2048)
        ev = SplitStepEvolver(POINT.z, POINT.halfperiod, n=512)
        phi = profile.evaluate(ev.x)
        rng = np.random.default_rng(3)
        u = phi * np.exp(0.4j) + 0.05 * (
            rng.standard_normal(512) + 1j * rng.standard_normal(512)
        )
        d = orbit_distance(u, phi, ev.h)

        def dist_at(theta):
            v = u - np.exp(1j * theta) * phi
            dv = (np.roll(v, -1) - np.roll(v, 1)) / (2.0 * ev.h)
            return math.sqrt(ev.h * float(np.sum(np.abs(v) ** 2 + np.abs(dv) ** 2)))

        brute = min(dist_at(t) for t in np.linspace(0.0, 2.0 * math.pi, 3600))
        assert d <= brute + 1e-12
        assert d == pytest.approx(brute, rel=1e-4)


class TestPerturbationParsing:
    def test_valid(self):
        assert parse_perturbation("even:0.01") == ("even", 0.01)
        assert parse_perturbation("phase:-0.5") == ("phase", -0.5)

    @pytest.mark.parametrize("bad", ["even", "evil:0.1", "even:abc", "even:0.1:2"])
    def test_invalid(self, bad):
        with pytest.raises(AdmissibilityError):
            parse_perturbation(bad)


class TestRunExperiment:
    def test_stable_wave_stays_near_orbit(self):
        trace = run_experiment(POINT, "even:0.01", T=1.0, dt=2e-4, n=256)
        assert not trace.blown_up
        d0 = trace.orbit_distance[0]
        assert max(trace.orbit_distance) < 10.0 * d0
        assert abs(trace.charge[-1] - trace.charge[0]) < 1e-6
        assert abs(trace.energy[-1] - trace.energy[0]) < 1e-4

    def test_even_projection_keeps_odd_residual_at_noise(self):
        trace = run_experiment(POINT, "even:0.01", T=0.5, dt=2e-4, n=256)
        assert max(trace.odd_residual) < 1e-12

    def test_odd_perturbation_not_projected(self):
        trace = run_experiment(POINT, "odd:0.01", T=0.1, dt=2e-4, n=256)
        assert trace.odd_residual[0] > 1e-4

    def test_deterministic_given_seed(self):
        kw = dict(T=0.05, dt=1e-3, n=256, seed=42)
        t1 = run_experiment(POINT, "random:0.01", **kw)
        t2 = run_experiment(POINT, "random:0.01", **kw)
        assert t1.rows() == t2.rows()
        t3 = run_experiment(POINT, "random:0.01", T=0.05, dt=1e-3, n=256, seed=43)
        assert t3.orbit_distance[-1] != t1.orbit_distance[-1]

    def test_blowup_reported_on_trace(self):
        # amplitude far above the reference trips the blow-up guard on
        # the first step, which must end as a flagged partial trace
        trace = run_experiment(
            WaveParams(30.0, 1.0, 0.5), "even:1500", T=1.0, dt=0.5, n=256
        )
        assert trace.blown_up
        assert trace.blowup_time is not None
        assert trace.blowup_time < 1.0
        assert len(trace.times) >= 1  # the t=0 record survives

    def test_horizon_guard(self):
        with pytest.raises(AdmissibilityError):
            run_experiment(POINT, "even:0.01", T=-1.0)


class TestExactEigenbasis:
    @pytest.mark.parametrize("gamma", [2.0, -2.0])
    def test_eigenvalues_match_closed_form_spectrum(self, gamma):
        from nlsdelta.delta_op import DeltaOperator, full_spectrum

        L = 0.5
        _, lam = evolve._exact_eigenbasis(-gamma, L, 256)
        exact = [p.eigenvalue for p in full_spectrum(DeltaOperator(gamma, L), 8)]
        assert np.sort(lam)[:8] == pytest.approx(exact, rel=1e-12)

    @pytest.mark.parametrize("n", [0, -4, 2, 62])
    def test_coarse_grid_rejected(self, n):
        with pytest.raises(AdmissibilityError, match=f"n={n}"):
            SplitStepEvolver(1.0, 0.5, n=n)


class TestReflectionParity:
    @pytest.mark.parametrize("scheme", ["exact", "fd"])
    def test_even_data_stays_exactly_even(self, scheme):
        # The repulsive trough wave has an odd instability; even data
        # must not seed it, not even at roundoff, over 2000 steps.
        trace = run_experiment(
            WaveParams(30.0, -1.0, 0.7), "even:1e-3", T=0.4, dt=2e-4, n=256,
            scheme=scheme, record_every=1,
        )
        assert len(trace.odd_residual) == 2001
        assert max(trace.odd_residual) == 0.0

    def test_fd_step_matches_dense_reference(self):
        from nlsdelta.delta_op import DeltaOperator, discretize

        z, L, n, dt = -1.0, 0.7, 256, 1e-3
        lam, v = np.linalg.eigh(discretize(DeltaOperator(gamma=-z, halfperiod=L), n))
        p = (v * np.exp(-1j * lam * dt)) @ v.T
        rng = np.random.default_rng(11)
        u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        ref = u * np.exp(0.5j * np.abs(u) ** 2 * dt)
        ref = p @ ref
        ref *= np.exp(0.5j * np.abs(ref) ** 2 * dt)
        got = SplitStepEvolver(z, L, n=n, scheme="fd").step(State(0.0, u), dt).u
        assert np.abs(got - ref).max() < 1e-12 * np.abs(ref).max()

    def test_exact_basis_is_the_even_block(self):
        b, lam = evolve._exact_eigenbasis(-1.0, 0.7, 256)
        assert b.shape == (129, 129)
        assert lam.shape == (256,)
        assert lam[129:] == pytest.approx((np.arange(1, 128) * math.pi / 0.7) ** 2, rel=1e-15)

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_step_rejected(self, bad):
        with pytest.raises(AdmissibilityError, match="dt must be positive and finite"):
            run_experiment(POINT, "even:0.01", T=0.01, dt=bad)
