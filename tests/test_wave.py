"""Tests for standing-wave construction.

The closed-form construction is cross-checked against the profile ODE
(via finite differences and the first-integral identity), direct ODE
integration of the minimal period, and the documented monotonicity
structure of the solved parameters.
"""

import math
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlsdelta import elliptic, evolve, stability, wave
from nlsdelta.errors import AdmissibilityError, NumericsError
from nlsdelta.linops import Which, assemble
from nlsdelta.rootfind import bisect
from nlsdelta.wave import WaveParams, build_profile

SQRT2 = math.sqrt(2.0)

# points with a healthy admissibility margin for property tests
ADMISSIBLE = [
    (8.0, 1.0, 0.5),
    (20.0, 1.0, 0.5),
    (20.0, 2.0, 0.5),
    (20.0, -1.0, 1.0),
    (30.0, -2.0, 1.0),
    (8.0, 0.0, 1.0),
]


class TestParams:
    def test_frequency_floor(self):
        with pytest.raises(AdmissibilityError):
            WaveParams(0.2, 1.0, 0.5)
        WaveParams(0.26, 1.0, 0.5)  # just above Z^2/4

    def test_continuation_flag_reported_not_enforced(self):
        # omega below pi^2/(2 L^2): construction may still succeed for
        # Z > 0, with the small-Z continuation flag off.
        p = WaveParams(8.0, 1.0, 0.5)
        assert not p.small_z_continuation_ok
        build_profile(p, n=256)

    def test_phi_at_zero_solves_quartic(self):
        # Phi^2 is a root of X^2 - (2 omega - Z^2/2) X + eta2^2 (2 omega - eta2^2).
        omega, z = 20.0, 1.5
        theta = wave.theta_admissible(omega, z)
        for eta2 in (0.3 * theta, 0.8 * theta):
            phi2 = wave.phi_at_zero(eta2, omega, z) ** 2
            b = 2.0 * omega - z**2 / 2.0
            c = eta2**2 * (2.0 * omega - eta2**2)
            assert phi2**2 - b * phi2 + c == pytest.approx(0.0, abs=1e-8 * phi2**2)


class TestPeriodMapsAndThresholds:
    def test_peak_map_decreasing(self):
        omega, z = 20.0, 1.0
        theta = wave.theta_admissible(omega, z)
        grid = np.linspace(0.05, 0.95, 19) * theta
        vals = [wave.period_minus(e, omega, z) for e in grid]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_peak_map_tends_to_threshold(self):
        omega, z = 20.0, 1.0
        theta = wave.theta_admissible(omega, z)
        t0 = wave.threshold_T0(omega, z)
        gap_far = wave.period_minus(0.99 * theta, omega, z) - t0
        gap_near = wave.period_minus(0.9999 * theta, omega, z) - t0
        assert gap_far > gap_near > 0.0 or abs(gap_near) < 1e-6

    def test_trough_map_dips_below_endpoint_limit(self):
        # The documented non-monotonicity: an interior value below T1.
        omega, z = 20.0, -1.0
        theta = wave.theta_admissible(omega, z)
        t1 = wave.threshold_T1(omega, z)
        interior = min(
            wave.period_plus(f * theta, omega, z) for f in np.linspace(0.5, 0.99, 20)
        )
        assert interior < t1

    def test_threshold_ordering(self):
        for omega, z in ((20.0, 1.0), (10.0, -2.0)):
            assert wave.threshold_T0(omega, z) < wave.threshold_T1(omega, z)

    def test_threshold_decreasing_in_omega(self):
        vals = [wave.threshold_T0(w, 1.0) for w in (6.0, 10.0, 20.0, 40.0)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_small_z_limits(self):
        # T0 -> (1/2) sqrt2 pi/sqrt(omega), T1 -> (3/2) sqrt2 pi/sqrt(omega):
        # both differ from the classical threshold returned at Z = 0.
        for omega in (4.0, 9.0, 16.0):
            classic = SQRT2 * math.pi / math.sqrt(omega)
            t0 = wave.threshold_T0(omega, 1e-6)
            t1 = wave.threshold_T1(omega, -1e-6)
            assert t0 == pytest.approx(0.5 * classic, rel=1e-3)
            assert t1 == pytest.approx(1.5 * classic, rel=1e-3)
            assert wave.threshold_T0(omega, 0.0) == pytest.approx(classic)

    @pytest.mark.parametrize("z", [2.0, -2.0, 1.0, -1.0, 1e-6, -1e-6, 0.0, -0.0])
    def test_threshold_follows_the_sign_of_z(self, z):
        omega = 20.0
        expected = wave.threshold_T0 if z >= 0.0 else wave.threshold_T1
        assert wave.period_threshold(omega, z) == expected(omega, z)
        assert wave.threshold_T0(omega, -z) == wave.threshold_T0(omega, z)
        assert wave.threshold_T1(omega, -z) == wave.threshold_T1(omega, z)
        if z == 0.0:
            assert wave.period_threshold(omega, z) == SQRT2 * math.pi / math.sqrt(omega)

    def test_threshold_anchor_frequency(self):
        # the unit-cell threshold frequency for Z=1 sits near 5.12
        from nlsdelta.rootfind import bisect

        w0 = bisect(lambda w: wave.threshold_T0(w, 1.0) - 1.0, 3.0, 8.0)
        assert w0 == pytest.approx(5.1226, abs=1e-3)


def _threshold_oracle(omega, z):
    """T0 (Z > 0) or T1 (Z < 0) at 50 digits from the lambda/k0/a0 closed form.

    sin^2 am(a0) = (sqrt2 R + |Z|/2)/(2 sqrt2 R), R = sqrt(omega - Z^2/8), is
    (1 - dn^2(a0))/k0^2 with its cancellation done by hand.
    """
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        omega, az = mpmath.mpf(omega), abs(mpmath.mpf(z))
        root = mpmath.sqrt(omega - az**2 / 8)
        lam = mpmath.sqrt(2) * az / 4 + root
        m0 = mpmath.sqrt(2) * az * root / lam**2
        sin_sq = (mpmath.sqrt(2) * root + az / 2) / (2 * mpmath.sqrt(2) * root)
        a0 = mpmath.ellipf(mpmath.asin(mpmath.sqrt(sin_sq)), m0)
        return float(2 * mpmath.sqrt(2) / lam * (mpmath.ellipk(m0) - math.copysign(1, z) * a0))


THRESHOLD_GRID = [
    (omega, sign * abs_z)
    for omega in (0.3, 5.2, 20.0, 100.0, 1e4)
    for abs_z in (1e-300, 1e-12, 1e-8, 1e-4, 0.5, 2.0)
    for sign in (1.0, -1.0)
    if omega >= 0.3 * abs_z**2
]


class TestThresholdIsThePeriodAtTheta:
    @pytest.mark.parametrize("omega, z", THRESHOLD_GRID)
    def test_against_mpmath(self, omega, z):
        # the separate lambda/k0/a0 body took 1 - y^2 of a rounded y -> 1: relative
        # error 1.0 at |Z| = 1e-300 (the classical value) and 1e-3 at (100, 1e-12)
        assert wave.period_threshold(omega, z) == pytest.approx(_threshold_oracle(omega, z),
                                                                rel=1e-13)

    @pytest.mark.parametrize("omega, z", [(5.2, 1e-300), (20.0, 1e-8), (20.0, 1.0), (0.3, 1.0)])
    def test_bit_for_bit_continuity_at_theta(self, omega, z):
        theta = wave.theta_admissible(omega, z)
        assert wave.period_minus(theta, omega, z) == wave.threshold_T0(omega, z)
        assert wave.period_plus(theta, omega, -z) == wave.threshold_T1(omega, z)
        if z >= 1.0:  # T_- falls to T0 like sqrt(theta - eta2) over a layer of width ~ |Z|
            t0 = wave.threshold_T0(omega, z)
            gaps = [wave.period_minus(theta * (1.0 - e), omega, z) - t0 for e in (1e-4, 1e-8, 1e-12)]
            assert gaps[0] > gaps[1] > gaps[2] > 0.0
            assert gaps[2] < 1e-5 * t0

    def test_subnormal_defect_is_a_typed_failure(self):
        # r/|Z| overflows the gap upper at theta, which would put psi at pi/2 and T0 at 0
        with pytest.raises(NumericsError, match="overflowed"):
            wave.period_threshold(28.0, 1.6e-319)

    def test_slope_at_theta_is_a_typed_failure(self):
        theta = wave.theta_admissible(20.0, 1.0)
        with pytest.raises(NumericsError, match="infinite"):
            wave._period_and_slope(theta, 20.0, 1.0)
        with pytest.raises(AdmissibilityError):
            wave.period_minus(math.nextafter(theta, math.inf), 20.0, 1.0)


class TestSolveEta2:
    @pytest.mark.parametrize("omega,z,L", ADMISSIBLE)
    def test_period_residual(self, omega, z, L):
        params = WaveParams(omega, z, L)
        eta2 = wave.solve_eta2(params)
        period = wave.period_minus if z >= 0.0 else wave.period_plus
        assert period(eta2, omega, z) == pytest.approx(2.0 * L, abs=1e-12)

    @pytest.mark.parametrize("omega,L", [(8.0, 1.0), (20.0, 0.5)])
    def test_negative_zero_defect_is_classical(self, omega, L):
        eta2 = wave.solve_eta2(WaveParams(omega, 0.0, L))
        assert wave.solve_eta2(WaveParams(omega, -0.0, L)) == eta2

    def test_inadmissible_reports_threshold(self):
        with pytest.raises(AdmissibilityError, match="T1"):
            wave.solve_eta2(WaveParams(20.0, -1.0, 0.5))
        with pytest.raises(AdmissibilityError, match="T0"):
            wave.solve_eta2(WaveParams(4.0, 1.0, 0.2))


class TestProfile:
    @pytest.mark.parametrize("omega,z,L", ADMISSIBLE)
    def test_invariants_and_residuals(self, omega, z, L):
        p = build_profile(WaveParams(omega, z, L), n=8192)
        assert p.eta1**2 + p.eta2**2 == pytest.approx(2.0 * omega, rel=1e-12)
        assert p.eta1 - p.eta2 > abs(z) / SQRT2
        assert p.eta2 < p.phi0 < p.eta1 or z == 0.0
        d = p.diagnostics()
        # residual scales like (h * omega)^2; the tight absolute bound
        # lives in the acceptance harness at its own resolution
        h = 2.0 * L / 8192
        assert d["pde_residual"] < 50.0 * (h * omega) ** 2
        assert d["jump_residual"] < 100.0 * h**2 * (1.0 + abs(z) * p.phi0) * omega
        assert d["endpoint_residual"] < 1e-10
        assert d["quadrature_residual"] < 1e-10
        assert d["derivative_symmetry"] < 1e-10

    def test_branch_selection(self):
        peak = build_profile(WaveParams(20.0, 1.0, 0.5), n=512)
        trough = build_profile(WaveParams(20.0, -1.0, 1.0), n=512)
        classic = build_profile(WaveParams(8.0, 0.0, 1.0), n=512)
        # peak waves decrease away from the defect, trough waves increase
        assert peak.samples.max() == pytest.approx(peak.phi0, rel=1e-12)
        assert trough.samples.max() > trough.phi0
        assert classic.a == 0.0

    def test_power_of_two_grid_enforced(self):
        with pytest.raises(AdmissibilityError):
            build_profile(WaveParams(8.0, 1.0, 0.5), n=300)
        with pytest.raises(AdmissibilityError):
            build_profile(WaveParams(8.0, 1.0, 0.5), n=64)

    def test_jump_sign_follows_defect_sign(self):
        for z in (1.0, -1.0):
            L = 0.5 if z > 0 else 1.0
            p = build_profile(WaveParams(20.0, z, L), n=2048)
            h = 1e-6
            dplus = (p.evaluate(np.array([h]))[0] - p.phi0) / h
            assert dplus == pytest.approx(-0.5 * z * p.phi0, rel=1e-4)

    @given(
        omega=st.floats(min_value=6.0, max_value=40.0),
        z=st.floats(min_value=0.05, max_value=2.0),
    )
    @settings(max_examples=20, deadline=None)
    def test_property_peak_branch(self, omega, z):
        # Z > 0 peak waves on the unit cell exist whenever 2L > T0.
        if wave.threshold_T0(omega, z) >= 1.0:
            return
        p = build_profile(WaveParams(omega, z, 0.5), n=1024)
        d = p.diagnostics()
        assert d["endpoint_residual"] < 1e-9
        assert d["quadrature_residual"] < 1e-8


class TestParameterMonotonicity:
    def test_omega_family_structure(self):
        # For omega large: eta2(omega) decreasing, k(omega) increasing,
        # a(omega) decreasing.  (eta2 is measurably *not* monotone near
        # the admissibility threshold -- it rises before turning over --
        # so the range here starts past the turning point.)
        z, L = 1.0, 0.5
        profiles = [build_profile(WaveParams(w, z, L), n=256) for w in (16.0, 20.0, 25.0, 30.0)]
        eta2s = [p.eta2 for p in profiles]
        ks = [p.k for p in profiles]
        shifts = [p.a for p in profiles]
        assert all(a > b for a, b in zip(eta2s, eta2s[1:]))
        assert all(a < b for a, b in zip(ks, ks[1:]))
        assert all(a > b for a, b in zip(shifts, shifts[1:]))

    def test_shift_vanishes_at_large_omega(self):
        z, L = 1.0, 0.5
        shifts = [build_profile(WaveParams(w, z, L), n=256).a for w in (10.0, 40.0, 160.0)]
        assert shifts[0] > shifts[1] > shifts[2]
        assert shifts[2] < 0.05

    def test_small_z_continuity_of_profiles(self):
        # fixed (omega, L) admissible for Z = 0: profiles converge to the
        # classical dnoidal wave as Z decreases to 0.
        omega, L = 25.0, 0.5
        base = build_profile(WaveParams(omega, 0.0, L), n=1024)
        gaps = []
        for z in (0.2, 0.05, 0.01):
            p = build_profile(WaveParams(omega, z, L), n=1024)
            gaps.append(np.abs(p.samples - base.samples).max())
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[-1] < 0.05


class TestSolitaryLimit:
    def test_shift_and_window_convergence(self):
        rep = wave.solitary_limit_check(4.0, 1.0)
        assert rep["monotone_decreasing"]
        assert abs(rep["shift_values"][-1] - rep["shift_limit"]) < 1e-4

    def test_trough_shift_is_signed(self):
        # the report carried the unsigned a, +0.2554 against the limit -0.2554
        rep = wave.solitary_limit_check(4.0, -1.0)
        assert abs(rep["shift_values"][-1] - rep["shift_limit"]) < 1e-4

    def test_solitary_profile_closed_form(self):
        omega, z = 4.0, 1.0
        xs = np.array([-1.0, 0.0, 0.7])
        vals = wave.solitary_profile(omega, z, xs)
        s = math.atanh(z / (2.0 * math.sqrt(omega)))
        ref = math.sqrt(2.0 * omega) / np.cosh(math.sqrt(omega) * np.abs(xs) + s)
        assert vals == pytest.approx(ref, rel=1e-12)


class TestNonFiniteParams:
    @pytest.mark.parametrize("field", ["omega", "z", "halfperiod"])
    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_rejected_with_field_named(self, field, bad):
        values = {"omega": 20.0, "z": 1.0, "halfperiod": 0.5, field: bad}
        with pytest.raises(AdmissibilityError, match=field):
            WaveParams(**values)


def _shift_oracle(eta2, omega, z):
    """a = F(asin(sn a); k) at 60 digits, from the textbook Phi^2 root."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(60):
        eta2, omega, z = (mpmath.mpf(v) for v in (eta2, omega, z))
        eta1_sq = 2 * omega - eta2**2
        b = 2 * omega - z**2 / 2
        phi_sq = (b + mpmath.sqrt(b * b - 4 * eta2**2 * eta1_sq)) / 2
        m = (eta1_sq - eta2**2) / eta1_sq
        sn = mpmath.sqrt((1 - phi_sq / eta1_sq) / m)
        return float(mpmath.ellipf(mpmath.asin(sn), m))


class TestSmallDefect:
    @pytest.mark.parametrize("z", [1.0, 1e-3, 1e-6, 1e-8, 1e-12])
    def test_shift_against_mpmath(self, z):
        # the difference eta1^2 - Phi^2 of rounded squares left a with
        # 9e-3 relative error at Z = 1e-6 and no value at all below 1e-8
        a = wave._orbit(3.9, 20.0, z)[3]
        assert a == pytest.approx(_shift_oracle(3.9, 20.0, z), rel=1e-13)

    @pytest.mark.parametrize("z", [1e-8, -1e-8, 1e-300])
    def test_profile_builds_at_tiny_z(self, z):
        params = WaveParams(20.0, z, 0.5 if z > 0.0 else 1.0)
        p = build_profile(params, n=512)
        assert p.a > 0.0
        assert p.phi0 == p.samples[256]
        period = wave.period_minus if z > 0.0 else wave.period_plus
        assert abs(period(p.eta2, 20.0, z) - 2.0 * params.halfperiod) <= wave.PERIOD_RESIDUAL_TOL

    def test_one_admissibility_check_per_period_evaluation(self, monkeypatch):
        calls = []
        check = wave._check_eta2
        monkeypatch.setattr(wave, "_check_eta2", lambda *a: calls.append(a) or check(*a))
        wave.period_plus(3.0, 20.0, -1.0)
        assert len(calls) == 1


class TestNearSolitaryCell:
    @pytest.mark.parametrize("z", [0.0, 1.0, -1.0])
    def test_modulus_cutoff_is_numerics_error(self, z):
        with pytest.raises(NumericsError, match="K_ONE_CUTOFF") as info:
            build_profile(WaveParams(1.0, z, 20.0))
        assert "exist" not in str(info.value)


class TestLazySamples:
    def test_only_the_read_grid_is_sampled(self, monkeypatch):
        sizes = []
        dnoidal = wave._dnoidal
        monkeypatch.setattr(
            wave, "_dnoidal", lambda xs, *args: sizes.append(np.size(xs)) or dnoidal(xs, *args)
        )
        params = WaveParams(20.0, 1.0, 0.5)
        stability.classify(params)
        assert 0 < max(sizes) <= stability.N_EIGEN // 2 + 1  # assemble's nodes 0..n/2
        sizes.clear()
        stability.slope(params)
        assert max(sizes) == 1  # phi(0) alone, for the defect-value check
        sizes.clear()
        evolve.run_experiment(params, "even:1e-3", T=1e-3, dt=1e-3, n=256)
        assert max(sizes) <= 256
        p = build_profile(params)
        assert "samples" not in vars(p) and "x" not in vars(p)
        assert p.samples.shape == p.x.shape == (4097,)
        assert "samples" in vars(p)

    @pytest.mark.parametrize(
        "z, L, branch", [(1.0, 0.5, "plus_shift"), (-1.0, 1.0, "minus_shift"), (0.0, 1.0, "classic")]
    )
    def test_signed_shift_and_branch_follow_z(self, z, L, branch):
        p = build_profile(WaveParams(20.0, z, L))
        assert p.sign_branch.value == branch
        assert p.a >= 0.0 and p.shift == math.copysign(p.a, z)

    def test_band_check_guards_every_read(self, monkeypatch):
        p = build_profile(WaveParams(20.0, 1.0, 0.5), n=256)
        op = assemble(p, Which.L1, 256)
        sn_cn_dn = elliptic.jacobi_sn_cn_dn
        monkeypatch.setattr(
            elliptic, "jacobi_sn_cn_dn", lambda u, k: (*sn_cn_dn(u, k)[:2], np.full_like(u, 2.0))
        )
        with pytest.raises(NumericsError, match="band"):
            p.samples
        with pytest.raises(NumericsError, match="band"):
            p.evaluate(op.x)


def _period_oracle(eta2, omega, z, sign):
    """T = 2 sqrt2/eta1 [K(k) + sign F(psi; k)] from mpmath.ellipk/ellipf at the working precision.

    The gap eta1^2 - Phi^2 = eta1^2 Z^2/2 / (eta1^2 - b/2 + sqrt(b^2 - 4 eta2^2 eta1^2)/2),
    b = 2 omega - Z^2/2, is the textbook root rationalised, so it stays exact down to Z = 1e-300.
    """
    import mpmath

    eta2, omega, z = (mpmath.mpf(v) for v in (eta2, omega, z))
    eta1_sq = 2 * omega - eta2**2
    m = (eta1_sq - eta2**2) / eta1_sq
    b = 2 * omega - z**2 / 2
    gap = eta1_sq * z**2 / 2 / (eta1_sq - b / 2 + mpmath.sqrt(b * b - 4 * eta2**2 * eta1_sq) / 2)
    a = mpmath.ellipf(mpmath.asin(mpmath.sqrt(gap / (eta1_sq - eta2**2))), m)
    return 2 * mpmath.sqrt(2) / mpmath.sqrt(eta1_sq) * (mpmath.ellipk(m) + sign * a)


class TestPeriodSlope:
    @pytest.mark.parametrize("fraction", [0.01, 0.3, 0.7, 0.95])
    @pytest.mark.parametrize("z", [0.0, 1e-300, -1e-300, 1e-8, -1e-8, 0.5, -0.5, 2.0, -2.0])
    @pytest.mark.parametrize("omega", [16.0, 20.0, 24.0])
    def test_closed_form_against_mpmath_diff(self, omega, z, fraction):
        # the grid straddles the trough minimum, where dT_+/deta2 changes
        # sign (between 0.7 and 0.95 theta at |Z| >= 0.5): the bound is
        # absolute below |dT/deta2| = 1
        mpmath = pytest.importorskip("mpmath")
        sign = -1.0 if z >= 0.0 else 1.0
        eta2 = fraction * wave.theta_admissible(omega, z)
        period, slope = wave._period_and_slope(eta2, omega, z)
        with mpmath.workdps(30):
            expected = mpmath.diff(lambda e: _period_oracle(e, omega, z, sign), mpmath.mpf(eta2))
            assert period == pytest.approx(float(_period_oracle(eta2, omega, z, sign)), rel=1e-11)
        assert abs(slope - float(expected)) <= 1e-12 * max(1.0, abs(float(expected)))

    def test_period_agrees_with_the_period_maps(self):
        # the sign of Z picks the branch; off the branch the maps read |Z|; -0.0 is classical
        cases = ((1.0, wave.period_minus), (-1.0, wave.period_plus), (0.0, wave.period_minus),
                 (-0.0, wave.period_plus), (-0.0, wave.period_minus))
        for z, period in cases:
            assert wave._period_and_slope(2.0, 20.0, z)[0] == period(2.0, 20.0, z)
            assert period(2.0, 20.0, -z) == period(2.0, 20.0, z)
        assert wave._period_and_slope(2.0, 20.0, -0.0) == wave._period_and_slope(2.0, 20.0, 0.0)


def _latin_hypercube(rng, count):
    """(omega, |Z|) strata over the benchmark's existence region, omega in [16, 24], |Z| in [0.5, 2]."""
    z_strata = rng.sample(range(count), count)
    return [
        (16.0 + 8.0 * (i + rng.random()) / count, 0.5 + 1.5 * (z_strata[i] + rng.random()) / count)
        for i in range(count)
    ]


class TestNewtonSolve:
    def test_period_evaluations_per_solve(self, monkeypatch):
        # bisection took 54-62 evaluations per solve; every period call
        # counts here, the value-and-slope calls of the Newton loop included
        calls = []
        for name in ("period_minus", "period_plus", "_period_and_slope"):
            fn = getattr(wave, name)
            monkeypatch.setattr(wave, name, lambda *a, fn=fn: calls.append(1) or fn(*a))
        counts = []
        rng = random.Random(9)
        for sign, L in ((1.0, 0.5), (1.0, 1.0), (-1.0, 1.0)):
            for omega, abs_z in _latin_hypercube(rng, 20):
                calls.clear()
                params = WaveParams(omega, sign * abs_z, L)
                eta2 = wave.solve_eta2(params)
                counts.append(len(calls))
                assert wave.period_residual(params, eta2) <= wave.PERIOD_RESIDUAL_TOL
        assert max(counts) <= 24
        assert sum(counts) / len(counts) <= 14.0

    def test_each_bracket_point_is_evaluated_once(self, monkeypatch):
        # newton opens on the points the f(hi) check and the walk evaluated; only the
        # residual check may see a point again, and only the root it checks
        seen = []
        for name in ("period_minus", "period_plus", "_period_and_slope"):
            fn = getattr(wave, name)
            monkeypatch.setattr(wave, name, lambda e, *a, fn=fn: seen.append(e) or fn(e, *a))
        rng = random.Random(9)
        for sign, L in ((1.0, 0.5), (1.0, 1.0), (-1.0, 1.0)):
            for omega, abs_z in _latin_hypercube(rng, 20):
                seen.clear()
                eta2 = wave.solve_eta2(WaveParams(omega, sign * abs_z, L))
                repeated = {e: n for e, n in Counter(seen).items() if n > 1}
                assert repeated in ({}, {eta2: 2}), (omega, sign * abs_z, L)

    @pytest.mark.parametrize("omega,z,L", ADMISSIBLE)
    def test_root_matches_bisection(self, omega, z, L):
        period = wave.period_minus if z >= 0.0 else wave.period_plus
        theta = wave.theta_admissible(omega, z)
        lo = 1e-3 * theta  # every ADMISSIBLE period is above 2L there
        root = bisect(lambda e: period(e, omega, z) - 2.0 * L, lo, theta * (1.0 - 1e-12))
        assert wave.solve_eta2(WaveParams(omega, z, L)) == pytest.approx(root, rel=1e-12)
