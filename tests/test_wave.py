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
            phi2 = wave._orbit(eta2, omega, z, wave._check_eta2(eta2, omega, z)).phi ** 2
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
        # dT/deta2 is infinite at theta, but in u = log(g/eta2^2) every term of the tangent
        # carries g and the slope there is 0 (Newton takes the midpoint); a root at theta
        # would leave dN/domega = N_w - N_u T_w/T_u undefined, and is refused
        theta = wave.theta_admissible(20.0, 1.0)
        orbit = wave._orbit(theta, 20.0, 1.0, 0.0)
        assert wave._tangent(orbit, 20.0, 1.0, wave._along_u(orbit, theta)) == [(0.0, 0.0)]
        profile = wave.WaveProfile(WaveParams(20.0, 1.0, 0.5 * orbit.period), orbit, 128)
        with pytest.raises(NumericsError, match="vanished"):
            wave._norm_slope(profile)
        with pytest.raises(AdmissibilityError):
            wave.period_minus(math.nextafter(theta, math.inf), 20.0, 1.0)


class TestSolveEta2:
    @pytest.mark.parametrize("omega,z,L", ADMISSIBLE)
    def test_period_residual(self, omega, z, L):
        params = WaveParams(omega, z, L)
        orbit = wave.solve_eta2(params)
        # exact in the record's own coordinates (eta2, g); the eta2 map forms g from eta2
        # alone, which the root carries to within its last bits
        assert wave._orbit(orbit.eta2, omega, z, orbit.gap).period == orbit.period
        assert orbit.period == pytest.approx(2.0 * L, abs=1e-12)
        period = wave.period_minus if z >= 0.0 else wave.period_plus
        assert abs(period(orbit.eta2, omega, z) - 2.0 * L) <= wave.PERIOD_RESIDUAL_TOL

    @pytest.mark.parametrize("omega,L", [(8.0, 1.0), (20.0, 0.5)])
    def test_negative_zero_defect_is_classical(self, omega, L):
        orbit = wave.solve_eta2(WaveParams(omega, 0.0, L))
        assert wave.solve_eta2(WaveParams(omega, -0.0, L)) == orbit

    def test_inadmissible_reports_threshold(self):
        with pytest.raises(AdmissibilityError, match="T1"):
            wave.solve_eta2(WaveParams(20.0, -1.0, 0.5))
        with pytest.raises(AdmissibilityError, match="T0"):
            wave.solve_eta2(WaveParams(4.0, 1.0, 0.2))


class TestProfile:
    @pytest.mark.parametrize("omega,z,L", ADMISSIBLE)
    def test_invariants_and_residuals(self, omega, z, L):
        p = build_profile(WaveParams(omega, z, L), n=8192)
        eta1 = p.orbit.eta1
        assert eta1**2 + p.eta2**2 == pytest.approx(2.0 * omega, rel=1e-12)
        assert eta1 - p.eta2 > abs(z) / SQRT2
        assert p.eta2 < p.phi0 < eta1 or z == 0.0
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
        assert classic.orbit.a == 0.0

    def test_power_of_two_grid_enforced(self):
        with pytest.raises(AdmissibilityError):
            build_profile(WaveParams(8.0, 1.0, 0.5), n=300)
        with pytest.raises(AdmissibilityError):
            build_profile(WaveParams(8.0, 1.0, 0.5), n=64)
        p = build_profile(WaveParams(8.0, 1.0, 0.5), n=128)
        for n in (255, 300, 64):  # the half-grid mirror needs h n/2 == L
            with pytest.raises(AdmissibilityError, match="power of two"):
                wave.WaveProfile(p.params, p.orbit, n)

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
        # For omega large: eta2(omega) decreasing, k'(omega) decreasing,
        # a(omega) decreasing.  (eta2 is measurably *not* monotone near
        # the admissibility threshold -- it rises before turning over --
        # so the range here starts past the turning point.)
        z, L = 1.0, 0.5
        profiles = [build_profile(WaveParams(w, z, L), n=256) for w in (16.0, 20.0, 25.0, 30.0)]
        eta2s = [p.eta2 for p in profiles]
        kps = [p.orbit.kp for p in profiles]
        shifts = [p.orbit.a for p in profiles]
        assert all(a > b for a, b in zip(eta2s, eta2s[1:]))
        assert all(a > b for a, b in zip(kps, kps[1:]))
        assert all(a > b for a, b in zip(shifts, shifts[1:]))

    def test_shift_vanishes_at_large_omega(self):
        z, L = 1.0, 0.5
        shifts = [build_profile(WaveParams(w, z, L), n=256).orbit.a for w in (10.0, 40.0, 160.0)]
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
        a = wave._orbit(3.9, 20.0, z, wave._check_eta2(3.9, 20.0, z)).a
        assert a == pytest.approx(_shift_oracle(3.9, 20.0, z), rel=1e-13)

    @pytest.mark.parametrize("z", [1e-8, -1e-8, 1e-300])
    def test_profile_builds_at_tiny_z(self, z):
        params = WaveParams(20.0, z, 0.5 if z > 0.0 else 1.0)
        p = build_profile(params, n=512)
        assert p.orbit.a > 0.0
        assert p.phi0 == p.samples[256]
        period = wave.period_minus if z > 0.0 else wave.period_plus
        assert abs(period(p.eta2, 20.0, z) - 2.0 * params.halfperiod) <= wave.PERIOD_RESIDUAL_TOL

    def test_one_admissibility_check_per_period_evaluation(self, monkeypatch):
        calls = []
        check = wave._check_eta2
        monkeypatch.setattr(wave, "_check_eta2", lambda *a: calls.append(a) or check(*a))
        wave.period_plus(3.0, 20.0, -1.0)
        assert len(calls) == 1


class TestOrbitRecord:
    @pytest.mark.parametrize("z", [0.0, -0.0])
    def test_zero_defect_runs_the_general_path(self, z):
        # no Z = 0 fork: the general gaps give sin psi = 0, so a = psi = 0 and Phi = eta1
        orbit = wave._orbit(2.0, 8.0, z, wave._check_eta2(2.0, 8.0, z))
        assert orbit.a == 0.0 and orbit.psi == 0.0
        assert orbit.phi == orbit.eta1
        assert orbit.period == (2.0 * SQRT2 / orbit.eta1) * orbit.big_k

    def test_zero_defect_slopes_are_the_classical_closed_forms(self):
        # at Z = 0 the a- and psi-terms vanish and only dK/deta2 = c [E - k'^2 K] is left:
        # T = 2 sqrt2 K/eta1 and N = 2 sqrt2 eta1 E, with c = -2 omega/(spread eta2); the
        # tangent reads them in u = log(g/eta2^2) and maps them back to eta2; E from mpmath
        mpmath = pytest.importorskip("mpmath")
        omega = 8.0
        profile = build_profile(WaveParams(omega, 0.0, 1.0), n=256)
        o = profile.orbit
        norm = stability.norm_squared(profile)
        with mpmath.workdps(40):
            big_e = float(mpmath.ellipe(1 - mpmath.mpf(o.kp) ** 2))
        assert norm == pytest.approx(2.0 * SQRT2 * o.eta1 * big_e, rel=1e-14)
        w = -0.5 * o.eta2 / omega
        d_k = -2.0 * omega / (o.spread * o.eta2) * (big_e - o.kp**2 * o.big_k)
        d_t = o.period * o.eta2 / o.eta1**2 + 2.0 * SQRT2 * d_k / o.eta1
        t_w = -o.period / o.eta1**2 + 2.0 * SQRT2 * (w * d_k) / o.eta1
        n_k = -4.0 * SQRT2 * omega * o.eta2 * (big_e - o.big_k) / (o.spread * o.eta1)
        deta2 = -t_w / d_t
        slope = norm / o.eta1**2 + w * n_k + (-norm * o.eta2 / o.eta1**2 + n_k) * deta2
        along_u = wave._along_u(o, wave.theta_admissible(omega, 0.0))
        t_u = wave._tangent(o, omega, 0.0, along_u)[0][0]
        assert t_u / along_u[0] == pytest.approx(d_t, rel=1e-13)
        assert wave._norm_slope(profile) == pytest.approx((slope, d_t, deta2), rel=1e-13)
        assert stability.classify(profile.params).row.kernel_caveat

    @pytest.mark.parametrize("z, L", [(1.0, 0.5), (-1.0, 1.0), (0.0, 1.0)])
    def test_profile_reads_k_from_the_orbit(self, monkeypatch, z, L):
        p = build_profile(WaveParams(20.0, z, L), n=256)
        xs = np.linspace(-L, L, 9)
        expected = p.evaluate(xs), p.derivative(xs)

        def refuse(*args):
            raise AssertionError("complete_K called")

        monkeypatch.setattr(elliptic, "complete_K", refuse)
        assert np.array_equal(p.evaluate(xs), expected[0])
        assert np.array_equal(p.derivative(xs), expected[1])
        assert p.samples.shape == (257,)


class TestNearSolitaryCell:
    # k' = eta2/eta1 ~ 1e-8 here: a modulus cutoff k >= 1 - 1e-12 (k' <= 1.4e-6) refused these
    @pytest.mark.parametrize("z", [0.0, 1.0, -1.0])
    def test_builds_at_the_former_cutoff(self, z):
        params = WaveParams(1.0, z, 20.0)
        p = build_profile(params)
        assert 0.0 < p.orbit.kp < 1e-7
        assert abs(wave.solve_eta2(params).period - 2.0 * params.halfperiod) <= wave.PERIOD_RESIDUAL_TOL
        assert p.evaluate(np.array([-20.0, 20.0])) == pytest.approx(p.eta2, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("z", [0.0, 1.0, -1.0])
    def test_underflow_of_kp_squared_is_numerics_error(self, z):
        # k'^2 leaves the normal range near L = 355 at omega = 1; L = 300 still builds
        assert build_profile(WaveParams(1.0, z, 300.0)).orbit.kp < 1e-129
        with pytest.raises(NumericsError, match="underflows") as info:
            build_profile(WaveParams(1.0, z, 600.0))
        assert "exist" not in str(info.value)

    @pytest.mark.parametrize("half_period", [12.0, 14.0, 16.0, 19.0, 21.0, 26.0, 40.0])
    @pytest.mark.parametrize("z", [1.0, -1.0])
    def test_profile_against_mpmath(self, z, half_period):
        # k' runs from 1e-5 (L = 12) to 1e-17 (L = 40).  Without the quarter-period
        # reflection dn(u; k) from the rounded k^2 was 5.0e-6 off at the cell edge of
        # L = 14; what is left is m = k^2 rounding in ellipj below K/2, worst near k' = 1e-8
        mpmath = pytest.importorskip("mpmath")
        p = build_profile(WaveParams(1.0, z, half_period), n=128)
        xs = np.linspace(-half_period, half_period, 41)
        sign = -math.copysign(1.0, z)  # T = 2 sqrt2/eta1 [K + sign a]; the shift is -sign a
        with mpmath.workdps(50):
            t = mpmath.findroot(
                lambda t: _period_oracle(mpmath.exp(t), 1.0, z, sign) - 2 * half_period,
                mpmath.log(p.eta2), tol=1e-30)
            eta1, m, a, _ = _orbit_oracle(mpmath.exp(t), 1.0, z)
            expected = [float(eta1 * mpmath.ellipfun("dn", eta1 * abs(x) / mpmath.sqrt(2) - sign * a,
                                                     m=m)) for x in xs]
        assert p.evaluate(xs) == pytest.approx(expected, rel=1e-8, abs=0.0)

    @pytest.mark.parametrize("omega, z, expected", [
        (1425.3607590205768, 71.9842860371776, 0.118638),
        (1425.3607590205768, -71.9842860371776, 0.35591),
        (0.2500000025, 1.0, None),
        (0.2500000025, -1.0, None),
    ])
    def test_threshold_near_k_one_against_mpmath(self, omega, z, expected):
        # ellipkinc returned K, not K/2, at the amplitude of the first orbit (T0 came out as
        # -4.7e-17); at omega = 1.00000001 Z^2/4 k0 is within 1e-12 of 1, where a cutoff
        # refused and F(psi; k) from k was 1.2e-10 off
        oracle = _threshold_oracle(omega, z)
        if expected is not None:
            assert oracle == pytest.approx(expected, rel=1e-5)
        rel = 1e-13 if expected is not None else 1e-14
        assert wave.period_threshold(omega, z) == pytest.approx(oracle, rel=rel)


class TestLongCells:
    # K(k) is read from k' = eta2/eta1: from k, a double near 1, T carried noise of order
    # eps/k'^2 (1e-10 relative at eta2 = 1e-3 theta) and the residual check failed at random

    @pytest.mark.parametrize("fraction", [1e-2, 1e-3, 1e-4])
    @pytest.mark.parametrize("omega,z", [(0.375, 1.0), (1.25, 2.0), (20.0, 1.0), (20.0, 1e-8)])
    def test_period_against_mpmath(self, omega, z, fraction):
        mpmath = pytest.importorskip("mpmath")
        eta2 = fraction * wave.theta_admissible(omega, z)
        for sign, period in ((-1.0, wave.period_minus), (1.0, wave.period_plus)):
            with mpmath.workdps(50):
                expected = float(_period_oracle(eta2, omega, z, sign))
            assert period(eta2, omega, z) == pytest.approx(expected, rel=1e-14)

    def test_random_long_cells_pass_the_residual_check(self):
        # 259 of these 600 solves failed the 5e-12 residual check with K read from k, and
        # a modulus cutoff (k >= 1 - 1e-12) refused 156 near-solitary cells; only the
        # 13 trough refusals (2L <= T1) stay
        rng = random.Random(5)
        outcomes = Counter()
        for _ in range(600):
            omega = rng.uniform(2.0, 40.0)
            z = rng.choice((1.0, -1.0)) * rng.uniform(0.1, 3.0)
            params = WaveParams(omega, z, rng.uniform(1.0, 4.0))
            try:
                p = build_profile(params, n=128)
            except AdmissibilityError:
                outcomes["refused"] += 1
                continue
            assert abs(p.orbit.period - 2.0 * params.halfperiod) <= wave.PERIOD_RESIDUAL_TOL
            edges = p.evaluate(np.array([-params.halfperiod, params.halfperiod]))
            assert edges == pytest.approx(p.eta2, rel=1e-15, abs=0.0)
            outcomes["solved" if p.orbit.kp >= 1.4e-6 else "near_solitary"] += 1  # k < 1 - 1e-12
        assert outcomes == {"solved": 440, "near_solitary": 147, "refused": 13}


class TestLazySamples:
    def test_only_the_read_grid_is_sampled(self, monkeypatch):
        sizes = []
        dnoidal = wave._dnoidal
        monkeypatch.setattr(
            wave, "_dnoidal", lambda xs, *args: sizes.append(np.size(xs)) or dnoidal(xs, *args)
        )
        params = WaveParams(20.0, 1.0, 0.5)
        stability.classify(params)
        assert sizes == [1]  # phi(0) alone: the counts and the slope are read from the orbit
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

    @pytest.mark.parametrize("z, L", [(1.0, 0.5), (-1.0, 1.0), (0.0, 1.0)])
    def test_one_half_grid_evaluation_serves_every_grid_read(self, monkeypatch, z, L):
        p = build_profile(WaveParams(20.0, z, L), n=512)
        sizes = []
        dnoidal = wave._dnoidal
        monkeypatch.setattr(
            wave, "_dnoidal", lambda xs, *args: sizes.append(np.size(xs)) or dnoidal(xs, *args)
        )
        p.derivative_samples
        p.diagnostics()
        p.samples
        assert sizes == [512 // 2 + 1]

    @pytest.mark.parametrize("n", [256, 4096])
    @pytest.mark.parametrize("z, L", [(1.0, 0.5), (1.0, 0.7), (-1.0, 1.0), (-2.0, 1.3), (0.0, 1.0)])
    def test_grid_reads_mirror_the_half_grid(self, z, L, n):
        p = build_profile(WaveParams(20.0, z, L), n=n)
        x, phi, dphi = p.x, p.samples, p.derivative_samples
        assert (x[0], x[n // 2], x[n]) == (-L, 0.0, L)
        assert np.array_equal(x[::-1], -x)
        assert np.array_equal(phi[::-1], phi)
        assert np.array_equal(dphi[: n // 2], -dphi[: n // 2 : -1])  # odd away from x = 0
        assert np.array_equal(phi, p.evaluate(x))
        assert np.array_equal(dphi, p.derivative(x))
        assert p.phi0 == phi[n // 2]

    @pytest.mark.parametrize(
        "z, L, branch", [(1.0, 0.5, "plus_shift"), (-1.0, 1.0, "minus_shift"), (0.0, 1.0, "classic")]
    )
    def test_signed_shift_and_branch_follow_z(self, z, L, branch):
        p = build_profile(WaveParams(20.0, z, L))
        assert p.sign_branch.value == branch
        assert p.orbit.a >= 0.0 and p.shift == math.copysign(p.orbit.a, z)

    def test_band_check_guards_every_read(self, monkeypatch):
        p = build_profile(WaveParams(20.0, 1.0, 0.5), n=256)
        op = assemble(p, Which.L1, 256)
        sn_cn_dn = elliptic.jacobi_sn_cn_dn
        monkeypatch.setattr(
            elliptic, "jacobi_sn_cn_dn", lambda u, kp: (*sn_cn_dn(u, kp)[:2], np.full_like(u, 2.0))
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

    eta1, m, a, _ = _orbit_oracle(eta2, omega, z)
    return 2 * mpmath.sqrt(2) / eta1 * (mpmath.ellipk(m) + sign * a)


def _orbit_oracle(eta2, omega, z):
    """(eta1, m = k^2, a, psi) at the working precision; see _period_oracle."""
    import mpmath

    eta2, omega, z = (mpmath.mpf(v) for v in (eta2, omega, z))
    eta1_sq = 2 * omega - eta2**2
    m = (eta1_sq - eta2**2) / eta1_sq
    b = 2 * omega - z**2 / 2
    gap = eta1_sq * z**2 / 2 / (eta1_sq - b / 2 + mpmath.sqrt(b * b - 4 * eta2**2 * eta1_sq) / 2)
    psi = mpmath.asin(mpmath.sqrt(gap / (eta1_sq - eta2**2)))
    return mpmath.sqrt(eta1_sq), m, mpmath.ellipf(psi, m), psi


def _chart_oracle(u, omega, z, sign):
    """(T, N) at the chart point (u, omega), eta2 = theta/sqrt(1 + e^u), at the working precision.

    N = 2 sqrt2 eta1 [E(k) + sign E(psi; k)] is the norm, with T's sign (see _period_oracle).
    """
    import mpmath

    u, omega, z = (mpmath.mpf(v) for v in (u, omega, z))
    theta = mpmath.sqrt(omega - z**2 / 8) - mpmath.sqrt(2) * abs(z) / 4
    eta1, m, a, psi = _orbit_oracle(theta / mpmath.sqrt(1 + mpmath.exp(u)), omega, z)
    return (2 * mpmath.sqrt(2) / eta1 * (mpmath.ellipk(m) + sign * a),
            2 * mpmath.sqrt(2) * eta1 * (mpmath.ellipe(m) + sign * mpmath.ellipe(psi, m)))


class TestPeriodSlope:
    @pytest.mark.parametrize("fraction", [0.01, 0.3, 0.7, 0.95, 1.0 - 1e-11, 1.0 - 1e-13])
    @pytest.mark.parametrize("z", [0.0, 1e-300, -1e-300, 1e-8, -1e-8, 0.5, -0.5, 2.0, -2.0])
    @pytest.mark.parametrize("omega", [16.0, 20.0, 24.0])
    def test_closed_form_against_mpmath_diff(self, omega, z, fraction):
        # the tangent along u at fixed omega and along omega at fixed u, at eta2 = fraction
        # theta; the grid straddles the trough minimum, where dT_+/du changes sign (between
        # 0.7 and 0.95 theta at |Z| >= 0.5): the bound is absolute below 1
        mpmath = pytest.importorskip("mpmath")
        sign = -1.0 if z >= 0.0 else 1.0
        theta = wave.theta_admissible(omega, z)
        u = math.log((1.0 - fraction) * (1.0 + fraction)) - 2.0 * math.log(fraction)
        eta2, gap = wave._chart(u, theta)
        orbit = wave._orbit(eta2, omega, z, gap)
        w = 0.5 / (math.sqrt(omega - z * z / 8.0) * theta)
        tangents = wave._tangent(orbit, omega, z, wave._along_u(orbit, theta), (eta2 * w, 2.0 * w, 1.0))
        with mpmath.workdps(40):
            assert orbit.period == pytest.approx(float(_chart_oracle(u, omega, z, sign)[0]), rel=1e-11)
            expected = [[mpmath.diff(lambda v: _chart_oracle(v, omega, z, sign)[i], u) for i in (0, 1)],
                        [mpmath.diff(lambda v: _chart_oracle(u, v, z, sign)[i], omega) for i in (0, 1)]]
        for got, want in zip(tangents, expected):
            for d, e in zip(got, map(float, want)):
                assert abs(d - e) <= 1e-12 * max(1.0, abs(e))

    def test_period_agrees_with_the_period_maps(self):
        # the sign of Z picks the branch; off the branch the maps read |Z|; -0.0 is classical
        cases = ((1.0, wave.period_minus), (-1.0, wave.period_plus), (0.0, wave.period_minus),
                 (-0.0, wave.period_plus), (-0.0, wave.period_minus))
        gap = wave._check_eta2(2.0, 20.0, 1.0)
        for z, period in cases:
            assert wave._orbit(2.0, 20.0, z, wave._check_eta2(2.0, 20.0, z)).period == period(2.0, 20.0, z)
            assert period(2.0, 20.0, -z) == period(2.0, 20.0, z)
        assert wave._orbit(2.0, 20.0, -0.0, gap) == wave._orbit(2.0, 20.0, 0.0, gap)


def _latin_hypercube(rng, count):
    """(omega, |Z|) strata over the benchmark's existence region, omega in [16, 24], |Z| in [0.5, 2]."""
    z_strata = rng.sample(range(count), count)
    return [
        (16.0 + 8.0 * (i + rng.random()) / count, 0.5 + 1.5 * (z_strata[i] + rng.random()) / count)
        for i in range(count)
    ]


class TestNewtonSolve:
    def test_period_evaluations_per_solve(self, monkeypatch):
        # bisection took 54-62 evaluations per solve; every orbit counts here: the
        # threshold, the walk, the Newton loop and the residual check
        calls = []
        make_orbit = wave._orbit
        monkeypatch.setattr(wave, "_orbit", lambda *a: calls.append(1) or make_orbit(*a))
        counts = []
        rng = random.Random(9)
        for sign, L in ((1.0, 0.5), (1.0, 1.0), (-1.0, 1.0)):
            for omega, abs_z in _latin_hypercube(rng, 20):
                calls.clear()
                params = WaveParams(omega, sign * abs_z, L)
                orbit = wave.solve_eta2(params)
                counts.append(len(calls))
                assert abs(orbit.period - 2.0 * L) <= wave.PERIOD_RESIDUAL_TOL
        assert max(counts) <= 24
        assert sum(counts) / len(counts) <= 14.0

    def test_tangents_per_solve(self, monkeypatch):
        # newton asks for dT/du only where a step starts: one bracket end, then each
        # iterate; the walk's other points, the threshold and the residual check form
        # no tangent (forming one at every orbit gave a mean of 6.85 and a max of 8 here)
        calls = []
        make_tangent = wave._tangent
        monkeypatch.setattr(wave, "_tangent", lambda *a: calls.append(1) or make_tangent(*a))
        counts = []
        rng = random.Random(9)
        for sign, L in ((1.0, 0.5), (1.0, 1.0), (-1.0, 1.0)):
            for omega, abs_z in _latin_hypercube(rng, 20):
                calls.clear()
                wave.solve_eta2(WaveParams(omega, sign * abs_z, L))
                counts.append(len(calls))
        assert max(counts) <= 5
        assert sum(counts) / len(counts) <= 4.5

    def test_each_bracket_point_is_evaluated_once(self, monkeypatch):
        # newton opens on the points the walk evaluated; only the residual check may see
        # a point (eta2, g) again, and only the root it checks
        seen = []
        make_orbit = wave._orbit
        monkeypatch.setattr(wave, "_orbit", lambda *a: seen.append((a[0], a[3])) or make_orbit(*a))
        rng = random.Random(9)
        for sign, L in ((1.0, 0.5), (1.0, 1.0), (-1.0, 1.0)):
            for omega, abs_z in _latin_hypercube(rng, 20):
                seen.clear()
                root = wave.solve_eta2(WaveParams(omega, sign * abs_z, L))
                repeated = {e: n for e, n in Counter(seen).items() if n > 1}
                assert repeated in ({}, {(root.eta2, root.gap): 2}), (omega, sign * abs_z, L)

    @pytest.mark.parametrize("omega,z,L", ADMISSIBLE)
    def test_root_matches_bisection(self, omega, z, L):
        period = wave.period_minus if z >= 0.0 else wave.period_plus
        theta = wave.theta_admissible(omega, z)
        lo = 1e-3 * theta  # every ADMISSIBLE period is above 2L there
        root = bisect(lambda e: period(e, omega, z) - 2.0 * L, lo, theta * (1.0 - 1e-12))
        assert wave.solve_eta2(WaveParams(omega, z, L)).eta2 == pytest.approx(root, rel=1e-12)
