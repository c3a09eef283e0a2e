"""Tests for the slope condition and index-count classification.

The closed-form norm is checked against quadrature on all three
branches and against 40-digit mpmath near the solitary limit and the
threshold, the finite-difference slope against plain (non-Richardson)
step-halving, classify's closed-form slope against that slope and a
30-digit mpmath difference, and the verdict arithmetic exhaustively
over small index counts.
"""

import importlib.util
import itertools
import math
import random
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from nlsdelta import elliptic, linops, stability, wave
from nlsdelta.errors import AdmissibilityError
from nlsdelta.stability import Verdict, classify, norm_squared, slope, verdict_from_counts
from nlsdelta.wave import WaveParams, build_profile

BRANCH_POINTS = [
    (20.0, 1.0, 0.5),   # peak
    (20.0, -1.0, 1.0),  # trough
    (8.0, 0.0, 1.0),    # defect-free
]


class TestNorm:
    @pytest.mark.parametrize("omega,z,L", BRANCH_POINTS + [(20.0, 1e-8, 0.5), (20.0, -1e-8, 1.0)])
    def test_closed_form_against_quadrature(self, omega, z, L):
        p = build_profile(WaveParams(omega, z, L), n=8192)
        assert norm_squared(p) == pytest.approx(
            stability.norm_squared_quadrature(p), rel=1e-7
        )

    @pytest.mark.parametrize("omega,z,L", [
        (1.0, 1.0, 19.0), (1.0, -1.0, 19.0), (1.0, -1.0, 21.0),  # k' ~ 1e-8
        (5.2, 1e-12, 0.4871), (5.2, 1e-300, 0.7),  # k' rounds to 1 + 2^-52 at Z = 1e-300
        (20.0, 1.0, 0.5), (20.0, -1.0, 1.0),
    ])
    def test_closed_form_against_mpmath(self, omega, z, L):
        # E(k) - sign(Z) E(psi; k) from K, F and D keyed by k' (wave._e_terms), against 40-digit
        # mpmath at the orbit's own k^2 = spread/eta1^2 and amplitude psi
        mpmath = pytest.importorskip("mpmath")
        p = build_profile(WaveParams(omega, z, L), n=128)
        o = p.orbit
        with mpmath.workdps(40):
            m = mpmath.mpf(o.spread) / mpmath.mpf(o.eta1) ** 2
            psi = mpmath.atan2(abs(z) * mpmath.sqrt(o.upper), mpmath.sqrt(o.lower))
            e_diff = mpmath.ellipe(m) - math.copysign(1.0, z) * mpmath.ellipe(psi, m)
            expected = float(2 * mpmath.sqrt(2) * o.eta1 * e_diff)
        assert norm_squared(p) == pytest.approx(expected, rel=1e-14, abs=0.0)

    def test_reads_the_orbit_amplitude(self, monkeypatch):
        # the norm takes E(psi; k) from the orbit, with no sn(s) -> asin round trip
        profiles = [build_profile(WaveParams(*point), n=512) for point in BRANCH_POINTS]
        expected = [norm_squared(p) for p in profiles]

        def refuse(*args):
            raise AssertionError("jacobi_sn_cn_dn called")

        monkeypatch.setattr(elliptic, "jacobi_sn_cn_dn", refuse)
        assert [norm_squared(p) for p in profiles] == expected

    @pytest.mark.parametrize("omega,z,L", BRANCH_POINTS)
    def test_positive(self, omega, z, L):
        assert norm_squared(build_profile(WaveParams(omega, z, L), n=512)) > 0.0


class TestSlope:
    @pytest.mark.parametrize("omega,z,L", BRANCH_POINTS)
    def test_positive_at_reference_points(self, omega, z, L):
        assert slope(WaveParams(omega, z, L)) > 0.0

    def test_matches_plain_step_halving(self):
        params = WaveParams(20.0, 1.0, 0.5)
        s = slope(params)

        def g(w):
            return norm_squared(build_profile(WaveParams(w, 1.0, 0.5), n=256))

        for h in (1e-3, 5e-4):
            plain = (g(20.0 + h) - g(20.0 - h)) / (2.0 * h)
            assert plain == pytest.approx(s, rel=1e-5)

    def test_stencil_point_outside_existence_refused(self):
        # omega just above the admissibility threshold: the lower stencil point
        # omega - h has no wave, and the slope refuses, naming that point
        params = WaveParams(5.125, 1.0, 0.5)
        build_profile(params)
        with pytest.raises(AdmissibilityError, match=re.escape("stencil point omega=5.115 ")):
            slope(params, h_omega=0.01)


class TestVerdictArithmetic:
    def test_stable_iff_counts_match(self):
        assert verdict_from_counts(1, 1, 1) is Verdict.STABLE
        assert verdict_from_counts(0, 0, 0) is Verdict.STABLE

    def test_odd_mismatch_unstable(self):
        assert verdict_from_counts(2, 1, 2) is Verdict.UNSTABLE
        assert verdict_from_counts(2, 1, 1) is Verdict.UNSTABLE_STABLE_EVEN_SUBSPACE

    def test_even_mismatch_inconclusive(self):
        assert verdict_from_counts(3, 1, 1) is Verdict.INCONCLUSIVE

    def test_exhaustive_consistency(self):
        for n, p, ne in itertools.product(range(4), range(2), range(4)):
            v = verdict_from_counts(n, p, ne)
            if n == p:
                assert v is Verdict.STABLE
            elif (n - p) % 2 == 1:
                assert v in (Verdict.UNSTABLE, Verdict.UNSTABLE_STABLE_EVEN_SUBSPACE)
            else:
                assert v is Verdict.INCONCLUSIVE


class TestClassify:
    def test_peak_wave_stable(self):
        rep = classify(WaveParams(20.0, 1.0, 0.5))
        assert rep.verdict is Verdict.STABLE
        assert rep.row.n_negative == 1 and rep.p_index == 1
        assert not rep.row.kernel_caveat

    def test_trough_wave_even_subspace(self):
        rep = classify(WaveParams(20.0, -1.0, 1.0))
        assert rep.verdict is Verdict.UNSTABLE_STABLE_EVEN_SUBSPACE
        assert rep.row.n_negative == 2 and rep.row.n_negative_even == 1

    def test_defect_free_carries_kernel_caveat(self):
        rep = classify(WaveParams(8.0, 0.0, 1.0))
        assert rep.verdict is Verdict.STABLE
        assert rep.row.kernel_caveat

    def test_report_round_trips_to_dict(self):
        rep = classify(WaveParams(20.0, 1.0, 0.5))
        d = rep.row._asdict()
        assert d["verdict"] == "stable"
        assert d["omega"] == 20.0 and d["z"] == 1.0
        assert d["slope"] == rep.slope
        assert set(d) == {
            "omega", "z", "half_period", "n_negative", "n_negative_even",
            "p_index", "slope", "verdict", "kernel_caveat",
        }

    @pytest.mark.parametrize(
        "params, expected",
        [
            (WaveParams(20.0, 1.0, 0.5), (Verdict.STABLE, 1, 1, 1)),
            (WaveParams(20.0, -1.0, 1.0), (Verdict.UNSTABLE_STABLE_EVEN_SUBSPACE, 2, 1, 1)),
            (WaveParams(8.0, 0.0, 1.0), (Verdict.STABLE, 1, 1, 1)),
            (WaveParams(20.0, -0.01, 1.0), (Verdict.UNSTABLE_STABLE_EVEN_SUBSPACE, 2, 1, 1)),
            (WaveParams(20.0, 1e-8, 0.5), (Verdict.STABLE, 1, 1, 1)),
        ],
    )
    def test_counts_need_no_eigenvectors(self, params, expected, monkeypatch):
        # classify reads the counts from the signs of dT/deta2 and Z: no operator is
        # assembled and no eigensolver is called
        def refuse(*args, **kwargs):
            raise AssertionError("classify assembled an operator or called an eigensolver")

        for name in ("assemble", "eigh_tridiagonal", "eigvalsh_tridiagonal"):
            monkeypatch.setattr(linops, name, refuse)
        rep = classify(params)
        row = rep.row
        assert (rep.verdict, row.n_negative, row.n_negative_even, rep.p_index) == expected
        assert hash(rep) == hash(classify(params))  # a frozen report stays a value

    @pytest.mark.parametrize("params", [WaveParams(20.0, -0.01, 1.0), WaveParams(20.0, 1e-8, 0.5)])
    def test_eigenvalue_hidden_by_band_is_counted(self, params):
        # the small-Z branch of the odd L1 eigenvalue sits inside the n = 1024 zero band,
        # where the finite-difference count refuses to count; the Sturm count does not
        # (TestL1Counts checks it against a finer grid and the sign of beta Z)
        idx = linops.index(linops.assemble(build_profile(params), linops.Which.L1, 1024))
        assert idx.surplus == 1
        rep = classify(params)
        assert rep.p_index == 1
        assert rep.verdict is (Verdict.STABLE if params.z > 0.0 else Verdict.UNSTABLE_STABLE_EVEN_SUBSPACE)


def _benchmark_workloads():
    """perfbench/workloads.py, whose ``lattice`` draws the classify-lattice inputs."""
    name = "_perfbench_workloads"
    if name not in sys.modules:
        path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
        spec = importlib.util.spec_from_file_location(name, path)
        sys.modules[name] = module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return sys.modules[name]


def _slope_oracle(omega, z, L, eta2, rel_step="1e-9"):
    """d/domega ||phi||^2 by a central difference at the working precision.

    Each side solves T(eta2; omega +- h) = 2L with mpmath's bracketed Illinois
    solver near the double-precision root and takes the norm
    2 sqrt2 eta1 [E(k) - sign(Z) E(psi; k)] on the rationalised gap of test_wave._period_oracle.
    """
    import mpmath

    omega, z, L = (mpmath.mpf(v) for v in (omega, z, L))

    def orbit(e, w):
        eta1_sq = 2 * w - e**2
        m = (eta1_sq - e**2) / eta1_sq
        b = 2 * w - z**2 / 2
        disc = max(b * b - 4 * e**2 * eta1_sq, 0)  # rounds below 0 at theta
        gap = eta1_sq * z**2 / 2 / (eta1_sq - b / 2 + mpmath.sqrt(disc) / 2)
        return mpmath.sqrt(eta1_sq), m, mpmath.asin(mpmath.sqrt(gap / (eta1_sq - e**2)))

    def norm(w):
        def excess(e):
            eta1, m, psi = orbit(e, w)
            return 2 * mpmath.sqrt(2) / eta1 * (mpmath.ellipk(m) - mpmath.sign(z) * mpmath.ellipf(psi, m)) - 2 * L

        theta = mpmath.sqrt(w - z * z / 8) - mpmath.sqrt(2) * abs(z) / 4
        guess = mpmath.mpf(eta2)
        root = mpmath.findroot(excess, (guess * (1 - mpmath.mpf("1e-5")),
                                        min(theta, guess * (1 + mpmath.mpf("1e-5")))), solver="illinois")
        eta1, m, psi = orbit(root, w)
        return 2 * mpmath.sqrt(2) * eta1 * (mpmath.ellipe(m) - mpmath.sign(z) * mpmath.ellipe(psi, m))

    h = mpmath.mpf(rel_step) * omega
    return (norm(omega + h) - norm(omega - h)) / (2 * h)


def _closed_form(profile):
    return wave._norm_slope(profile)


# the points of TestClassify's lattices
CLASSIFY_POINTS = BRANCH_POINTS + [(20.0, -0.01, 1.0), (20.0, 1e-8, 0.5)]


class TestClosedFormSlope:
    @pytest.mark.parametrize("seed", range(1, 11))
    def test_classify_lattice(self, seed, monkeypatch):
        # per operation of the benchmark: one period solve, the verdict the benchmark
        # expects, and the closed form within 1e-6 of the finite-difference oracle
        workloads = _benchmark_workloads()
        solves = []
        solve = wave.solve_eta2
        monkeypatch.setattr(wave, "solve_eta2", lambda params: solves.append(params) or solve(params))
        for p in workloads.lattice(workloads._rng(seed, "classify-lattice"), workloads.INPUTS_PER_RUN):
            params = WaveParams(p.omega, p.z, p.half_period)
            solves.clear()
            rep = classify(params)
            assert solves == [params]
            assert rep.verdict.value == p.expected_verdict and rep.p_index == 1
            assert rep.slope == pytest.approx(slope(params), rel=1e-6)

    @pytest.mark.parametrize("omega,z,L", CLASSIFY_POINTS)
    def test_agrees_with_the_difference_oracle(self, omega, z, L):
        params = WaveParams(omega, z, L)
        s, dt_deta2, deta2_domega = _closed_form(build_profile(params))
        assert s == pytest.approx(slope(params), rel=1e-6)
        assert dt_deta2 < 0.0
        h = 1e-6 * omega
        difference = (wave.solve_eta2(WaveParams(omega + h, z, L)).eta2
                      - wave.solve_eta2(WaveParams(omega - h, z, L)).eta2) / (2.0 * h)
        assert deta2_domega == pytest.approx(difference, rel=1e-5)

    @pytest.mark.parametrize(
        "omega,z,L",
        [
            (20.0, 1.0, 0.5),
            (20.0, -1.0, 1.0),  # no trough at L = 0.5: 2L is below T1 = 1.49
            (20.0, 1e-8, 0.5),
            (20.0, -1e-8, 1.0),
            (8.0, 0.0, 1.0),
            # near the fold of T_+: the slope's omega-stencil reads +0.0052
            (1838.7674435299375, -84.06364029366871, 0.18608225155945318),
        ],
    )
    def test_against_mpmath_difference(self, omega, z, L):
        mpmath = pytest.importorskip("mpmath")
        profile = build_profile(WaveParams(omega, z, L))
        with mpmath.workdps(30):
            expected = float(_slope_oracle(omega, z, L, profile.eta2))
        assert _closed_form(profile)[0] == pytest.approx(expected, rel=1e-11)

    def test_tiny_defect_near_threshold_against_the_oracle(self):
        # T0 < 2L < sqrt2 pi/sqrt(omega) at |Z| down to 1e-300 puts the root in the layer
        # g ~ |Z| r at theta, where k ~ sqrt|Z|: (K - E)/k^2 from rounded E(k) read 0 or
        # up to 1e252 at 83 of 300 such cells, and an eta2 solve lost its bracket at each
        rng = random.Random(3)
        for _ in range(12):
            omega, z = rng.uniform(2.0, 40.0), 10.0 ** rng.uniform(-300.0, -6.0)
            t0, classical = wave.threshold_T0(omega, z), math.sqrt(2.0) * math.pi / math.sqrt(omega)
            params = WaveParams(omega, z, 0.5 * (t0 + rng.random() * (classical - t0)))
            rep = classify(params)
            oracle = slope(params, h_omega=1e-5 * omega)
            assert rep.p_index == 1 and rep.slope == pytest.approx(oracle, rel=1e-8)

    def test_sign_near_the_fold(self):
        # the slope oracle refuses here, where a one-sided difference reads +0.00518
        params = WaveParams(1838.7674435299375, -84.06364029366871, 0.18608225155945318)
        rep = classify(params)
        assert rep.slope == pytest.approx(-0.0014264253509066183, rel=1e-6)
        assert rep.verdict is Verdict.INCONCLUSIVE
        with pytest.raises(AdmissibilityError, match="stencil point omega="):
            slope(params)

    def test_against_mpmath_difference_near_theta(self):
        # a peak whose root lies within 1e-6 theta of theta, where dT/deta2 grows like
        # 1/sqrt(theta - eta2) and the psi-terms dominate
        mpmath = pytest.importorskip("mpmath")
        theta = wave.theta_admissible(20.0, 1.0)
        L = 0.5 * wave.period_minus(theta * (1.0 - 5e-7), 20.0, 1.0)
        profile = build_profile(WaveParams(20.0, 1.0, L))
        assert 0.0 < 1.0 - profile.eta2 / theta <= 1e-6
        with mpmath.workdps(30):
            expected = float(_slope_oracle(20.0, 1.0, L, profile.eta2, rel_step="1e-12"))
        assert _closed_form(profile)[0] == pytest.approx(expected, rel=1e-11)

    def test_classify_solves_once(self, monkeypatch):
        # the residual check's orbit feeds the profile and the slope: after the Newton
        # loop the orbit is formed once
        newton, orbit = wave.newton, wave._orbit
        events = []

        def traced_newton(*args, **kwargs):
            root = newton(*args, **kwargs)
            events.append("newton")
            return root

        monkeypatch.setattr(wave, "newton", traced_newton)
        monkeypatch.setattr(wave, "_orbit", lambda *a: events.append("orbit") or orbit(*a))
        for point in BRANCH_POINTS:
            events.clear()
            classify(WaveParams(*point))
            assert events.count("newton") == 1
            assert events[events.index("newton"):].count("orbit") == 1

    def test_report_carries_the_solve(self):
        rep = classify(WaveParams(20.0, -1.0, 1.0))
        orbit = wave.solve_eta2(rep.params)
        assert rep.orbit == orbit
        assert rep.period_residual == abs(orbit.period - 2.0 * rep.params.halfperiod)
        along_u = wave._along_u(orbit, wave.theta_admissible(20.0, -1.0))
        assert rep.dT_deta2 == wave._tangent(orbit, 20.0, -1.0, along_u)[0][0] / along_u[0]
        assert rep.deta2_domega < 0.0


def _fd_counts(profile, n):
    """(even, odd) negative counts of the finite-difference L1 at n, and the band's surplus."""
    idx = linops.index(linops.assemble(profile, linops.Which.L1, n))
    return (idx.n_negative_even, idx.n_negative - idx.n_negative_even), idx.surplus


def _sturm_counts(profile):
    """The counts classify makes: l1_negative_counts on the profile's Z and dT/deta2."""
    return stability.l1_negative_counts(profile.params.z, wave._norm_slope(profile)[1])


class TestL1Counts:
    """The Sturm count of l1_negative_counts against the finite-difference index."""

    @pytest.mark.parametrize("seed", range(1, 11))
    def test_classify_lattice_matches_the_fd_index(self, seed):
        workloads = _benchmark_workloads()
        for p in workloads.lattice(workloads._rng(seed, "classify-lattice"), workloads.INPUTS_PER_RUN):
            params = WaveParams(p.omega, p.z, p.half_period)
            row = classify(params).row
            fd, surplus = _fd_counts(build_profile(params), 1024)
            assert surplus == 0
            assert (row.n_negative_even, row.n_negative - row.n_negative_even) == fd

    def test_orbits_on_both_branches_of_t_plus(self):
        # orbits of the trough family built directly, rising branch of T_+ included, where
        # the second even eigenvalue is negative too (solve_eta2 builds none of these)
        compared = rising = 0
        for omega, z in itertools.product((5.0, 20.0, 60.0), (-0.3, -1.0, -2.0, -4.0)):
            th = wave.theta_admissible(omega, z)
            for eta2 in (th * np.linspace(0.05, 0.999, 25)).tolist():
                orbit = wave._orbit(eta2, omega, z, wave._check_eta2(eta2, omega, z))
                profile = wave.WaveProfile(WaveParams(omega, z, 0.5 * orbit.period), orbit, 4096)
                fd, surplus = _fd_counts(profile, 2048)
                if surplus == 0:
                    counts = _sturm_counts(profile)
                    assert counts == fd, (omega, z, eta2)
                    compared += 1
                    rising += counts[0] == 2
        assert compared >= 250 and rising >= 50

    @pytest.mark.parametrize("omega,z,L,n,expected", [
        (20.0, -0.01, 1.0, 16384, (1, 1)),
        (1.0, 1.0, 30.0, 16384, (1, 0)),
        (1.0, -1.0, 30.0, 16384, (1, 1)),
        (1.0, 1.0, 100.0, 65536, (1, 0)),
        (1.0, -1.0, 100.0, 65536, (1, 1)),
    ])
    def test_band_hidden_cells_match_a_finer_fd_index(self, omega, z, L, n, expected):
        # inside the band at n = 1024 (surplus 1 at Z = -0.01, 8 or 9 at L = 30, 109 or 111
        # at L = 100); resolved on the finer grid
        profile = build_profile(WaveParams(omega, z, L))
        assert _fd_counts(profile, 1024)[1] > 0
        assert _fd_counts(profile, n) == (expected, 0)
        assert _sturm_counts(profile) == expected

    @pytest.mark.parametrize("z,L", [(1e-8, 0.5), (-1e-8, 1.0)])
    def test_tiny_z_odd_count_follows_beta(self, z, L):
        # the odd eigenvalue continuing the translation mode is beta Z + O(Z^2), beta > 0,
        # far inside any grid's band at |Z| = 1e-8
        beta = linops.beta_closed_form(20.0, L)
        assert beta > 0.0
        assert _sturm_counts(build_profile(WaveParams(20.0, z, L)))[1] == int(beta * z < 0.0)
