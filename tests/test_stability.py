"""Tests for the slope condition and index-count classification.

The closed-form norm is checked against quadrature on all three
branches, the slope against plain (non-Richardson) step-halving, and
the verdict arithmetic exhaustively over small index counts.
"""

import itertools

import numpy as np
import pytest

from nlsdelta import elliptic, linops, stability
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

    def test_one_sided_fallback_warns(self):
        # omega just above the admissibility threshold: the lower stencil
        # point is inadmissible, so the slope degrades to one-sided.
        params = WaveParams(5.125, 1.0, 0.5)
        with pytest.warns(UserWarning, match="one-sided"):
            s = slope(params, h_omega=0.01)
        assert s > 0.0


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
        assert rep.n_negative == 1 and rep.p_index == 1
        assert not rep.kernel_caveat

    def test_trough_wave_even_subspace(self):
        rep = classify(WaveParams(20.0, -1.0, 1.0))
        assert rep.verdict is Verdict.UNSTABLE_STABLE_EVEN_SUBSPACE
        assert rep.n_negative == 2 and rep.n_negative_even == 1

    def test_defect_free_carries_kernel_caveat(self):
        rep = classify(WaveParams(8.0, 0.0, 1.0))
        assert rep.verdict is Verdict.STABLE
        assert rep.kernel_caveat

    def test_report_round_trips_to_dict(self):
        rep = classify(WaveParams(20.0, 1.0, 0.5))
        d = rep.as_dict()
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
            (WaveParams(20.0, -0.01, 1.0), (Verdict.INCONCLUSIVE, 1, 1, 1)),
            (WaveParams(20.0, 1e-8, 0.5), (Verdict.INCONCLUSIVE, 1, 1, 1)),
        ],
    )
    def test_counts_need_no_eigenvectors(self, params, expected, monkeypatch):
        # classify reads eigenvalues below the band only; the eigenpair
        # solver is never called, and the outcome is the one the lowest-8
        # eigenpair count gave
        def no_eigenpairs(*args, **kwargs):
            raise AssertionError("classify computed eigenvectors")

        monkeypatch.setattr(linops, "eigh_tridiagonal", no_eigenpairs)
        rep = classify(params)
        assert (rep.verdict, rep.n_negative, rep.n_negative_even, rep.p_index) == expected
        assert rep.index.n_negative == rep.n_negative
        assert hash(rep) == hash(classify(params))  # a frozen report stays a value

    @pytest.mark.parametrize("params", [WaveParams(20.0, -0.01, 1.0), WaveParams(20.0, 1e-8, 0.5)])
    def test_eigenvalue_hidden_by_band_is_inconclusive(self, params):
        # the small-Z branch of the odd L1 eigenvalue sits inside the
        # zero band, where count_negative refuses to count
        rep = classify(params)
        assert rep.verdict is Verdict.INCONCLUSIVE
        assert rep.p_index == 1
