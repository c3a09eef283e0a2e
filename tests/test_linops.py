"""Tests for the linearized-operator layer.

Oracles: quadrature of the quadratic form against the matrix, the known
zero modes (the profile for L2, its derivative for L1 without a defect),
the closed-form Hill-equation eigenvalue 4 + k^2, and the closed-form
expression for the small-defect eigenvalue slope.
"""

import dataclasses
import math

import numpy as np
import pytest
from scipy.linalg import eigh

from nlsdelta import linops
from nlsdelta.errors import AdmissibilityError, InconclusiveError
from nlsdelta.linops import Parity, Which, assemble, index, spectrum
from nlsdelta.wave import WaveParams, build_profile


def make_op(omega, z, L, which=Which.L1, n=1024, n_profile=4096):
    profile = build_profile(WaveParams(omega, z, L), n=n_profile)
    return assemble(profile, which, n)


class TestAssembly:
    def test_symmetric(self):
        op = make_op(20.0, 1.0, 0.5)
        assert np.array_equal(op.matrix, op.matrix.T)

    def test_diagonal_carries_potential_and_defect(self):
        omega, z, L, n = 20.0, 1.0, 0.5, 512
        op = make_op(omega, z, L, Which.L2, n=n)
        h = 2.0 * L / n
        phi0 = op.profile.phi0
        # node n//2 sits on the defect: Laplacian + gamma/h + potential
        assert op.matrix[n // 2, n // 2] == pytest.approx(
            2.0 / h**2 - z / h + omega - phi0**2, rel=1e-12
        )

    def test_l1_l2_differ_only_on_diagonal(self):
        op1 = make_op(20.0, 1.0, 0.5, Which.L1)
        op2 = make_op(20.0, 1.0, 0.5, Which.L2)
        diff = op1.matrix - op2.matrix
        off = diff - np.diag(np.diag(diff))
        assert np.abs(off).max() == 0.0
        phi = op1.profile.evaluate(op1.x)
        # the 2/h^2 Laplacian diagonal cancels in floating point, leaving
        # absolute noise at the 1e-10 level
        assert np.diag(diff) == pytest.approx(-2.0 * phi**2, abs=1e-8)

    def test_quadratic_form_against_quadrature(self):
        # h * v^T M v -> int |v'|^2 + (omega - c phi^2) v^2 - Z v(0)^2
        # for smooth periodic v.
        omega, z, L, n = 20.0, 1.5, 0.5, 4096
        op = make_op(omega, z, L, Which.L1, n=n)
        h = 2.0 * L / n
        v = np.cos(math.pi * op.x / L) + 0.3 * np.cos(2.0 * math.pi * op.x / L)
        form = h * float(v @ op.matrix @ v)

        xs = np.linspace(-L, L, 40001)
        vs = np.cos(math.pi * xs / L) + 0.3 * np.cos(2.0 * math.pi * xs / L)
        dvs = (
            -math.pi / L * np.sin(math.pi * xs / L)
            - 0.6 * math.pi / L * np.sin(2.0 * math.pi * xs / L)
        )
        phi = op.profile.evaluate(xs)
        ref = (
            np.trapezoid(dvs**2 + (omega - 3.0 * phi**2) * vs**2, xs)
            - z * vs[20000] ** 2
        )
        assert form == pytest.approx(ref, rel=1e-4)

    def test_grid_guard(self):
        profile = build_profile(WaveParams(20.0, 1.0, 0.5), n=1024)
        with pytest.raises(AdmissibilityError):
            assemble(profile, Which.L1, 128)


class TestKnownZeroModes:
    def test_l2_ground_state_is_the_profile(self):
        op = make_op(20.0, 1.0, 0.5, Which.L2, n=2048)
        spec = spectrum(op, 3)
        assert abs(spec.eigenvalues[0]) < spec.band
        assert spec.parities[0] is Parity.EVEN
        phi = op.profile.evaluate(op.x)
        v = spec.vectors[:, 0]
        overlap = abs(float(v @ phi)) / (np.linalg.norm(v) * np.linalg.norm(phi))
        assert overlap > 1.0 - 1e-8

    def test_l1_translation_mode_without_defect(self):
        op = make_op(8.0, 0.0, 1.0, Which.L1, n=2048)
        spec = spectrum(op, 3)
        # exactly one eigenvalue in the band, it is odd and matches phi'
        in_band = np.abs(spec.eigenvalues) < spec.band
        assert in_band.tolist() == [False, True, False]
        v = spec.vectors[:, 1]
        assert spec.parities[1] is Parity.ODD
        dphi = op.profile.derivative(op.x)
        overlap = abs(float(v @ dphi)) / (np.linalg.norm(v) * np.linalg.norm(dphi))
        assert overlap > 1.0 - 1e-6


class TestNegativeCounts:
    def test_counts_by_defect_sign(self):
        assert linops.count_negative(make_op(20.0, 1.0, 0.5, Which.L1)) == 1
        assert linops.count_negative(make_op(20.0, -1.0, 1.0, Which.L1)) == 2
        assert linops.count_negative(make_op(8.0, 0.0, 1.0, Which.L1)) == 1
        for z, L in ((1.0, 0.5), (-1.0, 1.0), (0.0, 1.0)):
            assert linops.count_negative(make_op(20.0 if z else 8.0, z, L, Which.L2)) == 0

    def test_ground_state_even_second_negative_odd(self):
        op = make_op(20.0, -1.0, 1.0, Which.L1)
        spec = spectrum(op, 3)
        assert spec.eigenvalues[0] < -spec.band
        assert spec.eigenvalues[1] < -spec.band
        assert spec.parities[0] is Parity.EVEN
        assert spec.parities[1] is Parity.ODD

    def test_profile_is_negative_direction_for_l1(self):
        # L1 phi = -2 phi^3, so <L1 phi, phi> < 0 always.
        for omega, z, L in ((20.0, 1.0, 0.5), (20.0, -1.0, 1.0), (8.0, 0.0, 1.0)):
            op = make_op(omega, z, L, Which.L1)
            phi = op.profile.evaluate(op.x)
            assert float(phi @ op.matrix @ phi) < 0.0

    def test_spectrum_bounded_below(self):
        op = make_op(20.0, 2.0, 0.5, Which.L1)
        spec = spectrum(op, 1)
        assert spec.eigenvalues[0] > -6.0 * 20.0

    def test_inconclusive_on_unresolvable_band(self):
        # tiny defect on a coarse grid: the eigenvalue continuing the
        # translation mode sits inside the ambiguity band, and L1 with
        # Z != 0 expects no kernel -- refusing to count is the contract
        op = make_op(20.0, 0.01, 0.5, Which.L1, n=256)
        with pytest.raises(InconclusiveError):
            linops.count_negative(op)

    def test_spectrum_request_guard(self):
        op = make_op(20.0, 1.0, 0.5, n=512)
        with pytest.raises(AdmissibilityError):
            spectrum(op, 0)
        with pytest.raises(AdmissibilityError):
            spectrum(op, 513)


class TestIndex:
    @pytest.mark.parametrize("which", [Which.L1, Which.L2])
    @pytest.mark.parametrize(
        "omega, z, L",
        [(16.0, 0.5, 0.5), (20.0, 2.0, 1.0), (24.0, 1.0, 0.5),
         (16.0, -2.0, 1.0), (20.0, -1.0, 1.0), (30.0, -0.5, 1.0)],
    )
    def test_counts_agree_with_dense_solver(self, omega, z, L, which):
        # peaks (Z > 0) and troughs (Z < 0): the counts below -tau and
        # inside the band match a full dense eigendecomposition
        op = make_op(omega, z, L, which, n=512)
        idx = index(op)
        full = np.linalg.eigvalsh(op.matrix)
        assert idx.n_negative == np.sum(full < -op.band)
        in_band = np.sum(np.abs(full) < op.band)
        assert idx.surplus == in_band - idx.expected_kernel
        below = np.sort(np.concatenate([idx.even, idx.odd]))
        assert below == pytest.approx(full[full <= op.band], rel=1e-10, abs=1e-9)

    def test_count_is_not_cut_at_eight(self):
        # a deep shift pushes 29 eigenvalues below -tau; every one counts
        op = make_op(20.0, -1.0, 1.0, Which.L1, n=256)
        deep = dataclasses.replace(op, half_diagonal=op.half_diagonal - 2000.0)
        dense = int(np.sum(np.linalg.eigvalsh(deep.matrix) < -deep.band))
        assert dense == 29
        assert linops.count_negative(deep) == dense


class TestKernelDiagnostic:
    def test_defect_gap_has_positive_limit(self):
        rep = linops.kernel_diagnostic(WaveParams(20.0, 1.0, 0.5))
        assert rep["positive_limit"]
        assert rep["negative_counts"] == [1, 1, 1]
        assert min(rep["gaps"]) > 0.1

    def test_defect_free_control_converges_to_zero(self):
        rep = linops.kernel_diagnostic(WaveParams(8.0, 0.0, 1.0))
        assert not rep["positive_limit"]
        assert rep["gaps"][0] > rep["gaps"][-1]
        assert rep["gaps"][-1] < 0.05


class TestLameCheck:
    @pytest.mark.parametrize("k", [0.3, 0.5, 0.8])
    def test_closed_form_eigenvalue(self, k):
        rep = linops.lame_check(k, 1024)
        assert rep["error"] < 1e-4
        assert rep["overlap"] > 0.999
        assert min(rep["gaps"]) > 0.0

    def test_second_order_convergence(self):
        errs = [linops.lame_check(0.5, n)["error"] for n in (256, 512, 1024)]
        rate = math.log2(errs[0] / errs[2]) / 2.0
        assert 1.7 < rate < 2.3

    def test_guards(self):
        with pytest.raises(AdmissibilityError):
            linops.lame_check(1.0, 256)
        with pytest.raises(AdmissibilityError):
            linops.lame_check(0.5, 32)


class TestEigenvalueSlope:
    def test_beta_closed_form_positive(self):
        assert linops.beta_closed_form(12.0, 1.0) > 0.0

    def test_ladder_matches_closed_form(self):
        rep = linops.second_eigen_slope(12.0, 1.0)
        assert rep["converging"]
        assert rep["pi_sign_pattern_ok"]
        assert rep["beta"] == pytest.approx(rep["beta_closed_form"], rel=0.1)

    def test_precondition(self):
        # omega below pi^2/(2 L^2): no defect-free wave to perturb around
        with pytest.raises(AdmissibilityError):
            linops.second_eigen_slope(8.0, 0.5)
        with pytest.raises(AdmissibilityError):
            linops.second_eigen_slope(12.0, 1.0, z_ladder=(1e-3, 2e-3))


class TestLowdinIndependence:
    def test_eigenvalues_agree_with_generic_solver(self):
        # dual route: subset eigensolve vs full dense eigendecomposition
        op = make_op(20.0, 1.0, 0.5, Which.L1, n=512)
        spec = spectrum(op, 4)
        full = np.linalg.eigvalsh(op.matrix)
        assert spec.eigenvalues == pytest.approx(full[:4], rel=1e-10, abs=1e-9)


def _sturm_lowest(d, e, count, iterations=90):
    # Lowest `count` eigenvalues of the symmetric tridiagonal (d, e) by
    # Sturm-count bisection carried out in long double, all at once.
    d = np.asarray(d, dtype=np.longdouble)
    e2 = np.asarray(e, dtype=np.longdouble) ** 2
    radius = np.abs(d).max() + 2.0 * np.sqrt(e2.max())
    lo = np.full(count, -radius)
    hi = np.full(count, radius)
    index = np.arange(count)
    tiny = np.finfo(np.longdouble).tiny
    for _ in range(iterations):
        mid = 0.5 * (lo + hi)
        q = d[0] - mid
        below = (q < 0).astype(int)
        for j in range(1, d.shape[0]):
            q = d[j] - mid - e2[j - 1] / np.where(q == 0, tiny, q)
            below += q < 0
        lower = below > index  # eigenvalue `index` lies below mid
        hi = np.where(lower, mid, hi)
        lo = np.where(lower, lo, mid)
    return 0.5 * (lo + hi)


class TestParitySplit:
    @pytest.mark.parametrize("n", [512, 1024])
    @pytest.mark.parametrize("z", [1.0, -1.0])
    @pytest.mark.parametrize("which", [Which.L1, Which.L2])
    def test_eigenvalues_agree_with_dense_solver(self, which, z, n):
        # peak (Z = 1) and trough (Z = -1) waves on the same cell L = 1
        op = make_op(20.0, z, 1.0, which, n=n)
        spec = spectrum(op, 8)
        full = np.linalg.eigvalsh(op.matrix)
        assert spec.eigenvalues == pytest.approx(full[:8], rel=1e-10, abs=1e-9)

    @pytest.mark.skipif(
        np.finfo(np.longdouble).eps > 1e-18, reason="needs an extended-precision long double"
    )
    def test_eigenvalues_against_extended_precision_bisection(self):
        # On the classify cell (20, 1, 0.5) at n = 1024, ||M|| ~ 4/h^2 =
        # 4e6 and the dense eigvalsh oracle itself is off by 2-3e-9, over
        # the 1e-9 tolerance; the split solve is held to 1e-9 against a
        # long-double Sturm bisection of the same operator instead.
        op = make_op(20.0, 1.0, 0.5, Which.L1, n=1024)
        spec = spectrum(op, 8)
        k = op.n // 2
        off = -1.0 / np.longdouble(op.h) ** 2
        even_off = np.full(k, off)
        even_off[[0, -1]] *= np.sqrt(np.longdouble(2.0))
        ref = np.sort(
            np.concatenate(
                [
                    _sturm_lowest(op.half_diagonal, even_off, 8),
                    _sturm_lowest(op.half_diagonal[1:k], np.full(k - 2, off), 8),
                ]
            )
        )[:8]
        assert np.abs(spec.eigenvalues - ref.astype(float)).max() < 1e-9

    @pytest.mark.parametrize("z, L", [(1.0, 0.5), (-1.0, 1.0), (0.0, 1.0)])
    def test_vectors_exactly_reflection_symmetric(self, z, L):
        op = make_op(20.0 if z else 8.0, z, L, Which.L1, n=512)
        spec = spectrum(op, 8)
        assert set(spec.parities) == {Parity.EVEN, Parity.ODD}
        refl = (op.n - np.arange(op.n)) % op.n
        for i, parity in enumerate(spec.parities):
            v = spec.vectors[:, i]
            sign = 1.0 if parity is Parity.EVEN else -1.0
            assert np.abs(v - sign * v[refl]).max() == 0.0
            assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-13)

    def test_request_beyond_one_block(self):
        # n = 256: even block 129, odd block 127; ask for more than the
        # odd block holds, and then for the whole spectrum
        op = make_op(20.0, 1.0, 0.5, Which.L1, n=256)
        full = np.linalg.eigvalsh(op.matrix)
        spec = spectrum(op, 200)
        assert spec.eigenvalues == pytest.approx(full[:200], rel=1e-10, abs=1e-9)
        whole = spectrum(op, 256)
        assert whole.parities.count(Parity.EVEN) == 129
        assert whole.parities.count(Parity.ODD) == 127
        assert whole.eigenvalues == pytest.approx(full, rel=1e-10, abs=1e-9)
        gram = whole.vectors.T @ whole.vectors
        assert np.abs(gram - np.eye(256)).max() < 1e-12

    def test_dense_matrix_only_built_on_request(self):
        op = make_op(20.0, -1.0, 1.0, Which.L1)
        assert linops.count_negative(op) == 2
        assert "matrix" not in vars(op)
        assert op.matrix.shape == (op.n, op.n)

    def test_odd_grid_rejected(self):
        profile = build_profile(WaveParams(20.0, 1.0, 0.5), n=1024)
        with pytest.raises(AdmissibilityError):
            assemble(profile, Which.L1, 511)
