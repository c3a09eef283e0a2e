"""Tests for the periodic point-interaction operator.

Closed forms (deficiency element, strength map, resolvent kernel,
transcendental eigenvalue equations) are checked against quadrature,
finite differences, and the discretized matrix as independent oracles.
"""

import itertools
import math
import re

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh, eigvalsh

from nlsdelta import delta_op, linops
from nlsdelta.delta_op import DeltaOperator, EigenKind, Mode, Parity
from nlsdelta.errors import AdmissibilityError, NumericsError
from nlsdelta.wave import WaveParams, build_profile

GAMMAS = st.floats(min_value=-5.0, max_value=5.0).filter(lambda g: abs(g) > 1e-3)


class TestDeficiencyElement:
    def test_norm_constant_against_quadrature(self):
        beta = complex(1.0, 1.0) / math.sqrt(2.0)
        for L in (1.0, math.pi, 5.0):
            x = np.linspace(-L, L, 20001)
            g = np.cosh(beta * (np.abs(x) - L)) / (2.0 * beta * np.sinh(beta * L))
            quad = np.trapezoid(np.abs(g) ** 2, x)
            assert delta_op.theta_norm_constant(L) == pytest.approx(quad, rel=1e-6)

    def test_normalized(self):
        x, g = delta_op.deficiency_element(math.pi, n=8192)
        assert np.trapezoid(np.abs(g) ** 2, x) == pytest.approx(1.0, rel=1e-6)

    def test_eigenfunction_of_adjoint(self):
        # A* g = -i g away from the defect: g'' = i g pointwise.
        x, g = delta_op.deficiency_element(math.pi, n=8192)
        h = x[1] - x[0]
        d2 = (g[2:] - 2.0 * g[1:-1] + g[:-2]) / h**2
        resid = np.abs(-d2 + 1j * g[1:-1])
        interior = np.ones(len(resid), dtype=bool)
        mid = len(x) // 2  # corner at x=0 breaks the centered stencil
        interior[mid - 2 : mid + 1] = False
        assert resid[interior].max() < 1e-5


class TestStrengthMap:
    def test_pole_is_reported_as_infinity(self):
        # The denominator has exactly one zero in [0, 2 pi); bracket it
        # by a sign change scan and confirm the map blows up there.
        thetas = np.linspace(0.0, 2.0 * math.pi, 4001, endpoint=False)
        vals = np.array([delta_op.strength_from_theta(t) for t in thetas])
        assert np.isfinite(vals).sum() >= len(vals) - 1
        assert np.abs(vals[np.isfinite(vals)]).max() > 1e3

    def test_surjective_onto_reals(self):
        thetas = np.linspace(0.0, 2.0 * math.pi, 4001, endpoint=False)
        vals = np.array([delta_op.strength_from_theta(t) for t in thetas])
        finite = vals[np.isfinite(vals)]
        assert finite.min() < -100.0 and finite.max() > 100.0

    def test_gamma_zero_at_theta_pi(self):
        # cos(theta/2) vanishes at theta = pi: the free Laplacian.
        assert delta_op.strength_from_theta(math.pi) == pytest.approx(0.0, abs=1e-12)

    def test_domain(self):
        with pytest.raises(AdmissibilityError):
            delta_op.strength_from_theta(-0.1)
        with pytest.raises(AdmissibilityError):
            delta_op.strength_from_theta(2.0 * math.pi)


class TestResolventKernel:
    def test_helmholtz_residual_and_jump(self):
        L = math.pi
        k = 0.7 + 0.3j
        x = np.linspace(-L, L, 16001)
        J = delta_op.resolvent_kernel(k, x, L)
        h = x[1] - x[0]
        d2 = (J[2:] - 2.0 * J[1:-1] + J[:-2]) / h**2
        resid = np.abs(-d2 - k**2 * J[1:-1])
        mid = len(x) // 2
        mask = np.ones(len(resid), dtype=bool)
        mask[mid - 2 : mid + 1] = False
        assert resid[mask].max() < 1e-4
        # one-sided 3-point derivative jump at 0 equals -2L
        dplus = (-3.0 * J[mid] + 4.0 * J[mid + 1] - J[mid + 2]) / (2.0 * h)
        dminus = (3.0 * J[mid] - 4.0 * J[mid - 1] + J[mid - 2]) / (2.0 * h)
        assert (dplus - dminus) == pytest.approx(-2.0 * L, rel=1e-5)

    def test_periodic_endpoint_symmetry(self):
        L = 2.0
        J = delta_op.resolvent_kernel(1.3j, np.array([-L, L]), L)
        assert J[0] == pytest.approx(J[1], rel=1e-12)

    def test_singular_lattice(self):
        with pytest.raises(AdmissibilityError):
            delta_op.resolvent_kernel(1.0, 0.5, math.pi)  # k = pi/L with L=pi


class TestNegativeEigenvalue:
    """The bound state, the first even mode of an attractive defect."""

    @given(gamma=st.floats(min_value=-10.0, max_value=-0.05))
    @settings(max_examples=30, deadline=None)
    def test_transcendental_residual(self, gamma):
        L = 1.5
        pair = delta_op.defect_modes(gamma, L, 1)[0]
        mu = math.sqrt(-pair.eigenvalue)
        assert 2.0 * mu * math.tanh(mu * L) == pytest.approx(-gamma, rel=1e-10)

    def test_eigenfunction_jump_condition(self):
        gamma, L = -2.0, math.pi
        x = delta_op.sample_grid(L, 16384)
        psi = delta_op.sample_modes(delta_op.defect_modes(gamma, L, 1), L, x)[:, 0]
        h = x[1] - x[0]
        mid = len(x) // 2
        dplus = (-3.0 * psi[mid] + 4.0 * psi[mid + 1] - psi[mid + 2]) / (2.0 * h)
        dminus = (3.0 * psi[mid] - 4.0 * psi[mid - 1] + psi[mid - 2]) / (2.0 * h)
        assert (dplus - dminus) == pytest.approx(gamma * psi[mid], rel=1e-5)


class TestPositiveEigenvalues:
    @given(gamma=GAMMAS)
    @settings(max_examples=30, deadline=None)
    def test_root_residual(self, gamma):
        L = math.pi
        pairs = delta_op.positive_eigenvalues(gamma, L, 4)
        for p in pairs:
            kappa = math.sqrt(p.eigenvalue)
            assert 1.0 / math.tan(kappa * L) == pytest.approx(
                2.0 * kappa / gamma, abs=1e-8 * (1.0 + abs(2.0 * kappa / gamma))
            )

    @given(gamma=GAMMAS)
    @settings(max_examples=30, deadline=None)
    def test_interleaving_with_integer_lattice(self, gamma):
        L = math.pi
        pairs = delta_op.positive_eigenvalues(gamma, L, 5)
        for j, p in enumerate(pairs, start=1):
            kappa = math.sqrt(p.eigenvalue)
            if gamma < 0.0:
                assert (j - 0.5) * math.pi / L < kappa < j * math.pi / L
            else:
                assert (j - 1.0) * math.pi / L < kappa < (j - 0.5) * math.pi / L

    def test_gamma_zero_rejected(self):
        with pytest.raises(AdmissibilityError):
            delta_op.positive_eigenvalues(0.0, 1.0, 3)


class TestInteriorRootExtremes:
    @pytest.mark.parametrize("gamma", [1e13, -1e13, 1e300, -1e300])
    @pytest.mark.parametrize("j", [1, 3])
    def test_huge_strength_pins_root_to_regular_point(self, gamma, j):
        kappa = delta_op.interior_root(j, gamma, 1.0)
        assert kappa == pytest.approx((j - 0.5) * math.pi, rel=1e-12)
        if gamma > 0.0:
            assert (j - 1.0) * math.pi < kappa <= (j - 0.5) * math.pi
        else:
            assert (j - 0.5) * math.pi <= kappa < j * math.pi

    @pytest.mark.parametrize("gamma", [1e-20, -1e-20])
    def test_tiny_strength_pins_root_to_lattice_point(self, gamma):
        # below |gamma| ~ 1.2e-16 kappa the root is within rounding of the
        # lattice point, where cos(pi/2) rounding would hide the sign
        # change of the regular-point form
        kappa = delta_op.interior_root(2, gamma, 1.0)
        lattice = math.pi if gamma > 0.0 else 2.0 * math.pi
        assert kappa == pytest.approx(lattice, rel=1e-15)

    @pytest.mark.parametrize("gamma", [1e-20, 1e-100, 1e-300])
    def test_tiny_strength_ground_root(self, gamma):
        # j = 1, gamma -> 0+: kappa^2 = gamma / 2L to first order, with
        # no cancellation in kappa L = 0 + u
        kappa = delta_op.interior_root(1, gamma, 1.0)
        assert kappa == pytest.approx(math.sqrt(0.5 * gamma), rel=1e-13, abs=0.0)


def _mp_interior_root(j, gamma, L):
    # 40-digit root of gamma cos(kappa L) = 2 kappa sin(kappa L) on the
    # half cell that holds it: ((j-1) pi, (j-1/2) pi) / L for gamma > 0,
    # ((j-1/2) pi, j pi) / L for gamma < 0
    with mpmath.workdps(40):
        g, L = mpmath.mpf(gamma), mpmath.mpf(L)
        lo = (j - 1 if gamma > 0.0 else j - mpmath.mpf(0.5)) * mpmath.pi / L
        return mpmath.findroot(
            lambda k: g * mpmath.cos(k * L) - 2 * k * mpmath.sin(k * L),
            (lo, lo + mpmath.pi / (2 * L)),
            solver="anderson",
        )


class TestInteriorRootAccuracy:
    @pytest.mark.parametrize("L", [0.5, 1.0, math.pi])
    def test_relative_error_against_mpmath(self, L):
        gammas = [1e-3, -1e-3, 1e-2, 0.1, -0.1, 1.0, -1.0, 10.0, -10.0, 100.0]
        worst = 0.0
        for gamma, j in itertools.product(gammas, (1, 2, 5)):
            ref = _mp_interior_root(j, gamma, L)
            worst = max(worst, float(abs(delta_op.interior_root(j, gamma, L) - ref) / ref))
        assert worst < 2e-15


class TestFullSpectrum:
    def test_sorted_and_kinds(self):
        op = DeltaOperator(gamma=-1.0, halfperiod=math.pi)
        pairs = delta_op.full_spectrum(op, 7)
        vals = [p.eigenvalue for p in pairs]
        assert vals == sorted(vals)
        assert pairs[0].kind is EigenKind.NEGATIVE_BOUND_STATE
        assert pairs[0].eigenvalue < 0.0

    @pytest.mark.parametrize("L", [1.0, math.pi])
    def test_dirichlet_extension_is_the_half_lattice(self, L):
        # gamma = +inf: zeta(0) = 0 with a free jump, so the even modes are the kinks
        # sin(kappa |x|), cos(kappa L) = 0, between the sines: (m pi/2L)^2, m >= 1
        modes = delta_op.full_spectrum(DeltaOperator(math.inf, L), 6)
        assert [m.eigenvalue for m in modes] == pytest.approx(
            [(m * math.pi / (2.0 * L)) ** 2 for m in range(1, 7)], rel=1e-12)
        assert [m.kind for m in modes] == 3 * [EigenKind.INTERIOR_ROOT, EigenKind.INTEGER_SINE]
        assert [delta_op.interior_root(j, math.inf, L) for j in (1, 2, 3)] == [
            (j - 0.5) * math.pi / L for j in (1, 2, 3)]
        x = delta_op.sample_grid(L, 512)
        kinks = delta_op.sample_modes(modes[::2], L, x)
        assert np.abs(kinks[256]).max() < 1e-15
        # the gamma -> +-inf limit of the exact roots
        for gamma in (1e8, -1e8):
            near = delta_op.full_spectrum(DeltaOperator(gamma, L), 7)
            positive = [m.eigenvalue for m in near if m.eigenvalue > 0.0][:6]
            assert positive == pytest.approx([m.eigenvalue for m in modes], rel=1e-6)

    @pytest.mark.parametrize("step", [1e-3, 1e-6])
    def test_theta_family_crosses_the_pole(self, step):
        # the denominator of gamma(theta) vanishes where tan(theta/2 - pi/4) =
        # -sinh(sqrt2 pi)/sin(sqrt2 pi); gamma runs off to +inf below theta0, -inf above
        s = math.sqrt(2.0) * math.pi
        theta0 = 2.0 * (0.25 * math.pi + math.atan(-math.sinh(s) / math.sin(s)))
        left, right = (delta_op.strength_from_theta(theta0 + d) for d in (-step, step))
        assert left > 1e3 and right < -1e3
        pole = delta_op.full_spectrum(DeltaOperator(math.inf, math.pi), 5)
        repulsive, attractive = (
            [m.eigenvalue for m in delta_op.full_spectrum(DeltaOperator(g, math.pi), 8)
             if m.eigenvalue > 0.0][:5]
            for g in (left, right)
        )
        for m, lo, hi in zip(pole, repulsive, attractive):
            if m.kind is EigenKind.INTEGER_SINE:  # blind to gamma
                assert lo == m.eigenvalue == hi
            else:  # the kinks, approached from both sides
                assert lo < m.eigenvalue < hi
                assert hi - lo < step * m.eigenvalue

    def test_free_laplacian(self):
        op = DeltaOperator(gamma=0.0, halfperiod=math.pi)
        pairs = delta_op.full_spectrum(op, 5)
        assert [p.eigenvalue for p in pairs] == pytest.approx([0.0, 1.0, 1.0, 4.0, 4.0])

    def test_strength_monotonicity_of_ground_state(self):
        # min-max: a more attractive defect lowers the bottom eigenvalue.
        L = math.pi
        bottoms = [
            delta_op.full_spectrum(DeltaOperator(g, L), 1)[0].eigenvalue
            for g in (-2.0, -1.0, 1.0, 2.0)
        ]
        assert bottoms == sorted(bottoms)

    def test_spectrum_rows_shape(self):
        op = DeltaOperator(gamma=1.0, halfperiod=1.0)
        rows = delta_op.spectrum_rows(delta_op.full_spectrum(op, 3))
        assert len(rows) == 3
        assert all(len(r) == 3 for r in rows)

    def test_spectrum_rows_pinned(self):
        # the bound state, the interior roots and the sines, as the delta-spectrum CSV
        # has written them at gamma = -2, L = 3.14159
        rows = delta_op.spectrum_rows(delta_op.full_spectrum(DeltaOperator(-2.0, 3.14159), 5))
        assert rows == [
            (-1.0073268601170882, "negative_bound_state", "even"),
            (0.48007307799225196, "interior_root", "even"),
            (1.0000016893298704, "integer_sine", "odd"),
            (3.3917122927999426, "interior_root", "even"),
            (4.0000067573194817, "integer_sine", "odd"),
        ]
        assert all(type(r[2]) is str for r in rows)


class TestDiscretize:
    def test_symmetry_and_structure(self):
        op = DeltaOperator(gamma=1.5, halfperiod=1.0)
        m = delta_op.discretize(op, 128)
        assert np.array_equal(m, m.T)
        h = 2.0 / 128
        assert m[64, 64] == pytest.approx(2.0 / h**2 + 1.5 / h)

    def test_first_order_convergence_to_exact(self):
        gamma, L = -1.0, math.pi
        exact = [p.eigenvalue for p in delta_op.full_spectrum(DeltaOperator(gamma, L), 4)]
        errs = []
        for n in (256, 512, 1024):
            m = delta_op.discretize(DeltaOperator(gamma, L), n)
            lam = eigvalsh(m, subset_by_index=(0, 3))
            errs.append(np.abs(lam - np.array(exact)).max())
        assert errs[0] > errs[1] > errs[2]
        rate = math.log2(errs[0] / errs[2]) / 2.0
        assert 0.7 < rate < 2.6  # O(h) guaranteed; eigenvalues superconverge

    def test_eigenvector_parity_matches_closed_form(self):
        gamma, L, n = 2.0, math.pi, 512
        m = delta_op.discretize(DeltaOperator(gamma, L), n)
        lam, vec = eigh(m, subset_by_index=(0, 2))
        refl = (n - np.arange(n)) % n
        # ordering: two even interior-root modes sandwich the first sine
        v0, v1 = vec[:, 0], vec[:, 1]
        assert np.abs(v0 - v0[refl]).max() < 1e-8
        assert np.abs(v1 + v1[refl]).max() < 1e-8

    def test_guards(self):
        with pytest.raises(AdmissibilityError):
            delta_op.discretize(DeltaOperator(1.0, 1.0), 32)
        with pytest.raises(AdmissibilityError):
            delta_op.discretize(DeltaOperator(1.0, 1.0), 127)
        with pytest.raises(AdmissibilityError, match=r"gamma = \+inf"):
            delta_op.discretize(DeltaOperator(math.inf, 1.0), 128)

    def test_large_strength_matrix_approaches_the_dirichlet_extension(self):
        # +inf has no gamma/h matrix; 1e8 stands in for it, at test_04's n = 2048 and 2e-2
        lam = eigvalsh(delta_op.discretize(DeltaOperator(1e8, math.pi), 2048),
                       subset_by_index=(0, 5))
        exact = [m.eigenvalue for m in delta_op.full_spectrum(DeltaOperator(math.inf, math.pi), 6)]
        assert np.abs(lam - exact).max() < 2e-2


class TestGrids:
    @pytest.mark.parametrize("L", [0.7, 3.14159])
    @pytest.mark.parametrize("n", [256, 1024])
    def test_periodic_grid_exactly_antisymmetric(self, L, n):
        x = delta_op.periodic_grid(L, n)
        assert np.array_equal(x[:0:-1], -x[1:])  # x[n-j] == -x[j], bit for bit
        assert x[n // 2] == 0.0
        assert x[1] - x[0] == pytest.approx(2.0 * L / n, rel=1e-12)

    def test_sample_grid_exactly_antisymmetric(self):
        x = delta_op.sample_grid(math.pi, 2048)
        assert np.array_equal(x[::-1], -x)
        assert x.shape == (2049,) and x[1024] == 0.0

    @pytest.mark.parametrize("L, n", [(math.pi, 2048), (0.7, 256)])
    def test_one_closed_grid_formula(self, L, n):
        x = delta_op.sample_grid(L, n)
        assert np.array_equal(delta_op.periodic_grid(L, n), x[:-1])
        profile = build_profile(WaveParams(20.0, 1.0, L), n=n)
        assert np.array_equal(profile.x, x)

    def test_sampled_modes_exactly_even_or_odd(self):
        L = math.pi
        x = delta_op.sample_grid(L, 2048)
        modes = delta_op.full_spectrum(DeltaOperator(-2.0, L), 9)
        v = delta_op.sample_modes(modes, L, x)
        for mode, col in zip(modes, v.T):
            sign = 1.0 if mode.parity is Parity.EVEN else -1.0
            assert np.array_equal(col[::-1], sign * col), mode
        assert {m.parity for m in modes} == {Parity.EVEN, Parity.ODD}

    @pytest.mark.parametrize("grid", [delta_op.periodic_grid, delta_op.sample_grid])
    def test_odd_size_is_typed(self, grid):
        with pytest.raises(AdmissibilityError, match="n=255"):
            grid(1.0, 255)


class TestDefectModes:
    @pytest.mark.parametrize("gamma", [1e-9, -1e-9])
    def test_free_cosines_are_the_small_gamma_limit(self, gamma):
        L = 0.7
        free = [m.eigenvalue for m in delta_op.defect_modes(0.0, L, 6)]
        near = [m.eigenvalue for m in delta_op.defect_modes(gamma, L, 6)]
        assert near == pytest.approx(free, abs=1e-8)

    def test_one_list_behind_every_eigenpair_family(self):
        gamma, L = -1.5, 0.9
        modes = delta_op.defect_modes(gamma, L, 4)
        assert [m.kind for m in modes] == [EigenKind.NEGATIVE_BOUND_STATE] + 3 * [
            EigenKind.INTERIOR_ROOT
        ]
        assert delta_op.positive_eigenvalues(gamma, L, 3) == modes[1:]
        assert all(type(m) is Mode for m in modes)

    def test_parity_is_defined_once(self):
        assert linops.Parity is Parity
        sine = delta_op.defect_modes(0.0, 1.0, 1, odd=True)[0]
        assert sine.parity is Parity.ODD
        assert delta_op.defect_modes(1.0, 1.0, 1)[0].parity is Parity.EVEN

    @pytest.mark.parametrize("gamma, L, odd, named", [
        (-1.0, 1e-310, False, "even mode 0 (negative_bound_state)"),
        (0.0, 1e-310, True, "odd mode 0 (integer_sine)"),
        (1e300, 1e-300, False, "even mode 0 (interior_root)"),
        (0.0, 1e-300, True, "odd mode 0 (integer_sine)"),
    ])
    def test_non_finite_mode_refused(self, gamma, L, odd, named):
        with pytest.raises(NumericsError, match=re.escape(named)):
            delta_op.defect_modes(gamma, L, 3, odd=odd)

    def test_sampled_modes_have_unit_norm(self):
        x = delta_op.sample_grid(1.0, 512)
        modes = delta_op.defect_modes(-2.0, 1.0, 3) + delta_op.defect_modes(
            -2.0, 1.0, 3, odd=True
        )
        v = delta_op.sample_modes(modes, 1.0, x)
        assert v.shape == (513, 6)
        assert [np.trapezoid(c * c, x) for c in v.T] == pytest.approx(np.ones(6), rel=1e-13)

    @pytest.mark.parametrize("gamma", [-math.inf, math.nan])
    def test_non_finite_strength_refused(self, gamma):
        # refused as DeltaOperator refuses it, before bound_state_root brackets from inf
        with pytest.raises(AdmissibilityError, match=re.escape(f"gamma must be finite, got {gamma!r}")):
            delta_op.defect_modes(gamma, 1.0, 2)

    @pytest.mark.parametrize("count", [0, -1])
    def test_count_guard(self, count):
        with pytest.raises(AdmissibilityError, match="count must be >= 1"):
            delta_op.defect_modes(0.0, 1.0, count, odd=True)


class TestPeriodicStencil:
    def test_discretize_is_the_stencil_of_the_even_block(self):
        n, L, gamma = 128, 1.0, 1.5
        h = 2.0 * L / n
        half = delta_op.even_block(n // 2, h, gamma)[0]
        m = delta_op.periodic_stencil(half, h)
        assert np.array_equal(m, delta_op.discretize(DeltaOperator(gamma, L), n))
        refl = (n - np.arange(n)) % n
        assert np.array_equal(m, m[np.ix_(refl, refl)])

    @pytest.mark.parametrize("bad", [math.inf, math.nan, 0.0])
    def test_operator_rejects_bad_half_period(self, bad):
        with pytest.raises(AdmissibilityError, match="positive and finite"):
            DeltaOperator(1.0, bad)
