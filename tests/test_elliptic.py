"""Oracle tests for the elliptic-function layer.

The implementation wraps scipy.special, so every check here goes
through an independent route: arithmetic-geometric mean for K, direct
quadrature for E and the incomplete integrals, and an ODE integration
for the Jacobi functions.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad, solve_ivp

from nlsdelta import elliptic

MODULI = st.floats(min_value=0.01, max_value=0.99)


def complement(k: float) -> float:
    """k' = sqrt(1 - k^2), factored to keep its relative accuracy as k -> 1."""
    return math.sqrt((1.0 - k) * (1.0 + k))


def inverse_dn(y: float, k: float) -> float:
    """dn^{-1}(y; k) on [0, K(k)]: inverse_am of the gaps sn : cn = sqrt(1 - y^2) : sqrt(y^2 - k'^2).

    The common factor 1/k is dropped; this is how the package inverts dn
    (wave._orbit's shift a = dn^{-1}(Phi/eta1; k)).  At k = 1, k' = 0.
    """
    kp = complement(k)
    return elliptic.inverse_am(math.sqrt((1.0 - y) * (1.0 + y)), math.sqrt((y - kp) * (y + kp)), kp)


def agm_K(k: float) -> float:
    """K(k) = pi / (2 * AGM(1, k'))."""
    a, b = 1.0, math.sqrt(1.0 - k * k)
    for _ in range(60):
        if abs(a - b) <= 4e-16 * a:
            break
        a, b = 0.5 * (a + b), math.sqrt(a * b)
    return math.pi / (2.0 * a)


class TestCompleteIntegrals:
    @given(k=MODULI)
    @settings(max_examples=50, deadline=None)
    def test_K_against_agm(self, k):
        assert elliptic.complete_K(k) == pytest.approx(agm_K(k), rel=1e-13)

    @given(k=MODULI)
    @settings(max_examples=25, deadline=None)
    def test_E_against_quadrature(self, k):
        val, err = quad(lambda t: math.sqrt(1.0 - (k * math.sin(t)) ** 2), 0.0, math.pi / 2)
        assert elliptic.complete_E(k) == pytest.approx(val, abs=max(1e-12, 10 * err))

    @given(k=MODULI)
    @settings(max_examples=25, deadline=None)
    def test_legendre_relation(self, k):
        # E(k)K(k') + E(k')K(k) - K(k)K(k') = pi/2 for all moduli.
        kp = complement(k)
        lhs = (
            elliptic.complete_E(k) * elliptic.complete_K(kp)
            + elliptic.complete_E(kp) * elliptic.complete_K(k)
            - elliptic.complete_K(k) * elliptic.complete_K(kp)
        )
        assert lhs == pytest.approx(math.pi / 2.0, rel=1e-12)

    def test_K_descending_landen(self):
        # K(k) = (1 + k1) K(k1) with k1 = (1 - k')/(1 + k').
        for k in (0.2, 0.5, 0.9):
            kp = complement(k)
            k1 = (1.0 - kp) / (1.0 + kp)
            assert elliptic.complete_K(k) == pytest.approx(
                (1.0 + k1) * elliptic.complete_K(k1), rel=1e-13
            )

    def test_degenerate_values(self):
        assert elliptic.complete_K(0.0) == pytest.approx(math.pi / 2.0)
        assert elliptic.complete_E(0.0) == pytest.approx(math.pi / 2.0)
        assert elliptic.complete_E(1.0) == pytest.approx(1.0)

    @pytest.mark.parametrize("kp", [0.5, 1e-2, 1e-4, 2e-6])
    def test_K_from_the_complementary_modulus(self, kp):
        # near k = 1 only kp holds k'^2: K read from k drifts by ~eps/kp^2 (1e-6 relative
        # at kp = 2e-6), K read from kp keeps full accuracy
        mpmath = pytest.importorskip("mpmath")
        k = math.sqrt((1.0 - kp) * (1.0 + kp))
        with mpmath.workdps(40):
            expected = float(mpmath.ellipk(1 - mpmath.mpf(kp) ** 2))
        assert elliptic.complete_K(k, kp) == pytest.approx(expected, rel=1e-15)

    def test_K_raises_at_one(self):
        with pytest.raises(ValueError):
            elliptic.complete_K(1.0)

    def test_modulus_domain(self):
        with pytest.raises(ValueError):
            elliptic.complete_K(-0.1)
        with pytest.raises(ValueError):
            elliptic.complete_K(1.1)


class TestIncompleteIntegrals:
    @given(k=MODULI, phi=st.floats(min_value=0.0, max_value=1.5))
    @settings(max_examples=25, deadline=None)
    def test_F_against_quadrature(self, k, phi):
        val, err = quad(
            lambda t: 1.0 / math.sqrt(1.0 - (k * math.sin(t)) ** 2), 0.0, phi
        )
        assert elliptic.incomplete_F(phi, k) == pytest.approx(val, abs=max(1e-12, 10 * err))

    @given(k=MODULI, phi=st.floats(min_value=0.0, max_value=1.5))
    @settings(max_examples=25, deadline=None)
    def test_E_inc_against_quadrature(self, k, phi):
        val, err = quad(
            lambda t: math.sqrt(1.0 - (k * math.sin(t)) ** 2), 0.0, phi
        )
        assert elliptic.incomplete_E(phi, k) == pytest.approx(val, abs=max(1e-12, 10 * err))

    def test_completion(self):
        for k in (0.3, 0.7):
            assert elliptic.incomplete_F(math.pi / 2.0, k) == pytest.approx(
                elliptic.complete_K(k), rel=1e-12
            )
            assert elliptic.incomplete_E(math.pi / 2.0, k) == pytest.approx(
                elliptic.complete_E(k), rel=1e-12
            )

    def test_hyperbolic_branch(self):
        assert elliptic.incomplete_F(0.5, 1.0) == pytest.approx(math.atanh(math.sin(0.5)))
        assert elliptic.incomplete_E(0.5, 1.0) == pytest.approx(math.sin(0.5))
        with pytest.raises(ValueError):
            elliptic.incomplete_F(math.pi / 2.0, 1.0)


class TestJacobiFunctions:
    @given(k=MODULI, u=st.floats(min_value=-5.0, max_value=5.0))
    @settings(max_examples=50, deadline=None)
    def test_pythagorean_identities(self, k, u):
        sn, cn, dn = elliptic.jacobi_sn_cn_dn(u, k)
        assert sn**2 + cn**2 == pytest.approx(1.0, abs=1e-12)
        assert dn**2 + (k * sn) ** 2 == pytest.approx(1.0, abs=1e-12)

    def test_ode_oracle(self):
        # (sn, cn, dn) solves sn' = cn dn, cn' = -sn dn, dn' = -k^2 sn cn.
        k = 0.6
        sol = solve_ivp(
            lambda t, y: [y[1] * y[2], -y[0] * y[2], -(k**2) * y[0] * y[1]],
            [0.0, 3.0],
            [0.0, 1.0, 1.0],
            rtol=1e-12,
            atol=1e-12,
            dense_output=True,
        )
        for u in (0.5, 1.2, 2.7):
            sn, cn, dn = elliptic.jacobi_sn_cn_dn(u, k)
            ref = sol.sol(u)
            assert sn == pytest.approx(ref[0], abs=1e-10)
            assert cn == pytest.approx(ref[1], abs=1e-10)
            assert dn == pytest.approx(ref[2], abs=1e-10)

    def test_circular_and_hyperbolic_limits(self):
        u = 0.8
        sn0, cn0, dn0 = elliptic.jacobi_sn_cn_dn(u, 0.0)
        assert (sn0, cn0, dn0) == pytest.approx((math.sin(u), math.cos(u), 1.0))
        sn1, cn1, dn1 = elliptic.jacobi_sn_cn_dn(u, 1.0)
        assert (sn1, cn1, dn1) == pytest.approx(
            (math.tanh(u), 1.0 / math.cosh(u), 1.0 / math.cosh(u))
        )

    def test_quarter_period(self):
        for k in (0.3, 0.8):
            K = elliptic.complete_K(k)
            sn, cn, dn = elliptic.jacobi_sn_cn_dn(K, k)
            assert sn == pytest.approx(1.0, abs=1e-12)
            assert cn == pytest.approx(0.0, abs=1e-12)
            assert dn == pytest.approx(complement(k), rel=1e-12)

    def test_vectorized(self):
        u = np.linspace(-2, 2, 11)
        sn, cn, dn = elliptic.jacobi_sn_cn_dn(u, 0.5)
        assert sn.shape == cn.shape == dn.shape == u.shape


class TestInverseDn:
    """dn inverted through inverse_am from the gaps of y (see inverse_dn above)."""

    @given(k=MODULI, frac=st.floats(min_value=0.001, max_value=0.999))
    @settings(max_examples=50, deadline=None)
    def test_round_trip(self, k, frac):
        kp = complement(k)
        y = kp + frac * (1.0 - kp)
        u = inverse_dn(y, k)
        assert 0.0 <= u <= elliptic.complete_K(k, complement(k))
        assert elliptic.jacobi_dn(u, k) == pytest.approx(y, abs=1e-11)

    def test_endpoints(self):
        k = 0.7
        assert inverse_dn(1.0, k) == 0.0
        assert inverse_dn(complement(k), k) == elliptic.complete_K(k, complement(k))

    def test_hyperbolic_closed_form(self):
        # dn(u; 1) = sech u
        assert inverse_dn(0.5, 1.0) == pytest.approx(math.acosh(2.0), rel=1e-15)


class TestInverseDnClosedForm:
    def test_deep_root_near_k_one(self):
        # root u ~ 11.4 close to K, where float spacing exceeds 1e-15;
        # an absolute-tolerance bisection on u never terminates here
        k = 1.0 - 1e-9
        y = complement(k) * (1.0 + 1e-7)
        u = inverse_dn(y, k)
        assert 8.0 <= u <= elliptic.complete_K(k, complement(k))
        assert elliptic.jacobi_dn(u, k) == pytest.approx(y, abs=1e-11)

    @pytest.mark.parametrize("k", [1e-4, 1e-9, 0.0])
    def test_preimage_of_one_is_exactly_zero(self, k):
        # for k < ~1e-8 k' rounds to 1, so y = 1 is both endpoints
        assert inverse_dn(1.0, k) == 0.0

    @pytest.mark.parametrize("k", [0.7, 0.99, 1.0 - 1e-7, 1.0 - 1e-9])
    def test_lower_endpoint_is_exactly_K(self, k):
        # both are R_F(0, k'^2, 1), with no special case at the amplitude pi/2
        assert inverse_dn(complement(k), k) == elliptic.complete_K(k, complement(k))


class TestInverseAm:
    @pytest.mark.parametrize("k", [0.3, 0.9, 1.0 - 1e-7])
    def test_scale_free_and_consistent_with_inverse_dn(self, k):
        kp = complement(k)
        y = 0.5 * (1.0 + kp)
        s, c = math.sqrt((1.0 - y) * (1.0 + y)), math.sqrt((y - kp) * (y + kp))
        u = elliptic.inverse_am(s, c, kp)
        assert elliptic.jacobi_dn(u, k) == pytest.approx(y, rel=1e-12)
        assert elliptic.inverse_am(1e-200 * s, 1e-200 * c, kp) == pytest.approx(u, rel=1e-15)

    def test_endpoints(self):
        assert elliptic.inverse_am(0.0, 1.0, 0.6) == 0.0
        assert elliptic.inverse_am(1.0, 0.0, 0.6) == elliptic.complete_K(0.8, 0.6)

    @pytest.mark.parametrize("s, c", [(-1.0, 1.0), (1.0, -1e-300), (math.nan, 1.0)])
    def test_negative_or_nan_rejected(self, s, c):
        with pytest.raises(ValueError):
            elliptic.inverse_am(s, c, 0.5)
