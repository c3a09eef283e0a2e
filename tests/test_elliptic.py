"""Oracle tests for the elliptic-function layer.

The implementation wraps scipy.special, keyed by k' alone, so every check
here goes through an independent route: arithmetic-geometric mean for K,
direct quadrature for E and E(phi; k), formed from K, F and D as the
package forms them (``legendre_E``, the expression of wave._e_terms), and
an ODE integration and 50-digit mpmath for the Jacobi functions.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad, solve_ivp

from nlsdelta import elliptic
from nlsdelta.wave import WaveParams, build_profile

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


def legendre_E(psi: float, k: float) -> float:
    """E(psi; k) = F(psi; k) - k^2 D(psi; k) from k' alone, the form wave._e_terms evaluates."""
    kp = complement(k)
    s, c = math.sin(psi), math.cos(psi)
    return elliptic.inverse_am(s, c, kp) - k * k * elliptic.incomplete_D(s, c, kp)


def complete_E(k: float) -> float:
    """E(k) = K(k) - k^2 D(k), as wave._e_terms forms it."""
    kp = complement(k)
    return elliptic.complete_K(kp) - k * k * elliptic.incomplete_D(1.0, 0.0, kp)


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
        assert elliptic.complete_K(complement(k)) == pytest.approx(agm_K(k), rel=1e-13)

    @given(k=MODULI)
    @settings(max_examples=25, deadline=None)
    def test_E_against_quadrature(self, k):
        val, err = quad(lambda t: math.sqrt(1.0 - (k * math.sin(t)) ** 2), 0.0, math.pi / 2)
        assert complete_E(k) == pytest.approx(val, abs=max(1e-12, 10 * err))

    @given(k=MODULI)
    @settings(max_examples=25, deadline=None)
    def test_legendre_relation(self, k):
        # E(k)K(k') + E(k')K(k) - K(k)K(k') = pi/2 for all moduli; K is keyed by the
        # complementary modulus, so K(k) = complete_K(k') and K(k') = complete_K(k).
        kp = complement(k)
        lhs = (
            complete_E(k) * elliptic.complete_K(k)
            + complete_E(kp) * elliptic.complete_K(kp)
            - elliptic.complete_K(kp) * elliptic.complete_K(k)
        )
        assert lhs == pytest.approx(math.pi / 2.0, rel=1e-12)

    def test_K_descending_landen(self):
        # K(k) = (1 + k1) K(k1) with k1 = (1 - k')/(1 + k').
        for k in (0.2, 0.5, 0.9):
            kp = complement(k)
            k1 = (1.0 - kp) / (1.0 + kp)
            assert elliptic.complete_K(kp) == pytest.approx(
                (1.0 + k1) * elliptic.complete_K(complement(k1)), rel=1e-13
            )

    def test_degenerate_values(self):
        # E(1) = 1 is K - D with both infinite at k' = 0, so it is read at k' = 1e-150
        assert elliptic.complete_K(1.0) == pytest.approx(math.pi / 2.0)
        assert elliptic.incomplete_D(1.0, 0.0, 1.0) == pytest.approx(math.pi / 4.0)
        assert complete_E(0.0) == pytest.approx(math.pi / 2.0)
        kp = 1e-150
        assert elliptic.complete_K(kp) - elliptic.incomplete_D(1.0, 0.0, kp) == pytest.approx(1.0)

    @pytest.mark.parametrize("kp", [0.5, 1e-2, 1e-4, 2e-6])
    def test_K_from_the_complementary_modulus(self, kp):
        # near k = 1 only kp holds k'^2: K read from k would drift by ~eps/kp^2 (1e-6
        # relative at kp = 2e-6), K read from kp keeps full accuracy
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            expected = float(mpmath.ellipk(1 - mpmath.mpf(kp) ** 2))
        assert elliptic.complete_K(kp) == pytest.approx(expected, rel=1e-15)

    def test_K_raises_at_one(self):
        # k = 1 is k' = 0, where K is infinite
        with pytest.raises(ValueError):
            elliptic.complete_K(0.0)

    def test_modulus_domain(self):
        # a negative or NaN k' is refused; one that rounds above 1 is k = 0
        for bad in (-0.1, math.nan):
            with pytest.raises(ValueError):
                elliptic.complete_K(bad)
        assert elliptic.complete_K(1.0 + 2.0**-52) == pytest.approx(math.pi / 2.0, rel=1e-15)


class TestIncompleteIntegrals:
    @given(k=MODULI, phi=st.floats(min_value=0.0, max_value=1.5))
    @settings(max_examples=25, deadline=None)
    def test_E_inc_against_quadrature(self, k, phi):
        val, err = quad(
            lambda t: math.sqrt(1.0 - (k * math.sin(t)) ** 2), 0.0, phi
        )
        assert legendre_E(phi, k) == pytest.approx(val, abs=max(1e-12, 10 * err))

    def test_completion(self):
        for k in (0.3, 0.7):
            assert legendre_E(math.pi / 2.0, k) == pytest.approx(complete_E(k), rel=1e-12)

    def test_hyperbolic_branch(self):
        # E(psi; 1) = sin psi: at k' = 0, F = atanh(sin psi) is finite below pi/2
        assert legendre_E(0.5, 1.0) == pytest.approx(math.sin(0.5))


class TestJacobiFunctions:
    @given(k=MODULI, u=st.floats(min_value=-5.0, max_value=5.0))
    @settings(max_examples=50, deadline=None)
    def test_pythagorean_identities(self, k, u):
        sn, cn, dn = elliptic.jacobi_sn_cn_dn(u, complement(k))
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
            sn, cn, dn = elliptic.jacobi_sn_cn_dn(u, complement(k))
            ref = sol.sol(u)
            assert sn == pytest.approx(ref[0], abs=1e-10)
            assert cn == pytest.approx(ref[1], abs=1e-10)
            assert dn == pytest.approx(ref[2], abs=1e-10)

    def test_circular_and_hyperbolic_limits(self):
        u = 0.8
        sn0, cn0, dn0 = elliptic.jacobi_sn_cn_dn(u, complement(0.0))
        assert (sn0, cn0, dn0) == pytest.approx((math.sin(u), math.cos(u), 1.0))
        sn1, cn1, dn1 = elliptic.jacobi_sn_cn_dn(u, complement(1.0))
        assert (sn1, cn1, dn1) == pytest.approx(
            (math.tanh(u), 1.0 / math.cosh(u), 1.0 / math.cosh(u))
        )

    def test_quarter_period(self):
        for k in (0.3, 0.8):
            K = elliptic.complete_K(complement(k))
            sn, cn, dn = elliptic.jacobi_sn_cn_dn(K, complement(k))
            assert sn == pytest.approx(1.0, abs=1e-12)
            assert cn == pytest.approx(0.0, abs=1e-12)
            assert dn == pytest.approx(complement(k), rel=1e-12)

    def test_vectorized(self):
        u = np.linspace(-2, 2, 11)
        sn, cn, dn = elliptic.jacobi_sn_cn_dn(u, complement(0.5))
        assert sn.shape == cn.shape == dn.shape == u.shape

    @pytest.mark.parametrize("half_period", [12.0, 14.0, 16.0, 19.0, 21.0, 26.0, 40.0])
    @pytest.mark.parametrize("z", [1.0, -1.0])
    def test_near_k_one_against_mpmath(self, z, half_period):
        # at the k' of the near-solitary profile ladder (1e-5 down to 1e-17, omega = 1): below
        # K/2 only the rounding of m = 1 - k'^2 is left, worst (1.3e-9) near k' = 5e-9
        mpmath = pytest.importorskip("mpmath")
        kp = build_profile(WaveParams(1.0, z, half_period), n=128).orbit.kp
        u = 0.5 * elliptic.complete_K(kp) * np.linspace(-1.0, 1.0, 40)  # mpmath sn(0) is not 0
        got = elliptic.jacobi_sn_cn_dn(u, kp)
        with mpmath.workdps(50):
            m = 1 - mpmath.mpf(kp) ** 2
            for name, values in zip(("sn", "cn", "dn"), got):
                expected = [float(mpmath.ellipfun(name, mpmath.mpf(v), m=m)) for v in u]
                assert values == pytest.approx(expected, rel=2e-9, abs=0.0)

    @pytest.mark.parametrize("u", [0.0, 0.3, -1.3, 2.0, 7.5])
    def test_kp_rounded_above_one_is_circular(self, u):
        # k' = eta2/eta1 rounds to 1 + 2^-52 near the threshold; m = 1 - k'^2 < 0 would be nan
        assert elliptic.jacobi_sn_cn_dn(u, 1.0 + 2.0**-52) == (math.sin(u), math.cos(u), 1.0)

    @pytest.mark.parametrize("kp", [-0.1, math.nan])
    def test_negative_or_nan_kp_rejected(self, kp):
        with pytest.raises(ValueError):
            elliptic.jacobi_sn_cn_dn(0.5, kp)


class TestInverseDn:
    """dn inverted through inverse_am from the gaps of y (see inverse_dn above)."""

    @given(k=MODULI, frac=st.floats(min_value=0.001, max_value=0.999))
    @settings(max_examples=50, deadline=None)
    def test_round_trip(self, k, frac):
        kp = complement(k)
        y = kp + frac * (1.0 - kp)
        u = inverse_dn(y, k)
        assert 0.0 <= u <= elliptic.complete_K(complement(k))
        assert elliptic.jacobi_sn_cn_dn(u, complement(k))[2] == pytest.approx(y, abs=1e-11)

    def test_endpoints(self):
        k = 0.7
        assert inverse_dn(1.0, k) == 0.0
        assert inverse_dn(complement(k), k) == elliptic.complete_K(complement(k))

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
        assert 8.0 <= u <= elliptic.complete_K(complement(k))
        assert elliptic.jacobi_sn_cn_dn(u, complement(k))[2] == pytest.approx(y, abs=1e-11)

    @pytest.mark.parametrize("k", [1e-4, 1e-9, 0.0])
    def test_preimage_of_one_is_exactly_zero(self, k):
        # for k < ~1e-8 k' rounds to 1, so y = 1 is both endpoints
        assert inverse_dn(1.0, k) == 0.0

    @pytest.mark.parametrize("k", [0.7, 0.99, 1.0 - 1e-7, 1.0 - 1e-9])
    def test_lower_endpoint_is_exactly_K(self, k):
        # both are R_F(0, k'^2, 1), with no special case at the amplitude pi/2
        assert inverse_dn(complement(k), k) == elliptic.complete_K(complement(k))


class TestInverseAm:
    @pytest.mark.parametrize("k", [0.3, 0.9, 1.0 - 1e-7])
    def test_scale_free_and_consistent_with_inverse_dn(self, k):
        kp = complement(k)
        y = 0.5 * (1.0 + kp)
        s, c = math.sqrt((1.0 - y) * (1.0 + y)), math.sqrt((y - kp) * (y + kp))
        u = elliptic.inverse_am(s, c, kp)
        assert elliptic.jacobi_sn_cn_dn(u, kp)[2] == pytest.approx(y, rel=1e-12)
        assert elliptic.inverse_am(1e-200 * s, 1e-200 * c, kp) == pytest.approx(u, rel=1e-15)

    def test_endpoints(self):
        assert elliptic.inverse_am(0.0, 1.0, 0.6) == 0.0
        assert elliptic.inverse_am(1.0, 0.0, 0.6) == elliptic.complete_K(0.6)

    @pytest.mark.parametrize("s, c", [(-1.0, 1.0), (1.0, -1e-300), (math.nan, 1.0)])
    def test_negative_or_nan_rejected(self, s, c):
        with pytest.raises(ValueError):
            elliptic.inverse_am(s, c, 0.5)
