"""Dnoidal-peak standing-wave profiles with a point defect at x = 0.

A standing wave u(x,t) = e^{i omega t} phi(x) of

    i u_t + u_xx + Z delta(x) u + |u|^2 u = 0,   x in [-L, L] periodic,

has a real profile solving -phi'' + omega phi - phi^3 = 0 away from 0
together with the corner condition phi'(0+) - phi'(0-) = -Z phi(0).
Away from the defect the profile rides the classical dnoidal orbit

    2 (phi')^2 = (eta1^2 - phi^2)(phi^2 - eta2^2),
    eta1^2 + eta2^2 = 2 omega,

and the defect is absorbed by the signed shift s = copysign(a, Z):

    phi(x) = eta1 * dn(eta1 |x|/sqrt2 + s; k),   T = 2 sqrt2/eta1 * [K(k) - s],

a peak at 0 for Z > 0 and a trough for Z < 0, with modulus k^2 =
(eta1^2 - eta2^2)/eta1^2 and a >= 0 set by |Z|: the sign of Z enters the
profile, the period and its threshold only through s.  The free parameter
eta2 is pinned down by requiring the minimal period to equal the cell
length 2L.  The peak map T_-(eta2) (Z>0) is strictly decreasing; the trough
map T_+(eta2) (Z<0) is observed numerically to dip below its endpoint limit
T1 before rising back to it, so the solve targets the decreasing branch
where the root is unique (see solve_eta2).

Existence thresholds: T0 = T_-(theta) and T1 = T_+(theta) are the same
period body at the closed end eta2 = theta (see _orbit), so a peak wave of
period 2L exists iff 2L > T0 (with omega > Z^2/4), and the trough solve asks
2L > T1 to stay on the decreasing branch of T_+.  The separate
small-defect continuation condition omega > pi^2/(2 L^2) is computed and
reported as a diagnostic flag, but deliberately does not veto
construction: profiles at moderate Z exist well below it.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from enum import Enum
from functools import cache, cached_property

import numpy as np
from numpy.typing import NDArray

from . import elliptic
from .errors import AdmissibilityError, NumericsError
from .rootfind import newton

__all__ = [
    "SignBranch",
    "WaveParams",
    "WaveProfile",
    "theta_admissible",
    "phi_at_zero",
    "period_minus",
    "period_plus",
    "threshold_T0",
    "threshold_T1",
    "period_threshold",
    "period_residual",
    "solve_eta2",
    "build_profile",
    "solitary_profile",
    "solitary_limit_check",
]

_SQRT2 = math.sqrt(2.0)

# Bracket shrink factor for the eta2 solve, relative to theta(omega, Z).
_ETA2_BRACKET_EPS = 1e-12

# Maximum allowed |T - 2L| after the period solve.  Newton stops at
# xtol 1e-12 in log eta2; this guard only has to sit above the
# evaluation noise of the period map near its root.
PERIOD_RESIDUAL_TOL = 5e-12


class SignBranch(str, Enum):
    PLUS_SHIFT = "plus_shift"    # Z > 0, peak at the defect
    MINUS_SHIFT = "minus_shift"  # Z < 0, trough at the defect
    CLASSIC = "classic"          # Z = 0, plain dnoidal


@dataclass(frozen=True)
class WaveParams:
    """Parameter triple (omega, Z, L) of a standing wave with period 2L."""

    omega: float
    z: float
    halfperiod: float

    def __post_init__(self) -> None:
        for name in ("omega", "z", "halfperiod"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise AdmissibilityError(f"{name} must be finite, got {value!r}")
        if not self.halfperiod > 0.0:
            raise AdmissibilityError(f"halfperiod must be positive, got {self.halfperiod!r}")
        if not self.omega > self.z * self.z / 4.0:
            raise AdmissibilityError(
                f"omega={self.omega!r} violates omega > Z^2/4 = {self.z * self.z / 4.0!r}"
            )

    @property
    def small_z_continuation_ok(self) -> bool:
        """Whether omega > pi^2/(2 L^2), the hypothesis under which the
        wave family continues down to Z = 0 (and the Z = 0 dnoidal of
        period 2L exists at all)."""
        return self.omega > math.pi**2 / (2.0 * self.halfperiod**2)


def theta_admissible(omega: float, z: float) -> float:
    """Upper end theta = sqrt(omega - Z^2/8) - sqrt2 |Z|/4 of the admissible eta2 in (0, theta],
    formed as (omega - Z^2/4)/(sqrt(omega - Z^2/8) + sqrt2 |Z|/4), free of the difference."""
    disc = omega - z * z / 8.0
    if disc <= 0.0:
        raise AdmissibilityError(f"omega={omega!r} too small for |Z|={abs(z)!r}")
    return (omega - 0.25 * z * z) / (math.sqrt(disc) + (_SQRT2 / 4.0) * abs(z))


def _check_eta2(eta2: float, omega: float, z: float) -> float:
    th = theta_admissible(omega, z)
    if not 0.0 < eta2 <= th:
        raise AdmissibilityError(f"eta2={eta2!r} outside the admissible interval (0, {th!r}] "
                                 f"for omega={omega!r}, Z={z!r}")
    return th


def _orbit(eta2: float, omega: float, z: float) -> tuple[float, ...]:
    """The orbit fixed by eta2 in (0, theta]: (eta1, k, Phi, a, psi, spread, s, upper, lower).

    eta1^2 = 2 omega - eta2^2, spread = eta1^2 - eta2^2 = k^2 eta1^2, Phi is
    phi_at_zero's root and the shift a = F(psi; k) = dn^{-1}(Phi/eta1; k) lies
    in [0, K(k)].  On g = theta^2 - eta2^2 = (theta - eta2)(theta + eta2) and
    r = sqrt(2 omega - Z^2/4), the discriminant s^2 and the gaps eta1^2 - Phi^2 =
    Z^2 upper and Phi^2 - eta2^2 = lower are sums of non-negative terms,

        spread = 2g + |Z| r,  s^2 = spread^2 - Z^2 r^2 = 2g (spread + |Z| r),
        upper = [1/2 + r^2/(s + spread)]/2,
        lower = [spread - Z^2/2 + s]/2 = g + |Z| (omega - Z^2/4)/(r + |Z|/2) + s/2,

    so s > 0 inside (0, theta), s = 0 at theta (the threshold), and a and
    psi = am(a; k), sin psi : cos psi = |Z| sqrt(upper) : sqrt(lower), keep
    full relative accuracy as Z -> 0.  Z = 0 stops after k: Phi = eta1 and
    a = psi = s = upper = lower = 0.
    """
    th = _check_eta2(eta2, omega, z)
    eta1_sq = 2.0 * omega - eta2 * eta2
    gap = (th - eta2) * (th + eta2)
    r = math.sqrt(2.0 * omega - 0.25 * z * z)
    zr = abs(z) * r
    spread = 2.0 * gap + zr
    if not 0.0 < spread < math.inf:  # also where 2 omega overflows
        raise NumericsError(f"eta1^2 - eta2^2 = {spread!r} over- or underflowed at omega={omega!r}")
    eta1 = math.sqrt(eta1_sq)
    k = math.sqrt(min(spread / eta1_sq, 1.0))  # k^2 = 1 - k'^2 may round above 1
    if z == 0.0:
        return eta1, k, eta1, 0.0, 0.0, spread, 0.0, 0.0, 0.0
    s = math.sqrt(2.0 * gap) * math.sqrt(spread + zr)
    upper = 0.5 * (0.5 + r * r / (s + spread))
    lower = gap + abs(z) * ((omega - 0.25 * z * z) / (r + 0.5 * abs(z))) + 0.5 * s
    sin_psi, cos_psi = abs(z) * math.sqrt(upper), math.sqrt(lower)  # each times sqrt(spread)
    if not sin_psi + cos_psi < math.inf:
        raise NumericsError(f"phi(0) gaps overflowed at omega={omega!r}, Z={z!r}")
    a = elliptic.inverse_am(sin_psi, cos_psi, eta2 / eta1)  # k' holds what a double k near 1 cannot
    psi = math.atan2(sin_psi, cos_psi)
    return eta1, k, math.sqrt(eta1_sq - z * z * upper), a, psi, spread, s, upper, lower


def phi_at_zero(eta2: float, omega: float, z: float) -> float:
    """Defect value Phi(eta2, omega, Z) = phi(0) on the physical branch (see _orbit).

    The larger root of (Z^2/4) Phi^2 = (eta1^2 - Phi^2)(Phi^2 - eta2^2)/2,
    the one compatible with the peak/trough geometry.
    """
    return _orbit(eta2, omega, z)[2]


def _period(eta2: float, omega: float, z: float) -> tuple[float, float, tuple[float, ...]]:
    """(T, K(k), orbit) at eta2 in (0, theta]: T = 2 sqrt2/eta1 [K(k) - copysign(a, Z)],
    T_- for Z > 0 (and +0.0), T_+ for Z < 0; the orbit depends on |Z| only."""
    orbit = _orbit(eta2, omega, z)
    eta1, k, _, a = orbit[:4]
    kp = eta2 / eta1
    if not kp * kp >= sys.float_info.min:  # the least normal double
        raise NumericsError(f"k'^2 = (eta2/eta1)^2 = {kp * kp!r} underflows at eta2={eta2!r} (omega="
                            f"{omega!r}, Z={z!r}): K(k) cannot be formed this near the solitary limit")
    big_k = elliptic.complete_K(k, kp)
    return (2.0 * _SQRT2 / eta1) * (big_k - math.copysign(a, z)), big_k, orbit


def _period_and_slope(eta2: float, omega: float, z: float) -> tuple[float, float]:
    """(T, dT/deta2) of the period map on the branch of the sign of Z, both in closed form."""
    period, big_k, orbit = _period(eta2, omega, z)
    return period, _slope_terms(eta2, omega, z, period, big_k, orbit)[0]


def _slope_terms(eta2: float, omega: float, z: float, period: float, big_k: float,
                 orbit: tuple[float, ...]) -> tuple[float, ...]:
    """(dT/deta2, d_k, psi', sc, E(k), E(psi; k)) at fixed omega from _period's (T, K, orbit).

    d_k is the k-part of d[K - copysign(a, Z)]/deta2.  dk/deta2 = -2 eta2 omega/(k eta1^4),
    dK/dk (DLMF 19.4.1), dF/dk (19.4.2) and dF/dpsi = eta1/Phi for a = F(psi; k) give with
    c = -2 omega/(spread eta2):

        dK/deta2 = c [E - k'^2 K],
        da/deta2 = c [E(psi; k) - k'^2 a] + (sc 2 omega/(eta2 eta1) + eta1 psi')/Phi,
        psi' = sc (eta2/s) [2 - 1/(2 upper) + (spread + s)/lower],  sc = sin psi cos psi,

    free of 1/sin psi, so the a-terms vanish with Z instead of underflowing.
    """
    eta1, k, phi, a, psi, spread, s, upper, lower = orbit
    c = -2.0 * omega / (spread * eta2)
    if c == 0.0:  # spread eta2 ~ eta1^3
        raise NumericsError(f"eta1^3 overflowed in double precision at omega={omega!r}")
    sigma = -math.copysign(1.0, z)  # multiplies a and da/deta2 alike
    kp_sq = (eta2 / eta1) ** 2
    big_e = elliptic.complete_E(k)
    d_k = c * (big_e - kp_sq * big_k)
    sc = d_psi = e_psi = 0.0
    if z != 0.0:
        if s == 0.0:
            raise NumericsError(f"dT/deta2 is infinite at eta2=theta={eta2!r}, omega={omega!r}")
        sc = abs(z) * math.sqrt(upper) * math.sqrt(lower) / spread
        d_psi = sc * (eta2 / s) * (2.0 - 0.5 / upper + (spread + s) / lower)
        e_psi = elliptic.incomplete_E(psi, k)
        d_k += sigma * (c * (e_psi - kp_sq * a) + sc * 2.0 * omega / (eta2 * eta1 * phi))
    d_t = period * eta2 / eta1**2 + 2.0 * _SQRT2 * (d_k + sigma * eta1 * d_psi / phi) / eta1
    return d_t, d_k, d_psi, sc, big_e, e_psi


def _norm_slope(profile: WaveProfile, norm: float) -> tuple[float, float, float]:
    """(dN/domega, T_2, deta2/domega = -T_w/T_2) along T(eta2, omega) = 2L at build_profile's root.

    dN/domega = N_w + N_2 deta2/domega for N = 2 sqrt2 eta1 [E(k) - copysign(E(psi; k), Z)] =
    norm; _2 and _w are partials at fixed omega and fixed eta2.  A k-term's _w is -eta2/(2 omega)
    times its _2, eta1's is -1/eta2 times; dE/dk = (E - K)/k, dE(psi; k)/dk = (E(psi; k) - a)/k,
    dE(psi; k)/dpsi = Phi/eta1 and, on _orbit's gaps with r^2 = 2 omega - Z^2/4,
    psi_w = -(sc/s) [1 + eta2^2 r^2/((s + spread)(lower + 2 eta2^2) upper)].
    """
    omega, z = profile.params.omega, profile.params.z
    eta2, _, period, big_k, orbit = profile.root
    eta1, _, phi, a, _, spread, s, upper, lower = orbit
    d_t, d_k, d_psi, sc, big_e, e_psi = _slope_terms(eta2, omega, z, period, big_k, orbit)
    if d_t == 0.0:
        raise NumericsError(f"dT/deta2 vanished at the root eta2={eta2!r}, omega={omega!r}")
    sigma, w = -math.copysign(1.0, z), -0.5 * eta2 / omega
    d_psi_w = 0.0 if z == 0.0 else -(sc / s) * (1.0 + eta2**2 * (2.0 * omega - 0.25 * z * z)
                                                / ((s + spread) * (lower + 2.0 * eta2**2) * upper))
    t_w = -period / eta1**2 + 2.0 * _SQRT2 * (w * d_k + sigma * eta1 * d_psi_w / phi) / eta1
    n_k = -4.0 * _SQRT2 * omega * eta2 * (big_e - big_k + sigma * (e_psi - a)) / (spread * eta1)
    n_2 = -norm * eta2 / eta1**2 + n_k + 2.0 * _SQRT2 * sigma * phi * d_psi
    n_w = norm / eta1**2 + w * n_k + 2.0 * _SQRT2 * sigma * phi * d_psi_w
    deta2 = -t_w / d_t
    return n_w + n_2 * deta2, d_t, deta2


def period_minus(eta2: float, omega: float, z: float) -> float:
    """Minimal period T_- = 2 sqrt2/eta1 * [K(k) - a] of the Z > 0 peak profile.

    Strictly decreasing in eta2, diverging as eta2 -> 0 and equal to the
    threshold T0(omega, Z) at eta2 = theta(omega, Z).
    """
    return _period(eta2, omega, abs(z))[0]


def period_plus(eta2: float, omega: float, z: float) -> float:
    """Minimal period T_+ = 2 sqrt2/eta1 * [K(k) + a] of the Z < 0 trough profile.

    Diverges as eta2 -> 0 and equals T1(omega, Z) at eta2 = theta,
    but is *not* monotone: it passes through an interior minimum below
    T1 before climbing back (cross-checked against direct ODE
    integration of the profile equation).  Only the initial decreasing
    branch is used by solve_eta2.
    """
    return _period(eta2, omega, -abs(z))[0]


def period_threshold(omega: float, z: float) -> float:
    """T0 for Z >= 0, T1 for Z < 0: the period map of the sign of Z at eta2 = theta.

    There _orbit's gap theta^2 - eta2^2 and s are 0 and the body is exact, so the
    threshold costs one orbit and one K, no slope.  Z = 0 is classical: sqrt2 pi/sqrt(omega).
    """
    if not omega > z * z / 4.0:
        raise AdmissibilityError(f"omega={omega!r} violates omega > Z^2/4")
    if z == 0.0:
        return _SQRT2 * math.pi / math.sqrt(omega)
    return _period(theta_admissible(omega, z), omega, z)[0]


def threshold_T0(omega: float, z: float) -> float:
    """Existence threshold T0(omega, Z) = T_-(theta), read from the period body at theta.

    There dn^2(a0; k0) = (omega - Z^2/4)/lambda^2 = theta/lambda = k0' (lambda = eta1(theta)),
    so a0 = K(k0)/2 and T0 = sqrt2 K(k0)/lambda.  Decreasing in omega.  Discontinuous at
    Z = 0: k0 -> 0, so T0 -> sqrt2 pi/(2 sqrt omega), *half* the classical threshold
    sqrt2 pi/sqrt(omega) returned at Z = 0 exactly.
    """
    return period_threshold(omega, abs(z))


def threshold_T1(omega: float, z: float) -> float:
    """Trough-branch threshold T1 = T_+(theta) = 3 T0, since a0 = K(k0)/2 (see threshold_T0).

    Discontinuous at Z = 0 like T0: T1 -> (3/2) sqrt2 pi/sqrt(omega) as Z -> 0.
    """
    return period_threshold(omega, -abs(z))


def period_residual(params: WaveParams, eta2: float) -> float:
    """|T(eta2) - 2L| on the branch of the sign of Z (see _period)."""
    return abs(_period(eta2, params.omega, params.z)[0] - 2.0 * params.halfperiod)


def solve_eta2(params: WaveParams) -> float:
    """The eta2 with minimal period equal to the cell length 2L.

    Bracketed Newton in log eta2 on the initial decreasing branch of the
    period map, where the root is unique; raises an admissibility error
    (reporting the threshold) when 2L does not exceed T0, resp. T1 (see
    period_plus: rising-branch trough waves are deliberately not constructed).
    """
    return _solve(params)[0]


def _solve(params: WaveParams) -> tuple:
    """solve_eta2's root and what its residual check formed there: (eta2, |T-2L|, T, K, orbit)."""
    omega, z, L = params.omega, params.z, params.halfperiod
    target = 2.0 * L
    thresh = period_threshold(omega, z)
    if not target > thresh and z >= 0.0:  # T_- falls strictly from inf to T0
        raise AdmissibilityError(
            f"no wave of period 2L={target!r}: requires 2L > T0(omega,Z)={thresh!r}")
    if not target > thresh:
        raise AdmissibilityError(
            f"2L={target!r} does not exceed T1(omega,Z)={thresh!r}, which the trough solve "
            f"requires to stay on the decreasing branch of T_+ (rising-branch waves are not built)")
    # t = log eta2, where T is nearly linear as eta2 -> 0; a last step below xtol leaves
    # an error of order its square, far below the noise of T that a smaller xtol chases.
    # Memoised, so the bracket ends found below are not evaluated again by newton.
    @cache
    def fdf(t: float) -> tuple[float, float]:
        eta2 = math.exp(t)
        period, slope = _period_and_slope(eta2, omega, z)
        return period - target, eta2 * slope

    upper = theta_admissible(omega, z)
    # period decreasing: above the target near 0 (divergence), below it near theta.
    hi = upper - _ETA2_BRACKET_EPS * upper
    if fdf(math.log(hi))[0] > 0.0:
        raise NumericsError(
            f"period solve lost its bracket: T still exceeds 2L={target!r} at eta2={hi!r}, so it "
            f"falls from there to {'T0' if z >= 0.0 else 'T1'}(omega,Z)={thresh!r} within a "
            f"relative {_ETA2_BRACKET_EPS} of theta={upper!r}, below the eta2 solve's resolution")
    # Walk the lower end down geometrically until the period exceeds the target; where it
    # never does, _period's k'^2 underflow refusal ends the walk.
    lo = 0.5 * upper
    while fdf(math.log(lo))[0] <= 0.0:
        lo *= 0.5
    eta2 = math.exp(newton(fdf, math.log(lo), math.log(hi), xtol=1e-12))
    period, big_k, orbit = _period(eta2, omega, z)
    resid = abs(period - target)
    if resid > PERIOD_RESIDUAL_TOL:
        raise NumericsError(
            f"period residual {resid!r} exceeds {PERIOD_RESIDUAL_TOL} at eta2={eta2!r}"
        )
    return eta2, resid, period, big_k, orbit


def _dnoidal(xs, profile: WaveProfile) -> tuple[NDArray[np.float64], ...]:
    """(sn cn, dn)(u; k) at the profile's argument u = eta1 |x|/sqrt2 + shift.

    |u| > K/2 is read at v = K - |u| through dn(K - v) = k'/dn v, sn(K - v) = cn v/dn v and
    cn(K - v) = k' sn v/dn v (DLMF Table 22.4.3), K the orbit's and not L's, so dn keeps its
    relative accuracy up to the cell edge, where dn = k' lies below the rounding of k^2.
    """
    big_k = elliptic.complete_K(profile.k, profile.kp)
    u = (profile.eta1 / _SQRT2) * np.abs(np.asarray(xs, dtype=float)) + profile.shift
    w = np.abs(u)
    far = w > 0.5 * big_k
    sn, cn, dn = elliptic.jacobi_sn_cn_dn(np.where(far, big_k - w, w), profile.k)
    reflect = np.where(far, profile.kp / (dn * dn), 1.0)  # dn(K - v)/dn(v); sn cn is odd in u
    return np.copysign(sn * cn * reflect, u), dn * reflect


@dataclass(frozen=True)
class WaveProfile:
    """A standing-wave profile: its orbit, the sign of Z and a grid size n.

    The orbit is (eta1, eta2, k, a, psi), psi = am(a; k) the shift's amplitude.
    ``evaluate``/``derivative`` give the closed form anywhere (phi'(0) is
    right-sided); ``x``/``samples`` sample it on first read on the (n+1)-point
    grid over [-L, L], nodes at 0 and +-L.
    """

    params: WaveParams
    eta1: float
    eta2: float
    k: float
    a: float
    psi: float
    n: int
    root: tuple = field(default=(), repr=False, compare=False)  # build_profile's _solve

    @property
    def shift(self) -> float:
        """The signed shift: +a on the peak branch (Z > 0), -a on the trough branch."""
        return math.copysign(self.a, self.params.z)

    @property
    def sign_branch(self) -> SignBranch:
        if self.params.z == 0.0:
            return SignBranch.CLASSIC
        return SignBranch.PLUS_SHIFT if self.params.z > 0.0 else SignBranch.MINUS_SHIFT

    @property
    def kp(self) -> float:
        """k' = eta2/eta1, which a double k near 1 cannot hold; 0 is the solitary limit."""
        return self.eta2 / self.eta1

    @cached_property
    def x(self) -> NDArray[np.float64]:
        return np.linspace(-self.params.halfperiod, self.params.halfperiod, self.n + 1)

    @cached_property
    def samples(self) -> NDArray[np.float64]:
        return self.evaluate(self.x)

    @cached_property
    def phi0(self) -> float:
        """phi(0), bit for bit the sample at the node x = 0 the profile file holds."""
        return float(self.evaluate(0.0))

    def evaluate(self, xs) -> NDArray[np.float64]:
        """The closed form at xs; raises if a value escapes the band [eta2, eta1]."""
        phi = self.eta1 * _dnoidal(xs, self)[1]
        lo, hi = self.eta2 - 1e-9 * self.eta1, self.eta1 * (1.0 + 1e-12)
        if not np.all((phi >= lo) & (phi <= hi)):
            raise NumericsError("profile escaped the band [eta2, eta1]")
        return phi

    def derivative(self, xs) -> NDArray[np.float64]:
        """Closed-form phi'(x); uses dn' = -k^2 sn cn and the |x| chain rule."""
        sgn = np.where(np.asarray(xs) >= 0.0, 1.0, -1.0)
        return -(self.eta1**2 / _SQRT2) * self.k**2 * _dnoidal(xs, self)[0] * sgn

    def diagnostics(self) -> dict:
        """Residuals of the defining identities, computed numerically.

        - pde_residual: max |-phi'' + omega phi - phi^3| on interior
          nodes away from 0 and the endpoints, 5-point centered
          differences (the 3-point stencil's roundoff floor
          eps*phi/h^2 sits above 1e-5 at the frequencies of interest,
          masking the construction error this residual measures);
        - jump_residual: |phi'(0+) + (Z/2) phi(0)| from 5-point
          one-sided stencils at the defect;
        - endpoint_residual: |phi(+-L) - eta2| (trough value is attained
          at the cell edge on both branches);
        - quadrature_residual: max |(phi')^2 - F(phi)/2| with the
          closed-form derivative;
        - derivative_symmetry: |phi'(0+) + phi'(0-)| (stencil).
        """
        x, phi = self.x, self.samples
        h = x[1] - x[0]
        omega, z = self.params.omega, self.params.z
        n0 = len(x) // 2  # defect node
        second = (
            -phi[:-4] + 16.0 * phi[1:-3] - 30.0 * phi[2:-2] + 16.0 * phi[3:-1] - phi[4:]
        ) / (12.0 * h**2)
        pde = -second + omega * phi[2:-2] - phi[2:-2] ** 3
        interior = np.ones(len(pde), dtype=bool)
        interior[n0 - 4 : n0 + 1] = False  # stencils touching the corner
        fwd = np.array([-25.0, 48.0, -36.0, 16.0, -3.0]) / (12.0 * h)
        dplus = float(fwd @ phi[n0 : n0 + 5])
        dminus = -float(fwd @ phi[n0 : n0 - 5 : -1])
        dphi = self.derivative(x)
        quad = dphi**2 - 0.5 * (self.eta1**2 - phi**2) * (phi**2 - self.eta2**2)
        return {
            "pde_residual": float(np.max(np.abs(pde[interior]))),
            "jump_residual": float(abs(dplus + 0.5 * z * self.phi0)),
            "endpoint_residual": float(
                max(abs(phi[0] - self.eta2), abs(phi[-1] - self.eta2))
            ),
            "quadrature_residual": float(np.max(np.abs(quad))),
            "derivative_symmetry": float(abs(dplus + dminus)),
            "small_z_continuation_ok": self.params.small_z_continuation_ok,
        }


def build_profile(params: WaveParams, n: int = 4096) -> WaveProfile:
    """Construct the standing-wave profile of period 2L at (omega, Z, L).

    Solves the period equation for eta2 and validates the structural
    invariants of the orbit before returning; n (a power of two >= 128)
    sets the grid of ``x``/``samples``, which are sampled only if read.
    """
    if n < 128 or n & (n - 1) != 0:
        raise AdmissibilityError(f"grid size must be a power of two >= 128, got n={n}")
    omega, z = params.omega, params.z
    root = _solve(params)
    eta2, _, _, big_k, (eta1, k, _, a, psi, *_) = root
    profile = WaveProfile(params, eta1, eta2, k, a, psi, n, root)
    if abs(eta1**2 + eta2**2 - 2.0 * omega) > 1e-10 * (1.0 + 2.0 * omega):
        raise NumericsError("eta1^2 + eta2^2 = 2 omega violated")
    if not eta1 - eta2 > abs(z) / _SQRT2:
        raise NumericsError("separation eta1 - eta2 > |Z|/sqrt2 violated")
    # a > 0 is the computed gap eta1^2 - Phi^2 > 0, also where phi0 rounds to eta1.
    if z != 0.0 and not (eta2 < profile.phi0 <= eta1 and a > 0.0):
        raise NumericsError("defect value phi(0) escaped (eta2, eta1)")
    if not 0.0 <= a <= big_k:
        raise NumericsError("shift a escaped [0, K(k)]")
    return profile


def solitary_profile(omega: float, z: float, xs) -> NDArray[np.float64]:
    """The solitary (infinite-period) limit profile sqrt(2 omega) sech(sqrt(omega)|x| + b).

    b = atanh(Z/(2 sqrt(omega))); this is the eta2 -> 0 limit of the
    periodic family at fixed (omega, Z).
    """
    if not omega > z * z / 4.0:
        raise AdmissibilityError(f"omega={omega!r} violates omega > Z^2/4")
    b = math.atanh(z / (2.0 * math.sqrt(omega)))
    xs = np.asarray(xs, dtype=float)
    return math.sqrt(2.0 * omega) / np.cosh(math.sqrt(omega) * np.abs(xs) + b)


def solitary_limit_check(
    omega: float,
    z: float,
    eta2_ladder: tuple[float, ...] = (1e-2, 1e-3, 1e-4, 1e-5),
    window: float = 1.0,
    n: int = 2048,
) -> dict:
    """Convergence report of the free-period profiles to the sech limit.

    For each eta2 in the (decreasing) ladder, views the orbit as a
    WaveProfile on n intervals over |x| <= window and reports its signed
    shift and sup distance to ``solitary_profile``; the shifts must
    approach atanh(Z/(2 sqrt omega)) and the sup errors must decrease.
    """
    view = WaveParams(omega, z, window)  # checks omega > Z^2/4
    a_limit = math.atanh(z / (2.0 * math.sqrt(omega)))
    shifts, sups = [], []
    for eta2 in eta2_ladder:
        eta1, k, _, a, psi = _orbit(eta2, omega, z)[:5]
        profile = WaveProfile(view, eta1, eta2, k, a, psi, n)
        shifts.append(profile.shift)
        target = solitary_profile(omega, z, profile.x)
        sups.append(float(np.max(np.abs(profile.samples - target))))
    return {
        "eta2_ladder": list(eta2_ladder),
        "shift_values": shifts,
        "shift_limit": a_limit,
        "sup_errors": sups,
        "monotone_decreasing": all(b < a for a, b in zip(sups, sups[1:])),
    }
