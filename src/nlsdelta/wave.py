"""Dnoidal-peak standing-wave profiles with a point defect at x = 0.

A standing wave u(x,t) = e^{i omega t} phi(x) of

    i u_t + u_xx + Z delta(x) u + |u|^2 u = 0,   x in [-L, L] periodic,

has a real profile solving -phi'' + omega phi - phi^3 = 0 away from 0 with the
corner condition phi'(0+) - phi'(0-) = -Z phi(0).  Away from the defect it rides
the classical dnoidal orbit 2 (phi')^2 = (eta1^2 - phi^2)(phi^2 - eta2^2),
eta1^2 + eta2^2 = 2 omega, and the defect is absorbed by the signed shift
s = copysign(a, Z):

    phi(x) = eta1 * dn(eta1 |x|/sqrt2 + s; k),   T = 2 sqrt2/eta1 * [K(k) - s],

a peak at 0 for Z > 0 and a trough for Z < 0, with k^2 = (eta1^2 - eta2^2)/eta1^2
(every elliptic function is read from k' = eta2/eta1) and a >= 0 set by |Z|: the
sign of Z enters the profile, the period and its threshold only through s.  eta2
is pinned down by T = 2L, solved in u = log(g/eta2^2) with g = theta^2 - eta2^2
(see _chart).  The peak map T_-(eta2)
(Z > 0) is strictly decreasing; the trough map T_+(eta2) (Z < 0) is observed
numerically to fall to a minimum Tmin below its endpoint limit T1 before rising
back to it, so for Tmin < 2L <= T1 trough waves exist on both branches, the one
on the falling branch being the continuation of the Z = 0 dnoidal.

Existence thresholds: T0 = T_-(theta) and T1 = T_+(theta) are the same period
body at the closed end eta2 = theta, g = 0 (see _orbit), so a peak wave of period
2L exists iff 2L > T0 (with omega > Z^2/4).  The trough solve brackets its root
against T1, not Tmin: it builds the falling-branch wave, unique there, where
2L > T1, and neither branch below (see solve_eta2).  The small-defect
continuation condition omega > pi^2/(2 L^2) is reported as a diagnostic flag but
does not veto construction: profiles at moderate Z exist well below it.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum
from functools import cache, cached_property
from typing import NamedTuple

import numpy as np
from numpy.typing import NDArray

from . import elliptic
from .delta_op import sample_grid
from .errors import AdmissibilityError, NumericsError
from .rootfind import newton

__all__ = [
    "SignBranch",
    "WaveParams",
    "WaveProfile",
    "Orbit",
    "theta_admissible",
    "period_minus",
    "period_plus",
    "threshold_T0",
    "threshold_T1",
    "period_threshold",
    "solve_eta2",
    "build_profile",
    "solitary_profile",
    "solitary_limit_check",
]

_SQRT2 = math.sqrt(2.0)

# Maximum allowed |T - 2L| after the period solve.  Newton stops at
# xtol 1e-12 in u = log(g/eta2^2); this guard only has to sit above the
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
    """The gap g = theta^2 - eta2^2 = (theta - eta2)(theta + eta2) of an eta2 in (0, theta]."""
    th = theta_admissible(omega, z)
    if not 0.0 < eta2 <= th:
        raise AdmissibilityError(f"eta2={eta2!r} outside the admissible interval (0, {th!r}] "
                                 f"for omega={omega!r}, Z={z!r}")
    return (th - eta2) * (th + eta2)


def _chart(u: float, th: float) -> tuple[float, float]:
    """(eta2, g) at u = log(g/eta2^2): eta2^2 = theta^2/(1 + e^u) and g = theta^2/(1 + e^-u) from
    e^-|u| <= 1, each to full relative accuracy; g underflows to 0 as u -> -inf, and eta2 =
    theta e^(-u/2)/sqrt(1 + e^-u) stays normal well past the k'^2 underflow _orbit refuses."""
    e = math.exp(-abs(u))
    if u < 0.0:
        return th / math.sqrt(1.0 + e), th * th * e / (1.0 + e)
    return th * math.exp(-0.5 * u) / math.sqrt(1.0 + e), th * th / (1.0 + e)


class Orbit(NamedTuple):
    """The dnoidal orbit fixed by eta2 in (0, theta] and its gap on the branch of the sign of Z (see _orbit).

    gap = theta^2 - eta2^2 holds what eta2 near theta cannot, kp = k' = eta2/eta1 the modulus
    every elliptic function is keyed by (k itself is never formed: k^2 eta1^2 = spread =
    eta1^2 - eta2^2), big_k = K(k), phi = Phi = phi(0), a = F(psi; k) the unsigned shift with
    amplitude psi, and s, upper, lower the discriminant and the gaps of Phi (upper is inf where
    it overflows, at subnormal scales of |Z| r and g; see _psi_pair); period =
    2 sqrt2/eta1 [K(k) - copysign(a, Z)].
    """

    eta1: float
    eta2: float
    gap: float
    kp: float
    big_k: float
    phi: float
    a: float
    psi: float
    spread: float
    s: float
    upper: float
    lower: float
    period: float


def _orbit(eta2: float, omega: float, z: float, gap: float) -> Orbit:
    """The orbit of eta2 in (0, theta] and g = theta^2 - eta2^2: T_- for Z > 0 (and +0.0), T_+ for Z < 0.

    eta1^2 = 2 omega - eta2^2, spread = eta1^2 - eta2^2 = k^2 eta1^2, Phi^2 is the larger root
    of (Z^2/4) Phi^2 = (eta1^2 - Phi^2)(Phi^2 - eta2^2)/2, and the shift a = F(psi; k) =
    dn^{-1}(Phi/eta1; k) lies in [0, K(k)].  On g and r = sqrt(2 omega - Z^2/4), the
    discriminant s^2 and the gaps eta1^2 - Phi^2 = Z^2 upper and Phi^2 - eta2^2 = lower are
    sums of non-negative terms,

        spread = 2g + |Z| r,  s^2 = spread^2 - Z^2 r^2 = 2g (spread + |Z| r),
        upper = [1/2 + r^2/(s + spread)]/2,
        lower = [spread - Z^2/2 + s]/2 = g + |Z| (omega - Z^2/4)/(r + |Z|/2) + s/2,

    so s > 0 inside (0, theta), s = 0 at theta (the threshold), and a and
    psi = am(a; k), sin psi : cos psi = |Z| sqrt(upper) : sqrt(lower), keep
    full relative accuracy as Z -> 0; at Z = 0 they give Phi = eta1 and a = psi = 0.
    """
    eta1_sq = 2.0 * omega - eta2 * eta2
    r = math.sqrt(2.0 * omega - 0.25 * z * z)
    zr = abs(z) * r
    spread = 2.0 * gap + zr
    if not 0.0 < spread < math.inf:  # also where 2 omega overflows
        raise NumericsError(f"eta1^2 - eta2^2 = {spread!r} over- or underflowed at omega={omega!r}")
    eta1 = math.sqrt(eta1_sq)
    s = math.sqrt(2.0 * gap) * math.sqrt(spread + zr)
    upper = 0.5 * (0.5 + r * r / (s + spread))
    lower = gap + abs(z) * ((omega - 0.25 * z * z) / (r + 0.5 * abs(z))) + 0.5 * s
    sin_psi, cos_psi = _psi_pair(omega, z, gap, s, upper, lower)
    kp = eta2 / eta1
    a = elliptic.inverse_am(sin_psi, cos_psi, kp)
    if not kp * kp >= sys.float_info.min:  # the least normal double
        raise NumericsError(f"k'^2 = (eta2/eta1)^2 = {kp * kp!r} underflows at eta2={eta2!r} (omega="
                            f"{omega!r}, Z={z!r}): K(k) cannot be formed this near the solitary limit")
    big_k = elliptic.complete_K(kp)
    period = (2.0 * _SQRT2 / eta1) * (big_k - math.copysign(a, z))
    # where upper overflows, Z^2 upper <= |Z| r ~ r^2 2^-1024 lies below the rounding of eta1^2 > r^2/2
    phi = math.sqrt(eta1_sq - z * z * upper) if upper < math.inf else eta1
    return Orbit(eta1, eta2, gap, kp, big_k, phi, a, math.atan2(sin_psi, cos_psi), spread, s,
                 upper, lower, period)


def _psi_pair(omega: float, z: float, gap: float, s: float, upper: float,
              lower: float) -> tuple[float, float]:
    """sin psi : cos psi of _orbit's gaps, each times sqrt(spread): |Z| sqrt(upper) : sqrt(lower).

    upper = 1/4 + r^2/(2 (s + spread)) overflows where s + spread = s + 2g + |Z| r <~ r^2 2^-1024,
    e.g. at theta (g = s = 0) for |Z| at or below the least normal double when omega = 20.  There
    |Z|, g and s are scaled by 2^1022, exactly, so that no subnormal product (|Z| r, the |Z| term
    of lower) loses digits, and Z^2 upper = Z^2/4 + (|Z| r)^2/(2 (s + spread)) is formed without
    upper; the pair is then scaled back by 2^-511.  Only the ratio enters inverse_am and atan2.
    """
    az = abs(z)
    if upper < math.inf:
        return az * math.sqrt(upper), math.sqrt(lower)
    r = math.sqrt(2.0 * omega - 0.25 * z * z)
    z_f, g_f, s_f = math.ldexp(az, 1022), math.ldexp(gap, 1022), math.ldexp(s, 1022)
    zr_f = z_f * r
    sin_f = math.sqrt(0.25 * az * z_f + 0.5 * zr_f * (zr_f / (s_f + 2.0 * g_f + zr_f)))
    cos_f = math.sqrt(g_f + z_f * ((omega - 0.25 * z * z) / (r + 0.5 * az)) + 0.5 * s_f)
    return math.ldexp(sin_f, -511), math.ldexp(cos_f, -511)


def _e_terms(o: Orbit, omega: float, z: float) -> tuple[float, float, float]:
    """(D, D_psi, E(k) - sign(Z) E(psi; k)) of the orbit o, keyed by k' = o.kp.

    D = D(pi/2; k) and D_psi = D(psi; k) are elliptic.incomplete_D's (F - E)/k^2, so
    E(k) = K - k^2 D and E(psi; k) = a - k^2 D_psi with k^2 = spread/eta1^2.  The norm is
    N = 2 sqrt2 eta1 [E(k) - sign(Z) E(psi; k)] (stability.norm_squared); _tangent reads
    all three, and a profile forms them once for both (WaveProfile._norm_terms).
    """
    sin_psi, cos_psi = _psi_pair(omega, z, o.gap, o.s, o.upper, o.lower)
    big_d = elliptic.incomplete_D(1.0, 0.0, o.kp)
    d_psi = elliptic.incomplete_D(sin_psi, cos_psi, o.kp)
    k_sq = o.spread / o.eta1**2
    return big_d, d_psi, (o.big_k - k_sq * big_d) - math.copysign(1.0, z) * (o.a - k_sq * d_psi)


def _tangent(o: Orbit, omega: float, z: float, *directions: tuple[float, float, float],
             terms: tuple[float, float, float] | None = None) -> list[tuple[float, float]]:
    """(dT, dN) of the orbit body o along each direction (d eta2, dlog g, d omega), where
    N = 2 sqrt2 eta1 [E(k) - sign(Z) E(psi; k)] is the norm (stability.norm_squared).

    The elliptic terms are keyed by dlog k' = d eta2/eta2 - d eta1/eta1 (DLMF 19.4, with
    dn = Phi/eta1, sc = sin psi cos psi and _e_terms' D = D(pi/2; k), D_psi):

        dK = -(K - D) dlog k',   da = -(a - D_psi) dlog k' + (sc dlog k' + dpsi)/dn,
        dE = k'^2 D dlog k',     dE(psi; k) = k'^2 D_psi dlog k' + dn dpsi,

    free of 1/k^2 and 1/k'^2, and dpsi = (sc/2)(dlog upper - dlog lower) on _orbit's gaps.  The
    discriminant enters only as ds = 2 (g/s)(spread dlog g + |Z| dr), g/s = sqrt(g/2)/sqrt(spread
    + |Z| r), so every 1/s carries g and vanishes at theta.  D, D_psi and N/(2 sqrt2 eta1) are
    _e_terms', the norm's own body, formed once for all the directions, or passed as terms by
    a caller that holds them.
    """
    sigma, az = math.copysign(1.0, z), abs(z)
    r = math.sqrt(2.0 * omega - 0.25 * z * z)
    g_s = math.sqrt(0.5 * o.gap) / math.sqrt(o.spread + az * r)
    sin_psi, cos_psi = _psi_pair(omega, z, o.gap, o.s, o.upper, o.lower)
    sc = sin_psi * cos_psi / o.spread
    big_d, d_psi_k, e_diff = _e_terms(o, omega, z) if terms is None else terms
    dn = o.phi / o.eta1
    k_t, k_n = (o.big_k - big_d) - sigma * (o.a - d_psi_k), o.kp**2 * (big_d - sigma * d_psi_k)
    out = []
    for d_eta2, d_log_g, d_omega in directions:
        d_eta1 = (d_omega - o.eta2 * d_eta2) / o.eta1
        d_log_kp = d_eta2 / o.eta2 - d_eta1 / o.eta1
        d_r, d_g = d_omega / r, o.gap * d_log_g
        d_s = 2.0 * g_s * (o.spread * d_log_g + az * d_r)
        d_log_upper = (1.0 - 0.25 / o.upper) * (2.0 * d_omega / (r * r)
                                                 - (d_s + 2.0 * d_g + az * d_r) / (o.s + o.spread))
        d_psi = 0.5 * sc * (d_log_upper - (d_g + 0.5 * (az * d_r + d_s)) / o.lower)
        d_kt = k_t * d_log_kp + sigma * (sc * d_log_kp + d_psi) / dn  # sign(Z) da - dK
        d_t = -(o.period * d_eta1 + 2.0 * _SQRT2 * d_kt) / o.eta1
        d_n = 2.0 * _SQRT2 * (d_eta1 * e_diff + o.eta1 * (k_n * d_log_kp - sigma * dn * d_psi))
        out.append((d_t, d_n))
    return out


def _along_u(o: Orbit, th: float) -> tuple[float, float, float]:
    """d/du at fixed omega (see _chart): d eta2 = -eta2 g/(2 theta^2), dlog g = eta2^2/theta^2."""
    return -0.5 * o.eta2 * (o.gap / (th * th)), (o.eta2 / th) ** 2, 0.0


def _norm_slope(profile: WaveProfile) -> tuple[float, float, float]:
    """(dN/domega, dT/deta2, deta2/domega) along T = 2L at build_profile's root.

    In solve_eta2's chart, dN/domega = N_w - N_u T_w/T_u: _u is the tangent along u at fixed
    omega (_along_u), _w along omega at fixed u, where eta2 and g scale with theta (d eta2 =
    eta2 theta_w/theta, dlog g = 2 theta_w/theta, theta_w = 1/(2 sqrt(omega - Z^2/8))).
    dT/deta2 = T_u/(d eta2/du) says how steep the solve was; it diverges at theta.
    """
    omega, z, o = profile.params.omega, profile.params.z, profile.orbit
    th = theta_admissible(omega, z)
    w = 0.5 / (math.sqrt(omega - 0.125 * z * z) * th)
    along_u = _along_u(o, th)
    (t_u, n_u), (t_w, n_w) = _tangent(o, omega, z, along_u, (o.eta2 * w, 2.0 * w, 1.0),
                                      terms=profile._norm_terms)
    if t_u == 0.0:
        raise NumericsError(f"dT/du vanished at the root eta2={o.eta2!r}, omega={omega!r}")
    du_domega = -t_w / t_u
    return n_w + n_u * du_domega, t_u / along_u[0], o.eta2 * w + along_u[0] * du_domega


def period_minus(eta2: float, omega: float, z: float) -> float:
    """Minimal period T_- = 2 sqrt2/eta1 * [K(k) - a] of the Z > 0 peak profile: strictly
    decreasing in eta2, diverging as eta2 -> 0 and equal to T0(omega, Z) at eta2 = theta."""
    return _orbit(eta2, omega, abs(z), _check_eta2(eta2, omega, z)).period


def period_plus(eta2: float, omega: float, z: float) -> float:
    """Minimal period T_+ = 2 sqrt2/eta1 * [K(k) + a] of the Z < 0 trough profile.

    Diverges as eta2 -> 0 and equals T1(omega, Z) at eta2 = theta, but is *not* monotone:
    it passes through an interior minimum below T1 before climbing back (cross-checked
    against direct ODE integration).  solve_eta2 brackets the initial decreasing branch
    against T1, so it builds no root of the rising branch, nor one with 2L <= T1.
    """
    return _orbit(eta2, omega, -abs(z), _check_eta2(eta2, omega, z)).period


def period_threshold(omega: float, z: float) -> float:
    """T0 for Z >= 0, T1 for Z < 0: the period body at eta2 = theta, exact there (g = s = 0)
    at the cost of one orbit and one K.  Z = 0 is classical: sqrt2 pi/sqrt(omega)."""
    if not omega > z * z / 4.0:
        raise AdmissibilityError(f"omega={omega!r} violates omega > Z^2/4")
    if z == 0.0:
        return _SQRT2 * math.pi / math.sqrt(omega)
    return _orbit(theta_admissible(omega, z), omega, z, 0.0).period


def threshold_T0(omega: float, z: float) -> float:
    """Existence threshold T0(omega, Z) = T_-(theta), read from the period body at theta.

    There dn^2(a0; k0) = (omega - Z^2/4)/lambda^2 = theta/lambda = k0' (lambda = eta1(theta)),
    so a0 = K(k0)/2 and T0 = sqrt2 K(k0)/lambda.  Decreasing in omega.  Discontinuous at
    Z = 0: k0 -> 0, so T0 -> sqrt2 pi/(2 sqrt omega), *half* the classical threshold
    sqrt2 pi/sqrt(omega) returned at Z = 0 exactly.
    """
    return period_threshold(omega, abs(z))


def threshold_T1(omega: float, z: float) -> float:
    """Trough-branch threshold T1 = T_+(theta) = 3 T0, since a0 = K(k0)/2 (see threshold_T0);
    discontinuous at Z = 0 like T0: T1 -> (3/2) sqrt2 pi/sqrt(omega) as Z -> 0."""
    return period_threshold(omega, -abs(z))


def solve_eta2(params: WaveParams) -> Orbit:
    """The orbit whose minimal period equals the cell length 2L.

    Bracketed Newton in u = log(g/eta2^2) (see _chart) on the initial decreasing branch
    of the period map, bracketed against its value T0, resp. T1, at theta (g = 0), where
    the root is unique.  Raises an admissibility error reporting that threshold when 2L
    does not exceed it: no peak wave exists there, while trough waves exist on both
    branches of T_+ for Tmin < 2L <= T1 (see period_plus) but this bracket holds neither.
    Raises a numerics error when T = 2L needs a k'^2 below the normal doubles, or when
    |T - 2L| at the root exceeds PERIOD_RESIDUAL_TOL.
    """
    omega, z, L = params.omega, params.z, params.halfperiod
    target = 2.0 * L
    thresh = period_threshold(omega, z)
    if not target > thresh and z >= 0.0:  # T_- falls strictly from inf to T0
        raise AdmissibilityError(
            f"no wave of period 2L={target!r}: requires 2L > T0(omega,Z)={thresh!r}")
    if not target > thresh:
        raise AdmissibilityError(
            f"2L={target!r} does not exceed T1(omega,Z)={thresh!r}, against which the trough "
            f"solve brackets its root on the decreasing branch of T_+, so it builds neither branch "
            f"here, though T_+ dips below T1 to a minimum Tmin and waves of both branches "
            f"exist for Tmin < 2L <= T1")
    # T - 2L < 0 where g underflows to 0 (T = T0 or T1 there), > 0 as eta2 -> 0.  Memoised,
    # so newton does not evaluate the bracket ends the walk found again, its slope, asked for
    # only where a Newton step starts, reads the orbit already formed there, and so does the
    # residual check where newton ends on an evaluated point.
    th = theta_admissible(omega, z)

    @cache
    def orbit_at(u: float) -> Orbit:
        eta2, gap = _chart(u, th)
        return _orbit(eta2, omega, z, gap)

    def f(u: float) -> float:
        return orbit_at(u).period - target

    def dfdu(u: float) -> float:
        orbit = orbit_at(u)
        return _tangent(orbit, omega, z, _along_u(orbit, th))[0][0]

    # T lies above its large-u asymptote (2/sqrt(omega)) [log(4 sqrt(2 omega)/theta) + u/2 -
    # sign(Z) b], b = atanh(|Z|/(2 sqrt(omega))), on both branches (its K part is K(k) >
    # log(4/k'), DLMF 19.12), so the asymptote's root u0, a hair past T's rounding, is an upper
    # bracket end, if below the u where k'^2 ~ theta^2 e^-u/(2 omega) reaches the least normal
    # double.  The walk steps down from there, doubling its step, until T - 2L < 0.
    sqrt_w = math.sqrt(omega)
    b = math.log((sqrt_w + 0.5 * abs(z)) / math.sqrt(omega - z * z / 4.0))  # finite for omega > Z^2/4
    log_k_sq = 2.0 * math.log(th) - math.log(2.0 * omega)  # log k'^2 + u as u -> inf
    u0 = 2.0 * (sqrt_w * L - math.log(4.0) + math.copysign(b, z)) + log_k_sq
    hi = min(u0 + 1e-12, log_k_sq - math.log(sys.float_info.min) - 1e-6)
    top = orbit_at(hi)
    if not top.period >= target:
        raise NumericsError(f"k'^2 = (eta2/eta1)^2 underflows before T reaches 2L={target!r}: "
                            f"T={top.period!r} at k'^2={top.kp ** 2!r} (omega={omega!r}, Z={z!r}); "
                            f"K(k) cannot be formed this near the solitary limit")
    step = 1.0
    while f(hi - step) >= 0.0:
        hi, step = hi - step, 2.0 * step
    # a last Newton step below xtol leaves an error of order its square, below T's noise
    orbit = orbit_at(newton(f, hi - step, hi, dfdu, xtol=1e-12))
    resid = abs(orbit.period - target)
    if resid > PERIOD_RESIDUAL_TOL:
        raise NumericsError(f"period residual {resid!r} exceeds {PERIOD_RESIDUAL_TOL} at "
                            f"eta2={orbit.eta2!r}, g={orbit.gap!r}")
    return orbit


def _dnoidal(xs, profile: WaveProfile) -> tuple[NDArray[np.float64], ...]:
    """(sn cn, dn)(u; k) at the profile's argument u = eta1 |x|/sqrt2 + shift.

    jacobi_sn_cn_dn folds u by the real period, so past the cell edge (u > K, K the
    orbit's and not L's) sn cn continues with its sign, and reads |u| > K/2 through the
    quarter-period reflection, so dn keeps its relative accuracy up to the edge, where
    it is k'.  The series constants are the profile's, formed once on first read.
    """
    u = (profile.orbit.eta1 / _SQRT2) * np.abs(np.asarray(xs, dtype=float)) + profile.shift
    sn, cn, dn = elliptic.jacobi_sn_cn_dn(u, profile._nome)
    return sn * cn, dn


@dataclass(frozen=True)
class WaveProfile:
    """A standing-wave profile: its parameters, its solved orbit and a grid size n.

    ``evaluate``/``derivative`` give the closed form anywhere (phi'(0) is
    right-sided).  The grid ``x`` = h (j - n/2), h = 2L/n, j = 0..n, has nodes at
    0 and +-L and is exactly antisymmetric, x[n - j] == -x[j], so phi is exactly
    even on it and phi' exactly odd away from 0.  One evaluation of the closed
    form on the half grid |x| = 0..L, made on first read, serves every grid read:
    ``samples`` and ``derivative_samples`` mirror it and are bit for bit
    ``evaluate(x)`` and ``derivative(x)``.  n is a power of two >= 128, so h (n/2) = L
    exactly.
    """

    params: WaveParams
    orbit: Orbit
    n: int

    def __post_init__(self) -> None:
        if self.n < 128 or self.n & (self.n - 1) != 0:
            raise AdmissibilityError(f"grid size must be a power of two >= 128, got n={self.n}")

    @property
    def eta2(self) -> float:
        """The orbit's eta2 = phi(+-L), the trough value at the cell edge."""
        return self.orbit.eta2

    @property
    def shift(self) -> float:
        """The signed shift: +a on the peak branch (Z > 0), -a on the trough branch."""
        return math.copysign(self.orbit.a, self.params.z)

    @property
    def sign_branch(self) -> SignBranch:
        if self.params.z == 0.0:
            return SignBranch.CLASSIC
        return SignBranch.PLUS_SHIFT if self.params.z > 0.0 else SignBranch.MINUS_SHIFT

    @cached_property
    def _nome(self) -> elliptic.Nome:
        """The theta-series constants of the orbit's k' and K, formed on first read."""
        return elliptic.nome(self.orbit.kp, self.orbit.big_k)

    @cached_property
    def _norm_terms(self) -> tuple[float, float, float]:
        """_e_terms of the orbit, formed on first read: the norm and its slope both read them."""
        return _e_terms(self.orbit, self.params.omega, self.params.z)

    @cached_property
    def x(self) -> NDArray[np.float64]:
        return sample_grid(self.params.halfperiod, self.n)

    @cached_property
    def _half_grid(self) -> tuple[NDArray[np.float64], ...]:
        """_dnoidal at the nodes n/2..n, the half grid that mirrors to the whole of ``x``."""
        return _dnoidal(self.x[self.n // 2 :], self)

    @cached_property
    def samples(self) -> NDArray[np.float64]:
        phi = self._in_band(self.orbit.eta1 * self._half_grid[1])
        return np.concatenate((phi[:0:-1], phi))

    @cached_property
    def derivative_samples(self) -> NDArray[np.float64]:
        """``derivative(x)``: odd in x, right-sided at the node x = 0."""
        dphi = self._dphi_scale * self._half_grid[0]
        return np.concatenate((-dphi[:0:-1], dphi))

    @cached_property
    def phi0(self) -> float:
        """phi(0), bit for bit the sample at the node x = 0 the profile file holds."""
        return float(self.evaluate(0.0))

    @property
    def _dphi_scale(self) -> float:
        """phi'/(sn cn) for x >= 0: eta1 dn' = -eta1 k^2 sn cn times the chain-rule factor
        eta1/sqrt2, and k^2 eta1^2 is the orbit's spread."""
        return -self.orbit.spread / _SQRT2

    def _in_band(self, phi: NDArray[np.float64]) -> NDArray[np.float64]:
        eta1 = self.orbit.eta1
        lo, hi = self.eta2 - 1e-9 * eta1, eta1 * (1.0 + 1e-12)
        if not np.all((phi >= lo) & (phi <= hi)):
            raise NumericsError("profile escaped the band [eta2, eta1]")
        return phi

    def evaluate(self, xs) -> NDArray[np.float64]:
        """The closed form at xs; raises if a value escapes the band [eta2, eta1]."""
        return self._in_band(self.orbit.eta1 * _dnoidal(xs, self)[1])

    def derivative(self, xs) -> NDArray[np.float64]:
        """Closed-form phi'(x); uses dn' = -k^2 sn cn and the |x| chain rule."""
        sgn = np.where(np.asarray(xs) >= 0.0, 1.0, -1.0)
        return self._dphi_scale * _dnoidal(xs, self)[0] * sgn

    def diagnostics(self) -> dict:
        """Residuals of the defining identities, computed numerically.

        - pde_residual: max |-phi'' + omega phi - phi^3| on interior nodes away from 0 and
          the endpoints, 5-point centered differences (the 3-point stencil's roundoff floor
          eps*phi/h^2 sits above 1e-5 at the frequencies of interest, masking the
          construction error this residual measures);
        - jump_residual: |phi'(0+) + (Z/2) phi(0)| from 5-point one-sided stencils at 0;
        - endpoint_residual: |phi(+-L) - eta2| (trough value is attained at the cell edge
          on both branches);
        - quadrature_residual: max |(phi')^2 - F(phi)/2| with the closed-form derivative;
        - derivative_symmetry: |phi'(0+) + phi'(0-)| (stencil).
        """
        phi = self.samples
        h = 2.0 * self.params.halfperiod / self.n
        omega, z = self.params.omega, self.params.z
        n0 = self.n // 2  # defect node
        second = (
            -phi[:-4] + 16.0 * phi[1:-3] - 30.0 * phi[2:-2] + 16.0 * phi[3:-1] - phi[4:]
        ) / (12.0 * h**2)
        pde = -second + omega * phi[2:-2] - phi[2:-2] ** 3
        interior = np.ones(len(pde), dtype=bool)
        interior[n0 - 4 : n0 + 1] = False  # stencils touching the corner
        fwd = np.array([-25.0, 48.0, -36.0, 16.0, -3.0]) / (12.0 * h)
        dplus = float(fwd @ phi[n0 : n0 + 5])
        dminus = -float(fwd @ phi[n0 : n0 - 5 : -1])
        dphi = self.derivative_samples
        quad = dphi**2 - 0.5 * (self.orbit.eta1**2 - phi**2) * (phi**2 - self.eta2**2)
        return {
            "pde_residual": float(np.max(np.abs(pde[interior]))),
            "jump_residual": float(abs(dplus + 0.5 * z * phi[n0])),
            "endpoint_residual": float(
                max(abs(phi[0] - self.eta2), abs(phi[-1] - self.eta2))
            ),
            "quadrature_residual": float(np.max(np.abs(quad))),
            "derivative_symmetry": float(abs(dplus + dminus)),
            "small_z_continuation_ok": self.params.small_z_continuation_ok,
        }


def build_profile(params: WaveParams, n: int = 4096) -> WaveProfile:
    """Construct the standing-wave profile of period 2L at (omega, Z, L).

    Solves the period equation for eta2 and validates the structural invariants of the
    solved orbit record before returning, phi(0) = Phi included, so a build sums no theta
    series; n (a power of two >= 128) sets the grid of ``x``/``samples``, which are sampled
    (and band-checked, node 0 with them) only if read.
    """
    orbit = solve_eta2(params)
    # on the record's gaps, not on differences of doubles: s > 0 is eta1 - eta2 > |Z|/sqrt2
    # (g > 0), and lower > 0 and a > 0 are Phi^2 - eta2^2 > 0 and eta1^2 - Phi^2 > 0, also
    # where Phi rounds to eta2 or to eta1.  No theta series is summed for phi(0): the family has
    # Phi^2 >= eta1 eta2, i.e. a <= K/2, where jacobi_sn_cn_dn caps dn at 1, so the sampled
    # eta1 dn(a; k) cannot pass eta1 either (past K/2 it would read the quarter-period
    # reflection k'/dn(K - a; k) <= sqrt(k')), and every sampled read is band-checked
    if not orbit.s > 0.0:
        raise NumericsError("separation eta1 - eta2 > |Z|/sqrt2 violated")
    if params.z != 0.0 and not (orbit.lower > 0.0 and orbit.a > 0.0 and orbit.phi <= orbit.eta1):
        raise NumericsError("defect value phi(0) escaped (eta2, eta1)")
    if not 0.0 <= orbit.a <= orbit.big_k:
        raise NumericsError("shift a escaped [0, K(k)]")
    return WaveProfile(params, orbit, n)


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


def solitary_limit_check(omega: float, z: float) -> dict:
    """Convergence report of the free-period profiles to the sech limit.

    For each eta2 in the (decreasing) ladder 1e-2 .. 1e-5, views the orbit as a
    WaveProfile on 2048 intervals over |x| <= 1 and reports its signed
    shift and sup distance to ``solitary_profile``; the shifts must
    approach atanh(Z/(2 sqrt omega)) and the sup errors must decrease.
    """
    view = WaveParams(omega, z, 1.0)  # checks omega > Z^2/4
    a_limit = math.atanh(z / (2.0 * math.sqrt(omega)))
    eta2_ladder = [1e-2, 1e-3, 1e-4, 1e-5]
    shifts, sups = [], []
    for eta2 in eta2_ladder:
        profile = WaveProfile(view, _orbit(eta2, omega, z, _check_eta2(eta2, omega, z)), 2048)
        shifts.append(profile.shift)
        target = solitary_profile(omega, z, profile.x)
        sups.append(float(np.max(np.abs(profile.samples - target))))
    return {
        "eta2_ladder": eta2_ladder,
        "shift_values": shifts,
        "shift_limit": a_limit,
        "sup_errors": sups,
        "monotone_decreasing": all(b < a for a, b in zip(sups, sups[1:])),
    }
