"""Slope condition and index-count classification of standing waves.

The classification follows the standard Hamiltonian index criterion:
with n the number of negative eigenvalues of the linearized operator L1
and p = 1 exactly when d/domega ||phi_omega||^2 > 0,

    n = p         -> orbitally stable,
    n - p odd     -> orbitally unstable,

and for the trough waves (Z < 0, n = 2) the instability direction is
odd, so restricting to even perturbations removes it: the even-subspace
count is 1 = p and the wave is stable against even data.

classify reads the slope in closed form (wave._norm_slope) and the L1 counts from the signs
of dT/deta2 and Z (l1_negative_counts) at its one eta2 solve, with no grid.  Its oracles, read
by tests: ``slope``, central differences over the full pipeline (each stencil point re-solves
eta2) with one Richardson level, trapezoid quadrature (norm_squared_quadrature) and the
eigenvalue count linops.index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .errors import AdmissibilityError
from .wave import Orbit, WaveParams, WaveProfile, _e_terms, _norm_slope, build_profile

__all__ = [
    "Verdict",
    "Row",
    "StabilityReport",
    "norm_squared",
    "norm_squared_quadrature",
    "slope",
    "l1_negative_counts",
    "verdict_from_counts",
    "classify",
]

# |slope| below this fraction of ||phi||^2/omega is treated as
# numerically indistinguishable from zero -> inconclusive verdict.
SLOPE_ZERO_REL = 1e-6


class Verdict(str, Enum):
    STABLE = "stable"
    UNSTABLE = "unstable"
    UNSTABLE_STABLE_EVEN_SUBSPACE = "unstable+stable_even_subspace"
    INCONCLUSIVE = "inconclusive"


class Row(NamedTuple):
    """One classification row: the classify JSON's top level and a sweep CSV row.

    Its ``_fields`` are the sweep header; a sweep point that raised reads -1 counts,
    a NaN slope and verdict ``error:<type>``.
    """

    omega: float
    z: float
    half_period: float
    n_negative: int
    n_negative_even: int
    p_index: int
    slope: float
    verdict: str
    kernel_caveat: bool


@dataclass(frozen=True)
class StabilityReport:
    """Classification outcome with what produced it: the solved orbit, the slope and its terms
    dT/deta2 (whose sign and Z's give the L1 counts) and deta2/domega at the root."""

    params: WaveParams
    orbit: Orbit
    p_index: int
    slope: float
    verdict: Verdict
    dT_deta2: float
    deta2_domega: float

    @property
    def period_residual(self) -> float:
        return abs(self.orbit.period - 2.0 * self.params.halfperiod)

    @property
    def row(self) -> Row:
        """The report's row; the kernel caveat is Z = 0 (the translation mode is in the kernel)."""
        p, (even, odd) = self.params, l1_negative_counts(self.params.z, self.dT_deta2)
        return Row(p.omega, p.z, p.halfperiod, even + odd, even,
                   self.p_index, self.slope, self.verdict.value, p.z == 0.0)


def norm_squared(profile: WaveProfile) -> float:
    """Closed-form squared L2 norm of the profile over the cell.

    Substituting u = eta1 xi/sqrt2 + s (s the signed shift) turns the
    integral of eta1^2 dn^2 over u in [s, K] into E(am(u; k); k), odd in u;
    am(s; k) = copysign(psi, Z) with psi = am(a; k) the orbit's amplitude:

        ||phi||^2 = 2 sqrt2 eta1 [E(k) - copysign(E(psi; k), Z)],

    E read from k' by wave._e_terms, the body wave._tangent differentiates.
    """
    o = profile.orbit
    return 2.0 * math.sqrt(2.0) * o.eta1 * _e_terms(o, profile.params.z)[2]


def norm_squared_quadrature(profile: WaveProfile) -> float:
    """Trapezoid quadrature of phi^2 on the stored sample grid (O(h^2) oracle)."""
    return float(np.trapezoid(profile.samples**2, profile.x))


def slope(params: WaveParams, h_omega: float | None = None) -> float:
    """d/domega ||phi_{omega,Z}||^2 by Richardson-extrapolated central differences.

    Each stencil point omega +- h, omega +- h/2 re-runs the full eta2 solve
    and closed-form norm.  A stencil point outside the existence region
    raises AdmissibilityError naming that point, rather than falling back
    to a one-sided difference: near the fold of T_+ that gets the sign
    wrong.  At (omega, Z, L) = (1838.7674435299375, -84.06364029366871,
    0.18608225155945318), where omega - h has no wave,
    (N(omega + h) - N(omega))/h reads +0.00518 and the closed form
    (wave._norm_slope, classify's) -0.00143.
    """
    omega, z, L = params.omega, params.z, params.halfperiod
    if h_omega is None:
        h_omega = 1e-3 * omega

    def g(w: float) -> float:
        try:
            profile = build_profile(WaveParams(w, z, L))
        except AdmissibilityError as exc:
            raise AdmissibilityError(
                f"slope stencil point omega={w!r} (around {omega!r}) lies outside "
                f"the existence region: {exc}"
            ) from exc
        return norm_squared(profile)

    def central(h: float) -> float:
        return (g(omega + h) - g(omega - h)) / (2.0 * h)

    s_h = central(h_omega)
    return (4.0 * central(0.5 * h_omega) - s_h) / 3.0


def l1_negative_counts(z: float, dt_deta2: float) -> tuple[int, int]:
    """(even, odd) counts of negative L1 eigenvalues: 1 + [dT/deta2 > 0] and [Z < 0].

    Sturm count (Pruefer angle; Coddington & Levinson, ch. 8) on [0, L]: a parity block counts
    the zeros in (0, L) of its lambda = 0 solution meeting the condition at 0 (even: y'(0+) =
    -(Z/2) y(0); odd: y(0) = 0), plus one in the even block (y'(L) = 0) if y y' < 0 at L.
    Y = d phi/d eta2 along wave._orbit's family at fixed omega solves L1 Y = 0 on (0, L) and
    meets the even condition, as every orbit does.  phi(T/2) = eta2 and phi'(T/2) = 0 give
    Y(L) = 1 and Y'(L) = -phi''(L) T_eta2/2, phi''(L) = eta2 (omega - eta2^2) > 0; Y(0) =
    dPhi/deta2 < 0, as d(Phi^2)/deta2 = -2 eta2 - Z^2 upper dlog upper and upper rises with
    eta2; Y(x*) = -eta2/eta1 at a trough's crest x* = sqrt2 a/eta1.  The Wronskian
    W(phi', Y) = -phi''(L) is nonzero, so Y/phi' is monotone between the zeros of phi', only
    at x* and L: each interval holds at most one zero of Y, so Y has one, and
    n_even = 1 + [Y Y'(L) < 0] = 1 + [T_eta2 > 0], 2 on the rising branch of T_+ (solve_eta2
    builds the falling one).  The odd solution Y_odd = phi'(0+) Y - Y(0) phi' has
    Y_odd'(0) = W < 0, Y_odd(x*) = phi'(0+) Y(x*) and Y_odd(L) = -(Z/2) Phi: a zero in (0, L)
    only on a trough, so n_odd = [Z < 0].  At a fold (T_eta2 = 0) Y, and at Z = 0 phi', is a
    kernel mode.
    """
    return 1 + (dt_deta2 > 0.0), int(z < 0.0)


def verdict_from_counts(n_negative: int, p_index: int, n_negative_even: int) -> Verdict:
    """Pure index arithmetic: stable iff n = p, unstable if n - p odd.

    The even-subspace refinement applies when the full count is
    unstable-by-parity but the even-restricted count matches p.
    """
    if n_negative == p_index:
        return Verdict.STABLE
    if (n_negative - p_index) % 2 == 1:
        if n_negative_even == p_index:
            return Verdict.UNSTABLE_STABLE_EVEN_SUBSPACE
        return Verdict.UNSTABLE
    return Verdict.INCONCLUSIVE


def classify(params: WaveParams) -> StabilityReport:
    """Index classification at one point, with no grid: the closed-form slope, the counts of
    l1_negative_counts and ``verdict_from_counts``.  A non-positive or numerically zero slope
    gives inconclusive; a fold, dT/deta2 = 0, is refused by wave._norm_slope.  Z = 0 reports the
    classical verdict with a kernel caveat (the translation mode is in the kernel).
    """
    profile = build_profile(params)
    s, dt_deta2, deta2_domega = _norm_slope(profile)
    scale = norm_squared(profile) / params.omega
    p = 0 if s <= 0.0 or abs(s) < SLOPE_ZERO_REL * scale else 1
    even, odd = l1_negative_counts(params.z, dt_deta2)
    verdict = verdict_from_counts(even + odd, p, even) if p else Verdict.INCONCLUSIVE
    return StabilityReport(params, profile.orbit, p, s, verdict, dt_deta2, deta2_domega)
