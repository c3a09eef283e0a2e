"""Slope condition and index-count classification of standing waves.

The classification follows the standard Hamiltonian index criterion:
with n the number of negative eigenvalues of the linearized operator L1
and p = 1 exactly when d/domega ||phi_omega||^2 > 0,

    n = p         -> orbitally stable,
    n - p odd     -> orbitally unstable,

and for the trough waves (Z < 0, n = 2) the instability direction is
odd, so restricting to even perturbations removes it: the even-subspace
count is 1 = p and the wave is stable against even data.

classify takes d/domega ||phi||^2 in closed form at its one eta2 solve
(wave._norm_slope).  Its oracles, read by tests: ``slope``, central
differences over the full pipeline (each stencil point re-solves eta2) with
one Richardson level, and trapezoid quadrature (norm_squared_quadrature).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .errors import AdmissibilityError
from .linops import Index, Which, assemble, index
from .wave import Orbit, WaveParams, WaveProfile, _e_terms, _norm_slope, build_profile

__all__ = [
    "Verdict",
    "Row",
    "StabilityReport",
    "norm_squared",
    "norm_squared_quadrature",
    "slope",
    "verdict_from_counts",
    "classify",
]

# |slope| below this fraction of ||phi||^2/omega is treated as
# numerically indistinguishable from zero -> inconclusive verdict.
SLOPE_ZERO_REL = 1e-6

# Grid size of classify's L1 eigensolve.
N_EIGEN = 1024


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
    """Classification outcome with what produced it: the solved orbit, the L1 index it was
    read from, the slope and its terms dT/deta2 and deta2/domega at the root."""

    params: WaveParams
    orbit: Orbit
    index: Index
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
        p, idx = self.params, self.index
        return Row(p.omega, p.z, p.halfperiod, idx.n_negative, idx.n_negative_even,
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
    """Full index classification at one parameter point.

    Computes the closed-form slope, the L1 negative count (total and even-restricted),
    and applies ``verdict_from_counts``.  A non-positive or numerically
    zero slope short-circuits to inconclusive with the measured value
    attached, and so does an eigenvalue inside the zero band beyond the
    expected kernel modes (the rule of linops.index); Z = 0
    reports the classical verdict with a kernel caveat (the translation
    mode makes the kernel nontrivial there, outside the hypotheses of
    the Z != 0 theory).
    """
    profile = build_profile(params)
    norm = norm_squared(profile)
    s, dt_deta2, deta2_domega = _norm_slope(profile)
    scale = norm / params.omega
    idx = index(assemble(profile, Which.L1, N_EIGEN))
    p = 0 if s <= 0.0 or abs(s) < SLOPE_ZERO_REL * scale else 1
    if p == 0 or idx.surplus > 0:
        verdict = Verdict.INCONCLUSIVE
    else:
        verdict = verdict_from_counts(idx.n_negative, p, idx.n_negative_even)
    return StabilityReport(params, profile.orbit, idx, p, s, verdict, dt_deta2, deta2_domega)
