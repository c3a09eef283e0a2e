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
import warnings
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import elliptic
from .errors import AdmissibilityError
from .linops import Index, Which, assemble, index
from .wave import WaveParams, WaveProfile, _norm_slope, build_profile

__all__ = [
    "Verdict",
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


@dataclass(frozen=True)
class StabilityReport:
    """Classification outcome with the raw quantities that produced it: eta2, k' = eta2/eta1,
    the period residual, dT/deta2 and deta2/domega of the solve there, and the L1 index."""

    params: WaveParams
    eta2: float
    kp: float
    index: Index
    p_index: int
    slope: float
    verdict: Verdict
    period_residual: float
    dT_deta2: float
    deta2_domega: float
    kernel_caveat: bool = False

    @property
    def n_negative(self) -> int:
        return self.index.n_negative

    @property
    def n_negative_even(self) -> int:
        return self.index.n_negative_even

    def as_dict(self) -> dict:
        return {
            "omega": self.params.omega,
            "z": self.params.z,
            "half_period": self.params.halfperiod,
            "n_negative": self.n_negative,
            "n_negative_even": self.n_negative_even,
            "p_index": self.p_index,
            "slope": self.slope,
            "verdict": self.verdict.value,
            "kernel_caveat": self.kernel_caveat,
        }


def norm_squared(profile: WaveProfile) -> float:
    """Closed-form squared L2 norm of the profile over the cell.

    Substituting u = eta1 xi/sqrt2 + s (s the signed shift) turns the
    integral of eta1^2 dn^2 over u in [s, K] into E(am(u; k); k), odd in u;
    am(s; k) = copysign(psi, Z) with psi = am(a; k) the orbit's amplitude:

        ||phi||^2 = 2 sqrt2 eta1 [E(k) - copysign(E(psi; k), Z)].
    """
    e_inc = math.copysign(elliptic.incomplete_E(profile.psi, profile.k), profile.params.z)
    return 2.0 * math.sqrt(2.0) * profile.eta1 * (elliptic.complete_E(profile.k) - e_inc)


def norm_squared_quadrature(profile: WaveProfile) -> float:
    """Trapezoid quadrature of phi^2 on the stored sample grid (O(h^2) oracle)."""
    return float(np.trapezoid(profile.samples**2, profile.x))


def slope(params: WaveParams, h_omega: float | None = None) -> float:
    """d/domega ||phi_{omega,Z}||^2 by Richardson-extrapolated central differences.

    Each stencil point re-runs the full eta2 solve and closed-form norm.
    If a stencil point falls outside admissibility the stencil degrades
    to one-sided with a warning (no Richardson level in that case).
    """
    omega, z, L = params.omega, params.z, params.halfperiod
    if h_omega is None:
        h_omega = 1e-3 * omega

    def g(w: float) -> float:
        return norm_squared(build_profile(WaveParams(w, z, L)))

    def central(h: float) -> float:
        return (g(omega + h) - g(omega - h)) / (2.0 * h)

    try:
        s_h = central(h_omega)
        s_h2 = central(0.5 * h_omega)
    except AdmissibilityError:
        warnings.warn(
            f"admissibility lost at an omega stencil point around {omega!r}; "
            "falling back to a one-sided difference",
            stacklevel=2,
        )
        h = h_omega
        return (g(omega + h) - g(omega)) / h
    return (4.0 * s_h2 - s_h) / 3.0


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
    s, dt_deta2, deta2_domega = _norm_slope(profile, norm)
    scale = norm / params.omega
    idx = index(assemble(profile, Which.L1, N_EIGEN))
    p = 0 if s <= 0.0 or abs(s) < SLOPE_ZERO_REL * scale else 1
    if p == 0 or idx.surplus > 0:
        verdict = Verdict.INCONCLUSIVE
    else:
        verdict = verdict_from_counts(idx.n_negative, p, idx.n_negative_even)
    return StabilityReport(
        params=params,
        eta2=profile.eta2,
        kp=profile.kp,
        index=idx,
        p_index=p,
        slope=s,
        verdict=verdict,
        period_residual=profile.root[1],
        dT_deta2=dt_deta2,
        deta2_domega=deta2_domega,
        kernel_caveat=(params.z == 0.0),
    )
