"""Jacobi elliptic functions and Legendre elliptic integrals, keyed by k' alone.

Thin, validated wrappers around scipy.special.  Every function takes the
complementary modulus kp = k' = sqrt(1 - k^2), never k or m = k^2: near k = 1 a
double k cannot hold k', and the dnoidal orbit has k' = eta2/eta1 to full relative
accuracy.  Only kp^2 enters, so kp may round above 1 (read as k = 0).  K(k)
(complete_K), the inverse on the quarter period [0, K(k)] (inverse_am, through
Carlson's R_F) and D = (F - E)/k^2 (incomplete_D, through R_D) keep full accuracy as
k -> 1; inverse_am maps sn : cn to u = F(am u; k) (DLMF 22.15, 22.16), so a caller
that knows dn u forms sn : cn from its gaps 1 - dn^2 and dn^2 - k'^2.  E is formed
where it is read, as E(k) = K - k^2 D and E(psi; k) = F - k^2 D(psi; k)
(wave._e_terms).  dn is read only together with sn and cn (jacobi_sn_cn_dn), as the
profile needs all three.

Limits, keyed by k' (scipy's own values at m = 0 and m = 1)
-----------------------------------------------------------
    k' = 1 (k = 0):  sn = sin u,   cn = cos u,   dn = 1,       K = pi/2,  D = pi/4
    k' = 0 (k = 1):  sn = tanh u,  cn = sech u,  dn = sech u,  K = inf (complete_K raises)

and dn is strictly decreasing from 1 to k' on [0, K(k)].
"""

from __future__ import annotations

import math
from typing import Union

import numpy as np
from numpy.typing import NDArray
from scipy import special

__all__ = ["complete_K", "inverse_am", "incomplete_D", "jacobi_sn_cn_dn"]

ArrayLike = Union[float, NDArray[np.float64]]


def complete_K(kp: float) -> float:
    """Complete elliptic integral of the first kind K(k), given kp = k' = sqrt(1 - k^2).

    K = R_F(0, kp^2, 1) (DLMF 19.25.1): inverse_am's R_F at the amplitude pi/2, bit
    for bit, with full accuracy as k -> 1, where a double k cannot hold k'.  As in
    inverse_am only kp^2 enters, so kp may round above 1.  Diverges logarithmically as
    kp -> 0 and raises where it is infinite; a negative or NaN kp is refused.
    """
    if not kp >= 0.0:
        raise ValueError(f"complementary modulus kp={kp!r} is negative or NaN")
    big_k = float(special.elliprf(0.0, kp * kp, 1.0))
    if not math.isfinite(big_k):
        raise ValueError(f"K(k) diverges as k -> 1 (got kp={kp!r})")
    return big_k


def jacobi_sn_cn_dn(u: ArrayLike, kp: float) -> tuple[ArrayLike, ArrayLike, ArrayLike]:
    """Jacobi elliptic functions (sn, cn, dn) of argument u, given kp = k'.

    Read by ellipj at m = k^2 = 1 - kp^2, the correctly rounded m of kp, clamped at 0 where
    kp rounds above 1 (ellipj gives nan for m < 0).  m still rounds as k' -> 0: below K/2
    the worst is 1.3e-9 relative, near k' = 5e-9 (see wave._dnoidal for the far half).
    """
    if not kp >= 0.0:
        raise ValueError(f"complementary modulus kp={kp!r} is negative or NaN")
    sn, cn, dn, _ = special.ellipj(u, max(1.0 - kp * kp, 0.0))
    if np.isscalar(u):
        return float(sn), float(cn), float(dn)
    return np.asarray(sn), np.asarray(cn), np.asarray(dn)


def inverse_am(s: float, c: float, kp: float) -> float:
    """The u in [0, K(k)] with sn u : cn u = s : c, i.e. F(atan2(s, c); k), given kp = k'.

    s, c >= 0 may share any positive factor (callers pass unnormalized gaps); s = 0 gives
    u = 0, and only kp^2 enters, so kp may round above 1.  On psi = am u = atan2(s, c),

        F(psi; k) = sin psi R_F(cos^2 psi, cos^2 psi + k'^2 sin^2 psi, 1)   (DLMF 19.25.5),

    which keeps full accuracy as k -> 1, where ellipkinc from k^2 drifts (2.9e-12 relative
    at k' = 1e-6) and once returned K for K/2 at psi = am(K/2; k) (k = 0.99896).
    """
    if not (s >= 0.0 and c >= 0.0):
        raise ValueError(f"inverse_am needs s, c >= 0, got s={s!r}, c={c!r}")
    if s == 0.0:
        return 0.0
    norm = math.hypot(s, c)
    s, c = s / norm, c / norm
    u = s * float(special.elliprf(c * c, c * c + (kp * s) ** 2, 1.0))
    if not math.isfinite(u):  # F(pi/2; 1) = K(1), or a nan kp
        raise ValueError(f"F(psi; k) is not finite at sn : cn = {s!r} : {c!r}, kp={kp!r}")
    return u


def incomplete_D(s: float, c: float, kp: float) -> float:
    """D(psi; k) = [F(psi; k) - E(psi; k)]/k^2 at psi = atan2(s, c), s and c as for inverse_am.

    sin^3 psi R_D(cos^2 psi, cos^2 psi + k'^2 sin^2 psi, 1)/3 (DLMF 19.2.6, 19.25.9) keeps full
    accuracy as k -> 0, where F - E leaves nothing; s = 1, c = 0 give D(k) = (K - E)/k^2.
    """
    norm = math.hypot(s, c)
    s, c = s / norm, c / norm
    return s**3 * float(special.elliprd(c * c, c * c + (kp * s) ** 2, 1.0)) / 3.0
