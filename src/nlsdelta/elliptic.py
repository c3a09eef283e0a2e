"""Jacobi elliptic functions and Legendre elliptic integrals.

Thin, validated wrappers around scipy.special.  The *modulus* k (not
m = k^2) is the argument, except where a double k near 1 cannot hold
k' = sqrt(1 - k^2) and the value needs it: K(k) reads k' when given, and
the inverse on the quarter period [0, K(k)], inverse_am, is keyed by it
(both through Carlson's R_F).  inverse_am maps sn : cn to u = F(am u; k)
(DLMF 22.15, 22.16); a caller that knows dn u forms sn : cn from its gaps
1 - dn^2 and dn^2 - k'^2.

Conventions (scipy's own values at m = 0 and m = 1)
---------------------------------------------------
    sn(u; 0) = sin u,   sn(u; 1) = tanh u
    cn(u; 0) = cos u,   cn(u; 1) = sech u
    dn(u; 0) = 1,       dn(u; 1) = sech u

and dn is strictly decreasing from 1 to k' on [0, K(k)].
"""

from __future__ import annotations

import math
from typing import Union

import numpy as np
from numpy.typing import NDArray
from scipy import special

__all__ = [
    "complete_K",
    "complete_E",
    "incomplete_F",
    "incomplete_E",
    "jacobi_sn_cn_dn",
    "jacobi_dn",
    "inverse_am",
]

ArrayLike = Union[float, NDArray[np.float64]]


def _check_modulus(k: float) -> float:
    k = float(k)
    if not 0.0 <= k <= 1.0:
        raise ValueError(f"modulus k={k!r} outside [0, 1]")
    return k


def complete_K(k: float, kp: float | None = None) -> float:
    """Complete elliptic integral of the first kind K(k).

    Diverges logarithmically as k -> 1 and raises where it is infinite.  Given
    kp = sqrt(1 - k^2), which a double k near 1 cannot hold, reads K = R_F(0, kp^2, 1)
    (DLMF 19.25.1): inverse_am's R_F at the amplitude pi/2, bit for bit.
    """
    k = _check_modulus(k)
    big_k = float(special.ellipk(k * k) if kp is None else special.elliprf(0.0, kp * kp, 1.0))
    if not math.isfinite(big_k):
        raise ValueError(f"K(k) diverges as k -> 1 (got k={k!r}, kp={kp!r})")
    return big_k


def complete_E(k: float) -> float:
    """Complete elliptic integral of the second kind E(k); E(0) = pi/2, E(1) = 1."""
    k = _check_modulus(k)
    return float(special.ellipe(k * k))


def incomplete_F(phi: ArrayLike, k: float) -> ArrayLike:
    """Incomplete elliptic integral of the first kind F(phi; k).

    For k = 1 this is the inverse Gudermannian atanh(sin phi), which raises
    from |phi| = pi/2 on, where it diverges.
    """
    k = _check_modulus(k)
    out = special.ellipkinc(phi, k * k)
    if not np.all(np.isfinite(out)):
        raise ValueError(f"F(phi; k={k!r}) is not finite at phi={phi!r}")
    return float(out) if np.isscalar(phi) else np.asarray(out)


def incomplete_E(phi: ArrayLike, k: float) -> ArrayLike:
    """Incomplete elliptic integral of the second kind E(phi; k) = ∫_0^phi sqrt(1 - k^2 sin^2 t) dt."""
    k = _check_modulus(k)
    out = special.ellipeinc(phi, k * k)
    return float(out) if np.isscalar(phi) else np.asarray(out)


def jacobi_sn_cn_dn(u: ArrayLike, k: float) -> tuple[ArrayLike, ArrayLike, ArrayLike]:
    """Jacobi elliptic functions (sn, cn, dn) of argument u and modulus k."""
    k = _check_modulus(k)
    sn, cn, dn, _ = special.ellipj(u, k * k)
    if np.isscalar(u):
        return float(sn), float(cn), float(dn)
    return np.asarray(sn), np.asarray(cn), np.asarray(dn)


def jacobi_dn(u: ArrayLike, k: float) -> ArrayLike:
    """Jacobi dn alone; see jacobi_sn_cn_dn."""
    return jacobi_sn_cn_dn(u, k)[2]


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
