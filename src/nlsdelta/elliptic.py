"""Jacobi elliptic functions and Legendre elliptic integrals.

Thin, validated wrappers around scipy.special with the conventions used
throughout this package: the *modulus* k (not the parameter m = k^2) is
always the argument, the degenerate circular (k = 0) and hyperbolic
(k = 1) limits are handled explicitly, and the inverse on the quarter
period [0, K(k)] is taken from the amplitude: inverse_am maps sn : cn to
u = F(am u; k) (DLMF 22.15, 22.16).  dn has no inverse of its own; a
caller that knows dn u forms sn : cn from its gaps 1 - dn^2 and dn^2 - k'^2.

Conventions
-----------
    sn(u; 0) = sin u,   sn(u; 1) = tanh u
    cn(u; 0) = cos u,   cn(u; 1) = sech u
    dn(u; 0) = 1,       dn(u; 1) = sech u

and dn is strictly decreasing from 1 to k' = sqrt(1 - k^2) on [0, K(k)].
"""

from __future__ import annotations

import math
from typing import Union

import numpy as np
from numpy.typing import NDArray
from scipy import special

__all__ = [
    "K_ONE_CUTOFF",
    "complete_K",
    "complete_E",
    "incomplete_F",
    "incomplete_E",
    "jacobi_sn_cn_dn",
    "jacobi_dn",
    "inverse_am",
]

ArrayLike = Union[float, NDArray[np.float64]]

# Moduli closer to 1 than this are routed to the hyperbolic branch.
K_ONE_CUTOFF = 1e-12


def _check_modulus(k: float, allow_one: bool = True) -> float:
    k = float(k)
    if not 0.0 <= k <= 1.0 or (not allow_one and k >= 1.0):
        upper = "1" if allow_one else "1)"
        raise ValueError(f"modulus k={k!r} outside [0, {upper}]")
    return k


def complete_K(k: float, kp: float | None = None) -> float:
    """Complete elliptic integral of the first kind K(k).

    Diverges logarithmically as k -> 1; raises for k within ``K_ONE_CUTOFF`` of 1
    rather than returning a huge finite value.  Given kp = sqrt(1 - k^2), reads K
    from kp^2 (ellipkm1), which a double k near 1 cannot hold.
    """
    k = _check_modulus(k)
    if k >= 1.0 - K_ONE_CUTOFF:
        raise ValueError(f"K(k) diverges as k -> 1 (got k={k!r})")
    return float(special.ellipk(k * k) if kp is None else special.ellipkm1(kp * kp))


def complete_E(k: float) -> float:
    """Complete elliptic integral of the second kind E(k); E(0) = pi/2, E(1) = 1."""
    k = _check_modulus(k)
    return float(special.ellipe(k * k))


def incomplete_F(phi: ArrayLike, k: float) -> ArrayLike:
    """Incomplete elliptic integral of the first kind F(phi; k).

    For k = 1 this is the inverse Gudermannian atanh(sin phi), finite only
    for |phi| < pi/2.
    """
    k = _check_modulus(k)
    if k >= 1.0 - K_ONE_CUTOFF:
        s = np.sin(phi)
        if np.any(np.abs(s) >= 1.0):
            raise ValueError("F(phi; 1) diverges for |phi| >= pi/2")
        out = np.arctanh(s)
    else:
        out = special.ellipkinc(phi, k * k)
    return float(out) if np.isscalar(phi) else np.asarray(out)


def incomplete_E(phi: ArrayLike, k: float) -> ArrayLike:
    """Incomplete elliptic integral of the second kind E(phi; k) = ∫_0^phi sqrt(1 - k^2 sin^2 t) dt."""
    k = _check_modulus(k)
    if k >= 1.0 - K_ONE_CUTOFF:
        out = np.sin(phi)
    else:
        out = special.ellipeinc(phi, k * k)
    return float(out) if np.isscalar(phi) else np.asarray(out)


def jacobi_sn_cn_dn(
    u: ArrayLike, k: float
) -> tuple[ArrayLike, ArrayLike, ArrayLike]:
    """Jacobi elliptic functions (sn, cn, dn) of argument u and modulus k.

    The hyperbolic branch (tanh, sech, sech) is taken for k within
    ``K_ONE_CUTOFF`` of 1.
    """
    k = _check_modulus(k)
    if k >= 1.0 - K_ONE_CUTOFF:
        sn = np.tanh(u)
        sech = 1.0 / np.cosh(u)
        cn, dn = sech, sech.copy() if isinstance(sech, np.ndarray) else sech
    else:
        sn, cn, dn, _ = special.ellipj(u, k * k)
    if np.isscalar(u):
        return float(sn), float(cn), float(dn)
    return np.asarray(sn), np.asarray(cn), np.asarray(dn)


def jacobi_dn(u: ArrayLike, k: float) -> ArrayLike:
    """Jacobi dn alone; see jacobi_sn_cn_dn."""
    return jacobi_sn_cn_dn(u, k)[2]


def inverse_am(s: float, c: float, k: float) -> float:
    """The u in [0, K(k)] with sn u : cn u = s : c, i.e. F(atan2(s, c); k).

    s and c are nonnegative and may share any positive factor, so
    callers pass unnormalized gaps; the amplitude is phi = am(u) =
    atan2(s, c) (DLMF 22.15, 22.16), and s = c = 0 gives u = 0.
    """
    k = _check_modulus(k)
    if not (s >= 0.0 and c >= 0.0):
        raise ValueError(f"inverse_am needs s, c >= 0, got s={s!r}, c={c!r}")
    phi = math.atan2(s, c)
    if phi == 0.5 * math.pi:
        # ellipkinc(pi/2, m) exceeds ellipk(m) by up to ~1e-12 as k -> 1.
        return complete_K(k)
    return float(special.ellipkinc(phi, k * k))
