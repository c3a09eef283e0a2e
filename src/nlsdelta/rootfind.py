"""Bracketed bisection root finding.

The transcendental equations of this package -- the period equation
T(eta2) = 2L and the bound-state and interior-root equations of the
defect operator -- are solved by plain bisection on intervals where
monotonicity (and hence a unique root) is known analytically; the
inverse of dn needs no solve, it is closed form (elliptic.inverse_dn).
Bisection is deliberately preferred over faster-converging schemes:
every solve then comes with a guaranteed bracket, and failures surface
as loud bracket errors instead of silent convergence to the wrong root.
"""

from __future__ import annotations

from typing import Callable

from .errors import NumericsError

__all__ = ["BISECT_XTOL", "bisect"]

# Default absolute tolerance on the root location.
BISECT_XTOL = 1e-13


def bisect(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    xtol: float = BISECT_XTOL,
    max_iter: int = 200,
) -> float:
    """Root of f on [lo, hi] by bisection.

    Requires a sign change over the bracket; raises NumericsError
    otherwise.  The returned point is within ``xtol`` of a sign change
    of f (absolutely, not relatively).
    """
    if not lo < hi:
        raise NumericsError(f"empty bracket [{lo!r}, {hi!r}]")
    flo = f(lo)
    if flo == 0.0:
        return lo
    fhi = f(hi)
    if fhi == 0.0:
        return hi
    # Signs are compared, not multiplied: a product of two tiny values
    # underflows to 0 and would hide the sign change.
    if (flo < 0.0) == (fhi < 0.0):
        raise NumericsError(
            f"no sign change on bracket [{lo!r}, {hi!r}]: f(lo)={flo!r}, f(hi)={fhi!r}"
        )
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        if hi - lo <= xtol or mid in (lo, hi):
            return mid
        fmid = f(mid)
        if fmid == 0.0:
            return mid
        if (flo < 0.0) != (fmid < 0.0):
            hi = mid
        else:
            lo, flo = mid, fmid
    return 0.5 * (lo + hi)
