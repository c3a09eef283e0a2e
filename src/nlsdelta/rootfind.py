"""Bracketed root finding: one Newton loop that never leaves its bracket.

The period equation T = 2L in u = log(g/eta2^2) (with the closed-form
slope dT/du of wave._tangent) and the defect operator's bound-state and
interior-root equations (through ``bisect``, which has no slope, so every
step is a midpoint) are solved on intervals where a unique root is known
analytically.  Every solve keeps a sign-change bracket, and failures
surface as loud bracket errors, not as convergence to the wrong root.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Optional

from .errors import NumericsError

__all__ = ["BISECT_XTOL", "bisect", "newton"]

# Default absolute tolerance on the root location.
BISECT_XTOL = 1e-13


def newton(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    slope: Optional[Callable[[float], float]] = None,
    xtol: float = BISECT_XTOL,
    max_iter: int = 200,
) -> float:
    """Root of f on [lo, hi] by bracketed Newton; slope(x) is f'(x).

    Needs a sign change over the bracket (else NumericsError).  Each step
    is the Newton step from the last evaluated point if it lands strictly
    inside the bracket, else the midpoint (always without ``slope``, or
    for a NaN, zero or infinite slope), and the bracket shrinks to the
    evaluated point.  The slope is asked for only at the point a step
    starts from: the better bracket end, then each iterate.  Stops when a
    Newton step or the bracket is no longer than ``xtol``.
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
    x, fx = (lo, flo) if abs(flo) < abs(fhi) else (hi, fhi)
    for _ in range(max_iter):
        dfx = math.nan if slope is None else slope(x)
        step = fx / dfx if math.isfinite(dfx) and dfx != 0.0 else math.nan
        if abs(step) <= xtol and lo <= x - step <= hi:
            return x - step
        if lo < x - step < hi:
            x -= step
        else:
            x = 0.5 * (lo + hi)
            if hi - lo <= xtol or x in (lo, hi):
                return x
        fx = f(x)
        if fx == 0.0:
            return x
        if (flo < 0.0) != (fx < 0.0):
            hi = x
        else:
            lo, flo = x, fx
    return 0.5 * (lo + hi)


def bisect(f: Callable[[float], float], lo: float, hi: float, **limits: Any) -> float:
    """``newton`` without a slope, i.e. bisection; ``limits`` are its xtol and max_iter.

    The returned point is within xtol of a sign change of f (absolutely).
    """
    return newton(f, lo, hi, **limits)
