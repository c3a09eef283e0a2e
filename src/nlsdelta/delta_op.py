"""The periodic point-interaction operator -d^2/dx^2 + gamma*delta(x) on [-L, L].

The formal delta potential is realized as the self-adjoint extension of
the periodic Laplacian whose domain carries the derivative jump
condition

    zeta'(0+) - zeta'(0-) = gamma * zeta(0).

This module provides the exact objects of that construction -- the
extension-parameter map gamma(theta) and the transcendental eigenvalue
equations with their closed-form eigenfunctions -- together with a
symmetric finite-difference discretization used as an oracle and as the
evolution backbone.

gamma is real or +inf, the Dirichlet-at-0 extension (zeta(0) = 0, free
derivative jump).  The spectrum is one list of ``Mode`` records (kind,
wavenumber, eigenvalue), formed by ``defect_modes``: the bound state of
an attractive defect, the interior roots of cot(kappa L) = 2 kappa/gamma
and the integer sines.  Eigenfunctions are sampled only by
``sample_modes``, on the nodes the caller names; ``sample_grid`` is the
one closed grid, exactly antisymmetric, and ``periodic_grid`` its first
n nodes, so sampled modes are exactly even or odd.

All closed forms are stated in the literature on the cell [-pi, pi]; the
substitution x -> (pi/L) x (under which gamma rescales by L/pi) carries
them to a general half-period L, and is already applied in every formula
below.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np
from numpy.typing import NDArray

from .errors import AdmissibilityError, NumericsError
from .rootfind import bisect

__all__ = [
    "EigenKind",
    "Parity",
    "Mode",
    "DeltaOperator",
    "strength_from_theta",
    "bound_state_root",
    "interior_root",
    "defect_modes",
    "sample_modes",
    "positive_eigenvalues",
    "full_spectrum",
    "periodic_grid",
    "sample_grid",
    "even_block",
    "periodic_stencil",
    "discretize",
    "spectrum_rows",
]

class EigenKind(str, Enum):
    NEGATIVE_BOUND_STATE = "negative_bound_state"
    INTERIOR_ROOT = "interior_root"
    INTEGER_SINE = "integer_sine"


class Parity(str, Enum):
    EVEN = "even"
    ODD = "odd"


class Mode(NamedTuple):
    """One mode of the operator; ``sample_modes`` samples its eigenfunction."""

    kind: EigenKind
    wavenumber: float
    eigenvalue: float

    @property
    def parity(self) -> Parity:
        # the bound state and the interior roots are even in x, the
        # integer sines odd; exact on sample_grid's nodes
        return Parity.ODD if self.kind is EigenKind.INTEGER_SINE else Parity.EVEN


@dataclass(frozen=True)
class DeltaOperator:
    """Point-interaction operator of strength ``gamma`` on [-L, L].

    gamma = math.inf, the pole of ``strength_from_theta``, is the
    Dirichlet-at-0 extension, with spectrum (m pi/2L)^2, m >= 1.
    """

    gamma: float
    halfperiod: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.halfperiod) and self.halfperiod > 0.0):
            raise AdmissibilityError(
                f"halfperiod must be positive and finite, got {self.halfperiod!r}"
            )
        if not (math.isfinite(self.gamma) or self.gamma == math.inf):
            raise AdmissibilityError(
                f"gamma must be finite, got {self.gamma!r} (or +inf, the Dirichlet extension)"
            )


def sample_grid(halfperiod: float, n: int) -> NDArray[np.float64]:
    """Closed uniform grid x_j = (j - n/2)*h, j = 0..n, h = 2L/n, on [-L, L].

    n must be even so that a node lands exactly on the defect at x = 0
    (index n//2).  Multiplying integers by h makes the grid exactly
    antisymmetric: x[n-j] == -x[j] bit for bit, so even functions sample
    to exactly even vectors and odd functions to exactly odd ones.
    """
    if n % 2 != 0:
        raise AdmissibilityError(f"grid size must be even, got n={n}")
    return (2.0 * halfperiod / n) * (np.arange(n + 1) - n // 2)


def periodic_grid(halfperiod: float, n: int) -> NDArray[np.float64]:
    """The periodic grid: the first n nodes of ``sample_grid`` (x = L is the node x = -L)."""
    return sample_grid(halfperiod, n)[:-1]


def even_block(
    k: int, h: float, gamma: float = 0.0
) -> tuple[NDArray[np.float64], NDArray[np.float64], NDArray[np.float64]]:
    """Diagonal, couplings and node weights of the even reflection block, n = 2k nodes.

    The stencil of ``discretize`` (2/h^2 on the diagonal, gamma/h added
    at the defect node k, periodic couplings -1/h^2) commutes with
    j -> n - j, as does any reflection-symmetric diagonal added to it.
    In the orthonormal even coordinates e_0, (e_j + e_{n-j})/sqrt2, e_k
    it is tridiagonal on nodes 0..k with couplings -1/h^2, times sqrt2
    at the self-mirror nodes 0 and k; the odd block (nodes 1..k-1, on
    (e_j - e_{n-j})/sqrt2) keeps the inner diagonal and couplings.  A
    block vector y is the grid vector equal to y / weight on its nodes
    and mirrored onto the rest, weight = (1, sqrt2, ..., sqrt2, 1).
    """
    diag = np.full(k + 1, 2.0 / h**2)
    diag[k] += gamma / h
    off = np.full(k, -1.0 / h**2)
    off[[0, -1]] *= math.sqrt(2.0)
    weight = np.full(k + 1, math.sqrt(2.0))
    weight[[0, -1]] = 1.0
    return diag, off, weight


def periodic_stencil(half_diagonal: NDArray[np.float64], h: float) -> NDArray[np.float64]:
    """Dense periodic matrix, couplings -1/h^2, diagonal mirrored from nodes 0..n/2.

    The grid form of the blocks laid out by ``even_block``; n = 2 (len(half_diagonal) - 1).
    """
    n = 2 * (half_diagonal.shape[0] - 1)
    m = np.diag(np.concatenate([half_diagonal, half_diagonal[-2:0:-1]]))
    idx = np.arange(n)
    m[idx, (idx + 1) % n] = m[idx, (idx - 1) % n] = -1.0 / h**2
    return m


def strength_from_theta(theta: float) -> float:
    """Extension strength gamma(theta) for theta in [0, 2*pi).

    gamma(theta) = -4 |sinh(beta pi)|^2 cos(theta/2)
                   / [sinh(sqrt2 pi) cos(theta/2 - pi/4)
                      + sin(sqrt2 pi) sin(theta/2 - pi/4)]

    with beta = (1 + i)/sqrt2, sweeps all of R as theta varies, with a
    pole (the gamma = +infinity Dirichlet extension) at the unique zero
    theta_0 ~ 4.66704 of the denominator; the pole is reported as
    math.inf, which ``DeltaOperator`` takes as that extension, the
    gamma -> +-infinity limit of the family.
    """
    if not 0.0 <= theta < 2.0 * math.pi:
        raise AdmissibilityError(f"theta={theta!r} outside [0, 2*pi)")
    s = math.sqrt(2.0) * math.pi
    # |sinh(beta*pi)|^2 = (cosh(sqrt2 pi) - cos(sqrt2 pi)) / 2
    mod2 = 0.5 * (math.cosh(s) - math.cos(s))
    half = 0.5 * theta
    denom = math.sinh(s) * math.cos(half - math.pi / 4.0) + math.sin(s) * math.sin(
        half - math.pi / 4.0
    )
    if denom == 0.0:
        return math.inf
    return -4.0 * mod2 * math.cos(half) / denom


def bound_state_root(gamma: float, halfperiod: float) -> float:
    """The mu > 0 of the bound state: root of 2 mu tanh(mu L) = -gamma, gamma < 0 (mu = 0 at 0).

    The bracket needs no walk.  tanh x <= min(x, 1) gives -gamma <= 2 mu^2 L and -gamma <= 2 mu,
    so mu >= lo = max(sqrt(-gamma/(2L)), -gamma/2), which is the root to rounding as mu L -> 0
    or -> inf; at hi = max(1/L, -gamma), mu L >= 1 and mu >= -gamma, so f(hi) >= (2 tanh 1 - 1)
    hi > 0.  The bisection stops at 2e-15 lo, so mu keeps its relative accuracy however
    small it is.
    """
    if not -math.inf < gamma <= 0.0:
        raise AdmissibilityError(f"no bound state at gamma={gamma!r}: it needs -inf < gamma <= 0")
    L = halfperiod

    def f(mu: float) -> float:
        return 2.0 * mu * math.tanh(mu * L) + gamma

    lo = max(math.sqrt(abs(gamma)) / math.sqrt(2.0 * L), 0.5 * abs(gamma))  # +0.0 at gamma = -0.0
    if not f(lo) < 0.0:  # lo rounds onto the root
        return lo
    return bisect(f, lo, max(1.0 / L, -gamma), xtol=2e-15 * lo, max_iter=1100)


def interior_root(j: int, gamma: float, halfperiod: float) -> float:
    """The j-th root kappa_j > 0 (j >= 1) of cot(kappa L) = 2 kappa / gamma, gamma real or +inf.

    One chart from the lattice point: kappa L = (j - 1) pi + t with
    t = atan2(|gamma|, sigma 2 kappa), sigma = +1 for gamma >= 0 (-0.0 included) and -1 for
    gamma < 0, so t lies in [0, pi/2] and [pi/2, pi] respectively, and the sum of two
    non-negative terms never cancels.  At gamma = +-0, t = 0 and kappa_j = (j - 1) pi/L
    exactly; at +inf, t = pi/2, within 2 ulps of (j - 1/2) pi/L.
    """
    if not -math.inf < gamma:
        raise AdmissibilityError(f"no interior root at gamma={gamma!r}: it needs -inf < gamma")
    if j < 1:
        raise AdmissibilityError(f"no interior root j={j!r}: it needs j >= 1")
    anchor = (j - 1) * math.pi
    sigma, lo = (1.0, 0.0) if gamma >= 0.0 else (-1.0, 0.5 * math.pi)

    def f(t: float) -> float:
        return t - math.atan2(abs(gamma), sigma * 2.0 * (anchor + t) / halfperiod)

    # f changes sign once on the bracket.  At anchor 0 (j = 1, gamma > 0,
    # kappa^2 ~ gamma/2L) bisection runs to the last bit, up to ~1075
    # halvings for a subnormal root.
    t = bisect(f, lo, lo + 0.5 * math.pi, xtol=1e-16 * anchor, max_iter=1100)
    return (anchor + t) / halfperiod


def defect_modes(gamma: float, halfperiod: float, count: int, odd: bool = False) -> list[Mode]:
    """The ``count`` lowest modes of one parity, ascending.

    Even, for gamma real or +inf: the bound state cosh(mu (|x| - L)),
    eigenvalue -mu^2 (gamma < 0 only), then the interior roots
    cos(kappa_j (|x| - L)) of ``interior_root``'s one chart: at gamma = 0
    exactly the free cosines kappa_j = (j - 1) pi/L, and at gamma = +inf
    the kinks +-sin(kappa_j |x|), kappa_j = (j - 1/2) pi/L to 2 ulps.
    Odd (gamma ignored): the integer sines sin(j pi x/L), j >= 1.
    A mode whose eigenvalue is not finite is refused (NumericsError).
    """
    if count < 1:
        raise AdmissibilityError(f"count must be >= 1, got {count}")
    DeltaOperator(gamma, halfperiod)  # refuses the strengths and cells the operator refuses
    L = halfperiod
    if odd:
        sines = (j * math.pi / L for j in range(1, count + 1))
        modes = [Mode(EigenKind.INTEGER_SINE, w, w * w) for w in sines]
    else:
        modes = []
        if gamma < 0.0:
            mu = bound_state_root(gamma, L)
            modes.append(Mode(EigenKind.NEGATIVE_BOUND_STATE, mu, -mu * mu))
        for j in range(1, count - len(modes) + 1):
            kappa = interior_root(j, gamma, L)
            modes.append(Mode(EigenKind.INTERIOR_ROOT, kappa, kappa * kappa))
    for i, m in enumerate(modes):
        if not math.isfinite(m.eigenvalue):  # +-w^2: also overflows at a finite w
            where = f"L={L!r}" if odd else f"gamma={gamma!r}, L={L!r}"
            raise NumericsError(f"{m.parity.value} mode {i} ({m.kind.value}) at {where} is not "
                                f"finite: wavenumber {m.wavenumber!r}, eigenvalue {m.eigenvalue!r}")
    return modes


def sample_modes(modes: list[Mode], halfperiod: float, x: NDArray[np.float64]) -> NDArray:
    """Eigenfunctions of ``modes`` on the nodes x, one column each, unit trapezoid L2 norm on x."""
    edge = np.abs(x) - halfperiod
    v = np.array([
        np.sin(m.wavenumber * x) if m.kind is EigenKind.INTEGER_SINE
        else np.cosh(m.wavenumber * edge) if m.kind is EigenKind.NEGATIVE_BOUND_STATE
        else np.cos(m.wavenumber * edge)
        for m in modes
    ]).T
    return v / np.sqrt(np.trapezoid(v * v, x, axis=0))


def positive_eigenvalues(gamma: float, halfperiod: float, count: int) -> list[Mode]:
    """The first ``count`` positive eigenvalues kappa_j^2 from cot(kappa L) = 2 kappa / gamma.

    The roots interleave with the integer-sine lattice (j pi/L)^2: below
    it for gamma < 0, above it for gamma > 0.  Eigenfunctions are the
    even kernels cos(kappa_j (|x| - L)).
    """
    if gamma == 0.0:
        raise AdmissibilityError("gamma=0 is the free Laplacian; no interior roots")
    bound = 1 if gamma < 0.0 else 0
    return defect_modes(gamma, halfperiod, count + bound)[bound:]


def full_spectrum(op: DeltaOperator, count: int) -> list[Mode]:
    """Lowest ``count`` modes of the operator, sorted ascending.

    Merges the ``count`` lowest even modes (``defect_modes``) with the
    integer sines sin(j pi x/L), blind to gamma as they vanish at the
    defect; at gamma = +inf the two interleave as (m pi/2L)^2, m >= 1.
    """
    sines = defect_modes(0.0, op.halfperiod, count, odd=True)
    modes = defect_modes(op.gamma, op.halfperiod, count) + sines
    return sorted(modes, key=lambda m: m.eigenvalue)[:count]


def discretize(op: DeltaOperator, n: int) -> NDArray[np.float64]:
    """Symmetric finite-difference matrix of -d^2/dx^2 + gamma*delta on the periodic grid.

    Standard second-order (2, -1) stencil with periodic wrap; the delta
    is collocated as gamma/h at the node x = 0 (index n//2), which keeps
    the matrix symmetric and converges at first order to the exact
    transcendental eigenvalues.
    """
    if op.gamma == math.inf:
        raise AdmissibilityError("the Dirichlet (gamma = +inf) extension has no gamma/h matrix")
    if n < 64:
        raise AdmissibilityError(f"grid too coarse for discretize: n={n} < 64")
    if n % 2 != 0:
        raise AdmissibilityError(f"grid size must be even, got n={n}")
    h = 2.0 * op.halfperiod / n
    return periodic_stencil(even_block(n // 2, h, op.gamma)[0], h)


def spectrum_rows(modes: list[Mode]) -> list[tuple[float, str, str]]:
    """Flatten modes to (eigenvalue, kind, parity) rows for CSV export."""
    return [(m.eigenvalue, m.kind.value, m.parity.value) for m in modes]
