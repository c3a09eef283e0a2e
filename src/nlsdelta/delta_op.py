"""The periodic point-interaction operator -d^2/dx^2 + gamma*delta(x) on [-L, L].

The formal delta potential is realized as the self-adjoint extension of
the periodic Laplacian whose domain carries the derivative jump
condition

    zeta'(0+) - zeta'(0-) = gamma * zeta(0).

This module provides the exact objects of that construction -- the
deficiency element, the extension-parameter map gamma(theta), the
resolvent kernel, and the transcendental eigenvalue equations with their
closed-form eigenfunctions -- together with a symmetric finite-difference
discretization used as an oracle and as the evolution backbone.

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

import cmath
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
    "theta_norm_constant",
    "deficiency_element",
    "strength_from_theta",
    "resolvent_kernel",
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

# beta = sqrt(i) with positive real part; governs the deficiency element.
_BETA = complex(1.0, 1.0) / math.sqrt(2.0)


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


def theta_norm_constant(halfperiod: float) -> float:
    """Squared L2 norm of the raw (unnormalized) deficiency element.

    Closed form (sqrt2/4)(sinh(sqrt2 L) + sin(sqrt2 L)) / (cosh(sqrt2 L)
    - cos(sqrt2 L)); at L = pi this is the normalization constant theta
    of the self-adjoint extension parametrization.
    """
    s = math.sqrt(2.0) * halfperiod
    return (math.sqrt(2.0) / 4.0) * (math.sinh(s) + math.sin(s)) / (math.cosh(s) - math.cos(s))


def deficiency_element(
    halfperiod: float, n: int = 2048
) -> tuple[NDArray[np.float64], NDArray[np.complex128]]:
    """Normalized deficiency element g_{-i} sampled on [-L, L].

    g solves A* g = -i g away from the defect, where A is the periodic
    Laplacian restricted to functions vanishing at 0.  Closed form:

        g(x) = cosh(beta (|x| - L)) / (2 beta sinh(beta L)),
        beta = (1 + i)/sqrt(2),

    normalized by the closed-form constant ``theta_norm_constant`` so
    that ||g|| = 1 in L2(-L, L).
    """
    if not halfperiod > 0.0:
        raise AdmissibilityError(f"halfperiod must be positive, got {halfperiod!r}")
    x = sample_grid(halfperiod, n)
    arg = _BETA * (np.abs(x) - halfperiod)
    g = np.cosh(arg) / (2.0 * _BETA * cmath.sinh(_BETA * halfperiod))
    g = g / math.sqrt(theta_norm_constant(halfperiod))
    return x, g


def strength_from_theta(theta: float) -> float:
    """Extension strength gamma(theta) for theta in [0, 2*pi).

    gamma(theta) = -4 |sinh(beta pi)|^2 cos(theta/2)
                   / [sinh(sqrt2 pi) cos(theta/2 - pi/4)
                      + sin(sqrt2 pi) sin(theta/2 - pi/4)]

    sweeps all of R as theta varies, with a pole (the gamma = +infinity
    Dirichlet extension) at the unique zero theta_0 ~ 4.66704 of the
    denominator; the pole is reported as math.inf, which ``DeltaOperator``
    takes as that extension, the gamma -> +-infinity limit of the family.
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


def resolvent_kernel(
    k: complex, x, halfperiod: float
) -> complex | NDArray[np.complex128]:
    """Integral kernel J_k of the free periodic resolvent on [-L, L].

        J_k(x) = 2L * cosh(i k (|x| - L)) / (2 i k sinh(i k L))

    satisfies -J'' - k^2 J = 0 away from 0 and the derivative jump
    J'(0+) - J'(0-) = -2L.  Singular on the lattice k = n*pi/L (where
    sinh(i k L) vanishes), reported as an admissibility error.
    """
    L = halfperiod
    k = complex(k)
    ik = 1j * k
    denom = 2.0 * ik * cmath.sinh(ik * L)
    if abs(denom) < 1e-12 * max(1.0, abs(ik * L)):
        raise AdmissibilityError(
            f"resolvent kernel singular: k={k!r} lies on the lattice n*pi/L"
        )
    xa = np.abs(np.asarray(x, dtype=float))
    out = 2.0 * L * np.cosh(ik * (xa - L)) / denom
    return complex(out) if np.isscalar(x) else np.asarray(out)


def bound_state_root(gamma: float, halfperiod: float) -> float:
    """The mu > 0 of the bound state: root of 2 mu tanh(mu L) = -gamma, gamma < 0."""
    L = halfperiod

    def f(mu: float) -> float:
        return 2.0 * mu * math.tanh(mu * L) + gamma

    hi = max(1.0 / L, -gamma)
    while f(hi) < 0.0:
        hi *= 2.0
    return bisect(f, 0.0, hi, xtol=1e-15 * max(1.0, hi))


def interior_root(j: int, gamma: float, halfperiod: float) -> float:
    """The j-th root kappa_j > 0 (j = 1, 2, ...) of cot(kappa L) = 2 kappa / gamma, gamma != 0.

    At gamma = +inf it is the regular point (j - 1/2) pi/L.  Otherwise it
    is solved in the offset u in [0, pi/4] from the nearer of two anchors
    where sin and cos are exact, so kappa L = anchor +/- u never cancels:
    - the regular point (j - 1/2) pi of cot: kappa L = (j - 1/2) pi -
      sign(gamma) u and |gamma| sin u = 2 kappa cos u;
    - when the root lies past pi/4 from it, the lattice point (j - 1) pi
      (gamma > 0) or j pi (gamma < 0): kappa L = anchor + sign(gamma) u
      and |gamma| cos u = 2 kappa sin u.
    """
    if gamma == math.inf:
        return (j - 0.5) * math.pi / halfperiod
    sign = math.copysign(1.0, gamma)

    def f(u: float) -> float:  # reads the form chosen below
        return abs(gamma) * near(u) - 2.0 * (anchor + step * u) / halfperiod * far(u)

    anchor, step, near, far = (j - 0.5) * math.pi, -sign, math.sin, math.cos
    if f(0.25 * math.pi) < 0.0:
        anchor, step, near, far = (j - 0.5 - 0.5 * sign) * math.pi, sign, math.cos, math.sin
    # Either form changes sign once on [0, pi/2], with the root in
    # [0, pi/4]; the wider bracket keeps the sign change when rounding
    # splits the two forms' values at pi/4.  At anchor 0 (j = 1,
    # gamma > 0, kappa^2 ~ gamma/2L) bisection runs to the last bit,
    # up to ~1075 halvings for a subnormal root.
    u = bisect(f, 0.0, 0.5 * math.pi, xtol=1e-16 * anchor, max_iter=1100)
    return (anchor + step * u) / halfperiod


def defect_modes(gamma: float, halfperiod: float, count: int, odd: bool = False) -> list[Mode]:
    """The ``count`` lowest modes of one parity, ascending.

    Even: the bound state cosh(mu (|x| - L)), eigenvalue -mu^2 (gamma < 0
    only), then the interior roots cos(kappa_j (|x| - L)); at gamma = 0
    the free cosines kappa = j pi/L, j >= 0, their gamma -> 0 limit, and
    at gamma = +inf the kinks +-sin(kappa_j |x|), kappa_j = (j - 1/2) pi/L.
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
            kappa = interior_root(j, gamma, L) if gamma != 0.0 else (j - 1) * math.pi / L
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
