"""Linearized operators around a standing-wave profile.

Linearizing the stationary equation about a real profile phi splits the
Hessian of the action into two self-adjoint operators on the periodic
cell with the defect jump condition (strength gamma = -Z):

    L1 = -d^2/dx^2 + omega - 3 phi^2   (acts on the real part)
    L2 = -d^2/dx^2 + omega -   phi^2   (acts on the imaginary part)

This module assembles their finite-difference discretizations, counts
negative eigenvalues with an explicit ambiguity band (``index``; never
guessing through near-zero modes), provides a grid-refinement diagnostic
for kernel triviality, and cross-checks against the n=2 Lame equation
(second periodic eigenvalue 4 + k^2, eigenfunction sn*cn).  Both
operators commute with the grid reflection j -> n - j, so the eigensolve
splits them into exact even and odd symmetric tridiagonal blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, partial
from typing import Callable, Sequence

import numpy as np
from numpy.typing import NDArray
from scipy.linalg import eigh_tridiagonal, eigvalsh_tridiagonal

from . import elliptic
from .delta_op import Parity, even_block, periodic_grid, periodic_stencil
from .errors import AdmissibilityError, InconclusiveError, NumericsError
from .wave import WaveParams, WaveProfile, build_profile

__all__ = [
    "Which",
    "LinearizedOperator",
    "Spectrum",
    "Index",
    "assemble",
    "spectrum",
    "index",
    "count_negative",
    "kernel_diagnostic",
    "second_eigen_slope",
    "beta_closed_form",
    "lame_check",
]


class Which(str, Enum):
    """Which linearized operator: L1 carries -3 phi^2, L2 carries -phi^2."""

    L1 = "L1"
    L2 = "L2"

    @property
    def coefficient(self) -> float:
        return 3.0 if self is Which.L1 else 1.0


@dataclass(frozen=True)
class LinearizedOperator:
    """L1 or L2 about a profile: -1/h^2 periodic couplings, diagonal mirrored from 0..n/2."""

    which: Which
    profile: WaveProfile
    half_diagonal: NDArray[np.float64]
    x: NDArray[np.float64]

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def h(self) -> float:
        return 2.0 * self.profile.params.halfperiod / self.n

    @property
    def band(self) -> float:
        """Half-width tau of the zero-classification band, 10*h*(1+omega).

        Calibrated so the exact zero modes (the L2 ground state, the Z=0
        L1 translation mode), which the first-order defect collocation
        smears to O(h), land inside the band while true negative
        eigenvalues stay well outside it on the usual grid ladder.
        """
        return 10.0 * self.h * (1.0 + self.profile.params.omega)

    @cached_property
    def matrix(self) -> NDArray[np.float64]:
        """Dense n x n matrix, built on first access; the eigensolve never reads it."""
        return periodic_stencil(self.half_diagonal, self.h)


@dataclass(frozen=True)
class Spectrum:
    """Lowest eigenpairs of a linearized operator, parity-labelled.

    ``vectors[:, i]`` is the orthonormal grid eigenfunction of
    ``eigenvalues[i]`` and ``parities[i]`` its exact parity: the
    tridiagonal block it came from.  The counts against the zero band are ``Index``'s.
    """

    eigenvalues: NDArray[np.float64]
    vectors: NDArray[np.float64]
    parities: tuple[Parity, ...]


@dataclass(frozen=True)
class Index:
    """Eigenvalues below +tau of the even and odd blocks: the package's one counting rule.

    Eigenvalues below -tau count as negative; those with |lambda| < tau
    beyond the ``expected_kernel`` zero modes (the profile itself for
    L2, the translation mode phi' for L1 at Z = 0) are the ``surplus``.
    """

    even: tuple[float, ...]
    odd: tuple[float, ...]
    band: float
    expected_kernel: int

    @property
    def n_negative_even(self) -> int:
        return sum(lam < -self.band for lam in self.even)

    @property
    def n_negative(self) -> int:
        return self.n_negative_even + sum(lam < -self.band for lam in self.odd)

    @property
    def surplus(self) -> int:
        return sum(abs(lam) < self.band for lam in self.even + self.odd) - self.expected_kernel


def assemble(profile: WaveProfile, which: Which, n: int) -> LinearizedOperator:
    """Symmetric discretization of the linearized operator on the periodic grid.

    The defect Laplacian is the stencil of delta_op.even_block with
    gamma = -Z (the linearization inherits the profile's jump
    condition); the potential omega - c*phi^2 is sampled exactly from
    the closed-form profile at nodes 0..n/2 and mirrored onto the rest.
    """
    if n < 256 or n % 2 != 0:
        raise AdmissibilityError(f"linearized assembly needs an even n >= 256, got n={n}")
    params = profile.params
    x = periodic_grid(params.halfperiod, n)
    h = 2.0 * params.halfperiod / n
    k = n // 2
    half = even_block(k, h, -params.z)[0]
    half += params.omega - which.coefficient * profile.evaluate(x[: k + 1]) ** 2
    return LinearizedOperator(which=which, profile=profile, half_diagonal=half, x=x)


def _solve_blocks(half: NDArray[np.float64], h: float, solve: Callable) -> dict:
    """{parity: (rows of ``half``, solve(d, e))} over the blocks of delta_op.even_block's layout."""
    k = half.shape[0] - 1
    off = even_block(k, h)[1]
    blocks = {Parity.EVEN: (slice(0, k + 1), off), Parity.ODD: (slice(1, k), off[1:-1])}
    try:
        return {parity: (rows, solve(half[rows], e)) for parity, (rows, e) in blocks.items()}
    except np.linalg.LinAlgError as exc:  # pragma: no cover - defensive
        raise NumericsError(f"eigensolve failed: {exc}") from exc


def _split_spectrum(half: NDArray[np.float64], h: float, m: int) -> Spectrum:
    """Lowest m eigenpairs of the periodic -1/h^2 stencil whose diagonal mirrors ``half``."""
    k = half.shape[0] - 1
    weight = even_block(k, h)[2]

    def lowest(d: NDArray[np.float64], e: NDArray[np.float64]) -> tuple:
        return eigh_tridiagonal(d, e, select="i", select_range=(0, min(m, d.shape[0]) - 1))

    lams, vecs, parities = [], [], []
    for parity, (rows, (lam, y)) in _solve_blocks(half, h, lowest).items():
        v = np.zeros((2 * k, lam.shape[0]))
        v[rows] = y / weight[rows, None]
        v[2 * k - 1 : k : -1] = v[1:k] if parity is Parity.EVEN else -v[1:k]
        lams.append(lam)
        vecs.append(v)
        parities += [parity] * lam.shape[0]
    lam = np.concatenate(lams)
    order = np.argsort(lam, kind="stable")[:m]
    return Spectrum(lam[order], np.hstack(vecs)[:, order], tuple(parities[i] for i in order))


def spectrum(op: LinearizedOperator, m: int) -> Spectrum:
    """Lowest m eigenpairs from the even and odd tridiagonal blocks, parity-labelled."""
    if not 0 < m <= op.n:
        raise AdmissibilityError(f"requested {m} eigenpairs of an n={op.n} operator")
    return _split_spectrum(op.half_diagonal, op.h, m)


def index(op: LinearizedOperator) -> Index:
    """Every eigenvalue below +tau of each parity block; no vectors, no lowest-m cut-off."""
    below = partial(eigvalsh_tridiagonal, select="v", select_range=(-np.inf, op.band))
    blocks = _solve_blocks(op.half_diagonal, op.h, below)
    even, odd = (tuple(lam.tolist()) for _, lam in blocks.values())
    expected = 1 if op.which is Which.L2 or op.profile.params.z == 0.0 else 0
    return Index(even, odd, op.band, expected)


def count_negative(op: LinearizedOperator) -> int:
    """Number of eigenvalues below the ambiguity band -tau, tau = 10h(1+omega).

    Eigenvalues inside [-tau, tau] are tolerated only up to the number
    of analytically expected zero modes (one for L2, one for L1 at
    Z = 0, none otherwise); any surplus means the count would be a
    guess at this resolution and raises InconclusiveError instead.
    """
    idx = index(op)
    if idx.surplus > 0:
        raise InconclusiveError(
            f"{idx.surplus} unexpected eigenvalue(s) inside the zero band "
            f"[-{idx.band:.3e}, {idx.band:.3e}] of {op.which.value}; "
            "refine the grid to classify"
        )
    return idx.n_negative


def kernel_diagnostic(profile_params: WaveParams) -> dict:
    """Grid-refinement evidence for (non-)triviality of the L1 kernel.

    For each n in the ladder 512, 1024, 2048, |lambda| of the first eigenvalue above the
    counted negatives is recorded.  A trivial kernel (Z != 0) shows up as
    convergence of this gap to a strictly positive limit; the Z = 0
    control, whose kernel genuinely contains the translation mode,
    converges to 0 instead.
    """
    profile = build_profile(profile_params)
    n_ladder = [512, 1024, 2048]
    ops = [assemble(profile, Which.L1, n) for n in n_ladder]
    counts = [index(op).n_negative for op in ops]
    gaps = [abs(float(spectrum(op, c + 1).eigenvalues[c])) for op, c in zip(ops, counts)]
    positive_limit = gaps[-1] > 2.0 * ops[-1].band  # band of the finest grid
    return {
        "n_ladder": n_ladder,
        "gaps": gaps,
        "negative_counts": counts,
        "positive_limit": positive_limit,
    }


def beta_closed_form(omega: float, halfperiod: float) -> float:
    """Closed-form first-order eigenvalue slope at the defect-free wave.

    beta = (phi^4(0) - omega*phi^2(0)) / ||phi'||^2 evaluated at the
    Z = 0 dnoidal wave (||phi'||^2 by trapezoid on 8192 intervals); positive because the peak
    value phi(0) = eta1 exceeds sqrt(omega).
    """
    profile = build_profile(WaveParams(omega, 0.0, halfperiod), n=8192)
    phi0 = profile.phi0
    norm_dphi_sq = float(np.trapezoid(profile.derivative_samples**2, profile.x))
    return (phi0**4 - omega * phi0**2) / norm_dphi_sq


def second_eigen_slope(
    omega: float,
    halfperiod: float,
    z_ladder: Sequence[float] = (4e-3, 2e-3, 1e-3),
) -> dict:
    """Ladder estimate of beta = lim_{Z->0} Pi(Z)/Z for the second L1 eigenvalue.

    Pi(Z) is the eigenvalue branch continuing the Z = 0 translation
    kernel mode; it is read off as the second-lowest L1 eigenvalue at
    +/-Z (on n = 2048) and differenced centrally, with one Richardson level across the
    (geometric) ladder.  Requires omega > pi^2/(2 L^2) so that the Z = 0
    wave and its small-Z continuation exist.
    """
    if not omega > math.pi**2 / (2.0 * halfperiod**2):
        raise AdmissibilityError(
            f"second_eigen_slope needs omega > pi^2/(2L^2) = "
            f"{math.pi**2 / (2.0 * halfperiod**2)!r}, got omega={omega!r}"
        )
    if not all(a > b > 0.0 for a, b in zip(z_ladder, z_ladder[1:])):
        raise AdmissibilityError(f"z_ladder must be decreasing positive, got {z_ladder!r}")

    def second_eigenvalue(z: float) -> float:
        profile = build_profile(WaveParams(omega, z, halfperiod))
        return float(spectrum(assemble(profile, Which.L1, 2048), 2).eigenvalues[1])

    pi = [(second_eigenvalue(z), second_eigenvalue(-z)) for z in z_ladder]
    estimates = [(plus - minus) / (2.0 * z) for (plus, minus), z in zip(pi, z_ladder)]
    # One Richardson level over the last pair, assuming ratio-2 steps
    # (central differencing is O(Z^2) in the step).
    r = z_ladder[-2] / z_ladder[-1]
    beta_extrap = (r**2 * estimates[-1] - estimates[-2]) / (r**2 - 1.0)
    diffs = [abs(b - beta_extrap) for b in estimates]
    converging = all(d2 <= d1 or d2 < 1e-12 for d1, d2 in zip(diffs, diffs[1:]))
    return {
        "z_ladder": list(z_ladder),
        "estimates": estimates,
        "beta": beta_extrap,
        "beta_closed_form": beta_closed_form(omega, halfperiod),
        "converging": converging,
        "pi_sign_pattern_ok": pi[-1][0] > 0.0 > pi[-1][1],
    }


def lame_check(k: float, n: int) -> dict:
    """Cross-check the eigensolver on the n=2 Lame equation.

    Discretizes -Phi'' + 6 k^2 sn^2(x; k) Phi = lambda Phi with periodic
    boundary conditions on [0, 2K(k)] and reports the first three
    eigenvalues (all simple there), the error of the second one against
    its closed form 4 + k^2, and the overlap of its eigenvector with
    sn*cn.
    """
    if not 0.0 < k < 1.0:
        raise AdmissibilityError(f"lame_check needs modulus in (0, 1), got k={k!r}")
    if n < 64 or n % 2 != 0:
        raise AdmissibilityError(f"lame_check needs an even grid n >= 64, got n={n}")
    kp = math.sqrt((1.0 - k) * (1.0 + k))
    h = 2.0 * elliptic.complete_K(kp) / n
    sn, cn, _ = elliptic.jacobi_sn_cn_dn(h * np.arange(n), kp)
    # sn^2 is even and 2K-periodic, so the stencil is reflection-symmetric.
    half = even_block(n // 2, h)[0] + 6.0 * k**2 * sn[: n // 2 + 1] ** 2
    spec = _split_spectrum(half, h, 3)
    lam = spec.eigenvalues
    target = 4.0 + k**2
    ref = sn * cn
    v1 = spec.vectors[:, 1]
    overlap = abs(float(v1 @ ref)) / (np.linalg.norm(v1) * np.linalg.norm(ref))
    return {
        "eigenvalues": [float(v) for v in lam],
        "second_eigenvalue": float(lam[1]),
        "target": target,
        "error": abs(float(lam[1]) - target),
        "overlap": float(overlap),
        "gaps": [float(lam[1] - lam[0]), float(lam[2] - lam[1])],
        "h": h,
    }
