"""Split-step time integration of the defect NLS on the periodic cell.

The flow i u_t + u_xx + Z delta(x) u + |u|^2 u = 0 is integrated by
Strang splitting: a half nonlinear step (exact pointwise phase
rotation), a full linear step, a half nonlinear step.  A block of
steps merges each closing half rotation with the next opening half
(SplitStepEvolver.advance).  The linear operator -d^2/dx^2 - Z delta
commutes with the reflection x -> -x, and so does its discretization
on the exactly symmetric grid.  The linear step therefore advances the
even part of the state (nodes 0..n/2) by one square complex
propagator and the odd part by one Fourier multiplier, then mirrors
the even part onto the grid, so exactly even data (odd part exactly 0)
stays exactly even.  The odd eigenfunctions are the grid sines
sin(j pi x/L) in both schemes (they vanish at the defect), and these
are the odd Fourier modes of the periodic grid: the odd part advances
as ifft(exp(-i lam_|m| dt) fft(.)) on all n nodes, DFT index m
carrying sine j = |m|.  Two schemes set the even block and the
eigenvalues:

``exact``
    Projects onto the closed-form even eigenfunctions (bound state +
    interior-root cosines) sampled on nodes 0..n/2, through the inverse
    of that square block, and advances each with its exact eigenvalue;
    the sines get (j pi/L)^2.  The step is exact for the grid
    interpolant in the sampled eigenbasis; this is what makes the
    standing-wave reproduction test pass at defaults, where the O(h)
    collocated matrix cannot.
``fd``
    Unitary step in the eigenbasis of the symmetric finite-difference
    stencil of delta_op.even_block with gamma = -Z: its even
    tridiagonal block, and (4/h^2) sin^2(pi j/n) for the sines.
    First-order accurate in h at the defect; kept as
    the cross-validation scheme.

Both preserve the discrete charge to rounding (the nonlinear substep is
exactly modulus-preserving; the linear substeps are unitary or
numerically indistinguishable from unitary).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from numpy.typing import NDArray

from .delta_op import defect_modes, even_block, periodic_grid, sample_modes
from .errors import AdmissibilityError, BlowupError, NumericsError
from .wave import WaveParams, build_profile

__all__ = [
    "State",
    "EvolutionTrace",
    "SplitStepEvolver",
    "orbit_distance",
    "parse_perturbation",
    "run_experiment",
    "BLOWUP_FACTOR",
    "DEFAULT_SEED",
]

# max|u| beyond this multiple of the reference amplitude counts as blow-up.
BLOWUP_FACTOR = 1e3

# Fixed default for the random-perturbation generator.
DEFAULT_SEED = 0x5EED5EED


@dataclass(frozen=True)
class State:
    """Solution snapshot: complex grid values at time t."""

    t: float
    u: NDArray[np.complex128]

    def __post_init__(self) -> None:
        if not np.all(np.isfinite(self.u.view(np.float64))):
            raise NumericsError(f"non-finite state at t={self.t!r}")


@dataclass
class EvolutionTrace:
    """Recorded observables of one run, aligned by sample index."""

    times: list[float] = field(default_factory=list)
    charge: list[float] = field(default_factory=list)
    energy: list[float] = field(default_factory=list)
    orbit_distance: list[float] = field(default_factory=list)
    odd_residual: list[float] = field(default_factory=list)
    blown_up: bool = False
    blowup_time: Optional[float] = None

    def append(self, t: float, q: float, e: float, d: float, odd: float) -> None:
        self.times.append(t)
        self.charge.append(q)
        self.energy.append(e)
        self.orbit_distance.append(d)
        self.odd_residual.append(odd)

    def rows(self) -> list[tuple[float, float, float, float, float]]:
        return list(
            zip(self.times, self.charge, self.energy, self.orbit_distance, self.odd_residual)
        )


def _rotate(
    u: NDArray[np.complex128], mod2: NDArray[np.float64], tau: float
) -> NDArray[np.complex128]:
    """u exp(i |u|^2 tau), the exact nonlinear flow over tau, with |u|^2 given."""
    phase = mod2 * tau
    out = np.empty_like(u)
    out.real = np.cos(phase)
    out.imag = np.sin(phase)
    out *= u
    return out


def _exact_eigenbasis(
    z: float, halfperiod: float, n: int
) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """Closed-form even eigenfunctions of -d^2/dx^2 - Z delta on nodes 0..n/2.

    Returns (B, lam): B has the n/2+1 lowest even delta_op.defect_modes
    as columns, spanning the even block exactly, lam their exact
    eigenvalues followed by the n/2-1 of the odd sines sin(j pi x/L).
    """
    k = n // 2
    even = defect_modes(-z, halfperiod, k + 1)
    b = sample_modes(even, halfperiod, periodic_grid(halfperiod, n)[: k + 1])
    modes = even + defect_modes(-z, halfperiod, k - 1, odd=True)
    return b, np.array([m.eigenvalue for m in modes])


class SplitStepEvolver:
    """Strang splitting with a dense even propagator and an odd Fourier multiplier.

    The even propagator ((n/2+1)^2 complex entries, from the two real
    factors of the even block) and the multiplier (n entries) are built
    once per dt and reused; changing dt mid-run triggers a rebuild.
    ``advance`` runs a block of steps; ``step`` is a block of one.
    """

    def __init__(
        self,
        z: float,
        halfperiod: float,
        n: int = 1024,
        scheme: str = "exact",
    ) -> None:
        if scheme not in ("exact", "fd"):
            raise AdmissibilityError(f"unknown linear scheme {scheme!r}")
        if n < 64:
            raise AdmissibilityError(f"evolver grid too coarse: n={n} < 64")
        self.z = float(z)
        self.halfperiod = float(halfperiod)
        self.n = int(n)
        self.scheme = scheme
        self.x = periodic_grid(self.halfperiod, self.n)
        self.h = 2.0 * self.halfperiod / self.n
        k = self.n // 2
        if scheme == "exact":
            b, lam = _exact_eigenbasis(self.z, self.halfperiod, self.n)
            self._even = (b, np.linalg.inv(b), lam[: k + 1])
            odd_lam = lam[k + 1 :]
        else:
            from scipy.linalg import eigh_tridiagonal  # only this scheme needs scipy.linalg
            diag, off, weight = even_block(k, self.h, -self.z)
            lam, y = eigh_tridiagonal(diag, off)
            self._even = (y / weight[:, None], y.T * weight, lam)
            odd_lam = (2.0 / self.h * np.sin(np.arange(1, k) * math.pi / self.n)) ** 2
        # The grid sines are the odd Fourier modes of the periodic grid: DFT entry m,
        # m = 0..n-1, carries sine j = min(m, n - m); entries 0 and n/2 carry none.
        self._odd_lam = np.concatenate([[0.0], odd_lam, [0.0], odd_lam[::-1]])
        self._dt: Optional[float] = None

    def _linear_step(self, u: NDArray[np.complex128], dt: float) -> NDArray[np.complex128]:
        if dt != self._dt:
            b, a, lam = self._even
            # Halved, so the parity parts below are read off u +- mirror.  Two real
            # products instead of one complex one with a complexified a.
            p = np.empty((lam.size, lam.size), dtype=complex)
            p.real = (b * (0.5 * np.cos(lam * dt))) @ a
            p.imag = (b * (-0.5 * np.sin(lam * dt))) @ a
            self._p_even = p
            self._odd_mult = 0.5 * np.exp(-1j * self._odd_lam * dt)
            self._dt = dt
        k = self.n // 2
        mirror = np.concatenate([u[:1], u[:0:-1]])  # u[n - j]
        even = self._p_even @ (u[: k + 1] + mirror[: k + 1])
        odd = np.fft.ifft(self._odd_mult * np.fft.fft(u - mirror))
        odd[0] = odd[k] = 0.0  # the nodes every odd function vanishes at
        odd[: k + 1] += even
        odd[k + 1 :] += even[k - 1 : 0 : -1]
        return odd

    def advance(
        self, state: State, dt: float, steps: int, blowup_ref: Optional[float] = None
    ) -> State:
        """``steps`` Strang steps of size dt from ``state``.

        The nonlinear substep keeps |u|, so one step's closing half rotation and the
        next step's opening half read the same |u|^2 and run as one full rotation.
        That |u|^2 is the modulus of the step's end state, and the blow-up check reads
        it: max|u| above BLOWUP_FACTOR x blowup_ref, or a non-finite |u|^2, raises
        BlowupError carrying the time of the last good step.  t accumulates by += dt.
        """
        if not dt > 0.0:
            raise AdmissibilityError(f"dt must be positive, got {dt!r}")
        if steps < 1:
            raise AdmissibilityError(f"steps must be at least 1, got {steps!r}")
        cap = math.inf if blowup_ref is None else (BLOWUP_FACTOR * blowup_ref) ** 2
        t, u = state.t, state.u
        u = _rotate(u, u.real**2 + u.imag**2, 0.5 * dt)
        for i in range(steps):
            u = self._linear_step(u, dt)
            mod2 = u.real**2 + u.imag**2
            peak = mod2.max()
            if not math.isfinite(peak):
                raise BlowupError(t) from NumericsError("non-finite state")
            if peak > cap:
                raise BlowupError(t) from NumericsError(
                    f"max|u| above {BLOWUP_FACTOR} x the reference amplitude")
            t += dt
            u = _rotate(u, mod2, dt if i < steps - 1 else 0.5 * dt)
        return State(t=t, u=u)

    def step(self, state: State, dt: float, blowup_ref: Optional[float] = None) -> State:
        """One Strang step: ``advance(state, dt, 1, blowup_ref)``."""
        return self.advance(state, dt, 1, blowup_ref)

    def conserved(self, state: State) -> tuple[float, float]:
        """Charge Q = 1/2 int |u|^2 and energy E of the defect NLS.

        E = 1/2 int |u'|^2 - (Z/2)|u(0)|^2 - 1/4 int |u|^4, with the
        derivative by centered differences and periodic trapezoid
        quadrature (h * sum).
        """
        u = state.u
        q = 0.5 * self.h * float(np.sum(np.abs(u) ** 2))
        du = (np.roll(u, -1) - np.roll(u, 1)) / (2.0 * self.h)
        grad = 0.5 * self.h * float(np.sum(np.abs(du) ** 2))
        point = -0.5 * self.z * float(np.abs(u[self.n // 2]) ** 2)
        quart = -0.25 * self.h * float(np.sum(np.abs(u) ** 4))
        return q, grad + point + quart

    def odd_residual(self, state: State) -> float:
        """Max-norm odd component of the state (0 for exactly even data)."""
        u = state.u
        return 0.5 * float(np.abs(u - np.roll(u[::-1], 1)).max())


def orbit_distance(
    u: NDArray[np.complex128],
    phi: NDArray[np.float64],
    h: float,
) -> float:
    """inf over theta of the discrete H1 distance ||u - e^{i theta} phi||.

    With the complex H1 pairing s = <u, phi>_{H1}, the minimum is
    attained at theta = arg(s); the norm of u - e^{i theta} phi is then
    taken directly (sqrt(||u||^2 + ||phi||^2 - 2|s|) cancels to 0 below
    ~1e-7).  Centered differences; no defect point term in the norm.
    """

    def d(v: NDArray) -> NDArray:
        return (np.roll(v, -1) - np.roll(v, 1)) / (2.0 * h)

    du, dphi = d(u), d(phi)
    rot = cmath.exp(1j * cmath.phase(np.vdot(phi, u) + np.vdot(dphi, du)))
    return math.sqrt(h * float(np.sum(np.abs(u - rot * phi) ** 2 + np.abs(du - rot * dphi) ** 2)))


def parse_perturbation(spec: str) -> tuple[str, float]:
    """Parse 'kind:amplitude' with kind in {even, odd, random, phase}."""
    try:
        kind, amp_str = spec.split(":")
        amp = float(amp_str)
    except ValueError as exc:
        raise AdmissibilityError(f"bad perturbation spec {spec!r}: want kind:amplitude") from exc
    if kind not in ("even", "odd", "random", "phase"):
        raise AdmissibilityError(f"unknown perturbation kind {kind!r}")
    if not math.isfinite(amp):
        raise AdmissibilityError(f"perturbation amplitude must be finite, got {amp!r}")
    return kind, amp


def _initial_data(
    phi: NDArray[np.float64],
    x: NDArray[np.float64],
    halfperiod: float,
    kind: str,
    amplitude: float,
    seed: int,
) -> NDArray[np.complex128]:
    if kind == "even":
        bump = np.cos(math.pi * np.abs(x) / halfperiod)
        return phi * (1.0 + amplitude * bump)
    if kind == "odd":
        bump = np.sin(math.pi * x / halfperiod)
        return phi * (1.0 + amplitude * bump)
    if kind == "phase":
        return phi * np.exp(1j * amplitude)
    rng = np.random.default_rng(seed)
    w = rng.standard_normal(x.shape[0]) + 1j * rng.standard_normal(x.shape[0])
    w /= np.abs(w).max()
    return phi * (1.0 + amplitude * w)


def run_experiment(
    params: WaveParams,
    perturbation: str,
    T: float,
    dt: float = 1e-3,
    n: int = 512,
    scheme: str = "exact",
    seed: int = DEFAULT_SEED,
    record_every: int = 50,
) -> EvolutionTrace:
    """Integrate a perturbed standing wave and record the observables.

    Initial data is phi*(1 + perturbation) (or a pure phase kick);
    observables (charge, energy, H1 orbit distance to phi, odd residual)
    are sampled every ``record_every`` steps.  Blow-up terminates the
    run and is reported on the (partial) trace rather than raised.

    The steps between two records run as one ``advance`` block.  The
    evolver keeps exactly even data exactly even (its grid and both
    linear substeps respect the reflection), and the 'even' and 'phase'
    kinds are built from functions of |x|, so for them the recorded odd
    residual is 0.0 throughout, even where an odd linearized
    instability exists (the Z < 0 trough waves).  For other data it
    measures genuine symmetry breaking.
    """
    if not (math.isfinite(T) and T > 0.0):
        raise AdmissibilityError(f"horizon T must be positive and finite, got {T!r}")
    if not (math.isfinite(dt) and dt > 0.0):
        raise AdmissibilityError(f"dt must be positive and finite, got {dt!r}")
    if not 0.5 < T / dt < math.inf:  # round(T/dt) would be 0 steps, or overflow
        raise AdmissibilityError(
            f"T/dt = {T / dt!r} must round to a finite step count >= 1 (T={T!r}, dt={dt!r})"
        )
    if seed < 0:
        raise AdmissibilityError(f"seed must be non-negative, got {seed!r}")
    n_steps = round(T / dt)
    kind, amp = parse_perturbation(perturbation)
    profile = build_profile(params)
    evolver = SplitStepEvolver(params.z, params.halfperiod, n=n, scheme=scheme)
    phi = profile.evaluate(evolver.x)
    u0 = _initial_data(phi, evolver.x, params.halfperiod, kind, amp, seed)
    state = State(t=0.0, u=np.asarray(u0, dtype=complex))
    blowup_ref = float(np.abs(phi).max())
    trace = EvolutionTrace()

    def record(s: State) -> None:
        q, e = evolver.conserved(s)
        trace.append(s.t, q, e, orbit_distance(s.u, phi, evolver.h), evolver.odd_residual(s))

    record(state)
    for done in range(0, n_steps, record_every):
        try:
            state = evolver.advance(state, dt, min(record_every, n_steps - done), blowup_ref)
        except BlowupError as exc:
            trace.blown_up = True
            trace.blowup_time = exc.last_good_time
            return trace
        record(state)
    return trace
