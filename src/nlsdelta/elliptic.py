"""Jacobi elliptic functions and Legendre elliptic integrals, keyed by k' alone, on math alone.

Every function takes the complementary modulus kp = k' = sqrt(1 - k^2), never k or
m = k^2: near k = 1 a double k cannot hold k', and the dnoidal orbit has k' = eta2/eta1
to full relative accuracy.  Only kp^2 enters, so kp may round above 1 (read as k = 0).
K(k) (complete_K), the inverse on the quarter period [0, K(k)] (inverse_am) and
D = (F - E)/k^2 (incomplete_D) are Carlson's R_F and R_D, which keep full accuracy as
k -> 1; inverse_am maps sn : cn to u = F(am u; k) (DLMF 22.15, 22.16), so a caller that
knows dn u forms sn : cn from its gaps 1 - dn^2 and dn^2 - k'^2.  E is formed where it
is read, as E(k) = K - k^2 D and E(psi; k) = F - k^2 D(psi; k) (wave._e_terms).

No scipy: _carlson sums R_F(x, y, 1) and R_D(x, y, 1) by Carlson's duplication and the
series of DLMF 19.36.1-2 (B. C. Carlson, Numerical computation of real or complex
elliptic integrals, Numer. Algorithms 10, 1995), and the complete integrals (x = 0) by
the arithmetic-geometric mean of 1 and k', K = pi/(2 AGM) and D from its sum
of 2^(n-1) c_n^2 (DLMF 19.8.1, 19.8.6).  Every loop stops after at most _STEPS steps.

sn, cn and dn are read together (jacobi_sn_cn_dn), as quotients of theta functions
(DLMF 22.2.4) summed in whichever nome is at most e^-pi (DLMF 20.2):

    k' > 1/sqrt2:  q = exp(-pi K'/K), trigonometric series in z = pi u/(2K);
    k' <= 1/sqrt2: q' = exp(-pi K/K') of k', through Jacobi's imaginary transformation
                   (DLMF 22.6(iv), 20.7.30), hyperbolic series in y = pi u/(2K'),

K' = K(k') (the nomes meet at e^-pi where k' = 1/sqrt2).  Four terms of each theta
function reach double precision on either side, and the hyperbolic side keeps it as
k' -> 0, where m = 1 - k'^2 itself rounds.  The constants of the series (Nome) are formed
once per modulus by nome(kp, K).

Limits, keyed by k'
-------------------
    k' >= 1 (k = 0):  sn = sin u,   cn = cos u,   dn = 1,       K = pi/2,  D = pi/4
    k' = 0 (k = 1):   sn = tanh u,  cn = sech u,  dn = sech u,  K = inf (complete_K raises)

and dn is strictly decreasing from 1 to k' on [0, K(k)].  As scipy's elliprf and elliprd
did, the integrals read a k'^2 below the least normal double as k = 1 (so complete_K raises
there) and one that overflows as 0 (complete_K(inf) = 0).
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple, Union

import numpy as np
from numpy.typing import NDArray

__all__ = ["Nome", "nome", "complete_K", "inverse_am", "incomplete_D", "jacobi_sn_cn_dn"]

ArrayLike = Union[float, NDArray[np.float64]]

# The least normal double: an R_F or R_D whose two smaller arguments lie below it is read as
# infinite, as scipy's elliprf and elliprd read it.  The series of _carlson stop at degree
# 7, so they reach double precision once every spread |X| is at most _SPREAD (the
# truncation is about |X|^8/5).  _STEPS bounds every loop: no finite argument needs more
# than 13 steps (x and y near _TINY), and a nan runs them all.
_TINY = sys.float_info.min
_SPREAD = 0.012
_STEPS = 40


def _agm(y: float, d: bool) -> float:
    """R_F(0, y, 1) = K, or R_D(0, y, 1) = 3 D if d, of k'^2 = y from the AGM of a_0 = 1 and
    b_0 = k' (DLMF 19.8.1, 19.8.6).

    K = pi/(2 M), and K alone stops once a_n - b_n <= 2^-26 a_n (a_n >= b_n from n = 1 on,
    whatever k'), where (a_n + b_n)/2 is M to 2^-55.  K - E = K sum_{n >= 0} 2^(n-1) c_n^2
    with c_0 = k, so D = (K - E)/k^2 is K [1/2 + sum_{n >= 1} 2^(n-1) t_n], t_n = c_n^2/k^2.
    Neither t_1 = (1 - k')/(4 (1 + k')) nor c_{n+1} = c_n^2/(4 a_{n+1}) cancels, also as
    k -> 0 (k' may round above 1, where c_1 < 0), and the sum stops once |c_n| <= 2^-27 a_n,
    when the terms left are below 2^-54 of it.
    """
    kp = math.sqrt(y)
    a, b = 0.5 * (1.0 + kp), math.sqrt(kp)  # a_1, b_1
    if not d:
        for _ in range(_STEPS):
            if a - b <= 1.4901161193847656e-08 * a:  # 2^-26
                break
            a, b = 0.5 * (a + b), math.sqrt(a * b)
        return math.pi / (a + b)
    c = 0.5 * (1.0 - kp)  # c_1
    t = c / (2.0 * (1.0 + kp))  # t_1
    total, weight = 0.5 + t, 1.0
    for _ in range(_STEPS):
        if c * c <= 5.551115123125783e-17 * (a * a):  # 2^-54
            break
        q = c / (2.0 * (a + b))  # c_{n+1}/c_n
        c, t, weight = c * q, t * q * q, 2.0 * weight
        total += weight * t
        a, b = 0.5 * (a + b), math.sqrt(a * b)
    return 3.0 * math.pi / (a + b) * total


def _carlson(x: float, y: float, d: bool) -> float:
    """R_F(x, y, 1), or R_D(x, y, 1) if d, for 0 <= x <= y: infinite for y < _TINY, 0 at y = inf.

    x = 0 is the complete integral K(k), resp. 3 D(k), of k'^2 = y (_agm).  Otherwise
    Carlson's duplication: each step forms lambda = sqrt(x y) + sqrt(y z) + sqrt(z x) once
    and maps x, y, z and their mean A to (. + lambda)/4 (R_D also sums 4^-n/(sqrt z
    (z + lambda))), so the spreads X = (A_0 - x)/(4^n A_n), Y and Z = -(X + Y), resp.
    -(X + Y)/3, shrink fourfold a step, and the series of DLMF 19.36.1, resp. 19.36.2, in
    their symmetric functions E2..E5 finish it.
    """
    if y < _TINY:
        return math.inf
    if y == math.inf:
        return 0.0
    if x == 0.0:
        return _agm(y, d)
    a = a0 = 0.2 * (x + y + 3.0) if d else (x + y + 1.0) / 3.0
    dx, dy = a0 - x, a0 - y
    q = max(dx, (y if y > 1.0 else 1.0) - a0)  # max |A_0 - x_i| (x is the least); q/4^n = A_n max |X|
    z, scale, total = 1.0, 1.0, 0.0
    for _ in range(_STEPS):
        if q <= _SPREAD * a:
            break
        sy, sz = math.sqrt(y), math.sqrt(z)
        lam = math.sqrt(x) * (sy + sz) + sy * sz
        if d:
            total += scale / (sz * (z + lam))
        x, y, z, a = 0.25 * (x + lam), 0.25 * (y + lam), 0.25 * (z + lam), 0.25 * (a + lam)
        q, scale = 0.25 * q, 0.25 * scale
    scale /= a
    big_x, big_y = dx * scale, dy * scale
    xy = big_x * big_y
    if not d:
        big_z = -(big_x + big_y)
        e2, e3 = xy - big_z * big_z, xy * big_z
        return (1.0 + e2 * (-0.1 + e2 * (1.0 / 24.0 - 5.0 / 208.0 * e2 + e3 / 16.0) - 3.0 / 44.0 * e3)
                + e3 * (1.0 / 14.0 + 3.0 / 104.0 * e3)) / math.sqrt(a)
    big_z = (big_x + big_y) / -3.0
    zz = big_z * big_z
    e2, e3 = xy - 6.0 * zz, (3.0 * xy - 8.0 * zz) * big_z
    e4, e5 = 3.0 * (xy - zz) * zz, xy * zz * big_z
    series = (1.0 + e2 * (-3.0 / 14.0 + e2 * (9.0 / 88.0 - e2 / 16.0 + 45.0 / 272.0 * e3)
                          - 9.0 / 52.0 * e3 + 3.0 / 20.0 * e4 - 9.0 / 68.0 * e5)
              + e3 * (1.0 / 6.0 + 3.0 / 40.0 * e3 - 9.0 / 68.0 * e4) - 3.0 / 22.0 * e4 + 3.0 / 26.0 * e5)
    return scale * series / math.sqrt(a) + 3.0 * total


def complete_K(kp: float) -> float:
    """Complete elliptic integral of the first kind K(k), given kp = k' = sqrt(1 - k^2).

    K = R_F(0, kp^2, 1) (DLMF 19.25.1): inverse_am's R_F at the amplitude pi/2, bit
    for bit, with full accuracy as k -> 1, where a double k cannot hold k'.  As in
    inverse_am only kp^2 enters, so kp may round above 1.  Diverges logarithmically as
    kp -> 0 and raises where it is infinite; a negative or NaN kp is refused.
    """
    if not kp >= 0.0:
        raise ValueError(f"complementary modulus kp={kp!r} is negative or NaN")
    big_k = _carlson(0.0, kp * kp, False)
    if not math.isfinite(big_k):
        raise ValueError(f"K(k) diverges as k -> 1 (got kp={kp!r})")
    return big_k


class Nome(NamedTuple):
    """The theta series of one modulus k' (see the module docstring), formed by nome().

    big_k = K(k) is the real quarter period, inf where k'^2 underflows (the k = 1 limit);
    hyperbolic selects the series in the nome q' of k' (k' <= 1/sqrt2) over the one in q;
    scale is the series' argument per unit u, pi/(2K') or pi/(2K); coef holds the powers
    of the nome the series reads, and norm the theta(0) quotients of sn, cn and dn.
    """

    kp: float
    big_k: float
    hyperbolic: bool
    scale: float
    coef: tuple[float, ...]
    norm: tuple[float, float, float]


def nome(kp: float, big_k: float | None = None) -> Nome:
    """The series constants of k' = kp, given K = K(k) when the caller holds it (complete_K(kp)).

    K' = K(k') is complete_K of the complement k, and the nome summed is e^-(pi K'/K) or
    e^-(pi K/K'), whichever is at most e^-pi.  A kp that rounds above 1 is k = 0 and one
    whose square underflows is k = 1 (K = inf); jacobi_sn_cn_dn reads both limits in
    closed form.  One K' call and a few multiplications, so a reader of many arguments
    of one modulus forms this once (wave.WaveProfile does, per profile).
    """
    if not kp >= 0.0:
        raise ValueError(f"complementary modulus kp={kp!r} is negative or NaN")
    if kp >= 1.0:
        return Nome(1.0, 0.5 * math.pi, False, 1.0, (), (1.0, 1.0, 1.0))
    if big_k is None:
        big_k = math.inf if kp * kp == 0.0 else complete_K(kp)
    if big_k == math.inf:
        return Nome(kp, big_k, True, 1.0, (), (1.0, 1.0, 1.0))
    big_kc = complete_K(math.sqrt((1.0 - kp) * (1.0 + kp)))
    hyperbolic = big_k >= big_kc
    q = math.exp(-math.pi * (big_k / big_kc if hyperbolic else big_kc / big_k))
    q2 = q * q
    q4 = q2 * q2
    q6, q9 = q4 * q2, q4 * q4 * q
    theta3, theta4 = 1.0 + 2.0 * (q9 + q4 + q), 1.0 - 2.0 * (q9 - q4 + q)
    if hyperbolic:
        theta2 = 2.0 * (1.0 + (q4 * q4 * q4 + q6 + q2))
        return Nome(kp, big_k, True, 0.5 * math.pi / big_kc, (q, q2, q4, q6, q9),
                    (theta3 / theta4, theta2 / theta4, theta2 / theta3))
    theta2 = 1.0 + (q6 + q2)
    coef = (1.0 - (q6 + q2), 4.0 * q6, 2.0 * (q6 - q2),            # theta1, theta2 / (sin z, cos z)
            1.0 - 2.0 * q4, 4.0 * q4, 2.0 * q - 6.0 * q9, 8.0 * q9)  # theta3, theta4
    return Nome(kp, big_k, False, 0.5 * math.pi / big_k, coef,
                (theta3 / theta2, theta4 / theta2, theta4 / theta3))


def _hyperbolic(v, n: Nome):
    """(sn, cn, dn) at v in [0, K/2] from the nome q' of k' (DLMF 22.6(iv), 20.2.1-4, 22.2.4).

    Jacobi's imaginary transformation sn(v, k) = -i sc(iv, k'), cn(v, k) = nc(iv, k') and
    dn(v, k) = dc(iv, k') turns the theta functions of k' at i y, y = pi v/(2K'), into
    sums of q'^(n^2) e^(2ny).  Divided by their largest terms (e^(-t w^2) for the integer
    family, e^(-t (1/2 - w)^2) for the half-integer one; q' = e^-t, w = v/(2K)), they are
    sums in a = e^(-2y) <= 1 and b = q'/a <= e^(-t/2) over n = 0..3, resp. 1..3:

        theta1 ~ sum (-1)^n q'^(n^2) b^n (1 - a^(2n+1)),  theta2 ~ sum q'^(n^2) b^n (1 + a^(2n+1)),
        theta3, theta4 ~ 1 + sum (+-1)^n [q'^(n(n-1)) b^n + q'^(n^2) a^n],

    with sn = norm theta1/theta2, cn, dn = norm e^-y theta4, theta3/theta2.  No term grows,
    and a^m - 1 = (a - 1)(1 + a + ... + a^(m-1)) with a - 1 = expm1(-2y), so theta1 keeps
    its relative accuracy as v -> 0.
    """
    q, q2, q4, q6, q9 = n.coef
    y = n.scale * v
    rho = np.exp(-y)
    e1 = np.expm1(-2.0 * y)  # a - 1
    a = rho * rho
    b = q / a
    a2, b2, h = a * a, b * b, 1.0 + a
    s3 = h + a2  # (a^m - 1)/(a - 1), m = 3, 5, 7
    a3 = a2 * a
    s5 = s3 + a3 * h
    s7 = s5 + (a3 * a2) * h
    k1, k2, k3 = q * b, q4 * b2, (q9 * b2) * b  # q'^(n^2) b^n
    even, odd = 1.0 + k2 * s5, k1 * s3 + k3 * s7
    theta1 = -e1 * (even - odd)
    theta2 = 2.0 * ((1.0 + k2) + (k1 + k3)) + e1 * (even + odd)
    even = (1.0 + q2 * b2) + q4 * a2
    odd = b * (1.0 + q6 * b2) + a * (q + q9 * a2)
    rho = rho / theta2
    return (n.norm[0] * theta1 / theta2, n.norm[1] * rho * (even - odd),
            n.norm[2] * rho * (even + odd))


def _trigonometric(v, n: Nome):
    """(sn, cn, dn) at v in [0, K/2] from the nome q of k (DLMF 20.2.1-4, 22.2.4).

    With z = pi v/(2K), theta1 and theta2 divided by 2 q^(1/4) are sums over n = 0..2 of
    (-+1)^n q^(n(n+1)) times sin or cos of (2n+1) z, and theta3, theta4 = 1 + 2 sum over
    n = 1..3 of (+-1)^n q^(n^2) cos 2nz.  The multiple angles are polynomials in X = cos 2z
    (sin 3z = sin z (1 + 2X), cos 3z = cos z (2X - 1), sin 5z, cos 5z = (sin z, cos z)
    (4X^2 +- 2X - 1), cos 4z = 2X^2 - 1, cos 6z = X (4X^2 - 3)), so the series cost one sin
    and one cos: theta1, theta2 = (sin z, cos z) (even +- odd), theta3, theta4 = even +- odd.
    """
    c0, c1, c2, d0, d1, d2, d3 = n.coef
    z = n.scale * v
    s, c = np.sin(z), np.cos(z)
    x = 1.0 - 2.0 * (s * s)  # cos 2z
    x2 = x * x
    even, odd = c0 + c1 * x2, c2 * x
    theta1, theta2 = s * (even + odd), c * (even - odd)
    even, odd = d0 + d1 * x2, x * (d2 + d3 * x2)
    theta4 = even - odd
    return n.norm[0] * theta1 / theta4, n.norm[1] * theta2 / theta4, n.norm[2] * (even + odd) / theta4


# By octant j mod 8 of u = j K/2 + r, r in [0, K/2), over the real period 4K (DLMF Table
# 22.4.3): whether the series reads v = K/2 - r instead of r, whether the quarter-period
# reflection applies (the octant lies within K/2 of an odd multiple of K), and the signs of
# sn and cn.
_OCTANTS = np.array([
    [0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0],
    [0.0, 1.0, 1.0, 0.0, 0.0, 1.0, 1.0, 0.0],
    [1.0, 1.0, 1.0, 1.0, -1.0, -1.0, -1.0, -1.0],
    [1.0, 1.0, -1.0, -1.0, -1.0, -1.0, 1.0, 1.0],
])


def jacobi_sn_cn_dn(u: ArrayLike, kp: float | Nome) -> tuple[ArrayLike, ArrayLike, ArrayLike]:
    """Jacobi elliptic functions (sn, cn, dn) of real argument u, given kp = k' or its Nome.

    |u| is folded by the real period 4K onto v in [0, K/2] (see _OCTANTS): sn(w + 2K) =
    -sn w, cn(w + 2K) = -cn w, sn(2K - w) = sn w, cn(2K - w) = -cn w, dn even with period
    2K, and within K/2 of an odd multiple of K the quarter-period reflection dn(K - v) =
    k'/dn v, sn(K - v) = cn v/dn v, cn(K - v) = k' sn v/dn v.  So dn keeps its relative
    accuracy up to K, where it is k', and cn up to its zero, and the theta series
    (_hyperbolic, _trigonometric) are summed on [0, K/2] alone.  dn there is capped at 1,
    which the rounded quotient may pass next to v = 0.  k' >= 1 gives sin u, cos u and 1
    exactly, and k'^2 = 0 the k = 1 limit tanh u, sech u, sech u.  No real u warns: a
    non-finite u gives nan (but dn = 1 at k' >= 1, and the limits +-1, 0, 0 at k = 1).
    """
    n = kp if isinstance(kp, Nome) else nome(kp)
    scalar = np.isscalar(u)
    u = np.asarray(u, dtype=float)
    # a non-finite u gives nan (inf - inf, a nan octant, sin inf); cosh u overflows to 1/inf = 0
    with np.errstate(invalid="ignore", over="ignore"):
        if n.kp == 1.0:
            sn, cn, dn = np.sin(u), np.cos(u), np.ones_like(u)
        elif n.big_k == math.inf:
            sn, cn = np.tanh(u), 1.0 / np.cosh(u)
            dn = cn
        else:
            half_k = 0.5 * n.big_k
            a = np.abs(u)
            j = np.floor(a / half_k)
            r = a - half_k * j
            mirror, far, sn_sign, cn_sign = _OCTANTS.take(j.astype(np.intp) & 7, axis=1)
            sn, cn, dn = (_hyperbolic if n.hyperbolic else _trigonometric)(
                (1.0 - mirror) * r + mirror * (half_k - r), n)
            dn = np.minimum(dn, 1.0)
            near, reflect = 1.0 - far, far / dn  # 0 * (finite) or 1 * the reflection's 1/dn v
            sn, cn, dn = near * sn + reflect * cn, near * cn + (n.kp * reflect) * sn, near * dn + n.kp * reflect
            sn, cn = np.copysign(sn, u) * sn_sign, cn * cn_sign
    if scalar:
        return float(sn), float(cn), float(dn)
    return sn, cn, dn


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
    ks, x = kp * s, c * c
    u = s * _carlson(x, x + ks * ks, False)
    if not math.isfinite(u):  # F(pi/2; 1) = K(1), or a nan kp
        raise ValueError(f"F(psi; k) is not finite at sn : cn = {s!r} : {c!r}, kp={kp!r}")
    return u


def incomplete_D(s: float, c: float, kp: float) -> float:
    """D(psi; k) = [F(psi; k) - E(psi; k)]/k^2 at psi = atan2(s, c), s and c as for inverse_am.

    sin^3 psi R_D(cos^2 psi, cos^2 psi + k'^2 sin^2 psi, 1)/3 (DLMF 19.2.6, 19.25.9) keeps full
    accuracy as k -> 0, where F - E leaves nothing; s = 1, c = 0 give D(k) = (K - E)/k^2 and
    s = 0 gives 0.  Like inverse_am it raises where the value is not finite (D(pi/2; 1), or a
    nan kp).
    """
    if s == 0.0:
        return 0.0
    norm = math.hypot(s, c)
    s, c = s / norm, c / norm
    ks, x = kp * s, c * c
    big_d = s**3 * _carlson(x, x + ks * ks, True) / 3.0
    if not math.isfinite(big_d):  # k'^2 underflows at psi = pi/2, or a nan kp
        raise ValueError(f"D(psi; k) is not finite at sn : cn = {s!r} : {c!r}, kp={kp!r}")
    return big_d
