"""Character sums, L(1,chi) and L'(1,chi), and the minimized error functionals.

For a discriminant -D the Kronecker symbol chi(n) = (-D/n) is a quadratic
Dirichlet character mod D whose prefix sum S(t) = sum_{n<=t} chi(n) is
periodic with period D (the full-period sum vanishes).  Everything here
exploits that periodicity:

  * L(1,chi) = -(1/D) sum_{r<=D} chi(r) psi(r/D)  (psi = digamma), the
    constant term of L(s,chi) = D^-s sum_r chi(r) zeta(s, r/D) at s = 1.
  * L'(1,chi) = -sum_n chi(n) log n / n is summed directly over a few
    periods, and the tail of each residue class is closed by
    Euler-Maclaurin; the reported error bound is the Euler-Maclaurin
    remainder plus a worst-case float-rounding term.  Both L values take
    O(D) work.
  * int_y^inf S(t)/t^2 dt, the tail integral of a D-periodic step function,
    has the closed form (1/D) sum_s S(y+s) [psi((y+s+1)/D) - psi((y+s)/D)].
  * E0(x) = min_y (y^2/x + |S(y)| + x int_y^inf |S|/t^2 dt) and its log
    variant E1(x) are evaluated on a geometric y-grid (ratio 1.1); the E1
    tail certificate is added so reported values are upper bounds.

The analytic class number identity h(-D) = w sqrt(D) L(1,chi) / (2 pi) ties
this module to the reduced-form enumeration and is the main cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.special import bernoulli, digamma

from .arith import CellMemo, primes_upto, spf_upto, worker_map
from .forms import D_MAX, Q_MAX, Form, is_discriminant, unit_count
from .lattice import local_density_g

__all__ = [
    "CharacterProfile",
    "LValues",
    "ErrorFunctionals",
    "WeightedSums",
    "LocalDensitySum",
    "ExceptionalReport",
    "char_profile",
    "char_prefix_sums",
    "L_values",
    "weighted_dirichlet_sums",
    "error_functionals",
    "sum_local_densities",
    "family",
    "average_exceptional_report",
    "class_number_estimate",
    "EULER_GAMMA",
]

EULER_GAMMA = 0.5772156649015329  # Euler-Mascheroni, hard-coded


def _chi_period(D: int) -> np.ndarray:
    """chi(n) for n = 0..D as int8.

    chi(p) comes from Euler's criterion (-D)^((p-1)/2) mod p at the odd
    primes and from -D mod 8 at p = 2; every other n follows from
    chi(n) = chi(spf(n)) chi(n/spf(n)), one block [2^k, 2^(k+1)) at a time,
    since n/spf(n) < 2^k.
    """
    if D > D_MAX:  # first, before O(D) arrays; it also keeps the int64 squares exact
        raise ValueError(f"D = {D} exceeds D_MAX = {D_MAX}")
    n = np.arange(D + 1)
    spf = spf_upto(D)[: D + 1].astype(np.int64)  # the dtype of n, for the loops below
    chi = np.zeros(D + 1, dtype=np.int8)
    chi[1] = 1
    p = n[3:][spf[3:] == n[3:]]
    b, e, r = -D % p, (p - 1) // 2, np.ones_like(p)
    while e.any():
        r = np.where(e & 1, r * b % p, r)
        b = b * b % p
        e >>= 1
    chi[p] = np.where(r == p - 1, -1, r)
    chi[2] = 0 if D % 2 == 0 else (1 if -D % 8 == 1 else -1)
    lo = 4
    while lo <= D:
        hi = min(2 * lo, D + 1)
        q = spf[lo:hi]
        chi[lo:hi] = chi[q] * chi[n[lo:hi] // q]
        lo = hi
    return chi


@dataclass(frozen=True)
class LValues:
    L1: float
    L1_prime: float
    error_bound: float


# L'(1,chi) sums N periods directly and closes the tail with the
# Euler-Maclaurin terms of order 1, 3, ..., 2q-1.  Their sum
# sum_j B_2j/(2j) (log u - H_{2j-1}) s^j, s = (D/u)^2, is evaluated as
# log u * P(s) - Q(s) with the coefficients below.
_EM_PERIODS = 8
_EM_ORDER = 10
_SUM_CELLS = 1 << 20  # the direct sum takes max(1, _SUM_CELLS // D) periods at a time
_EM_B = bernoulli(2 * _EM_ORDER)[2::2] / np.arange(2, 2 * _EM_ORDER + 1, 2)
_EM_H = np.cumsum(1 / np.arange(1, 2 * _EM_ORDER + 1))
_EM_P = np.append(_EM_B[::-1], 0.0)
_EM_Q = np.append((_EM_B * _EM_H[0::2])[::-1], 0.0)


class CharacterProfile:
    """Period-level data for chi_{-D}: values, prefix sums, the exact
    period statistics (max, mean, cumulative deviation) that certify every
    tail truncation, and the L-values once read."""

    def __init__(self, D: int):
        if not is_discriminant(D):
            raise ValueError(f"-{D} is not a discriminant (D = 0, 3 mod 4, D >= 3)")
        self.D = D
        self.chi = _chi_period(D)
        csum = np.cumsum(self.chi[1:], dtype=np.int64)
        if csum[-1] != 0:
            raise AssertionError(f"chi_(-{D}) is not mean-zero over its period")
        # S(n) for n = r (mod D); S(D) = 0 lands in slot 0.  |S(n)| <= n < D,
        # so the narrowest signed type holding -D holds S and |S| (the
        # profile cache keeps both)
        self.S_mod = np.empty(D, dtype=np.min_scalar_type(-D))
        self.S_mod[1:] = csum[:-1]
        self.S_mod[0] = 0
        self.abs_S = np.abs(self.S_mod)
        for arr in (self.chi, self.S_mod, self.abs_S):  # shared through the memo
            arr.setflags(write=False)
        self.s_max = int(np.max(self.abs_S))
        self._mu_absS = float(np.sum(self.abs_S)) / D
        self._r_dev_absS = self._max_cum_deviation(self.abs_S, self._mu_absS)

    @cached_property
    def lvals(self) -> LValues:
        """L(1,chi) and L'(1,chi), computed once per profile; see `L_values`."""
        D, N, q = self.D, _EM_PERIODS, _EM_ORDER
        chi = self.chi[1:].astype(np.float64)
        r = np.arange(1, D + 1, dtype=np.float64)
        L1 = -float(np.sum(chi * digamma(r / D))) / D

        y = N * D
        step = max(1, _SUM_CELLS // D)  # one block, as one sum, for D <= 2^17
        partial = 0.0
        for k in range(0, N, step):
            n = np.arange(k * D + 1, min(k + step, N) * D + 1, dtype=np.float64)
            n = n.reshape(-1, D)
            partial += float(np.sum(np.log(n) / n * chi))
        # log u = log y + log1p(r/y) keeps the cancelling log^2 u terms well
        # conditioned: -(1/2D) sum chi log^2 u = -(1/D) sum chi (log y ell + ell^2/2)
        ell = np.log1p(r / y)
        log_y = math.log(y)
        u = y + r
        log_u = log_y + ell
        s = (D / u) ** 2
        em = log_u * np.polyval(_EM_P, s) - np.polyval(_EM_Q, s)
        tail = (em - log_y * ell - ell * ell / 2) / D + log_u / (2 * u)
        L1p = -(partial + float(np.sum(tail * chi)))

        # |h^(2q)(v)| <= (2q)! (log v + H_2q) / v^(2q+1) and D/u <= 1/N
        remainder = (abs(_EM_B[-1]) / N ** (2 * q)
                     * (math.log(y + D) + _EM_H[-1] + 1 / (2 * q)))
        # sum_{n<=y} log n/n <= log^2 y/2 + 1, and the tail pieces add at most
        # 2 log(y+D)/N + 1 in absolute value (ell <= 1/N, u >= y)
        mass = log_y**2 / 2 + 2 + 2 * math.log(y + D) / N
        rounding = (y + D + 4 * q + 16) * np.finfo(np.float64).eps * mass
        return LValues(L1=L1, L1_prime=L1p, error_bound=remainder + rounding)

    @staticmethod
    def _max_cum_deviation(vals: np.ndarray, mu: float) -> float:
        # max |sum over any window of (vals - mu)|, windows up to one period
        dev = np.concatenate([[0.0], np.cumsum(np.concatenate([vals, vals]) - mu)])
        return float(np.max(dev) - np.min(dev))

    def tail_quadratic(self, y) -> "np.ndarray | float":
        """int_y^inf S(t)/t^2 dt = sum_{n>=y} S(n)/(n(n+1)), exactly."""
        return self._tail(self.S_mod, y)

    def tail_quadratic_abs(self, y) -> "np.ndarray | float":
        """Same closed form with |S|."""
        return self._tail(self.abs_S, y)

    def _tail(self, vals: np.ndarray, y):
        ys = np.atleast_1d(np.asarray(y, dtype=np.int64))
        D = self.D
        # one psi per grid point (y+s)/D, s = 0..D: the upper end of cell s
        # is the lower end of cell s+1
        psi = digamma((ys[:, None] + np.arange(D + 1.0)) / D)
        diff = psi[:, 1:] - psi[:, :-1]
        # row i is vals[(y_i + s) % D], s = 0..D-1: a window of vals repeated
        windows = sliding_window_view(np.concatenate([vals, vals]), D)
        out = (windows[ys % D] * diff).sum(axis=1) / D
        return out if np.ndim(y) else float(out[0])


# D period cells a profile (<= 9 B each): every D <= D_MAX is kept once built
_profile_cache = CellMemo(CharacterProfile, lambda prof: prof.D, 1 << 24)


def char_profile(D: int) -> CharacterProfile:
    return _profile_cache(D)


def char_prefix_sums(D: int, T: int) -> np.ndarray:
    """Exact integer prefix sums S(t) = sum_{n<=t} chi_{-D}(n), t = 0..T, int64."""
    if T < 1:
        raise ValueError("T must be >= 1")
    # S has period D, as the period sum vanishes
    return char_profile(D).S_mod[np.arange(T + 1) % D].astype(np.int64)


def L_values(D: int) -> LValues:
    """L(1,chi) and L'(1,chi) for chi = chi_{-D}, with O(D) work.

    L1 = -(1/D) sum_{r<=D} chi(r) psi(r/D).  L1_prime = -sum_n chi(n) h(n)
    with h(u) = log(u)/u, summed directly for n <= y = N D.  The tail of each
    residue class, sum_{k>=0} h(u + kD) with u = y + r, is closed by
    Euler-Maclaurin (Cohen, Number Theory II, GTM 240, ch. 9) using
    h^(k)(u) = (-1)^k k! (log u - H_k) / u^(k+1).  The divergent integral
    terms cancel over the classes because sum_r chi(r) = 0, which leaves
    -(1/2D) sum_r chi(r) log^2 u.

    error_bound bounds the error of L1_prime.  It is the Euler-Maclaurin
    remainder, (|B_2q|/(2q)!) int |g^(2q)| summed over the classes, plus the
    worst-case rounding gamma_n * sum |x_i| of summing n computed values
    (Higham, Accuracy and Stability of Numerical Algorithms, section 4.2),
    with slack for the few operations that form each value.
    """
    return char_profile(D).lvals


def class_number_estimate(D: int) -> tuple[int, float]:
    """(round(w sqrt(D) L1 / 2pi), pre-rounding residual)."""
    L1 = L_values(D).L1
    val = unit_count(D) * math.sqrt(D) * L1 / (2 * math.pi)
    return round(val), abs(val - round(val))


def dirichlet_convolution_table(D: int, N: int) -> np.ndarray:
    """(1 * chi)(n) for n = 0..N, exact integers."""
    prof = char_profile(D)
    conv = np.zeros(N + 1, dtype=np.int64)
    chi = prof.chi
    for d in range(1, N + 1):
        cd = chi[d % D]
        if cd:
            conv[d::d] += cd
    return conv


@dataclass(frozen=True)
class WeightedSums:
    Sigma0: float
    Sigma1: float
    main0: float
    main1: float


def weighted_dirichlet_sums(D: int, x) -> WeightedSums:
    """sum_{n<=x} (1*chi)(n)(1-n/x) and its 1/n-weighted variant, with the
    predicted main terms (x/2) L1 and L1 (log x + gamma - 1) + L1'."""
    if x < 3:
        raise ValueError("x must be >= 3")
    N = math.floor(x)
    conv = dirichlet_convolution_table(D, N).astype(np.float64)[1:]
    n = np.arange(1, N + 1, dtype=np.float64)
    weight = 1.0 - n / x
    lv = L_values(D)
    return WeightedSums(
        Sigma0=float(np.sum(conv * weight)),
        Sigma1=float(np.sum(conv / n * weight)),
        main0=x / 2 * lv.L1,
        main1=lv.L1 * (math.log(x) + EULER_GAMMA - 1) + lv.L1_prime,
    )


@dataclass(frozen=True)
class ErrorFunctionals:
    E0: float
    E1: float
    argmin_y0: float
    argmin_y1: float


def _y_grid(limit: float, ratio: float = 1.1) -> np.ndarray:
    ys = set()
    y = 1.0
    while y <= limit:
        ys.add(int(round(y)))
        y *= ratio
    ys.add(max(int(limit), 1))
    return np.array(sorted(v for v in ys if 1 <= v <= limit), dtype=np.int64)


def _functional_minima(prof: CharacterProfile, x: float, ys: np.ndarray,
                       tails: np.ndarray) -> ErrorFunctionals:
    e0 = ys.astype(np.float64) ** 2 / x + prof.abs_S[ys % prof.D] + x * tails
    logx = math.log(max(x, 1.0))
    e1 = (ys / x
          + logx * (np.log(ys) * tails + prof._mu_absS / ys
                    + prof._r_dev_absS / ys.astype(np.float64) ** 2))
    i0 = int(np.argmin(e0))
    i1 = int(np.argmin(e1))
    return ErrorFunctionals(E0=float(e0[i0]), E1=float(e1[i1]),
                            argmin_y0=float(ys[i0]), argmin_y1=float(ys[i1]))


def error_functionals(D: int, x, ratio: float = 1.1) -> ErrorFunctionals:
    """Grid minima of the two error functionals attached to chi_{-D}.

    E0 terms are evaluated exactly (closed-form tail); the E1 tail carries
    its truncation certificate, so both reported values are upper bounds for
    the true grid minima.  A finer grid ratio never increases them.
    """
    if x < 1:
        raise ValueError("x must be >= 1")
    prof = char_profile(D)
    ys = _y_grid(float(x), ratio)
    tails = np.asarray(prof.tail_quadratic_abs(ys))
    return _functional_minima(prof, float(x), ys, tails)


@dataclass(frozen=True)
class LocalDensitySum:
    sum: float
    residual: float


def sum_local_densities(f: Form, z: float) -> LocalDensitySum:
    """sum_{l < z} g(l) with g treated as completely multiplicative, against
    the predicted L1 log z + L1'."""
    if z < 1:
        raise ValueError("z must be >= 1")
    D = f.D
    N = math.ceil(z) - 1 if math.ceil(z) == z else math.floor(z)
    total = 0.0
    if N >= 1:
        g = np.zeros(N + 1, dtype=np.float64)
        g[1] = 1.0
        gp = {p: float(local_density_g(f, p)) for p in primes_upto(N)}
        spf = spf_upto(N)[: N + 1].tolist()
        for n in range(2, N + 1):
            p = spf[n]
            g[n] = g[n // p] * gp[p]
        total = float(np.sum(g))
    lv = L_values(D)
    main = lv.L1 * math.log(z) + lv.L1_prime if z > 1 else lv.L1_prime
    return LocalDensitySum(sum=total, residual=total - main)


def family(Q: int) -> tuple[int, ...]:
    """All D with 3 <= D <= Q and -D = 0, 1 (mod 4), Q <= Q_MAX, ascending."""
    if not 3 <= Q <= Q_MAX:
        raise ValueError(f"Q must lie in [3, {Q_MAX}], got {Q}")
    return tuple(D for D in range(3, Q + 1) if is_discriminant(D))


@dataclass(frozen=True)
class ExceptionalReport:
    Q: int
    epsilon: float
    total: int
    violators_E: int
    violators_L: int
    fraction_E: float
    fraction_L: float


def _x_grid(lo: float, hi: float, per_decade: int = 4) -> list[float]:
    if hi < lo:
        hi = lo
    n = max(int(math.ceil(math.log10(hi / lo) * per_decade)), 1)
    return [lo * (hi / lo) ** (k / n) for k in range(n + 1)]


def scan_discriminant(D: int, epsilon: float, x_cap: float = 1e7) -> tuple[bool, bool]:
    """(violates_E, violates_L) for one discriminant.

    Tests E0 <= x^(7/8+eps) and E1 <= x^(-1/8+eps) on a log grid over
    [D^eps, D^(2+eps)] (capped), and -L'/L <= 10 log log D.
    """
    prof = char_profile(D)
    x_lo = float(D) ** epsilon
    x_hi = min(float(D) ** (2 + epsilon), x_cap)
    xs = _x_grid(x_lo, x_hi)
    ys = _y_grid(xs[-1])
    # the loop stops at the first violating x, so tail rows are computed
    # only as far as the rows ys <= x that it reads (at least one)
    tails = np.empty(len(ys))
    done = 0
    viol_E = False
    for x in xs:
        k = max(int(np.searchsorted(ys, x, side="right")), 1)
        if k > done:
            tails[done:k] = prof.tail_quadratic_abs(ys[done:k])
            done = k
        ef = _functional_minima(prof, x, ys[:k], tails[:k])
        if ef.E0 > x ** (7 / 8 + epsilon) or ef.E1 > x ** (-1 / 8 + epsilon):
            viol_E = True
            break
    lv = L_values(D)
    viol_L = (-lv.L1_prime / lv.L1) > 10 * math.log(math.log(D))
    return viol_E, viol_L


def average_exceptional_report(Q: int, epsilon: float, x_cap: float = 1e7,
                               jobs: int = 1) -> ExceptionalReport:
    """Count family members violating the average character-sum envelopes."""
    if Q < 100:
        raise ValueError("Q must be >= 100")
    if not 0 < epsilon < 0.125:
        raise ValueError("epsilon must lie in (0, 1/8)")
    if not (math.isfinite(x_cap) and x_cap >= 1):
        raise ValueError(f"x_cap must be a finite number >= 1, got {x_cap}")
    members = family(Q)
    scan = partial(scan_discriminant, epsilon=epsilon, x_cap=x_cap)
    with worker_map(scan, members, jobs) as flags:
        flags = list(flags)
    ve = sum(1 for e, _ in flags if e)
    vl = sum(1 for _, l in flags if l)
    total = len(members)
    return ExceptionalReport(Q=Q, epsilon=epsilon, total=total,
                             violators_E=ve, violators_L=vl,
                             fraction_E=ve / total, fraction_L=vl / total)
