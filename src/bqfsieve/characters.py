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
    O(D) work, L(1,chi) about a tenth of it.
  * int_y^inf S(t)/t^2 dt, the tail integral of a D-periodic step function,
    has the closed form (1/D) sum_s S(y+s) [psi((y+s+1)/D) - psi((y+s)/D)].
  * E0(x) = min_y (y^2/x + |S(y)| + x int_y^inf |S|/t^2 dt) and its log
    variant E1(x) are evaluated on a geometric y-grid (ratio 1.1); the E1
    tail certificate is added so reported values are upper bounds.

chi over one period is a product of period tables, one per prime factor of
D: the Legendre table of each odd p (squared where p divides D to an even
power), and one table mod 8 for even D (`_chi_period`).  No sieve and no
power mod p is run.

One `CharacterProfile` per D holds what is derived from chi: chi and S over
one period are computed when it is built; |S| and its statistics, L(1,chi)
(its L1), and L'(1,chi) with its bound (its _derivative, read through
`L_values`) are each computed on their first read.

The analytic class number identity h(-D) = w sqrt(D) L(1,chi) / (2 pi) ties
this module to the reduced-form enumeration and is the main cross-check.  It
reads the profile's L1 alone, so it pays for L(1,chi) alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, partial

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .arith import CellMemo, factorize, primes_upto, spf_block, worker_map
from .forms import D_MAX, Q_MAX, Form, is_discriminant, require_discriminant, unit_count
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


# a Legendre table marks the squares r^2 mod p this many r at a time
_SQUARE_CELLS = 1 << 20


def _legendre_table(p: int) -> np.ndarray:
    """(n/p) for n = 0..p-1 as int8, p an odd prime: -1, then 1 at the
    squares r^2 mod p, r <= p/2, and 0 at 0."""
    table = np.full(p, -1, dtype=np.int8)
    table[0] = 0
    for lo in range(1, p // 2 + 1, _SQUARE_CELLS):
        r = np.arange(lo, min(lo + _SQUARE_CELLS, p // 2 + 1), dtype=np.int64)
        table[r * r % p] = 1
    return table


def _chi_period(D: int) -> np.ndarray:
    """chi(n) for n = 0..D as int8: a product of period tables, one per
    prime factor of D = 2^e m, m odd, each applied in one pass.

    e = 0 (D = 3 mod 4): chi(n) = (n/D) = prod_{p^j || D} (n/p)^j, the Jacobi
    symbol, for every n.  At odd n it is reciprocity, as -D = 1 (mod 4); at
    n = 2 it is (-D/2) = (2/D), both fixed by D mod 8.
    e >= 2: chi(n) = 0 at even n, and at odd n
        chi(n) = (-1)^(((n-1)/2)((m+1)/2)) (2/n)^e prod_{p^j || m} (n/p)^j,
    the first two factors one table of period 8.  Both sides are completely
    multiplicative on odd n, and at an odd prime p they agree:
    (-D/p) = (-1/p) (2/p)^e (m/p), and Jacobi reciprocity
    (m/p) = (p/m) (-1)^(((p-1)/2)((m-1)/2)) with (-1/p) = (-1)^((p-1)/2)
    leaves the sign (-1)^(((p-1)/2)((m+1)/2)).  (Cohen, A Course in
    Computational Algebraic Number Theory, section 1.4.)

    (n/p)^j is the Legendre table for odd j and [p does not divide n], its
    square, for even j.
    """
    if D > D_MAX:  # first, before O(D) arrays; it also keeps the int64 squares exact
        raise ValueError(f"D = {D} exceeds D_MAX = {D_MAX}")
    e = (D & -D).bit_length() - 1
    m = D >> e
    tables = []
    if e:
        sign = np.zeros(8, dtype=np.int8)
        for n in (1, 3, 5, 7):
            sign[n] = (-1) ** ((n - 1) // 2 * ((m + 1) // 2) + e * (n in (3, 5)))
        tables.append(sign)
    for p, j in factorize(D)[e > 0:]:  # the odd p^j, after 2^e when e > 0
        table = _legendre_table(p)
        tables.append(table if j % 2 else table * table)
    chi = np.ones(D + 1, dtype=np.int8)
    for table in tables:
        chi *= np.tile(table, -(-(D + 1) // len(table)))[:D + 1]
    return chi


def _em_coefficients(q: int) -> np.ndarray:
    """B_2j/(2j) for j = 1..q, each rounded once from the exact Fraction, with
    B_m from sum_{k<=m} C(m+1, k) B_k = 0 and B_0 = 1."""
    B = [Fraction(1)]
    for m in range(1, 2 * q + 1):
        B.append(-sum(math.comb(m + 1, k) * b for k, b in enumerate(B)) / (m + 1))
    return np.array([float(B[j] / j) for j in range(2, 2 * q + 1, 2)])


# L'(1,chi) sums N periods directly and closes the tail with the
# Euler-Maclaurin terms of order 1, 3, ..., 2q-1.  Their sum
# sum_j B_2j/(2j) (log u - H_{2j-1}) s^j, s = (D/u)^2, is evaluated as
# log u * P(s) - Q(s) with the coefficients below.
_EM_PERIODS = 8
_EM_ORDER = 10
# L'(1,chi) takes _SUM_CELLS residue classes at a time, and their direct sum
# max(1, _SUM_CELLS // D) periods at a time
_SUM_CELLS = 1 << 20
# the tail integral takes its grid rows (D + 1 cells each) _TAIL_CELLS cells
# at a time, one row at a time above that
_TAIL_CELLS = 1 << 20
_EM_B = _em_coefficients(_EM_ORDER)
_EM_H = np.cumsum(1 / np.arange(1, 2 * _EM_ORDER + 1))
_EM_P = np.append(_EM_B[::-1], 0.0)
_EM_Q = np.append((_EM_B * _EM_H[0::2])[::-1], 0.0)


def _digamma(x, out=None):
    """SciPy's digamma, imported on first use: importing the package, and
    every `verify` row, loads no SciPy."""
    from scipy.special import digamma

    return digamma(x, out=out)


@dataclass(frozen=True)
class LValues:
    L1: float
    L1_prime: float
    error_bound: float


class CharacterProfile:
    """Period-level data for chi_{-D}: values and prefix sums at once; the
    exact period statistics of |S| (mean, cumulative deviation) that certify
    every tail truncation, L(1,chi), and L'(1,chi) with its error bound, each
    on its first read."""

    def __init__(self, D: int):
        require_discriminant(D)
        self.D = D
        self.chi = _chi_period(D)
        # S(n) for n = r (mod D): S(D) = 0 lands in slot 0, as chi(0) = 0.
        # |S(n)| <= n < D, so the narrowest signed type holding -D holds S and
        # |S|, and sums them exactly (the profile cache keeps both)
        self.S_mod = np.cumsum(self.chi[:D], dtype=np.min_scalar_type(-D))
        if int(self.S_mod[-1]) + int(self.chi[D]) != 0:
            raise RuntimeError(f"chi_(-{D}) is not mean-zero over its period")
        for arr in (self.chi, self.S_mod):  # shared through the memo
            arr.setflags(write=False)

    @cached_property
    def abs_S(self) -> np.ndarray:
        abs_S = np.abs(self.S_mod)
        abs_S.setflags(write=False)
        return abs_S

    @cached_property
    def _mu_absS(self) -> float:
        return float(np.sum(self.abs_S)) / self.D

    @cached_property
    def _r_dev_absS(self) -> float:
        # max |sum over any window of (|S| - mu)|, windows up to one period
        vals, mu = self.abs_S, self._mu_absS
        dev = np.concatenate([[0.0], np.cumsum(np.concatenate([vals, vals]) - mu)])
        return float(np.max(dev) - np.min(dev))

    @cached_property
    def L1(self) -> float:
        """L(1,chi) in one digamma pass; see `L_values`."""
        D = self.D
        psi = np.arange(1, D + 1, dtype=np.float64)
        psi /= D
        _digamma(psi, out=psi)
        psi *= self.chi[1:]
        return -float(np.sum(psi)) / D

    @cached_property
    def _derivative(self) -> tuple[float, float]:
        """(L'(1,chi), its error bound); see `L_values`."""
        chi = self.chi
        D, N, q = self.D, _EM_PERIODS, _EM_ORDER
        y = N * D
        log_y = math.log(y)
        step = max(1, _SUM_CELLS // D)
        partial = 0.0
        # _SUM_CELLS residue classes at a time: one block, as one sum, for
        # D <= 2^20, whose direct sum is one block for D <= 2^17
        for lo in range(0, D, _SUM_CELLS):
            hi = min(lo + _SUM_CELLS, D)
            r = np.arange(lo + 1, hi + 1, dtype=np.float64)
            c = chi[lo + 1:hi + 1].astype(np.float64)
            for k in range(0, N, step):  # n = r (mod D) in periods k, k+1, ...
                kk = min(k + step, N)  # (lo = 0 when step > 1)
                n = np.arange(k * D + lo + 1, (kk - 1) * D + hi + 1, dtype=np.float64)
                n = n.reshape(kk - k, -1)
                partial += float(np.sum(np.log(n) / n * c))
            # log u = log y + log1p(r/y) keeps the cancelling log^2 u terms well
            # conditioned: -(1/2D) sum chi log^2 u = -(1/D) sum chi (log y ell + ell^2/2)
            ell = np.log1p(r / y)
            u = y + r
            log_u = log_y + ell
            s = (D / u) ** 2
            em = log_u * np.polyval(_EM_P, s) - np.polyval(_EM_Q, s)
            tail = (em - log_y * ell - ell * ell / 2) / D + log_u / (2 * u)
            partial += float(np.sum(tail * c))
        L1p = -partial

        # |h^(2q)(v)| <= (2q)! (log v + H_2q) / v^(2q+1) and D/u <= 1/N
        remainder = (abs(_EM_B[-1]) / N ** (2 * q)
                     * (math.log(y + D) + _EM_H[-1] + 1 / (2 * q)))
        # sum_{n<=y} log n/n <= log^2 y/2 + 1, and the tail pieces add at most
        # 2 log(y+D)/N + 1 in absolute value (ell <= 1/N, u >= y)
        mass = log_y**2 / 2 + 2 + 2 * math.log(y + D) / N
        rounding = (y + D + 4 * q + 16) * np.finfo(np.float64).eps * mass
        return L1p, float(remainder + rounding)

    def tail_quadratic_abs(self, y) -> "np.ndarray | float":
        """int_y^inf |S(t)|/t^2 dt = sum_{n>=y} |S(n)|/(n(n+1)), exactly."""
        return self._tail(self.abs_S, y)

    def _tail(self, vals: np.ndarray, y):
        ys = np.atleast_1d(np.asarray(y, dtype=np.int64))
        D = self.D
        # row i is vals[(y_i + s) % D], s = 0..D-1: a window of vals repeated
        windows = sliding_window_view(np.concatenate([vals, vals]), D)
        s = np.arange(D + 1.0)
        out = np.empty(len(ys))
        # _TAIL_CELLS grid cells (at least one row) at a time; a row's sum
        # is the same in any block
        step = max(1, _TAIL_CELLS // (D + 1))
        for lo in range(0, len(ys), step):
            block = ys[lo:lo + step]
            # one psi per grid point (y+s)/D, s = 0..D: the upper end of
            # cell s is the lower end of cell s+1
            psi = _digamma((block[:, None] + s) / D)
            diff = psi[:, 1:] - psi[:, :-1]
            out[lo:lo + step] = (windows[block % D] * diff).sum(axis=1) / D
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
    """L(1,chi) and L'(1,chi) for chi = chi_{-D}, with O(D) work.  Chi's
    profile holds them: its L1 is computed on the first read, here or by a
    caller that reads L(1,chi) alone, and L1_prime with error_bound together
    on the first call.

    L1 = -(1/D) sum_{r<=D} chi(r) psi(r/D).  L1_prime = -sum_n chi(n) h(n)
    with h(u) = log(u)/u, summed directly for n <= y = N D.  The tail of each
    residue class, sum_{k>=0} h(u + kD) with u = y + r, is closed by
    Euler-Maclaurin (Cohen, Number Theory II, GTM 240, ch. 9) using
    h^(k)(u) = (-1)^k k! (log u - H_k) / u^(k+1).  The divergent integral
    terms cancel over the classes because sum_r chi(r) = 0, which leaves
    -(1/2D) sum_r chi(r) log^2 u.  Both sums take _SUM_CELLS = 2^20 residue
    classes at a time, so no array of L1_prime holds more than 2^20 cells.

    error_bound bounds the error of L1_prime.  It is the Euler-Maclaurin
    remainder, (|B_2q|/(2q)!) int |g^(2q)| summed over the classes, plus the
    worst-case rounding gamma_n * sum |x_i| of summing n computed values
    (Higham, Accuracy and Stability of Numerical Algorithms, section 4.2),
    with slack for the few operations that form each value.
    """
    prof = char_profile(D)
    return LValues(prof.L1, *prof._derivative)


def class_number_estimate(D: int) -> tuple[int, float]:
    """(round(w sqrt(D) L1 / 2pi), pre-rounding residual)."""
    L1 = char_profile(D).L1
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
    # the products 1, r, r r, ... <= limit, taken in turn by cumprod and
    # rounded half to even, with floor(limit) added
    steps = int(math.log(max(limit, 1.0)) / math.log(ratio)) + 2
    ys = np.cumprod(np.r_[1.0, np.full(steps, ratio)])
    ys = np.unique(np.append(np.rint(ys[ys <= limit]).astype(np.int64), max(int(limit), 1)))
    return ys[(ys >= 1) & (ys <= limit)]


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
    N = math.ceil(z) - 1  # the l < z
    g = np.ones(N + 1, dtype=np.float64)
    g[0] = 0.0
    gp = {p: float(local_density_g(f, p)) for p in primes_upto(N)}
    spf = spf_block(0, N + 1).tolist()
    for n in range(2, N + 1):
        p = spf[n]
        g[n] = g[n // p] * gp[p]
    total = float(np.sum(g))
    lv = L_values(f.D)
    main = lv.L1 * math.log(z) + lv.L1_prime
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
