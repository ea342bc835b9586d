"""Exact lattice-point counts inside the ellipse f(u,v) <= x.

Implements the congruence-count family for a form f and squarefree modulus l:

    A        = {(u,v) : f(u,v) <= x}                       (origin included)
    A_l      = {(u,v) in A : f(u,v) = 0 mod l}
    A_l(d)   = {(u,v) in A_l : gcd(v, l) = d}
    B_l      = {(u,v) in A : gcd(v, l) = 1, f(u,v) = 0 mod l}
    B_l(m)   = {(u,v) in A : gcd(v, l) = 1, u = mv mod l}

together with the root set M(l) of a m^2 + b m + c mod l, the local density
g(l) = prod_{p | l} (1 + chi(p) - chi(p)/p)/p, and the square-root average
sum_{w <= W} sqrt(W^2 - w^2) whose main term is pi W^2/4 - W/2.

Membership tests are exact: f takes integer values, so f(u,v) <= x iff
(2au + bv)^2 + D v^2 <= T with the integer threshold T = 4a floor(x).  One
row kernel (`_rows`) turns T into the u-range of every row v at once, with
an integer square root, and every count here is built on its rows.
Counting is O(V) in the window height V = sqrt(4ax/D).  The values f(u,v)
themselves come from one value kernel on the same rows (`_row_values`, on the
v >= 0 rows of the reduced form): a U = arange and a U^2 once per window, then
one allocation and two in-place adds per row.  `value_bitmap` and
`sieve.sifted_interval_count` both read it.

The package's cache policy covers the counts: a window computes its rows once
(`EllipseWindow.rows`, read-only) and every count on it shares them; the
prefix blocks of the residue table sit in one `arith.CellMemo` bounded by
_CACHE_CELLS cells in all; and `arith.factorize`,
`arith.mult_functions`, `local_density_g` (per D and l) and the roots of f
mod each prime are memoised.
The primes come from the one prime table in `arith`.  Cached arrays are
read-only, so no caller can change a later count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np

from .arith import CellMemo, divisors, factorize, kronecker, mult_functions
from .forms import Form, is_primitive, reduce_form

__all__ = [
    "EllipseWindow",
    "CongruenceCount",
    "SqrtAverage",
    "LocalDensityReport",
    "r_f",
    "count_A",
    "count_A_ell",
    "count_B_ell",
    "count_congruence",
    "root_set",
    "sqrt_average",
    "local_density_g",
    "local_density_report",
    "value_bitmap",
]


@dataclass(frozen=True)
class EllipseWindow:
    """The region f(u,v) <= x; V = sqrt(4ax/D) is the height of the ellipse."""

    f: Form
    x: Fraction
    V: float

    @classmethod
    def of(cls, f: Form, x) -> "EllipseWindow":
        xq = x if isinstance(x, Fraction) else Fraction(x)
        # one correctly rounded int/int division, as float(4a xq / D) is
        V = math.sqrt(4 * f.a * xq.numerator / (f.D * xq.denominator)) if xq > 0 else 0.0
        return cls(f=f, x=xq, V=V)

    @cached_property
    def rows(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The kernel rows (v, lo, hi) of the window, computed once, read-only."""
        rows = _rows(self.f, math.floor(self.x))
        for r in rows:
            r.setflags(write=False)
        return rows


_EXACT_FLOAT = 1 << 52   # every integer below this is an exact float64
_INT64_ROWS = 1 << 62    # T below this keeps v, lo, hi and their sums in int64
_MAX_ROWS = 1 << 22      # window rows, ~73 B each in the kernel; a sweep row needs < 2^15
_MAX_ELL = 1 << 21       # the l^2 residue scan's products stay below l^3 < 2^63
_TABLE_CELLS = 1 << 16   # residue pairs (ubar, vbar) per block of the root table
_CACHE_CELLS = 1 << 20   # cells of all memoised prefix blocks together
_RESIDUE_CELLS = 1 << 26  # cells of the prefix blocks one window reads


def _row_span(f: Form, X: int) -> int:
    """The largest |v| of a row of {f <= X}, isqrt(4aX // D) (-1 for X < 0);
    a window over its caps is refused here, before any array."""
    T = 4 * f.a * X
    if T >= _INT64_ROWS:
        raise ValueError("window too large: 4ax must stay below 2^62")
    vmax = math.isqrt(T // f.D) if T >= 0 else -1
    if 2 * vmax + 1 > _MAX_ROWS:  # before any array of `_rows`
        raise ValueError(f"window too large: f <= {X} spans {2 * vmax + 1} rows, "
                         f"more than {_MAX_ROWS}")
    return vmax


def _rows(f: Form, X: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows of {f <= X} as int64 arrays (v, lo, hi), [lo, hi] the u-range at v.

    f(u,v) <= X iff (2au + bv)^2 <= T - Dv^2 with T = 4aX, so row v holds the
    u with |2au + bv| <= s, s = isqrt(S), S = T - Dv^2.  Below 2^52, S is an
    exact float and the floor of its correctly rounded root is isqrt(S): with
    k = isqrt(S) < 2^26, sqrt(S) >= k rounds to at least k, and sqrt(S) lies
    more than 1/(2k + 2) >= 2^-27 below k + 1, more than one ulp of a float
    below 2^26, so it rounds to less than k + 1.  From 2^52 to 2^62 that
    floor is k or k + 1: rounding S and taking the root are monotone, and the
    float root of k^2 (or of (k + 1)^2) lies less than k 2^-54, under half an
    ulp, from k (or k + 1), so it rounds to it.  One integer step down where
    s^2 > S gives k, and s^2 <= (k + 1)^2 <= 2^62.  The one row v = 0 when
    D > T takes math.isqrt, as D may exceed int64.  Empty rows are dropped.
    """
    a, b, D = f.a, f.b, f.D
    T = 4 * a * X
    vmax = _row_span(f, X)
    v = np.arange(-vmax, vmax + 1, dtype=np.int64)
    if D > T:
        s = np.array([math.isqrt(T - D * w * w) for w in range(-vmax, vmax + 1)],
                     dtype=np.int64)
    else:
        S = T - D * v * v
        s = np.sqrt(S.astype(np.float64)).astype(np.int64)
        if T >= _EXACT_FLOAT:
            s -= s * s > S
    bv = b * v
    lo = -((s + bv) // (2 * a))
    hi = (s - bv) // (2 * a)
    keep = hi >= lo
    return v[keep], lo[keep], hi[keep]


def _count_in(lo, hi, r, mod: int):
    # integers u in [lo, hi] with u = r (mod mod), for lo <= hi + 1
    return (hi - r) // mod - (lo - 1 - r) // mod


def r_f(f: Form, n: int) -> int:
    """Number of representations n = f(u,v), exact."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return 1  # origin only, by positive definiteness
    a, b, D = f.a, f.b, f.D
    T = 4 * a * n
    count = 0
    for v in range(-math.isqrt(T // D), math.isqrt(T // D) + 1):
        # solve a u^2 + (bv) u + (c v^2 - n) = 0: discriminant 4an - Dv^2
        S = T - D * v * v
        if S < 0:
            continue
        s = math.isqrt(S)
        if s * s != S:
            continue
        for sign in ((s, -s) if s else (0,)):
            num = sign - b * v
            if num % (2 * a) == 0:
                count += 1
    return count


def count_A(window: EllipseWindow) -> int:
    """|A| = #{(u,v) : f(u,v) <= x}, origin included."""
    _, lo, hi = window.rows
    return int((hi - lo + 1).sum())


def _require_squarefree(ell: int) -> None:
    if ell < 1:
        raise ValueError("modulus must be >= 1")
    if ell >= _MAX_ELL:
        raise ValueError(f"modulus {ell} too large: the l^2 residue scan needs l < 2^21")
    if not mult_functions(ell).squarefree:
        raise ValueError(f"modulus {ell} is not squarefree")


def _build_block(key) -> np.ndarray:
    # P[vbar, t] for start <= vbar < start + height, read-only
    a, b, c, ell, start, height = key
    r = np.arange(ell, dtype=np.int64)
    w = r[start:start + height, None]
    P = np.zeros((height, ell + 1), dtype=np.int32)   # entries <= l < 2^21
    np.cumsum((a * r * r + b * w * r + c * w * w) % ell == 0, axis=1, out=P[:, 1:])
    P.setflags(write=False)
    return P


_prefix_block = CellMemo(_build_block, np.size, _CACHE_CELLS)


def _residue_rows(window: EllipseWindow, ell: int):
    """Kernel rows (v, lo, hi) and, per row, #{u in [lo, hi] : f(u,v) = 0 mod l}.

    With P[vbar, t] = #{ubar < t : f(ubar, vbar) = 0 mod l}, the count of such
    u below n is F(n) = (n // l) P[vbar, l] + P[vbar, n mod l] for every
    integer n, and a row holds F(hi + 1) - F(lo) of them.  P comes from a scan
    of all l^2 residue pairs (products stay below l^3 < 2^63), a block of
    vbar at a time so that memory stays bounded for large l; the blocks are
    memoised by `_prefix_block`, keyed by (a, b, c mod l, l, start, height).
    The blocks a window needs may hold _RESIDUE_CELLS cells in all, checked
    before any is built.  The caller checks l (`_require_squarefree`).
    """
    v, lo, hi = window.rows
    if ell == 1:  # every (u, v) is a root mod 1: no table
        return v, lo, hi, hi - lo + 1
    f = window.f
    a, b, c = f.a % ell, f.b % ell, f.c % ell
    vbar = v % ell
    step = max(1, _TABLE_CELLS // ell)
    if step >= ell:  # one block holds the whole table
        return v, lo, hi, _block_counts(_prefix_block((a, b, c, ell, 0, ell)), vbar, lo, hi)
    blocks = vbar // step
    used = np.unique(blocks).tolist()  # the blocks that some row falls in
    cells = sum(min(step, ell - blk * step) for blk in used) * (ell + 1)
    if cells > _RESIDUE_CELLS:
        raise ValueError(f"modulus {ell} too large for this window: its residue "
                         f"blocks hold {cells} cells, more than {_RESIDUE_CELLS}")
    counts = np.empty_like(v)
    for blk in used:
        sel = np.flatnonzero(blocks == blk)
        start = blk * step
        P = _prefix_block((a, b, c, ell, start, min(step, ell - start)))
        counts[sel] = _block_counts(P, vbar[sel] - start, lo[sel], hi[sel])
    return v, lo, hi, counts


def _block_counts(P: np.ndarray, k: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    # F(hi + 1) - F(lo) per row, with row k of the block P holding vbar's prefix
    ell = P.shape[1] - 1
    q1, r1 = np.divmod(hi + 1, ell)
    q0, r0 = np.divmod(lo, ell)
    return (q1 - q0) * P[k, ell] + P[k, r1] - P[k, r0]


def count_A_ell(window: EllipseWindow, ell: int) -> int:
    """|A_l| alone (cheaper than the full decomposition)."""
    _require_squarefree(ell)
    return int(_residue_rows(window, ell)[3].sum())


def count_B_ell(window: EllipseWindow, ell: int) -> int:
    """|B_l| = #{(u,v) in A : gcd(v,l) = 1, f(u,v) = 0 mod l}."""
    _require_squarefree(ell)
    v, _, _, counts = _residue_rows(window, ell)
    return int(counts[np.gcd(v, ell) == 1].sum())


@lru_cache(maxsize=1 << 12)
def _prime_roots(a: int, b: int, c: int, p: int) -> tuple[int, ...]:
    m = np.arange(p, dtype=np.int64)
    return tuple(np.flatnonzero(((a * m + b) * m + c) % p == 0).tolist())


def root_set(f: Form, ell: int) -> tuple[int, ...]:
    """The ascending roots of a m^2 + b m + c = 0 mod l, so M(l) is their
    number.  Found per prime factor p by one int64 scan of m < p (memoised by
    f mod p; (a m + b) m + c < p^3 < 2^63 as p < 2^21), combined by CRT."""
    _require_squarefree(ell)
    if ell == 1:
        return (0,)
    factors = [p for p, _ in factorize(ell).factors]
    roots = [0]
    mod = 1
    for p in factors:
        p_roots = _prime_roots(f.a % p, f.b % p, f.c % p, p)
        # CRT: x = r (mod), x = rp (p); gcd(mod, p) = 1 as l is squarefree
        inv = pow(mod, -1, p)
        roots = [r + mod * ((rp - r) * inv % p) for r in roots for rp in p_roots]
        mod *= p
    return tuple(sorted(roots))


@dataclass(frozen=True)
class CongruenceCount:
    """Exact cardinalities of A_l, every A_l(d), B_l and every B_l(m), m in roots."""

    a_ell: int
    a_ell_by_d: dict[int, int]
    b_ell: int
    b_ell_by_m: dict[int, int]
    roots: tuple[int, ...]

    @property
    def counts(self) -> dict[str, int]:
        out = {"A_ell": self.a_ell, "B_ell": self.b_ell}
        for d, n in sorted(self.a_ell_by_d.items()):
            out[f"A_ell({d})"] = n
        for m, n in sorted(self.b_ell_by_m.items()):
            out[f"B_ell({m})"] = n
        return out


def count_congruence(window: EllipseWindow, ell: int) -> CongruenceCount:
    """All congruence counts for squarefree l in one pass over the window.

    A_l, every A_l(d) and B_l = A_l(1) sum one per-row count of the residue
    root table, so A_l = sum_d A_l(d) and A_l(1) = B_l hold by construction.
    Each B_l(m) is counted directly from the linear congruence u = mv, so
    B_l = sum_m B_l(m) sets the root table against those congruences; with
    A_l(d) = |B_{l/d}| of the scaled form, these two compare independent paths.
    A window over the residue-cell bound is refused before the roots are
    scanned.
    """
    _require_squarefree(ell)
    v, lo, hi, counts = _residue_rows(window, ell)
    roots = root_set(window.f, ell)
    g = np.gcd(v, ell)
    divs = divisors(ell)
    by_d = np.zeros(len(divs), dtype=np.int64)
    np.add.at(by_d, np.searchsorted(divs, g), counts)
    a_by_d = dict(zip(divs, by_d.tolist()))
    coprime = g == 1
    v, lo, hi = v[coprime], lo[coprime], hi[coprime]
    b_by_m = {m: int(_count_in(lo, hi, m * v % ell, ell).sum()) for m in roots}
    return CongruenceCount(a_ell=int(counts.sum()), a_ell_by_d=a_by_d,
                           b_ell=a_by_d[1], b_ell_by_m=b_by_m, roots=roots)


@dataclass(frozen=True)
class SqrtAverage:
    sum: float
    main_term: float
    error: float


def sqrt_average(W) -> SqrtAverage:
    """sum_{1 <= w <= W} sqrt(W^2 - w^2) against its main term pi W^2/4 - W/2."""
    if W < 1:
        raise ValueError("W must be >= 1")
    w = np.arange(1, math.floor(W) + 1, dtype=np.float64)
    total = float(np.sum(np.sqrt(W * W - w * w)))
    main = math.pi * W * W / 4 - W / 2
    return SqrtAverage(sum=total, main_term=main, error=total - main)


def local_density_g(f: Form, ell: int) -> Fraction:
    """g(l) = prod_{p|l} (1 + chi(p) - chi(p)/p)/p as an exact rational."""
    if not is_primitive(f):
        raise ValueError("local density is defined for primitive forms")
    return _local_density_g(f.D, ell)


@lru_cache(maxsize=1 << 12)
def _local_density_g(D: int, ell: int) -> Fraction:
    # g depends on f only through chi = chi_{-D}
    _require_squarefree(ell)
    g = Fraction(1)
    for p, _ in factorize(ell).factors:
        chi = kronecker(-D, p)
        g *= Fraction(p + chi * p - chi, p * p)
    return g


@dataclass(frozen=True)
class LocalDensityReport:
    """|A_l| against its predicted main term and error envelope."""

    exact: int
    main: float
    residual: float
    envelope: float

    @property
    def ratio(self) -> float:
        return abs(self.residual) / self.envelope


def local_density_report(window: EllipseWindow, ell: int,
                         exact: int | None = None) -> LocalDensityReport:
    """Measure |A_l| - g(l) (pi sqrt(D)/2a) V^2 against the envelope

    tau_3(l) V + l^(1/2) tau(l) tau_3(l) (sqrt(D)/a) V^(1/2) + 1.

    Pass `exact` to reuse an already-computed |A_l|.
    """
    f = window.f
    if exact is None:
        exact = count_A_ell(window, ell)
    V = window.V
    main = float(local_density_g(f, ell)) * math.pi * math.sqrt(f.D) / (2 * f.a) * V * V
    mv = mult_functions(ell)
    envelope = (mv.tau3 * V
                + math.sqrt(ell) * mv.tau * mv.tau3 * math.sqrt(f.D) / f.a * math.sqrt(V)
                + 1.0)
    return LocalDensityReport(exact=exact, main=main, residual=exact - main,
                              envelope=envelope)


def _row_values(f: Form, X: int):
    """Yield (w, f(u, w) for lo <= u <= hi) for each kernel row w >= 0 of {f <= X}.

    The rows are those of g = reduce_form(f), which takes the same values as f
    with the same multiplicities; the rows v < 0 repeat the rows -v, as
    g(-u, -v) = g(u, v).  U = arange(umin, umax + 1) and aU2 = a U^2 are
    computed once per call, so a row's values are U[l:h] (b w) + aU2[l:h] + c w^2:
    one allocation and two in-place adds.  All of it stays in int64: a row has
    |2au + bw| <= sqrt(T) with T = 4aX < 2^62 (`_rows`), and, g being reduced,
    |b| w <= a sqrt(T/D) <= sqrt(T/3), so |u| <= (1 + 1/sqrt 3) sqrt(T)/(2a) and
    a u^2 <= 0.62 T; |b w u| <= 0.46 T and c w^2 <= cT/D <= T/3, so every
    partial sum is below 1.5 T < 2^63.  X must be >= 0 (row 0 holds the origin).
    """
    g = reduce_form(f)
    a, b, c = g.a, g.b, g.c
    v, lo, hi = _rows(g, X)
    half = v >= 0
    v, lo, hi = v[half], lo[half], hi[half]
    umin = int(lo.min())
    U = np.arange(umin, int(hi.max()) + 1, dtype=np.int64)
    aU2 = a * U * U
    for w, l, h in zip(v.tolist(), (lo - umin).tolist(), (hi + 1 - umin).tolist()):
        t = U[l:h] * (b * w)
        t += aU2[l:h]
        t += c * w * w
        yield w, t


def value_bitmap(f: Form, x) -> np.ndarray:
    """Boolean array marking which n in [0, floor(x)] are represented by f,
    from the v >= 0 rows of `_row_values`."""
    X = math.floor(x)
    if X < 0:
        return np.zeros(0, dtype=bool)
    rep = np.zeros(X + 1, dtype=bool)
    for _, t in _row_values(f, X):
        rep[t] = True
    return rep
