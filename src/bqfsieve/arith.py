"""Exact integer arithmetic primitives shared by every other module.

Provides the Kronecker symbol (m/n) with its standard extension to even and
non-positive n, factorization of 1 <= n < 2^44 by trial division against the
prime table, the small multiplicative functions (mu, tau, tau_3) that the
congruence-sum and sieve machinery consume, and the package's one prime
table, its only test of primality: `sieve_primes` is its one Eratosthenes
kernel, and `spf_block` its one smallest-prime-factor sieve, run per call.
The two shared tables, the prime mask (`prime_table`, presized by a sweep)
and the Omega table (filled in spf blocks), are read-only and grow to
max(request, 2 x current), never past MASK_CAP cells.  `primes_upto` gives
Python ints, so no numpy scalar reaches a Fraction, a cache key or pow.
`factorize` and `mult_functions` are memoised, and `CellMemo` is the
package's one memo for arrays: least recently used out first, bounded by the
cells it keeps.  `worker_map` is its one worker pool, refusing jobs outside
[1, JOBS_MAX].
"""

from __future__ import annotations

import math
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "CellMemo",
    "MultValues",
    "kronecker",
    "sieve_primes",
    "factorize",
    "mult_functions",
    "divisors",
    "prime_table",
    "primes_upto",
    "spf_block",
    "big_omega_upto",
    "worker_map",
]


MASK_CAP = 2 * 10**8   # cells of each shared table
JOBS_MAX = 64  # a pool forks all of its workers on its first task, ~60 MiB each


@contextmanager
def worker_map(fn, items, jobs: int, init=None, *initargs):
    """Yield fn mapped over items in order, after init(*initargs): here for
    one job or item, else on a pool of `jobs` workers that takes the items in
    chunks of 16 and cancels the queued chunks on exit."""
    if not 1 <= jobs <= JOBS_MAX:
        raise ValueError(f"jobs must lie in [1, {JOBS_MAX}], got {jobs}")
    if jobs == 1 or len(items) <= 1:
        if init:
            init(*initargs)
        yield map(fn, items)
        return
    from concurrent.futures import ProcessPoolExecutor

    pool = ProcessPoolExecutor(jobs, initializer=init, initargs=initargs)
    try:
        yield pool.map(fn, items, chunksize=16)
    finally:
        pool.shutdown(cancel_futures=True)


def sieve_primes(limit: int) -> np.ndarray:
    """Sieve of Eratosthenes up to `limit` inclusive: a read-only bool mask,
    True at the primes."""
    if limit < 2:
        raise ValueError("limit must be >= 2")
    mask = np.ones(limit + 1, dtype=bool)
    mask[:2] = False
    mask[4::2] = False
    for p in range(3, math.isqrt(limit) + 1, 2):
        if mask[p]:
            mask[p * p :: 2 * p] = False
    mask.setflags(write=False)
    return mask


_mask = np.zeros(0, dtype=bool)
_omega = np.zeros(0, dtype=np.uint8)


def _grown(have: int, want: int, what: str) -> int:
    # the one growth rule: a table up to `have`, short of `want`, grows to
    # max(want, 2 have), never past MASK_CAP
    if want > MASK_CAP:
        raise ValueError(f"{what} limited to 2e8; use a smaller x")
    return min(max(want, 2 * have), MASK_CAP)


class CellMemo:
    """`build(key)` memoised, least recently used out first: the kept values
    cost `cost(value)` cells each and `bound` cells in all, and a value that
    costs more than `bound` is built and not kept."""

    def __init__(self, build, cost, bound: int):
        self.build, self.cost, self.bound = build, cost, bound
        self.kept = OrderedDict()
        self.cells = 0

    def __call__(self, key):
        value = self.kept.pop(key, None)  # put back last: most recently used
        if value is None:
            value = self.build(key)
            if self.cost(value) > self.bound:
                return value
            self.cells += self.cost(value)
        self.kept[key] = value
        while self.cells > self.bound:
            self.cells -= self.cost(self.kept.popitem(last=False)[1])
        return value

    def __contains__(self, key) -> bool:
        return key in self.kept

    def cache_clear(self) -> None:
        self.kept.clear()
        self.cells = 0


def prime_table(limit: int) -> np.ndarray:
    """The shared prime mask, covering at least 0..limit; it grows only by
    calling `sieve_primes`, and never below 2^16."""
    global _mask
    if len(_mask) <= limit:
        _mask = sieve_primes(max(_grown(len(_mask) - 1, limit, "prime mask"), 1 << 16))
    return _mask


def primes_upto(n: int) -> list[int]:
    """The primes <= n, ascending, as Python ints read from the shared mask."""
    return np.flatnonzero(prime_table(n)[: n + 1]).tolist() if n >= 2 else []


def spf_block(lo: int, hi: int) -> np.ndarray:
    """Smallest prime factors spf(m) for lo <= m < hi as int32, sieved by the
    primes <= sqrt(hi - 1); spf(0) = 0 and spf(1) = 1."""
    spf = np.arange(lo, hi, dtype=np.int32)
    for p in reversed(primes_upto(math.isqrt(hi - 1))):
        # descending p, so the smallest prime dividing m writes last
        spf[max(p * p, -(-lo // p) * p) - lo :: p] = p
    spf.setflags(write=False)
    return spf


def big_omega_upto(n: int) -> np.ndarray:
    """Omega(m), prime factors with multiplicity, for m = 0..M, M >= n
    (shared, uint8).  Omega(m) = Omega(m / spf(m)) + 1 fills one spf block
    [lo, hi), hi <= 2 lo, at a time, as m / spf(m) < lo; growth keeps the
    filled prefix."""
    global _omega
    have = len(_omega)
    if have <= n:
        omega = np.zeros(_grown(have - 1, n, "Omega table") + 1, dtype=np.uint8)
        omega[:have] = _omega
        lo = max(have, 2)
        while lo < len(omega):
            hi = min(2 * lo, lo + (1 << 20), len(omega))
            omega[lo:hi] = omega[np.arange(lo, hi) // spf_block(lo, hi)] + 1
            lo = hi
        omega.setflags(write=False)
        _omega = omega
    return _omega


def kronecker(m: int, n: int) -> int:
    """Kronecker symbol (m/n).

    Standard convention: (m/0) = 1 iff m = +-1, (m/-1) = sign of m (with
    (m/-1) = 1 for m >= 0), (m/2) determined by m mod 8, completely
    multiplicative in n.  Rejects (0, 0).
    """
    if m == 0 and n == 0:
        raise ValueError("kronecker(0, 0) is undefined")
    if n == 0:
        return 1 if m in (1, -1) else 0
    k = 1
    if n < 0:
        n = -n
        if m < 0:
            k = -k
    if n % 2 == 0:
        if m % 2 == 0:
            return 0
        while n % 2 == 0:
            n //= 2
            if m % 8 in (3, 5):
                k = -k
    # n now odd and positive: reciprocity loop
    m %= n
    while m != 0:
        while m % 2 == 0:
            m //= 2
            if n % 8 in (3, 5):
                k = -k
        m, n = n, m
        if m % 4 == 3 and n % 4 == 3:
            k = -k
        m %= n
    return k if n == 1 else 0


@lru_cache(maxsize=1 << 12)
def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """n = prod p^e as the pairs (p, e), p strictly ascending, for 1 <= n < 2^44.

    Trial division by the table's primes <= sqrt(n) < 2^22 leaves 1 or a
    prime.  The package factors a discriminant D <= D_MAX, a modulus l < 2^21
    and a divisor of P(z) below z^2, all far inside the bound, so anything
    else is refused before any work.
    """
    if not 1 <= n < 1 << 44:
        raise ValueError(f"factorize needs 1 <= n < 2^44, got {n}")
    factors = []
    rem = n
    for p in primes_upto(math.isqrt(n)):
        if p * p > rem:
            break
        if rem % p == 0:
            e = 0
            while rem % p == 0:
                rem //= p
                e += 1
            factors.append((p, e))
    if rem > 1:
        factors.append((rem, 1))
    return tuple(factors)


@dataclass(frozen=True)
class MultValues:
    mu: int
    tau: int
    tau3: int
    squarefree: bool


@lru_cache(maxsize=1 << 12)
def mult_functions(n: int) -> MultValues:
    """mu, tau, tau_3 and squarefreeness of n, exactly."""
    mu, tau, tau3 = 1, 1, 1
    squarefree = True
    for p, e in factorize(n):
        tau *= e + 1
        tau3 *= (e + 1) * (e + 2) // 2
        if e > 1:
            squarefree = False
            mu = 0
        elif mu != 0:
            mu = -mu
    return MultValues(mu=mu, tau=tau, tau3=tau3, squarefree=squarefree)


def divisors(n: int) -> list[int]:
    """Ascending list of divisors of n."""
    divs = [1]
    for p, e in factorize(n):
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return sorted(divs)
