"""Exact integer arithmetic primitives shared by every other module.

Provides the Kronecker symbol (m/n) with its standard extension to even and
non-positive n, an Eratosthenes prime table, trial-division factorization and
the small multiplicative functions (mu, phi, tau, tau_3, omega, Omega) that
the congruence-sum and sieve machinery consume.  Everything here is exact:
Python integers throughout, no floating point.  `factorize` and
`mult_functions` are pure and return frozen values, so both are memoised.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

__all__ = [
    "PrimeTable",
    "Factorization",
    "MultValues",
    "kronecker",
    "sieve_primes",
    "factorize",
    "mult_functions",
    "divisors",
    "is_prime",
    "shared_prime_table",
]


@dataclass(frozen=True)
class PrimeTable:
    """Primes up to `limit`, as a bit-indexed predicate plus an ascending list."""

    limit: int
    is_prime: bytes
    primes: tuple[int, ...]

    def __contains__(self, n: int) -> bool:
        if 0 <= n <= self.limit:
            return self.is_prime[n] == 1
        raise ValueError(f"{n} outside table limit {self.limit}")

    def count(self) -> int:
        return len(self.primes)


def sieve_primes(limit: int) -> PrimeTable:
    """Sieve of Eratosthenes up to `limit` inclusive."""
    if limit < 2:
        raise ValueError("limit must be >= 2")
    flags = bytearray([1]) * (limit + 1)
    flags[0] = flags[1] = 0
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = bytes(len(range(p * p, limit + 1, p)))
    primes = tuple(i for i in range(2, limit + 1) if flags[i])
    return PrimeTable(limit=limit, is_prime=bytes(flags), primes=primes)


_shared_table: PrimeTable | None = None


def shared_prime_table(limit: int) -> PrimeTable:
    """Process-wide cached prime table, regrown on demand."""
    global _shared_table
    if _shared_table is None or _shared_table.limit < limit:
        _shared_table = sieve_primes(max(limit, 1 << 16))
    return _shared_table


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


@dataclass(frozen=True)
class Factorization:
    """n = prod p^e with primes strictly ascending."""

    n: int
    factors: tuple[tuple[int, int], ...]

    def __post_init__(self):
        prod = 1
        for p, e in self.factors:
            prod *= p**e
        if prod != self.n:
            raise ValueError(f"inconsistent factorization of {self.n}")


@lru_cache(maxsize=1 << 12)
def factorize(n: int) -> Factorization:
    """Trial division against the cached prime table; exact for any n >= 1.

    Adequate at desk scale (n up to ~1e12 worst case); swap in Pollard rho
    if the table-bounded trial division ever becomes the bottleneck.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    factors = []
    rem = n
    table = shared_prime_table(min(max(math.isqrt(n), 2), 1 << 22))
    for p in table.primes:
        if p * p > rem:
            break
        if rem % p == 0:
            e = 0
            while rem % p == 0:
                rem //= p
                e += 1
            factors.append((p, e))
    if rem > 1:
        if p * p <= rem and not is_prime(rem):
            # table exhausted before sqrt(rem): finish by odd trial division
            q = table.limit + (table.limit % 2 == 0)
            while q * q <= rem:
                if rem % q == 0:
                    e = 0
                    while rem % q == 0:
                        rem //= q
                        e += 1
                    factors.append((q, e))
                q += 2
        if rem > 1:
            factors.append((rem, 1))
    return Factorization(n=n, factors=tuple(factors))


@dataclass(frozen=True)
class MultValues:
    mu: int
    phi: int
    tau: int
    tau3: int
    omega: int
    big_omega: int
    squarefree: bool


@lru_cache(maxsize=1 << 12)
def mult_functions(n: int) -> MultValues:
    """mu, phi, tau, tau_3, omega, Omega and squarefreeness of n, exactly."""
    fac = factorize(n)
    mu, phi, tau, tau3, omega, big = 1, 1, 1, 1, 0, 0
    squarefree = True
    for p, e in fac.factors:
        omega += 1
        big += e
        phi *= p ** (e - 1) * (p - 1)
        tau *= e + 1
        tau3 *= (e + 1) * (e + 2) // 2
        if e > 1:
            squarefree = False
            mu = 0
        elif mu != 0:
            mu = -mu
    return MultValues(mu=mu, phi=phi, tau=tau, tau3=tau3, omega=omega,
                      big_omega=big, squarefree=squarefree)


def divisors(n: int) -> list[int]:
    """Ascending list of divisors of n."""
    fac = factorize(n)
    divs = [1]
    for p, e in fac.factors:
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return sorted(divs)


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid for all n < 2^64."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True
