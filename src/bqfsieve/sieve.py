"""Selberg upper-bound sieve for primes represented by a form, theorem-bound
evaluators, exact prime counts pi_f, and almost-prime counts.

The sifting density is g(p) = (1 + chi(p) - chi(p)/p)/p; the Selberg system
uses h(l) = prod_{p|l} g(p)/(1 - g(p)) over squarefree l | P(z), l < z, with
J = sum h(l) and optimal weights

    lambda_d = mu(d) (h(d)/g(d)) J_d / J,
    J_d = sum_{m < z/d, m | P(z), (m,d)=1} h(m),

computed exactly as rationals (so the minimized quadratic form equals 1/J
identically and |lambda_d| <= 1 is checked, which is what makes the final
bound an honest inequality between computed numbers).  Remainders r_l come
from exact lattice counts, never from the error envelope.

The pinned sifting parameter is z = (a/(Dx))^(1/4) y^(1/2) (log y)^(-7) + 1
(`pinned_z`); at desk scale the (log y)^7 factor keeps z barely above 1, so
the system is usually the degenerate l = 1 one and the bound reduces to
2 pi y / sqrt(D) plus the exact remainder, and the sifted count is the l = 1
interval count itself.  At larger z, run by the tests, `sifted_interval_count`
gathers from a mask of the n <= x with no prime factor <= z, as pi_f does.

pi_f needs no table of represented values.  A prime p not dividing D has
r_f(p) = 0 or r = w (1 + [f ambiguous]) representations (w = unit_count(D)),
so it counts the lattice points whose value is an odd prime in range,
gathered from the prime mask by `lattice.count_odd_points`, subtracts
r_f(p) for the odd p | D, divides by r (a remainder raises RuntimeError),
and adds 1 for each p | 2D in range that f represents.  The value bitmap
serves only the almost-prime count, which needs Omega of every value.

Primes, the prime mask and Omega come from the one table in `arith` (grown to
max(request, 2 x current), capped at MASK_CAP); this module keeps none.
The sieve and the theorem it proves stay apart: a `SieveReport` holds the
sieve's values alone, `pi_f_interval` counts the primes, and `theorem_rhs`
gives theta, theta', the right-hand side and the theta it used, the one place
that picks the short-interval bound (y < x) or the full-range one.
`theorem_rhs` takes h(-D) from a caller that has it; h = None counts it with
`enumerate_class_set`.  A report computes script_J and its degenerate-L
branch only when they are read (`bqf sieve` reads them, a sweep row does not).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np

from . import arith
from .arith import big_omega_upto, factorize, mult_functions, prime_table, primes_upto
from .characters import L_values, char_profile, sum_local_densities
from .forms import (Form, delta_f, enumerate_class_set, is_ambiguous, is_primitive,
                    is_reduced, reduce_form, unit_count)
from .lattice import (EllipseWindow, count_A, count_A_ell, count_odd_points,
                      local_density_g, r_f, row_span, value_bitmap)

__all__ = [
    "SieveReport",
    "TheoremBounds",
    "pi_f",
    "pi_f_interval",
    "sifted_interval_count",
    "selberg_upper_bound",
    "selberg_system",
    "theorem_rhs",
    "pinned_z",
    "full_range_x", "interval_min_y", "almost_range_x", "almost_rhs",
    "count_almost_primes",
]


def __getattr__(name: str):
    # `_prime_mask` aliases the shared mask for bench/tracer.py's rebuild
    # count, until ROADMAP item 6 moves tracing into the library
    if name == "_prime_mask":
        return arith._mask
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def pi_f(f: Form, x) -> int:
    """Number of primes p <= x represented by f (`pi_f_interval` at y = x)."""
    x = max(x, 0)
    return pi_f_interval(f, x, x)


def pi_f_interval(f: Form, x, y) -> int:
    """pi_f(x) - pi_f(x - y), for 0 <= y <= x: the represented primes p with
    floor(x - y) < p <= floor(x): the lattice points on an odd prime in range,
    less r_f(p) for the odd p | D, over r = w (1 + [f ambiguous]), plus the
    p | 2D in range that f represents."""
    if not is_primitive(f):
        raise ValueError("pi_f expects a primitive form")
    if not 0 <= y <= x:
        raise ValueError("need 0 <= y <= x")
    ramified = [p for p, _ in factorize(f.D)]  # refuses D >= 2^44 before any array
    X = math.floor(x)
    if X < 2:
        return 0
    low = math.floor(x - y)
    g = reduce_form(f)
    row_span(g, X)  # the row cap, then the mask cap, before any array
    points = count_odd_points(f, X, low, prime_table(X))
    count = 0
    for p in {2, *ramified}:
        if low < p <= X:
            rp = r_f(g, p)
            if p > 2:
                points -= rp
            count += rp > 0
    r = unit_count(f.D) * (1 + is_ambiguous(f))
    primes, rest = divmod(points, r)
    if rest:
        raise RuntimeError(f"{points} points of {f.triple()} with a prime value not "
                           f"dividing 2D do not divide by r = {r}")
    return count + primes


def sifted_interval_count(f: Form, x, y, z) -> int:
    """sum of r_f(n) over x - y < n <= x, n with no prime factor <= z: the window's points
    at z < 2, else the odd points (z >= 2 sifts even n) gathered from a mask of such n."""
    if y < 0 or y > x:
        raise ValueError("need 0 <= y <= x")
    small_primes = primes_upto(math.floor(z))
    if not small_primes:
        return count_A(EllipseWindow.of(f, x)) - count_A(EllipseWindow.of(f, x - y))
    X = math.floor(x)
    if X > arith.MASK_CAP:  # before the mask
        raise ValueError(f"x = {X} is above the mask cap {arith.MASK_CAP}")
    keep = np.ones(X + 1, dtype=bool)
    for p in small_primes:
        keep[::p] = False
    return count_odd_points(f, X, math.floor(x - y), keep)


@dataclass(frozen=True)
class SelbergSystem:
    """Exact-rational Selberg weight system at sifting parameter z."""

    primes: tuple[int, ...]
    support: tuple[int, ...]            # squarefree d | P(z), d < z
    J: Fraction
    lambdas: dict[int, Fraction]
    remainder_moduli: tuple[int, ...]   # squarefree l | P(z), l < z^2
    cross_coeff: dict[int, Fraction]    # sum_{[d1,d2]=l} lambda_d1 lambda_d2


def _squarefree_products(primes: list[int], limit: float) -> list[int]:
    out = [1]
    for p in primes:
        out.extend(v * p for v in list(out) if v * p < limit)
    return sorted(v for v in out if v < limit)


def _build_system(f: Form, z: float) -> SelbergSystem:
    primes = primes_upto(math.floor(z))
    gp = {p: local_density_g(f, p) for p in primes}
    support = _squarefree_products(primes, z)
    h = {d: math.prod((gp[p] / (1 - gp[p]) for p in primes if d % p == 0),
                      start=Fraction(1)) for d in support}
    J = sum(h.values(), Fraction(0))
    lambdas: dict[int, Fraction] = {}
    for d in support:
        J_d = sum(h[m] for m in support if m * d < z and math.gcd(m, d) == 1)
        lam = mult_functions(d).mu * (h[d] / local_density_g(f, d)) * J_d / J
        if abs(lam) > 1:
            raise RuntimeError(f"Selberg weight lambda_{d} = {lam} escaped [-1, 1]")
        lambdas[d] = lam
    moduli = _squarefree_products(primes, z * z)
    cross: dict[int, Fraction] = {l: Fraction(0) for l in moduli}
    for d1 in support:
        l1 = lambdas[d1]
        for d2 in support:
            l = d1 * d2 // math.gcd(d1, d2)
            cross[l] += l1 * lambdas[d2]
    return SelbergSystem(primes=tuple(primes), support=tuple(support), J=J,
                         lambdas=lambdas, remainder_moduli=tuple(moduli),
                         cross_coeff=cross)


_system_cached = lru_cache(maxsize=128)(_build_system)  # bench/tracer.py reads cache_info()


def selberg_system(f: Form, z: float) -> SelbergSystem:
    return _system_cached(f, float(z))


def _check_sieve_range(f: Form, x, y) -> None:
    if not is_reduced(f) or not is_primitive(f):
        raise ValueError("selberg sieve expects a reduced primitive form")
    if x < f.D / f.a:
        raise ValueError("need x >= D/a")
    if not math.sqrt(f.a * x) <= y <= x:
        raise ValueError("need (ax)^(1/2) <= y <= x")


def pinned_z(f: Form, x, y) -> float:
    """The theorem's sifting parameter z = (a/(Dx))^(1/4) y^(1/2) (log y)^(-7) + 1.

    Like `selberg_upper_bound`, it refuses a form that is not reduced and
    primitive, and x and y outside the sieve's range x >= D/a,
    (ax)^(1/2) <= y <= x, so a caller can check them before it counts.
    """
    _check_sieve_range(f, x, y)
    return (f.a / (f.D * x)) ** 0.25 * math.sqrt(y) * math.log(y) ** -7 + 1


@dataclass(frozen=True)
class TheoremBounds:
    theta: float
    theta_prime: float
    theta_used: float  # the one of theta, theta' that rhs is built from
    rhs: float


def _pow(base: float, exp: float) -> float:
    # base^exp, +inf where that overflows a float: a range no x reaches
    try:
        return base ** exp
    except OverflowError:
        return math.inf


def full_range_x(D: int, a: int, phi_mode: float, epsilon: float) -> float:
    """Smallest x in the Brun-Titchmarsh full range: (D^(1+4 phi)/a)^(1+epsilon),
    +inf where that overflows a float."""
    return _pow(D ** (1 + 4 * phi_mode) / a, 1 + epsilon)


def interval_min_y(D: int, a: int, x, phi_mode: float, epsilon: float) -> float:
    """Smallest y of the short-interval range: (D^(1+4 phi) x/a)^(1/2+epsilon),
    +inf where that overflows a float."""
    return _pow(D ** (1 + 4 * phi_mode) / a, 0.5 + epsilon) * _pow(x, 0.5 + epsilon)


def almost_range_x(D: int, a: int, k: int) -> float:
    """Smallest x in the almost-prime theorem's range: (D/a)^(1+49/(5k-49)), k >= 10."""
    return (D / a) ** (1 + 49 / (5 * k - 49))


def almost_rhs(D: int, x) -> float:
    """The almost-prime lower bound 0.5 x / (sqrt(D) log^2 x) at x."""
    return 0.5 * x / (math.sqrt(D) * math.log(x) ** 2)


def theorem_rhs(f: Form, x, y, phi_mode: float, epsilon: float,
                h: int | None = None) -> TheoremBounds:
    """theta, theta' and the theorem's Brun-Titchmarsh right-hand side at x, y.

    rhs is the short-interval bound 2/(1-theta') delta_f y / (h(-D) log y) when
    y < x and the full-range bound 4/(1-theta) delta_f x / (h(-D) log x) when
    y = x, and `theta_used` is the theta' or theta it took; a vacuous bound
    (theta_used >= 1) is nan.  h = None counts h(-D), which refuses a D above
    D_MAX.
    """
    if not is_reduced(f) or not is_primitive(f):
        raise ValueError("theorem_rhs expects a reduced primitive form")
    if phi_mode not in (0, 0.25):
        raise ValueError("phi_mode must be 0 or 0.25")
    if not epsilon > 0:
        raise ValueError(f"epsilon must be > 0, got {epsilon}")
    if not 1 < y <= x:
        raise ValueError("need 1 < y <= x")
    D, a = f.D, f.a
    lx, ly, lD, la = math.log(x), math.log(y), math.log(D), math.log(a)
    phi = phi_mode
    theta = (1 + 2 * phi + epsilon / 2) * lD / lx - la / lx
    theta_p = lx / (2 * ly) + (0.5 + phi + epsilon / 4) * lD / ly - la / (2 * ly)
    h = enumerate_class_set(D).h if h is None else h
    delta = delta_f(f)
    k, used, t, lt = (2, theta_p, y, ly) if y < x else (4, theta, x, lx)
    rhs = k / (1 - used) * delta * t / (h * lt) if used < 1 else math.nan
    return TheoremBounds(theta=theta, theta_prime=theta_p, theta_used=used, rhs=rhs)


@dataclass(frozen=True)
class SieveReport:
    f: Form
    y: float
    z: float
    J: float
    main_term: float
    remainder_majorized: float
    remainder_signed: float
    upper_bound: float
    sifted_count: int

    @cached_property
    def degenerate_L_branch(self) -> bool:
        return char_profile(self.f.D).L1 < math.log(self.y) ** -2

    @cached_property
    def script_J(self) -> float:
        if self.degenerate_L_branch:
            return math.log(self.y) ** 2
        return sum_local_densities(self.f, self.z).sum / L_values(self.f.D).L1


def selberg_upper_bound(f: Form, x, y, z: float) -> SieveReport:
    """Run the sieve on (x - y, x] at sifting parameter z with exact remainders.

    upper_bound = (2 pi y / sqrt(D)) / J + sum_{l | P(z), l < z^2} tau_3(l) |r_l|
    with r_l = |A_l(x)| - |A_l(x-y)| - g(l) 2 pi y / sqrt(D) from exact lattice
    counts, so upper_bound >= sifted_count is an inequality between computed
    numbers, not an asymptotic claim.  The report holds the sieve's values
    alone: pi_f and the theorem's bound are `pi_f_interval` and `theorem_rhs`.
    """
    _check_sieve_range(f, x, y)
    row_span(f, math.floor(x))  # the window's row cap, before any array
    sys = selberg_system(f, z)
    main_density = 2 * math.pi * y / math.sqrt(f.D)
    J = float(sys.J)
    main = main_density / J
    win_hi = EllipseWindow.of(f, x)
    win_lo = EllipseWindow.of(f, x - y)
    rem_maj = 0.0
    rem_signed = 0.0
    sifted = None
    for ell in sys.remainder_moduli:
        interval = count_A_ell(win_hi, ell) - count_A_ell(win_lo, ell)
        if ell == 1 and not sys.primes:
            sifted = interval  # P(z) = 1 sifts nothing out of (x - y, x]
        r_ell = interval - float(local_density_g(f, ell)) * main_density
        rem_maj += mult_functions(ell).tau3 * abs(r_ell)
        rem_signed += float(sys.cross_coeff[ell]) * r_ell
    if sifted is None:
        sifted = sifted_interval_count(f, x, y, z)
    return SieveReport(f=f, y=y, z=z, J=J, main_term=main, remainder_majorized=rem_maj,
                       remainder_signed=rem_signed, upper_bound=main + rem_maj,
                       sifted_count=sifted)


def count_almost_primes(f: Form, x, k: int) -> int:
    """Distinct 1 <= n <= x represented by f with Omega(n) <= k."""
    if k < 1:
        raise ValueError("k must be >= 1")
    X = math.floor(x)
    if X < 1:
        return 0
    omega = big_omega_upto(X)  # first: an x above the cap fails before the bitmap
    rep = value_bitmap(f, X)
    return int(np.count_nonzero(rep[1:] & (omega[1 : X + 1] <= k)))
