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

The sifting parameter z = (a/(Dx))^(1/4) y^(1/2) (log y)^(-7) + 1; at desk
scale the (log y)^7 factor keeps z barely above 1, so the system is usually
the degenerate l = 1 one and the bound reduces to 2 pi y / sqrt(D) plus the
exact remainder, and the sifted count is the l = 1 interval count itself.
The machinery is exercised at larger z by the tests.

Primes, the prime mask and Omega come from the one table in `arith` (grown to
max(request, 2 x current), capped at MASK_CAP); this module keeps none.
A report computes script_J and its degenerate-L branch only when they are read
(`bqf sieve` reads them, a sweep row does not), and takes h(-D) from a caller
that has it; h = None counts it with `enumerate_class_set`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np

from . import arith
from .arith import big_omega_upto, mult_functions, prime_table, primes_upto
from .characters import L_values, sum_local_densities
from .forms import Form, delta_f, enumerate_class_set, is_primitive, is_reduced
from .lattice import (EllipseWindow, _row_values, count_A_ell, local_density_g,
                      value_bitmap)

__all__ = [
    "SieveParams",
    "SieveReport",
    "TheoremBounds",
    "pi_f",
    "pi_f_interval",
    "sifted_interval_count",
    "selberg_upper_bound",
    "selberg_system",
    "theorem_rhs",
    "full_range_x", "interval_min_y", "almost_range_x", "almost_rhs",
    "count_almost_primes",
    "prime_count_upto",
]


def __getattr__(name: str):
    # `_prime_mask` aliases the shared mask for bench/tracer.py's rebuild
    # count, until ROADMAP item 4 moves tracing into the library
    if name == "_prime_mask":
        return arith._mask
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def prime_count_upto(z: float) -> int:
    """pi(z), exact."""
    return len(primes_upto(math.floor(z)))


def pi_f(f: Form, x) -> int:
    """Number of primes p <= x represented by f, by exhaustive enumeration."""
    x = max(x, 0)
    return pi_f_interval(f, x, x)


def pi_f_interval(f: Form, x, y) -> int:
    """pi_f(x) - pi_f(x - y), for 0 <= y <= x: the represented primes p with
    floor(x - y) < p <= floor(x), from one bitmap up to x."""
    if not is_primitive(f):
        raise ValueError("pi_f expects a primitive form")
    if not 0 <= y <= x:
        raise ValueError("need 0 <= y <= x")
    X = math.floor(x)
    if X < 2:
        return 0
    mask = prime_table(X)  # first: an x above the cap fails before the bitmap
    rep = value_bitmap(f, X)
    rep &= mask[: X + 1]
    return int(np.count_nonzero(rep[math.floor(x - y) + 1 :]))


def sifted_interval_count(f: Form, x, y, z) -> int:
    """sum of r_f(n) over x - y < n <= x with n coprime to all primes <= z."""
    if y < 0 or y > x:
        raise ValueError("need 0 <= y <= x")
    if y == 0:
        return 0
    lo_val = math.floor(x - y) + 1
    small_primes = primes_upto(math.floor(z))
    total = 0
    for w, vals in _row_values(f, math.floor(x)):
        keep = vals >= lo_val
        for p in small_primes:
            keep &= vals % p != 0
        total += (2 if w else 1) * int(np.count_nonzero(keep))  # row -w repeats row w
    return total


@dataclass(frozen=True)
class SelbergSystem:
    """Exact-rational Selberg weight system at sifting parameter z."""

    z: float
    primes: tuple[int, ...]
    support: tuple[int, ...]            # squarefree d | P(z), d < z
    h: dict[int, Fraction]
    J: Fraction
    lambdas: dict[int, Fraction]
    remainder_moduli: tuple[int, ...]   # squarefree l | P(z), l < z^2
    cross_coeff: dict[int, Fraction]    # sum_{[d1,d2]=l} lambda_d1 lambda_d2


def _squarefree_products(primes: list[int], limit: float) -> list[int]:
    out = [1]
    for p in primes:
        out.extend(v * p for v in list(out) if v * p < limit)
    return sorted(v for v in out if v < limit)


@lru_cache(maxsize=128)
def _system_cached(a: int, b: int, c: int, z: float) -> SelbergSystem:
    return _build_system(Form(a, b, c), z)


def selberg_system(f: Form, z: float) -> SelbergSystem:
    return _system_cached(f.a, f.b, f.c, float(z))


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
    return SelbergSystem(z=z, primes=tuple(primes), support=tuple(support), h=h,
                         J=J, lambdas=lambdas, remainder_moduli=tuple(moduli),
                         cross_coeff=cross)


@dataclass(frozen=True)
class SieveParams:
    """Run parameters; z is pinned to (a/(Dx))^(1/4) y^(1/2) (log y)^(-7) + 1."""

    f: Form
    x: float
    y: float
    phi_mode: float
    epsilon: float
    z: float

    @classmethod
    def of(cls, f: Form, x, y, phi_mode: float = 0.25,
           epsilon: float = 0.2) -> "SieveParams":
        if phi_mode not in (0, 0.25):
            raise ValueError("phi_mode must be 0 or 0.25")
        if not epsilon > 0:
            raise ValueError(f"epsilon must be > 0, got {epsilon}")
        if not 1 < y <= x:
            raise ValueError("need 1 < y <= x")
        z = (f.a / (f.D * x)) ** 0.25 * math.sqrt(y) * math.log(y) ** -7 + 1
        return cls(f=f, x=float(x), y=float(y), phi_mode=phi_mode,
                   epsilon=epsilon, z=z)


@dataclass(frozen=True)
class TheoremBounds:
    theta: float
    theta_prime: float
    rhs_full: float
    rhs_interval: float
    conditional: bool   # phi = 0 rows assume GRH for chi_{-D}


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
    """theta, theta', and the two Brun-Titchmarsh right-hand sides.

    rhs_full = 4/(1-theta) delta_f x / (h(-D) log x) for the full range,
    rhs_interval = 2/(1-theta') delta_f y / (h(-D) log y) for the short interval;
    a vacuous bound (theta >= 1) is reported as nan.  h = None counts h(-D).
    """
    if not is_reduced(f) or not is_primitive(f):
        raise ValueError("theorem_rhs expects a reduced primitive form")
    if phi_mode not in (0, 0.25):
        raise ValueError("phi_mode must be 0 or 0.25")
    if not 1 < y <= x:
        raise ValueError("need 1 < y <= x")
    D, a = f.D, f.a
    lx, ly, lD, la = math.log(x), math.log(y), math.log(D), math.log(a)
    phi = phi_mode
    theta = (1 + 2 * phi + epsilon / 2) * lD / lx - la / lx
    theta_p = lx / (2 * ly) + (0.5 + phi + epsilon / 4) * lD / ly - la / (2 * ly)
    h = enumerate_class_set(D).h if h is None else h
    delta = delta_f(f)
    rhs_f = 4 / (1 - theta) * delta * x / (h * lx) if theta < 1 else math.nan
    rhs_i = 2 / (1 - theta_p) * delta * y / (h * ly) if theta_p < 1 else math.nan
    return TheoremBounds(theta=theta, theta_prime=theta_p, rhs_full=rhs_f,
                         rhs_interval=rhs_i, conditional=(phi == 0))


@dataclass(frozen=True)
class SieveReport:
    params: SieveParams
    J: float
    main_term: float
    remainder_majorized: float
    remainder_signed: float
    upper_bound: float
    sifted_count: int
    exact_interval_count: int
    theta: float
    theta_prime: float
    rhs_theorem: float

    @cached_property
    def degenerate_L_branch(self) -> bool:
        return L_values(self.params.f.D).L1 < math.log(self.params.y) ** -2

    @cached_property
    def script_J(self) -> float:
        f, y, z = self.params.f, self.params.y, self.params.z
        if self.degenerate_L_branch:
            return math.log(y) ** 2
        return sum_local_densities(f, z).sum / L_values(f.D).L1


def selberg_upper_bound(params: SieveParams, h: int | None = None) -> SieveReport:
    """Run the sieve at the pinned z with exact remainders.

    upper_bound = (2 pi y / sqrt(D)) / J + sum_{l | P(z), l < z^2} tau_3(l) |r_l|
    with r_l = |A_l(x)| - |A_l(x-y)| - g(l) 2 pi y / sqrt(D) from exact lattice
    counts, so upper_bound >= sifted_count is an inequality between computed
    numbers, not an asymptotic claim.
    """
    f, x, y = params.f, params.x, params.y
    if not is_reduced(f) or not is_primitive(f):
        raise ValueError("selberg sieve expects a reduced primitive form")
    if x < f.D / f.a:
        raise ValueError("need x >= D/a")
    if not math.sqrt(f.a * x) <= y <= x:
        raise ValueError("need (ax)^(1/2) <= y <= x")
    sys = selberg_system(f, params.z)
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
        sifted = sifted_interval_count(f, x, y, params.z)
    exact_primes = pi_f_interval(f, x, y)
    tb = theorem_rhs(f, x, y, params.phi_mode, params.epsilon, h)
    rhs = tb.rhs_interval if y < x else tb.rhs_full
    return SieveReport(params=params, J=J, main_term=main,
                       remainder_majorized=rem_maj, remainder_signed=rem_signed,
                       upper_bound=main + rem_maj, sifted_count=sifted,
                       exact_interval_count=exact_primes, theta=tb.theta,
                       theta_prime=tb.theta_prime, rhs_theorem=rhs)


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
