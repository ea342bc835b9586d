"""Positive definite integral binary quadratic forms.

A form f(u,v) = a u^2 + b uv + c v^2 with a > 0 and discriminant
b^2 - 4ac = -D < 0.  This module owns reduction (the classical Gauss loop),
primitivity, enumeration of the reduced primitive classes of a given
discriminant (giving the class number h(-D)) or of every discriminant up to
a bound at once (as int64 arrays), the unit count w attached to
-D, ambiguity (f properly equivalent to its opposite f(u,-v)) and the
opposite-class constant delta_f read from it, and the coordinate scaling
f_r(u,w) = f(u, rw) used by the congruence-sum change of variables.

Conventions: reduced means |b| <= a <= c with b >= 0 whenever |b| = a or
a = c.  w is the unit count of the order of discriminant -D (6 for D=3,
4 for D=4, else 2), which is what makes the analytic class number identity
exact for non-fundamental discriminants as well.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arith import factorize

__all__ = [
    "Form",
    "FormClassSet",
    "ScaledForm",
    "reduce_form",
    "is_reduced",
    "is_primitive",
    "enumerate_class_set",
    "reduced_forms_upto",
    "is_ambiguous",
    "delta_f",
    "scale_form",
    "is_discriminant",
    "require_discriminant",
    "unit_count",
    "fundamental_part",
]


@dataclass(frozen=True, order=True)
class Form:
    """Coefficient triple (a, b, c) of a positive definite form."""

    a: int
    b: int
    c: int

    def __post_init__(self):
        if self.a <= 0:
            raise ValueError(f"form {self.triple()} is not positive definite (a <= 0)")
        if self.b * self.b - 4 * self.a * self.c >= 0:
            raise ValueError(f"form {self.triple()} is not positive definite")

    def triple(self) -> tuple[int, int, int]:
        return (self.a, self.b, self.c)

    @property
    def D(self) -> int:
        """Positive D with discriminant -D = b^2 - 4ac."""
        return 4 * self.a * self.c - self.b * self.b

    def __call__(self, u: int, v: int) -> int:
        return self.a * u * u + self.b * u * v + self.c * v * v

    def opposite(self) -> "Form":
        return Form(self.a, -self.b, self.c)

    def content(self) -> int:
        return math.gcd(math.gcd(self.a, self.b), self.c)


def is_primitive(f: Form) -> bool:
    return f.content() == 1


def is_reduced(f: Form) -> bool:
    a, b, c = f.triple()
    if not (abs(b) <= a <= c):
        return False
    if b < 0 and (abs(b) == a or a == c):
        return False
    return True


def reduce_form(f: Form) -> Form:
    """The unique reduced form properly equivalent to f (Gauss reduction).

    Alternates translating b into (-a, a] with swapping the outer
    coefficients while a > c; the final sign normalization forces b >= 0
    when |b| = a or a = c.  Fixed point on already-reduced input.
    """
    a, b, c = f.triple()
    while True:
        if not (-a < b <= a):
            # translate u -> u + r v
            r = (a - b) // (2 * a)
            b, c = b + 2 * r * a, a * r * r + b * r + c
        if a > c:
            a, b, c = c, -b, a
            continue
        break
    if b < 0 and (-b == a or a == c):
        b = -b
    return Form(a, b, c)


def is_discriminant(D: int) -> bool:
    """True iff -D is the discriminant of some positive definite form."""
    return D >= 3 and D % 4 in (0, 3)


def require_discriminant(D: int) -> None:
    """The package's one refusal of a D for which -D is no discriminant."""
    if not is_discriminant(D):
        raise ValueError(f"D = {D} is not a discriminant (need D >= 3, D = 0 or 3 mod 4)")


def unit_count(D: int) -> int:
    """Units of the order of discriminant -D: 6 at D=3, 4 at D=4, else 2."""
    if D == 3:
        return 6
    if D == 4:
        return 4
    return 2


@dataclass(frozen=True)
class FormClassSet:
    """All reduced primitive forms of discriminant -D, lexicographically ordered."""

    D: int
    reduced_forms: tuple[Form, ...]
    h: int


# The key list of a sweep grows as Q^1.5: reduced_forms_upto(10^5) lists 4.58M
# rows in about 2 s at a peak RSS of about 390 MiB (2-core VM, Python 3.11,
# numpy 2.4).  A sweep and `characters.family` refuse a larger Q before
# anything is allocated.
Q_MAX = 100_000
# Work per discriminant is O(D): L_values(10^7), all three values read, peaks
# at +0.22 GiB RSS in 2.6 s in a fresh process (2-core VM), +0.19 GiB of it
# building the character profile, and enumerate_class_set walks O(D) (a, b)
# steps.  A larger D is refused before anything is allocated.
D_MAX = 10**7


def enumerate_class_set(D: int) -> FormClassSet:
    """Enumerate the reduced primitive forms of discriminant -D.

    Scans |b| <= a <= sqrt(D/3) with 4ac = b^2 + D, so b = D (mod 2) and
    only that parity is walked; imprimitive triples are skipped.  h(-D) is
    the count.
    """
    if D > D_MAX:
        raise ValueError(f"D = {D} exceeds D_MAX = {D_MAX}")
    require_discriminant(D)
    forms = []
    for a in range(1, math.isqrt(D // 3) + 1):
        for b in range(-a + (a + D) % 2, a + 1, 2):  # b = D (mod 2)
            num = b * b + D
            if num % (4 * a) != 0:
                continue
            c = num // (4 * a)
            if c < a:
                continue
            if b < 0 and (-b == a or a == c):
                continue  # sign-normalized twin already listed
            g = math.gcd(math.gcd(a, b), c)
            if g != 1:
                continue
            forms.append(Form(a, b, c))
    forms.sort()
    return FormClassSet(D=D, reduced_forms=tuple(forms), h=len(forms))


def reduced_forms_upto(Q: int) -> tuple[np.ndarray, ...]:
    """Every reduced primitive form with 3 <= D <= Q, as int64 arrays (D, a, b, c, h).

    Rows are in (D, a, b, c) order, so each D's rows are `enumerate_class_set(D)`
    in its order, and h[i] = h(-D[i]).  A reduced form has 3a^2 <= D, so a runs
    to sqrt(Q/3), and for each (a, b) with |b| <= a, c runs from a to
    (Q + b^2)/(4a).  One a at a time (about Q/2 candidate rows), the candidates
    are filtered for primitivity and the sign normalisation.
    """
    if Q < 3:
        raise ValueError("Q must be >= 3")
    chunks = []
    for a in range(1, math.isqrt(Q // 3) + 1):
        cs = [np.arange(a, (Q + b * b) // (4 * a) + 1, dtype=np.int64)
              for b in range(-a, a + 1)]
        b = np.repeat(np.arange(-a, a + 1, dtype=np.int64), [len(c) for c in cs])
        c = np.concatenate(cs)
        keep = np.gcd(np.gcd(a, b), c) == 1
        keep &= ~((b < 0) & ((b == -a) | (c == a)))  # the twin with b > 0 is listed
        chunks.append((np.full(np.count_nonzero(keep), a, dtype=np.int64),
                       b[keep], c[keep]))
    a, b, c = (np.concatenate(col) for col in zip(*chunks))
    del chunks
    cols = [4 * a * c - b * b, a, b, c]
    del a, b, c
    order = np.lexsort(cols[::-1])  # by D, then a, b, c
    for i in range(4):  # one column at a time, which keeps the peak down
        cols[i] = cols[i][order]
    D = cols[0]
    return (*cols, np.bincount(D)[D])


def is_ambiguous(f: Form) -> bool:
    """True iff f is properly equivalent to its opposite f(u,-v): the two
    reduce to one form.  For reduced f that is: b = 0, a = b, or a = c."""
    return reduce_form(f) == reduce_form(f.opposite())


def delta_f(f: Form) -> float:
    """1 if the reduced form f is ambiguous, else 1/2."""
    if not is_reduced(f):
        raise ValueError(f"delta_f expects a reduced form, got {f.triple()}")
    return 1.0 if is_ambiguous(f) else 0.5


@dataclass(frozen=True)
class ScaledForm:
    """f_r(u,w) = f(u, rw) = a u^2 + br uw + cr^2 w^2, discriminant -r^2 D."""

    form: Form


def scale_form(f: Form, r: int) -> ScaledForm:
    if r < 1:
        raise ValueError("scale factor r must be >= 1")
    return ScaledForm(form=Form(f.a, f.b * r, f.c * r * r))


def fundamental_part(D: int) -> tuple[int, int]:
    """Write -D = Delta * k^2 with Delta a fundamental discriminant.

    Returns (|Delta|, k), read from D = prod p^e: with d0 = prod p^(e mod 2)
    and k = prod p^(e // 2), D = d0 k^2, and -d0 is fundamental when
    d0 = 3 mod 4; otherwise k is even (D = 0 mod 4) and |Delta| = 4 d0.
    """
    require_discriminant(D)
    d0, k = 1, 1
    for p, e in factorize(D):
        d0 *= p ** (e % 2)
        k *= p ** (e // 2)
    return (d0, k) if d0 % 4 == 3 else (4 * d0, k // 2)
