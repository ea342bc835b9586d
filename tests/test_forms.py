import math
import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from bqfsieve.forms import (Form, delta_f, enumerate_class_set,
                            fundamental_part, is_discriminant, is_primitive,
                            is_reduced, reduce_form, reduced_forms_upto, scale_form,
                            unit_count)


def orbit_reduced_forms(f, depth=8):
    """Oracle: BFS the SL2(Z) orbit via the generators
    (a,b,c) -> (c,-b,a) and (a, b +- 2a, c +- b + a), collect every form
    satisfying the reduced predicate."""
    seen = {f.triple()}
    frontier = [f.triple()]
    found = set()
    for _ in range(depth):
        nxt = []
        for (a, b, c) in frontier:
            if abs(b) <= a <= c and not (b < 0 and (-b == a or a == c)):
                found.add((a, b, c))
            for t in ((c, -b, a), (a, b + 2 * a, a + b + c), (a, b - 2 * a, a - b + c)):
                if t not in seen:
                    seen.add(t)
                    nxt.append(t)
        frontier = nxt
    return found


def test_discriminant_examples():
    assert Form(1, 0, 1).D == 4
    assert Form(1, 1, 1).D == 3
    assert Form(3, 2, 5).D == 56


def test_form_rejects_indefinite():
    with pytest.raises(ValueError):
        Form(1, 0, -1)
    with pytest.raises(ValueError):
        Form(1, 3, 1)
    with pytest.raises(ValueError):
        Form(-1, 0, -1)


def test_reduce_examples():
    assert reduce_form(Form(1, 5, 7)) == Form(1, 1, 1)
    assert orbit_reduced_forms(Form(1, 5, 7)) == {(1, 1, 1)}
    assert reduce_form(Form(1, 0, 1)) == Form(1, 0, 1)
    # (2,-1,3) is already reduced (|b| < a < c), hence a fixed point; its
    # orbit contains no other reduced triple
    assert orbit_reduced_forms(Form(2, -1, 3)) == {(2, -1, 3)}
    assert reduce_form(Form(2, -1, 3)) == Form(2, -1, 3)


def test_reduce_matches_orbit_search():
    rng = random.Random(7)
    for _ in range(60):
        a = rng.randint(1, 8)
        b = rng.randint(-12, 12)
        cmin = (b * b) // (4 * a) + 1
        c = rng.randint(cmin, cmin + 12)
        f = Form(a, b, c)
        r = reduce_form(f)
        assert is_reduced(r)
        assert r.D == f.D
        assert r.triple() in orbit_reduced_forms(f, depth=10)


@st.composite
def pd_forms(draw):
    a = draw(st.integers(1, 40))
    b = draw(st.integers(-60, 60))
    cmin = (b * b) // (4 * a) + 1
    c = draw(st.integers(cmin, cmin + 60))
    return Form(a, b, c)


@given(pd_forms())
def test_reduce_idempotent_and_preserves_discriminant(f):
    r = reduce_form(f)
    assert r.D == f.D
    assert reduce_form(r) == r
    assert is_reduced(r)


def test_reduce_idempotent_thousand_random_forms():
    rng = random.Random(99)
    for _ in range(1000):
        a = rng.randint(1, 45)
        b = rng.randint(-90, 90)
        cmin = (b * b) // (4 * a) + 1
        c = rng.randint(cmin, min(cmin + 80, (10**4 + b * b) // (4 * a)))
        f = Form(a, b, c)
        if f.D > 10**4:
            continue
        r = reduce_form(f)
        assert reduce_form(r) == r and r.D == f.D


def test_is_primitive():
    assert is_primitive(Form(1, 1, 1))
    assert not is_primitive(Form(2, 2, 2))
    assert is_primitive(Form(6, 3, 10))


def test_enumerate_class_set_examples():
    cs4 = enumerate_class_set(4)
    assert [f.triple() for f in cs4.reduced_forms] == [(1, 0, 1)] and cs4.h == 1
    cs23 = enumerate_class_set(23)
    assert {f.triple() for f in cs23.reduced_forms} == {(1, 1, 6), (2, 1, 3), (2, -1, 3)}
    assert cs23.h == 3
    cs15 = enumerate_class_set(15)
    assert {f.triple() for f in cs15.reduced_forms} == {(1, 1, 4), (2, 1, 2)}
    assert cs15.h == 2
    cs3 = enumerate_class_set(3)
    assert cs3.h == 1


def test_enumerate_class_set_rejects_non_discriminant():
    for D in (5, 6, 1, 2, -3):
        with pytest.raises(ValueError):
            enumerate_class_set(D)
    assert not is_discriminant(5)


def test_class_set_ordering_and_validity():
    for D in range(3, 2000):
        if D % 4 not in (0, 3):
            continue
        cs = enumerate_class_set(D)
        triples = [f.triple() for f in cs.reduced_forms]
        assert triples == sorted(triples)
        assert len(set(triples)) == cs.h
        for f in cs.reduced_forms:
            assert is_reduced(f) and is_primitive(f)
            assert f.D == D
            assert 3 * f.a * f.a <= D          # a <= sqrt(D/3)
            assert 4 * f.c * f.c >= D          # c >= sqrt(D)/2
            assert 4 * f.a * f.c == D + f.b * f.b


@pytest.mark.parametrize("Q", [3, 4, 7, 3000])
def test_reduced_forms_upto_matches_enumerate_class_set(Q):
    # the same forms, in the same order, with the same h, for every D <= Q
    cols = reduced_forms_upto(Q)
    assert all(col.dtype == np.int64 for col in cols)
    expect = [(D, f.a, f.b, f.c, cs.h) for D in range(3, Q + 1) if is_discriminant(D)
              for cs in (enumerate_class_set(D),) for f in cs.reduced_forms]
    assert list(zip(*(col.tolist() for col in cols))) == expect


def test_reduced_forms_upto_rejects_small_Q():
    with pytest.raises(ValueError):
        reduced_forms_upto(2)


def test_delta_f_examples():
    assert delta_f(Form(1, 0, 1)) == 1
    assert delta_f(Form(2, 1, 3)) == 0.5
    assert delta_f(Form(2, 1, 2)) == 1


def test_delta_f_rejects_unreduced():
    with pytest.raises(ValueError):
        delta_f(Form(1, 5, 7))


def test_delta_f_reduced_characterization():
    # for reduced forms: ambiguous iff b = 0, a = b, or a = c
    for D in range(3, 400):
        if D % 4 not in (0, 3):
            continue
        for f in enumerate_class_set(D).reduced_forms:
            expect = 1 if (f.b == 0 or f.a == f.b or f.a == f.c) else 0.5
            assert delta_f(f) == expect, f


def test_scale_form():
    assert scale_form(Form(1, 1, 1), 2).form.triple() == (1, 2, 4)
    assert scale_form(Form(3, 2, 5), 1).form.triple() == (3, 2, 5)
    sf = scale_form(Form(2, 1, 3), 3)
    assert sf.form.triple() == (2, 3, 27)
    assert sf.form.D == 207 == 9 * 23
    with pytest.raises(ValueError):
        scale_form(Form(1, 0, 1), 0)


@given(pd_forms(), st.integers(1, 9))
def test_scale_form_discriminant(f, r):
    assert scale_form(f, r).form.D == r * r * f.D


def test_unit_count():
    assert unit_count(3) == 6 and unit_count(4) == 4 and unit_count(23) == 2


def test_fundamental_part():
    assert fundamental_part(12) == (3, 2)
    assert fundamental_part(23) == (23, 1)
    assert fundamental_part(4) == (4, 1)
    assert fundamental_part(16) == (4, 2)
    assert fundamental_part(75) == (3, 5)
    assert fundamental_part(7 * 1000003**2) == (7, 1000003)  # D > 10^12
    assert fundamental_part(4 * 5 * 1000003**2) == (20, 1000003)
    assert fundamental_part(10**12 + 3) == (10**12 + 3, 1)
    for D in range(3, 20001):
        if is_discriminant(D):
            assert fundamental_part(D) == _fundamental_part_by_search(D), D


def _fundamental_part_by_search(D):
    """Oracle: the largest k with k^2 | D and -D/k^2 fundamental, searched
    downwards from isqrt(D)."""
    for k in range(math.isqrt(D), 0, -1):
        if D % (k * k) == 0:
            m = D // (k * k)
            if m % 4 == 3 and _squarefree(m):
                return m, k
            if m % 4 == 0 and (m // 4) % 4 in (1, 2) and _squarefree(m // 4):
                return m, k


def _squarefree(n):
    return all(n % (p * p) for p in range(2, math.isqrt(n) + 1))
