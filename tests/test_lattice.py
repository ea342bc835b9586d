import dataclasses
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from bqfsieve import arith, characters, lattice
from bqfsieve.arith import kronecker, mult_functions
from bqfsieve.forms import (Form, enumerate_class_set, is_discriminant, is_reduced,
                            reduce_form, scale_form)
from bqfsieve.lattice import (EllipseWindow, _rows, count_A, count_A_ell, count_B_ell,
                              count_congruence, local_density_g,
                              local_density_report, r_f, root_set, sqrt_average,
                              value_bitmap)


def brute_points(f, x):
    """Oracle: enumerate lattice points with f(u,v) <= x over a safe box."""
    a, b, c = f.a, f.b, f.c
    vb = math.isqrt(int(4 * a * float(x) / f.D)) + 2
    ub = math.isqrt(int(float(x) / a)) + (abs(b) * vb) // (2 * a) + 2
    pts = []
    for u in range(-ub, ub + 1):
        for v in range(-vb, vb + 1):
            if f(u, v) <= x:
                pts.append((u, v))
    return pts


def brute_r_f(f, n):
    return sum(1 for (u, v) in brute_points(f, n) if f(u, v) == n)


def test_r_f_examples():
    f = Form(1, 0, 1)
    assert brute_r_f(f, 5) == 8
    assert r_f(f, 5) == 8
    assert r_f(f, 3) == 0 == brute_r_f(f, 3)
    assert r_f(f, 0) == 1
    assert r_f(Form(2, 1, 3), 0) == 1


@given(st.integers(0, 300))
@settings(max_examples=40)
def test_r_f_brute_force(n):
    for f in (Form(1, 0, 1), Form(2, 1, 3), Form(1, 1, 6), Form(3, 2, 5)):
        assert r_f(f, n) == brute_r_f(f, n)


def isqrt_rows(f, X):
    """Oracle: the kernel's rows from math.isqrt, one row at a time."""
    a, b, D = f.a, f.b, f.D
    T = 4 * a * X
    rows = []
    for v in range(-math.isqrt(T // D), math.isqrt(T // D) + 1):
        s = math.isqrt(T - D * v * v)
        lo, hi = -((s + b * v) // (2 * a)), (s - b * v) // (2 * a)
        if hi >= lo:
            rows.append((v, lo, hi))
    return rows


@st.composite
def reduced_forms(draw):
    a = draw(st.integers(1, 12))
    b = draw(st.integers(-a, a))
    c = draw(st.integers(a, 60))
    f = Form(a, b, c)
    assume(is_reduced(f))
    return f


@given(reduced_forms(),
       st.fractions(min_value=Fraction(-3), max_value=Fraction(2000), max_denominator=9))
@example(Form(4, -2, 5), Fraction(19))  # row v = -2 is empty
@settings(max_examples=150, deadline=None)
def test_rows_match_brute_enumeration(f, x):
    v, lo, hi = _rows(f, math.floor(x))
    assert v.dtype == lo.dtype == hi.dtype == np.int64
    assert np.all(np.diff(v) > 0) and np.all(lo <= hi)
    got = {(u, w) for w, l, h in zip(v.tolist(), lo.tolist(), hi.tolist())
           for u in range(l, h + 1)}
    assert got == (set(brute_points(f, x)) if x >= 0 else set())


@pytest.mark.parametrize("f, X", [
    # float path at the top of its range: T = k^2 - 1 for the largest odd
    # k < 2^26, the root closest to rounding up to k
    (Form(1, 0, 2**40 + 3), ((2**26 - 1) ** 2 - 1) // 4),
    (Form(1, 0, 2**40 + 3), (2**25 - 1) ** 2),          # T a perfect square
    (Form(1, 1, 2**40 + 1), 2**50 - 1),                 # T = 2^52 - 4
    # math.isqrt fallback: T >= 2^52, or D > T (one row; D beyond int64)
    (Form(1, 0, 2**40 + 3), 2**50),
    (Form(2, 1, 2**70), 10**6),
    # T = (2m)^2 - 4 near 2^58: the float root rounds up to 2m, so a float
    # kernel would give hi = m at v = 0 instead of m - 1
    (Form(1, 0, 2**40 + 3), (2**28 + 1) ** 2 - 1),
    (Form(3, 2, 2**41 + 7), 2**50 + 12345),
    (Form(7, -5, 2**45 + 1), 3 * 2**55 + 1),
    # near 2^62: S = k^2 - 1 for k = 2^31 - 1, a perfect square, S = (2m)^2 - 4,
    # the largest T, and thousands of rows through the corrected float root
    (Form(1, 0, 2**50 + 3), ((2**31 - 1) ** 2 - 1) // 4),
    (Form(1, 0, 2**50 + 3), (2**30 - 1) ** 2),
    (Form(1, 0, 2**50 + 3), (2**30 - 1) ** 2 - 1),
    (Form(1, 0, 2**50 + 3), 2**60 - 1),
    (Form(1, 1, 2**40 + 1), 2**60 - 1),
    (Form(5, 3, 2**36 + 11), (2**62 - 1) // 20),
])
def test_rows_against_isqrt_near_2_52(f, X):
    v, lo, hi = _rows(f, X)
    assert list(zip(v.tolist(), lo.tolist(), hi.tolist())) == isqrt_rows(f, X)


def test_kernel_rejects_int64_overflow():
    with pytest.raises(ValueError):
        _rows(Form(1, 0, 2**60), 2**61)
    with pytest.raises(ValueError):  # squarefree, above 2^21
        count_A_ell(EllipseWindow.of(Form(1, 0, 1), 10), 2 * 3 * 5 * 7 * 11 * 13 * 17 * 19)


def test_count_A_examples():
    f = Form(1, 0, 1)
    assert count_A(EllipseWindow.of(f, 10)) == 37
    assert len(brute_points(f, 10)) == 37
    assert count_A(EllipseWindow.of(f, 0.5)) == 1
    assert count_A(EllipseWindow.of(Form(1, 1, 1), 1)) == 7


def test_count_A_equals_sum_r_f():
    # two independent code paths
    for f in (Form(1, 0, 1), Form(1, 1, 1), Form(2, 1, 3), Form(2, -1, 4)):
        for x in (10, 100, 1000):
            assert count_A(EllipseWindow.of(f, x)) == sum(r_f(f, n) for n in range(x + 1))


def test_count_A_fractional_threshold():
    f = Form(1, 0, 1)
    for x in (Fraction(5, 2), 2.5, 2.9, 3.0):
        w = EllipseWindow.of(f, x)
        assert count_A(w) == len(brute_points(f, x))


def test_window_V_invariant():
    w = EllipseWindow.of(Form(2, 1, 3), 100)
    assert abs(w.V**2 * w.f.D - 4 * w.f.a * 100) <= 1e-9 * 4 * w.f.a * 100


def test_count_congruence_examples():
    f = Form(1, 0, 1)
    cc1 = count_congruence(EllipseWindow.of(f, 10), 1)
    assert cc1.a_ell == 37 == cc1.b_ell
    assert cc1.a_ell_by_d == {1: 37}
    assert cc1.b_ell_by_m == {0: 37}

    cc5 = count_congruence(EllipseWindow.of(f, 25), 5)
    expect = sum(r_f(f, n) for n in range(0, 26, 5))
    assert expect == 37
    assert cc5.a_ell == 37

    cc3 = count_congruence(EllipseWindow.of(Form(1, 1, 1), 21), 3)
    assert cc3.roots == (1,)
    assert cc3.b_ell == sum(cc3.b_ell_by_m.values())
    # brute-force double check of the disjoint decomposition
    pts = brute_points(Form(1, 1, 1), 21)
    f111 = Form(1, 1, 1)
    b3 = sum(1 for (u, v) in pts if math.gcd(v, 3) == 1 and f111(u, v) % 3 == 0)
    assert cc3.b_ell == b3


def test_modulus_one_takes_the_residue_path_without_a_block():
    # at l = 1 every point is a root: each count is |A|, and no prefix block
    # is built or touched
    kept = list(lattice._prefix_block.kept)
    for f, x in ((Form(1, 0, 1), 10), (Form(2, 1, 3), 1000), (Form(1, 1, 262144), 1e12)):
        w = EllipseWindow.of(f, x)
        n = count_A(w)
        cc = count_congruence(w, 1)
        assert (cc.a_ell, cc.a_ell_by_d, cc.b_ell, cc.b_ell_by_m, cc.roots) == (
            n, {1: n}, n, {0: n}, (0,))
        assert count_A_ell(w, 1) == n == count_B_ell(w, 1)
    assert list(lattice._prefix_block.kept) == kept


def test_modulus_one_counts_are_count_A_and_a_brute_count(monkeypatch):
    # every v is coprime to 1 and every u a root mod 1: count_congruence,
    # count_A_ell and count_B_ell read |A| from the rows, with no residue rows
    # and no gcd
    def no_residue_rows(window, ell):
        raise RuntimeError("l = 1 took the residue path")

    monkeypatch.setattr(lattice, "_residue_rows", no_residue_rows)
    for f in (Form(1, 0, 1), Form(1, 1, 1), Form(2, 1, 3), Form(3, 2, 5), Form(1, 1, 6)):
        for x in (0, 0.5, 1, 7, 40.5, 150):
            w = EllipseWindow.of(f, x)
            n = len(brute_points(f, x))
            cc = count_congruence(w, 1)
            assert (cc.a_ell, cc.a_ell_by_d, cc.b_ell, cc.b_ell_by_m, cc.roots) == (
                n, {1: n}, n, {0: n}, (0,)), (f, x)
            assert count_A_ell(w, 1) == count_B_ell(w, 1) == n == count_A(w), (f, x)
            assert type(cc.a_ell) is type(count_A_ell(w, 1)) is type(count_B_ell(w, 1)) is int
            assert all(type(k) is int is type(v) for d in (cc.a_ell_by_d, cc.b_ell_by_m)
                       for k, v in d.items())


def test_count_congruence_rejects_nonsquarefree():
    with pytest.raises(ValueError):
        count_congruence(EllipseWindow.of(Form(1, 0, 1), 10), 4)


def brute_congruence(f, x, ell):
    pts = brute_points(f, x)
    a_ell = sum(1 for (u, v) in pts if f(u, v) % ell == 0)
    by_d = {}
    for (u, v) in pts:
        if f(u, v) % ell == 0:
            d = math.gcd(v, ell)
            by_d[d] = by_d.get(d, 0) + 1
    b_ell = by_d.get(1, 0)
    return a_ell, by_d, b_ell


@pytest.mark.parametrize("ell", [1, 2, 3, 5, 6, 7, 10, 15])
def test_count_congruence_brute(ell):
    for f in (Form(1, 0, 1), Form(2, 1, 3), Form(1, 1, 6)):
        w = EllipseWindow.of(f, 150)
        cc = count_congruence(w, ell)
        a_ell, by_d, b_ell = brute_congruence(f, 150, ell)
        assert cc.a_ell == a_ell
        assert {d: n for d, n in cc.a_ell_by_d.items() if n} == by_d
        assert cc.b_ell == b_ell
        assert cc.a_ell == sum(cc.a_ell_by_d.values())
        assert cc.b_ell == sum(cc.b_ell_by_m.values())


def test_count_congruence_in_residue_blocks(monkeypatch):
    # a large l scans its residue table a block of v residues at a time;
    # blocks of 7 or 12 cells force that path at small l (blocks of two rows
    # at l = 3 and l = 5, one row at l >= 6), even after whole tables of the
    # same l have been memoised
    ells = (1, 2, 3, 5, 6, 15, 30)
    windows = [EllipseWindow.of(f, 150) for f in (Form(1, 0, 1), Form(2, 1, 3))]
    for w in windows:
        for ell in ells:
            count_congruence(w, ell)
    memo, read = lattice._prefix_block, []

    def spy(key):
        P = memo(key)
        read.append((key[3], P.shape))
        return P

    monkeypatch.setattr(lattice, "_prefix_block", spy)
    for cells in (7, 12):
        monkeypatch.setattr(lattice, "_TABLE_CELLS", cells)
        read.clear()
        for w in windows:
            for ell in ells:
                cc = count_congruence(EllipseWindow.of(w.f, 150), ell)
                a_ell, by_d, b_ell = brute_congruence(w.f, 150, ell)
                assert cc.a_ell == a_ell and cc.b_ell == b_ell
                assert {d: n for d, n in cc.a_ell_by_d.items() if n} == by_d
        assert {ell for ell, _ in read} == set(ells) - {1}  # l = 1 reads no block
        for ell, (height, width) in read:
            assert width == ell + 1 and height * ell <= max(cells, ell), (ell, height)


def test_residue_blocks_of_a_window_are_bounded(monkeypatch):
    # one block per row at l = 30 with blocks of one row; a window with every
    # v residue needs all 30 of them, 30 x 31 cells, counted before any is built
    monkeypatch.setattr(lattice, "_TABLE_CELLS", 7)
    f, x = Form(1, 0, 1), 400
    monkeypatch.setattr(lattice, "_RESIDUE_CELLS", 30 * 31 - 1)
    lattice._prefix_block.cache_clear()
    with pytest.raises(ValueError, match="modulus 30 too large"):
        count_A_ell(EllipseWindow.of(f, x), 30)
    assert not lattice._prefix_block.kept
    monkeypatch.setattr(lattice, "_RESIDUE_CELLS", 30 * 31)
    assert count_A_ell(EllipseWindow.of(f, x), 30) == brute_congruence(f, x, 30)[0]


def test_count_congruence_refuses_before_scanning_roots():
    # 2,309 rows at l = 2097143 need blocks of 2^21 cells each, over the
    # bound: the window is refused before the roots mod l (an l-cell scan)
    import tracemalloc

    lattice._prime_roots.cache_clear()
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="modulus 2097143 too large for this window"):
            count_congruence(EllipseWindow.of(Form(1, 1, 1), 10**6), 2097143)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert lattice._prime_roots.cache_info().currsize == 0


@given(reduced_forms(),
       st.one_of(st.fractions(min_value=Fraction(1, 10**9), max_value=Fraction(10**15)),
                 st.floats(min_value=0, max_value=1e300, exclude_min=True)))
@settings(max_examples=300, deadline=None)
def test_window_V_bit_identical_to_fraction_path(f, x):
    V = EllipseWindow.of(f, x).V
    assert V == math.sqrt(float(4 * f.a * Fraction(x) / f.D))


def test_cached_rows_and_blocks_are_read_only():
    w = EllipseWindow.of(Form(2, 1, 3), 100)
    assert w.rows is w.rows
    with pytest.raises(dataclasses.FrozenInstanceError):
        w.rows = _rows(w.f, 100)
    for r in w.rows:
        with pytest.raises(ValueError):
            r[0] = 0
    count_congruence(w, 30)
    assert lattice._prefix_block.kept
    for P in lattice._prefix_block.kept.values():
        with pytest.raises(ValueError):
            P[0, 0] = 1


def test_block_memo_stays_within_its_cell_bound():
    # one residue block per row at l near 2^20; those below 2^20 are kept
    # (l + 1 cells each) and push each other out, those above are not kept
    w = EllipseWindow.of(Form(1, 0, 1), 10)
    memo = lattice._prefix_block
    for ell in (1048549, 1048571, 1048573, 1048583, 1048589):
        assert count_A_ell(w, ell) == 1  # 0 < f <= 10 < l: only the origin
        assert count_B_ell(w, ell) == 0  # and gcd(0, l) = l
        assert 0 < memo.cells <= lattice._CACHE_CELLS
        assert memo.cells == sum(P.size for P in memo.kept.values())
        kept = {key[3] for key in memo.kept}
        assert (ell in kept) == (ell + 1 <= lattice._CACHE_CELLS)


def test_cold_and_warm_caches_agree():
    ells = [l for l in range(1, 31) if mult_functions(l).squarefree]
    cases = [(f, ell) for D in range(3, 61) if is_discriminant(D)
             for f in enumerate_class_set(D).reduced_forms for ell in ells]
    caches = (lattice._prefix_block, lattice._local_density_g, arith.factorize,
              arith.mult_functions, lattice._prime_roots, characters._profile_cache)

    def run(cold):
        out = []
        for f, ell in cases:
            if cold:
                for cache in caches:
                    cache.cache_clear()
            w = EllipseWindow.of(f, 1000)
            cc = count_congruence(w, ell)
            rep = local_density_report(w, ell)
            out.append((cc.counts, cc.roots, rep, count_B_ell(w, ell),
                        characters.L_values(f.D)))
        return out

    cold = run(cold=True)
    assert run(cold=False) == cold
    assert run(cold=False) == cold


def test_change_of_variables_identity():
    # |A_l(x, f; d)| = |B_{l/d}((a,d)^2 x / d^2, f_(a,d))|
    for f in (Form(1, 0, 1), Form(2, 1, 3), Form(2, 0, 5), Form(3, 2, 5)):
        for ell in (2, 6, 10, 15, 30):
            x = 400
            cc = count_congruence(EllipseWindow.of(f, x), ell)
            for d, n in cc.a_ell_by_d.items():
                r = math.gcd(f.a, d)
                scaled = scale_form(f, r).form
                xprime = Fraction(r * r * x, d * d)
                assert n == count_B_ell(EllipseWindow.of(scaled, xprime), ell // d), (f, ell, d)


def test_root_set_examples():
    f = Form(1, 1, 1)
    assert root_set(f, 3) == (1,)
    assert root_set(f, 7) == (2, 4)
    assert len(root_set(f, 7)) == 1 + kronecker(-3, 7)
    assert root_set(f, 5) == ()
    assert len(root_set(f, 5)) == 1 + kronecker(-3, 5)
    assert root_set(f, 1) == (0,)


def test_root_set_brute_and_formula():
    rng = random.Random(11)
    primes = [2, 3, 5, 7, 11, 13]
    for _ in range(50):
        a = rng.randint(1, 12)
        b = rng.randint(-12, 12)
        c = rng.randint((b * b) // (4 * a) + 1, (b * b) // (4 * a) + 40)
        f = Form(a, b, c)
        for p in primes:
            rs = root_set(f, p)
            brute = [m for m in range(p) if (a * m * m + b * m + c) % p == 0]
            assert list(rs) == brute
            chi = kronecker(-f.D, p)
            g = math.gcd(math.gcd(a, b), c)
            if a % p != 0:
                assert len(rs) == 1 + chi, (f, p)
            elif g % p != 0:
                assert len(rs) == chi, (f, p)
            else:
                assert len(rs) == p, (f, p)


def test_root_set_prime_near_2_21():
    # the int64 scan at the largest admitted prime modulus: each root is
    # checked by evaluating f, and M(p) = 1 + chi(p) as p divides neither a nor D
    p = 2097143
    assert arith.prime_table(p)[p] and p < lattice._MAX_ELL
    split = 0
    for f in (Form(1, 1, 1), Form(1, 1, 6), Form(2, 1, 3), Form(1, 0, 5),
              Form(3, 2, 5), Form(1, 1, 1000003)):
        rs = root_set(f, p)
        assert all(type(m) is int and 0 <= m < p for m in rs)
        assert all((f.a * m * m + f.b * m + f.c) % p == 0 for m in rs)
        assert len(rs) == 1 + kronecker(-f.D, p), f
        split += len(rs) == 2
    assert split >= 2


def test_root_set_multiplicative():
    rng = random.Random(5)
    pairs = [(2, 3), (3, 5), (2, 7), (5, 6), (3, 35), (10, 21),
             (95, 77), (91, 66), (97, 85)]
    for _ in range(50):
        a = rng.randint(1, 10)
        b = rng.randint(-10, 10)
        c = rng.randint((b * b) // (4 * a) + 1, (b * b) // (4 * a) + 30)
        f = Form(a, b, c)
        for l1, l2 in pairs:
            assert math.gcd(l1, l2) == 1
            assert len(root_set(f, l1 * l2)) == len(root_set(f, l1)) * len(root_set(f, l2))


def test_sqrt_average_examples():
    sa = sqrt_average(1)
    assert sa.sum == 0.0
    assert abs(sa.main_term - (math.pi / 4 - 0.5)) < 1e-12
    for W in (100, 10**5):
        sa = sqrt_average(W)
        assert abs(sa.error) <= 10 * math.sqrt(W)


def test_sqrt_average_rejects_small():
    with pytest.raises(ValueError):
        sqrt_average(0.5)


def test_local_density_g():
    f = Form(1, 0, 1)
    assert local_density_g(f, 1) == 1
    assert local_density_g(f, 2) == Fraction(1, 2)  # chi(2) = 0 for D = 0 mod 4
    assert local_density_g(Form(1, 1, 1), 7) == Fraction(13, 49)
    # chi_{-3}(2) = -1, so g(2) = (1 - 1 + 1/2)/2 = 1/4
    assert local_density_g(Form(1, 1, 1), 14) == Fraction(1, 4) * Fraction(13, 49)
    with pytest.raises(ValueError):
        local_density_g(Form(2, 2, 2), 3)


def test_local_density_report_examples():
    f = Form(1, 0, 1)
    rep = local_density_report(EllipseWindow.of(f, 10**4), 1)
    assert abs(rep.main - 2 * math.pi * 10**4 / 2) < 1e-6
    assert abs(rep.residual) <= 50 * rep.envelope
    small = local_density_report(EllipseWindow.of(f, 1), 1)
    assert small.exact >= 1

    rep2 = local_density_report(EllipseWindow.of(Form(2, 1, 3), 10**5), 15)
    assert rep2.ratio <= 50


def test_value_bitmap_matches_r_f():
    for f in (Form(1, 0, 1), Form(2, 1, 3)):
        bm = value_bitmap(f, 200)
        for n in range(201):
            assert bool(bm[n]) == (r_f(f, n) > 0), (f, n)


def arange_bitmap(f, x):
    """Oracle: the per-row arange bitmap that the value kernel replaced."""
    X = math.floor(x)
    if X < 0:
        return np.zeros(0, dtype=bool)
    rep = np.zeros(X + 1, dtype=bool)
    a, b, c = f.a, f.b, f.c
    v, lo, hi = _rows(f, X)
    half = v >= 0
    for w, l, h in zip(v[half].tolist(), lo[half].tolist(), hi[half].tolist()):
        u = np.arange(l, h + 1, dtype=np.int64)
        rep[(a * u + b * w) * u + c * w * w] = True
    return rep


@st.composite
def wide_reduced_forms(draw):
    a = draw(st.integers(1, 300))
    b = draw(st.integers(-a, a))
    c = draw(st.integers(a, 10**5))
    f = Form(a, b, c)
    assume(is_reduced(f))
    return f


@st.composite
def equivalent_forms(draw):
    """A form SL2(Z)-equivalent to a reduced one, mostly not reduced itself:
    u -> u + kv, then (u, v) -> (-v, u), then u -> u + k'v."""
    def shift(a, b, c, k):
        return a, b + 2 * a * k, a * k * k + b * k + c

    a, b, c = shift(*draw(reduced_forms()).triple(), draw(st.integers(-6, 6)))
    return Form(*shift(c, -b, a, draw(st.integers(-6, 6))))


@given(st.one_of(wide_reduced_forms(), equivalent_forms()), st.integers(0, 10**5))
@example(Form(1, 100, 2501), 10**4)   # not reduced, D = 4
@example(Form(1, 100, 2501), 0)
@example(Form(2, 1, 3), 1)
@example(Form(1, 1, 6), 2)
@example(Form(3, 1, 10**5), 7)        # D > T: the one row v = 0
@settings(max_examples=80, deadline=None)
def test_value_bitmap_matches_arange_bitmap(f, X):
    rep = value_bitmap(f, X)
    assert rep.dtype == bool and len(rep) == X + 1
    assert np.array_equal(rep, arange_bitmap(f, X))
    assert np.array_equal(rep, value_bitmap(reduce_form(f), X))


def test_value_bitmap_runs_on_the_reduced_form():
    # f ~ (1, 0, 1): f's own rows span 10^7 values of u, the reduced form's 21
    import tracemalloc

    f = Form(1, 2 * 10**6, 10**12 + 1)
    tracemalloc.start()
    try:
        rep = value_bitmap(f, 100)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(rep, value_bitmap(Form(1, 0, 1), 100))
    assert peak < 1 << 20


def test_decomposition_identities_small_grid():
    # the acceptance suite runs the full D <= 500 sweep; spot-check here
    for D in (3, 4, 15, 20, 23, 40):
        for f in enumerate_class_set(D).reduced_forms:
            for ell in (6, 10, 21, 30):
                cc = count_congruence(EllipseWindow.of(f, 300), ell)
                assert cc.a_ell == sum(cc.a_ell_by_d.values())
                assert cc.b_ell == sum(cc.b_ell_by_m.values())
