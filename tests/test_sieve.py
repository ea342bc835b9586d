import importlib
import math
import random
import sys
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bqfsieve import arith, sieve
from bqfsieve.arith import factorize, prime_table, primes_upto
from bqfsieve.characters import char_profile
from bqfsieve.forms import (Form, delta_f, enumerate_class_set, is_discriminant,
                            is_reduced, reduce_form, reduced_forms_upto, unit_count)
from bqfsieve.lattice import count_A, EllipseWindow, local_density_g, r_f, value_bitmap
from bqfsieve.sieve import (count_almost_primes, full_range_x, pi_f, pi_f_interval,
                            pinned_z, selberg_system, selberg_upper_bound,
                            sifted_interval_count, theorem_rhs)
from bqfsieve.sweeps import SweepConfig, run_sweep


def trial_prime(n):
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def brute_values(f, x):
    vals = set()
    vb = math.isqrt(int(4 * f.a * x / f.D)) + 2
    ub = math.isqrt(int(x / f.a)) + (abs(f.b) * vb) // (2 * f.a) + 2
    for u in range(-ub, ub + 1):
        for v in range(-vb, vb + 1):
            n = f(u, v)
            if n <= x:
                vals.add(n)
    return vals


def brute_pi_f(f, x):
    return sum(1 for n in brute_values(f, x) if trial_prime(n))


def test_pi_f_examples():
    f = Form(1, 0, 1)
    assert pi_f(f, 100) == 12
    assert brute_pi_f(f, 100) == 12
    assert pi_f(f, 2) == 1
    assert pi_f(Form(1, 1, 41), 41) == 1
    assert brute_pi_f(Form(1, 1, 41), 41) == 1


def test_pi_f_brute_cross_check():
    for f in (Form(1, 0, 1), Form(2, 1, 3), Form(1, 1, 6), Form(2, 0, 5)):
        for x in (50, 500, 3000):
            assert pi_f(f, x) == brute_pi_f(f, x), (f, x)


def test_pi_f_monotone():
    f = Form(2, 1, 3)
    vals = [pi_f(f, x) for x in range(2, 400, 7)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_pi_f_rejects_imprimitive():
    with pytest.raises(ValueError):
        pi_f(Form(2, 2, 2), 50)


def brute_sifted(f, x, y, z):
    count = 0
    vb = math.isqrt(int(4 * f.a * x / f.D)) + 2
    ub = math.isqrt(int(x / f.a)) + (abs(f.b) * vb) // (2 * f.a) + 2
    ps = [p for p in range(2, math.floor(z) + 1) if trial_prime(p)]
    for u in range(-ub, ub + 1):
        for v in range(-vb, vb + 1):
            n = f(u, v)
            if x - y < n <= x and all(n % p for p in ps):
                count += 1
    return count


def rowwise_sifted(f, x, y, z):
    # the sifted count row by row: each value of a v >= 0 row tested against
    # every prime <= z, weighted 2 off row 0
    from bqfsieve.lattice import _row_values

    if y == 0:
        return 0
    lo_val = math.floor(x - y) + 1
    small_primes = primes_upto(math.floor(z))
    total = 0
    for w, vals in _row_values(f, math.floor(x)):
        keep = vals >= lo_val
        for p in small_primes:
            keep &= vals % p != 0
        total += (2 if w else 1) * int(np.count_nonzero(keep))
    return total


def test_sifted_interval_examples():
    f = Form(1, 0, 1)
    assert sifted_interval_count(f, 10, 10, 2) == 16
    assert sifted_interval_count(f, 10, 0, 2) == 0
    assert sifted_interval_count(f, 10, 10, 11) == 4


def test_sifted_interval_brute():
    for f in (Form(1, 0, 1), Form(2, 1, 3), Form(1, 100, 2501)):  # the last: not reduced
        for (x, y, z) in ((100, 100, 2), (100, 40, 3), (350, 90, 5), (350, 350, 7)):
            assert sifted_interval_count(f, x, y, z) == brute_sifted(f, x, y, z)


def test_sifted_interval_rowwise_at_scale():
    for f in (Form(1, 0, 1), Form(2, 1, 3), Form(1, 100, 2501)):
        for x in (10**4, 10**5, 10**6):
            for y in (x, x / 3):
                for z in (2, 3, 10, 30):
                    assert sifted_interval_count(f, x, y, z) == rowwise_sifted(f, x, y, z), \
                        (f, x, y, z)


def test_sifted_interval_refuses_x_above_mask_cap_before_any_array():
    import tracemalloc

    f, X = Form(1, 0, 1), arith.MASK_CAP + 1
    primes_upto(30)  # the shared prime table, grown before the peak is read
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="above the mask cap"):
            sifted_interval_count(f, X, 10, 30)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    # z < 2 sifts nothing and needs no mask: the same x counts from the windows
    assert sifted_interval_count(f, X, 10, 1.5) == sum(r_f(f, n) for n in range(X - 9, X + 1))


def test_selberg_system_exact_identities():
    # minimized quadratic form equals 1/J identically, in rationals
    for f in (Form(1, 0, 1), Form(1, 1, 1), Form(2, 1, 3)):
        for z in (4.0, 10.0, 16.0):
            sys = selberg_system(f, z)
            Q = Fraction(0)
            for d1 in sys.support:
                for d2 in sys.support:
                    l = d1 * d2 // math.gcd(d1, d2)
                    Q += sys.lambdas[d1] * sys.lambdas[d2] * local_density_g(f, l)
            assert Q * sys.J == 1
            assert sys.lambdas[1] == 1
            assert all(abs(lam) <= 1 for lam in sys.lambdas.values())
            assert sum(sys.cross_coeff.values()) == sum(
                sys.lambdas[d1] * sys.lambdas[d2]
                for d1 in sys.support for d2 in sys.support)


def test_selberg_upper_bound_dominates_sifted_at_forced_z():
    # override the pinned z to exercise a non-degenerate system
    for f in (Form(1, 0, 1), Form(1, 1, 1), Form(2, 1, 3)):
        for z in (3.0, 5.0, 8.0):
            for (x, y) in ((500, 500), (2000, 1000), (10**4, 10**4)):
                if y < math.sqrt(f.a * x):
                    continue
                rep = selberg_upper_bound(f, x, y, z)
                assert rep.upper_bound >= rep.sifted_count, (f, z, x, y)
                assert rep.main_term + rep.remainder_signed >= rep.sifted_count
                assert rep.remainder_majorized >= abs(rep.remainder_signed) - 1e-9


def test_selberg_degenerate_z_is_trivial_bound():
    f = Form(1, 0, 1)
    z = pinned_z(f, 10**4, 10**4)
    assert z < 2  # the (log y)^7 damping keeps z near 1 at desk scale
    rep = selberg_upper_bound(f, 10**4, 10**4, z)
    assert rep.J == 1.0
    assert abs(rep.main_term - 2 * math.pi * 10**4 / 2) < 1e-9
    assert rep.upper_bound >= rep.sifted_count
    # z < 2 sieves nothing: the sifted count is every nonzero value in (0, x]
    assert rep.sifted_count == count_A(EllipseWindow.of(f, 10**4)) - 1


def test_sifted_count_equals_general_path():
    # z < 2 takes the sifted count from the l = 1 remainder; z >= 2 sieves
    for f in (Form(1, 0, 1), Form(1, 1, 1), Form(2, 1, 3), Form(3, 2, 7)):
        for (x, y) in ((500, 500), (2000, 1000), (7777.5, 3000.25), (10**4, 10**4)):
            if y < math.sqrt(f.a * x) or x < f.D / f.a:
                continue
            pinned = pinned_z(f, x, y)
            assert pinned < 2
            for z in (pinned, 1.5, 2.0, 3.0, 7.5):
                rep = selberg_upper_bound(f, x, y, z)
                assert rep.sifted_count == sifted_interval_count(f, x, y, z), (f, x, y, z)


def test_selberg_weight_check_raises(monkeypatch):
    # a density outside (0, 1) pushes a weight out of [-1, 1]; the check
    # must be a raised exception, not an assert that python -O strips
    monkeypatch.setattr(sieve, "local_density_g", lambda f, ell: Fraction(-1, 2))
    with pytest.raises(RuntimeError, match="escaped"):
        sieve._build_system(Form(1, 0, 1), 7.5)


def test_selberg_degenerate_L_branch():
    # tiny y makes (log y)^-2 exceed L(1,chi) and flips script_J to (log y)^2
    f = Form(1, 1, 1)
    rep = selberg_upper_bound(f, 3, 2, pinned_z(f, 3, 2))
    assert rep.degenerate_L_branch
    assert rep.script_J == math.log(2) ** 2


def _spy_calls(monkeypatch, names):
    """Count calls to `names` (module, function) through every bqfsieve
    module that binds them, so a caller's own import is counted too."""
    calls = Counter()
    for mod_name, name in names:
        orig = getattr(importlib.import_module(f"bqfsieve.{mod_name}"), name)

        def spy(*args, _orig=orig, _label=f"{mod_name}.{name}", **kwargs):
            calls[_label] += 1
            return _orig(*args, **kwargs)

        for mod in [m for k, m in sys.modules.items() if k.startswith("bqfsieve")]:
            if getattr(mod, name, None) is orig:
                monkeypatch.setattr(mod, name, spy)
    return calls


def test_sweep_row_reads_no_L_values_and_counts_no_class_number(monkeypatch):
    calls = _spy_calls(monkeypatch, [("characters", "L_values"),
                                     ("characters", "sum_local_densities"),
                                     ("forms", "enumerate_class_set")])
    res = run_sweep(SweepConfig(Q=300, jobs=1))
    assert res.summary.passes > 100 and res.summary.failures == 0
    assert sum(calls.values()) == 0, calls
    # the spies see the calls of a report that is read, and of theorem_rhs
    # without h, so the zero above is not a spy that missed them
    f, x, y = Form(2, 1, 3), 10**5, 2 * 10**4
    rep = selberg_upper_bound(f, x, y, pinned_z(f, x, y))
    assert rep.script_J > 0 and not rep.degenerate_L_branch
    assert calls["characters.L_values"] >= 1
    assert calls["characters.sum_local_densities"] == 1
    assert calls["forms.enumerate_class_set"] == 0  # the sieve needs no h
    theorem_rhs(f, x, x, 0.25, 0.2)
    assert calls["forms.enumerate_class_set"] == 1


def test_theorem_rhs_h_from_key_list_matches_counted_h():
    D, a, b, c, h = (col.tolist() for col in reduced_forms_upto(500))
    members = [d for d in range(3, 501) if d % 4 in (0, 3)]
    assert len(D) == sum(enumerate_class_set(d).h for d in members)  # every form
    for D_, f, h_ in zip(D, map(Form, a, b, c), h):
        for phi in (0, 0.25):
            x = math.ceil(full_range_x(D_, f.a, phi, 0.2))
            for y in (x, math.ceil(math.sqrt(x)) + 1):
                given_h = theorem_rhs(f, x, y, phi, 0.2, h=h_)
                counted = theorem_rhs(f, x, y, phi, 0.2)
                assert repr(given_h) == repr(counted), (f, phi, y)  # nan == nan


def test_pi_f_interval_rejects_y_outside_0_x():
    f = Form(1, 0, 1)
    for y in (-5, 101, math.nan):
        with pytest.raises(ValueError, match="need 0 <= y <= x"):
            pi_f_interval(f, 100, y)
    assert pi_f_interval(f, 100, 0) == 0
    assert pi_f_interval(f, 100, 100) == pi_f(f, 100) == 12


def test_pi_f_interval_matches_difference_of_pi_f():
    # the interval count against the difference of two full counts
    rng = random.Random(11)
    forms = [Form(1, 0, 1), Form(2, 1, 3), Form(3, 2, 7)]
    while len(forms) < 16:
        a, b = rng.randint(1, 30), rng.randint(-40, 40)
        c = rng.randint(b * b // (4 * a) + 1, b * b // (4 * a) + 30)
        if math.gcd(math.gcd(a, b), c) == 1:
            forms.append(Form(a, b, c))
    assert any(is_reduced(f) for f in forms) and not all(is_reduced(f) for f in forms)
    for f in forms:
        for x in (2, 3.5, rng.randint(2, 10**5), rng.uniform(2, 10**5)):
            for y in (0, x, x - 1, rng.uniform(0, x)):
                assert pi_f_interval(f, x, y) == pi_f(f, x) - pi_f(f, x - y), (f, x, y)


def test_pi_f_kernel_matches_the_value_bitmap():
    # the gathered point count, divided by r = w (1 + [f ambiguous]) with the
    # primes dividing 2D added back, against the represented primes read off
    # value_bitmap & mask: every reduced form with D < 400 (D = 3 and 4
    # included) and one non-reduced equivalent each
    X = 20000
    mask = prime_table(X)[: X + 1]
    cases = [(x, x) for x in (2, 3, 5, 50, 997, X)] + [(X, 3000), (997, 1), (50, 47)]
    two, ramified = set(), 0
    for D in range(3, 400):
        if not is_discriminant(D):
            continue
        for f in enumerate_class_set(D).reduced_forms:
            below = np.concatenate(([0], np.cumsum(value_bitmap(f, X) & mask)))
            g = Form(f.a + f.b + f.c, -f.b - 2 * f.a, f.a)
            assert not is_reduced(g) and reduce_form(g) == f
            for x, y in cases:
                want = int(below[x + 1] - below[x - y + 1])
                assert pi_f_interval(f, x, y) == pi_f_interval(g, x, y) == want, (f, x, y)
            if r_f(f, 2):
                two.add(D % 2)
            ramified += sum(1 for p, _ in factorize(D) if p > 2 and r_f(f, p))
    assert two == {0, 1} and ramified


def test_pi_f_refuses_a_count_that_r_does_not_divide(monkeypatch):
    # 11 odd primes p <= 100 with r_f(p) = 8 on x^2 + y^2: 88 points, not a
    # multiple of 2 * 3
    monkeypatch.setattr(sieve, "unit_count", lambda D: 3)
    with pytest.raises(RuntimeError, match="do not divide by r = 6"):
        pi_f(Form(1, 0, 1), 100)


def test_selberg_rejects_bad_ranges():
    f = Form(1, 0, 1)
    for call in (selberg_upper_bound, pinned_z):
        args = (2.0,) if call is selberg_upper_bound else ()
        with pytest.raises(ValueError, match="need \\(ax\\)"):
            call(f, 100, 5, *args)  # y < sqrt(ax)
        with pytest.raises(ValueError, match="need \\(ax\\)"):
            call(f, 100, 200, *args)  # y > x
        with pytest.raises(ValueError, match="need x >= D/a"):
            call(Form(1, 0, 30), 20, 20, *args)
        with pytest.raises(ValueError, match="reduced primitive"):
            call(Form(1, 5, 7), 100, 100, *args)


def test_pinned_z_formula():
    f = Form(2, 1, 3)
    expect = (f.a / (f.D * 10**6)) ** 0.25 * math.sqrt(10**5) * math.log(10**5) ** -7 + 1
    assert pinned_z(f, 10**6, 10**5) == expect


def test_theorem_rhs_examples():
    f = Form(1, 0, 1)
    # phi = 1/4, a = 1: range threshold is D^(2(1+eps)); at theta = 1/2 the
    # constant 4/(1-theta) = 8 of the D^(2+eps) corollary is reproduced
    D = f.D
    eps = 0.2
    x = D ** (4 / 1.5)  # makes theta = 1.5 * log D / log x = ... solve below
    tb = theorem_rhs(f, x, x, 0.25, eps)
    theta_expect = (1 + 0.5 + eps / 2) * math.log(D) / math.log(x)
    assert abs(tb.theta - theta_expect) < 1e-12
    x8 = D ** (2 * (1.5 + eps / 2))  # theta = 1/2 exactly
    tb8 = theorem_rhs(f, x8, x8, 0.25, eps)
    assert abs(tb8.theta - 0.5) < 1e-12
    assert abs(tb8.rhs - 8 * 1.0 * x8 / (1 * math.log(x8))) < 1e-6
    # phi = 0 at the exact range boundary
    x0 = (D / f.a) ** 1.2
    tb0 = theorem_rhs(f, x0, x0, 0, 0.2)
    assert x0 >= full_range_x(f.D, f.a, 0, 0.2)
    assert tb0.theta < 1
    # y < x takes the short-interval bound 2/(1-theta') delta_f y / (h log y)
    x, y = 10**6, 10**5
    tb_full, tb_short = theorem_rhs(f, x, x, 0.25, eps), theorem_rhs(f, x, y, 0.25, eps)
    assert tb_short.theta == tb_full.theta and tb_short.theta_prime < 1
    assert tb_short.rhs == 2 / (1 - tb_short.theta_prime) * y / math.log(y)
    assert tb_full.rhs == 4 / (1 - tb_full.theta) * x / math.log(x)


def test_sweep_theta_is_the_one_the_rhs_used():
    # interval rows whose y is capped at x take the full-range bound, so they
    # report theta, and the rows with y < x report theta'
    res = run_sweep(SweepConfig(Q=200, mode="interval", x_rule="(D*D/a)**3",
                                y_rule="(D*D/a)**2.4"))
    live = [r for r in res.records if r.pass_ in ("0", "1")]
    assert {r.y < r.x for r in live} == {True, False}
    for r in live:
        k, t = (2, r.y) if r.y < r.x else (4, r.x)
        rhs = k / (1 - r.theta_or_theta_prime) * r.delta_f * t / (r.h * math.log(t))
        assert r.rhs_theorem == pytest.approx(rhs, rel=1e-12), (r.D, r.a, r.b, r.c)


def test_theorem_rhs_rejects():
    f = Form(1, 0, 1)
    with pytest.raises(ValueError, match="reduced primitive"):
        theorem_rhs(Form(1, 5, 7), 100, 100, 0.25, 0.2)
    with pytest.raises(ValueError, match="phi_mode"):
        theorem_rhs(f, 100, 100, 0.1, 0.2)
    with pytest.raises(ValueError, match="need 1 < y <= x"):
        theorem_rhs(f, 100, 200, 0.25, 0.2)
    for eps in (0, -1, math.nan):
        with pytest.raises(ValueError, match="epsilon"):
            theorem_rhs(f, 100, 100, 0.25, eps)


def test_theta_prime_relation_at_y_equals_x():
    import random

    rng = random.Random(17)
    for _ in range(100):
        D = rng.choice([d for d in range(3, 500) if d % 4 in (0, 3)])
        forms = enumerate_class_set(D).reduced_forms
        f = rng.choice(forms)
        x = rng.uniform(10, 1e8)
        phi = rng.choice([0, 0.25])
        eps = rng.uniform(0.01, 0.5)
        tb = theorem_rhs(f, x, x, phi, eps)
        assert abs(tb.theta_prime - (1 + tb.theta) / 2) < 1e-9


def brute_almost_primes(f, x, k):
    def big_omega(n):
        count, m = 0, n
        d = 2
        while d * d <= m:
            while m % d == 0:
                m //= d
                count += 1
            d += 1
        return count + (1 if m > 1 else 0)

    return sum(1 for n in brute_values(f, x) if 1 <= n and big_omega(n) <= k)


def test_count_almost_primes_examples():
    f = Form(1, 0, 1)
    # represented values <= 10 are {0,1,2,4,5,8,9,10}; Omega <= 1 admits
    # 1 (empty product), 2 and 5
    assert count_almost_primes(f, 10, 1) == 3 == brute_almost_primes(f, 10, 1)
    assert count_almost_primes(f, 100, 2) == brute_almost_primes(f, 100, 2)
    # k >= log2(x): every represented 1 <= n <= x qualifies
    assert count_almost_primes(f, 10, 4) == len(brute_values(f, 10)) - 1
    assert count_almost_primes(Form(2, 1, 3), 300, 9) == len(brute_values(Form(2, 1, 3), 300)) - 1
    # the per-row arange bitmap's count at desk scale
    assert count_almost_primes(Form(1, 1, 6), 1e7, 10) == 1_675_531


@given(st.integers(10, 400), st.integers(1, 6))
@settings(max_examples=30)
def test_count_almost_primes_monotone(x, k):
    f = Form(1, 0, 1)
    assert count_almost_primes(f, x, k) <= count_almost_primes(f, x + 37, k)
    assert count_almost_primes(f, x, k) <= count_almost_primes(f, x, k + 1)


def test_almost_prime_density_small():
    f = Form(1, 0, 1)
    x = 10**4
    assert count_almost_primes(f, x, 10) >= 0.5 * x / (math.sqrt(f.D) * math.log(x) ** 2)


def test_sieve_refuses_x_above_the_mask_cap_before_any_window(capsys):
    # 2,309,401 window rows, under the row cap: the mask cap refuses first, in
    # the pi_f count that `bqf sieve` runs before the sieve's windows
    import tracemalloc

    from bqfsieve.cli import main

    tracemalloc.start()
    try:
        code = main(["sieve", "1", "1", "1", "1e12"])
        with pytest.raises(ValueError, match="prime mask limited to 2e8"):
            pi_f(Form(1, 1, 1), 1e12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err
    assert code == 2 and "prime mask limited to 2e8" in err and "Traceback" not in err
    assert peak < 1 << 20


def test_pi_f_refuses_D_of_2_44_before_any_table(monkeypatch):
    monkeypatch.setattr(arith, "_mask", np.zeros(0, dtype=bool))
    builds = []
    kernel = arith.sieve_primes
    monkeypatch.setattr(arith, "sieve_primes", lambda n: builds.append(n) or kernel(n))
    f = Form(1, 0, 2**42)
    assert f.D == 2**44
    for x, y in ((100, 100), (1e6, 10)):
        with pytest.raises(ValueError, match="2\\^44"):
            pi_f_interval(f, x, y)
    assert builds == [] and len(arith._mask) == 0


def test_step0_inequality_on_sweep_rows():
    # (w/delta_f)(pi_f(x) - pi_f(x-y)) <= sifted + (w/delta_f) pi(z) over
    # full-range sweep style runs
    for D in [d for d in range(3, 120) if d % 4 in (0, 3)]:
        cs = enumerate_class_set(D)
        for f in cs.reduced_forms:
            x = math.ceil((D * D / f.a) ** 1.2)
            z = pinned_z(f, x, x)
            lhs = unit_count(D) / delta_f(f) * pi_f_interval(f, x, x)
            sifted = sifted_interval_count(f, x, x, z)
            pi_z = len(primes_upto(math.floor(z)))
            rhs = sifted + unit_count(D) / delta_f(f) * pi_z
            assert lhs <= rhs, (D, f.triple(), x)


def test_count_almost_primes_rejects_x_above_cap_before_allocating(monkeypatch):
    import tracemalloc

    def bitmap(*args):
        raise AssertionError("value bitmap allocated above the cap")

    monkeypatch.setattr(sieve, "value_bitmap", bitmap)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="limited to 2e8"):
            count_almost_primes(Form(1, 1, 6), 3e8, 10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.slow
def test_split_primes_weighted_by_delta_f():
    # a prime p not dividing D with chi_{-D}(p) = 1 is represented by the
    # class of f and that of f(u, -v), one class of weight delta_f = 1 when
    # they coincide, else two of weight 1/2; the right side reads chi alone
    x = 10**5
    primes = np.array(primes_upto(x))
    bad, forms_seen = [], 0
    for D in range(3, 1001):
        if not is_discriminant(D):
            continue
        ramified = [p for p, _ in factorize(D)]
        lhs = 0.0
        for f in enumerate_class_set(D).reduced_forms:
            lhs += delta_f(f) * (pi_f(f, x) - sum(1 for p in ramified if r_f(f, p)))
            forms_seen += 1
        rhs = int(np.count_nonzero(char_profile(D).chi[primes % D] == 1))
        if lhs != rhs:
            bad.append((D, lhs, rhs))
    assert bad == [] and forms_seen == 4449
