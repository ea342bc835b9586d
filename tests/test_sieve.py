import dataclasses
import importlib
import math
import random
import sys
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bqfsieve import sieve
from bqfsieve.arith import factorize, primes_upto
from bqfsieve.characters import char_profile
from bqfsieve.forms import (Form, delta_f, enumerate_class_set, is_discriminant,
                            is_reduced, reduced_forms_upto, unit_count)
from bqfsieve.lattice import count_A, EllipseWindow, local_density_g, r_f
from bqfsieve.sieve import (SieveParams, count_almost_primes, full_range_x, pi_f,
                            pi_f_interval, selberg_system,
                            selberg_upper_bound, sifted_interval_count,
                            theorem_rhs)
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


def test_sifted_interval_examples():
    f = Form(1, 0, 1)
    assert sifted_interval_count(f, 10, 10, 2) == 16
    assert sifted_interval_count(f, 10, 0, 2) == 0
    assert sifted_interval_count(f, 10, 10, 11) == 4


def test_sifted_interval_brute():
    for f in (Form(1, 0, 1), Form(2, 1, 3), Form(1, 100, 2501)):  # the last: not reduced
        for (x, y, z) in ((100, 100, 2), (100, 40, 3), (350, 90, 5), (350, 350, 7)):
            assert sifted_interval_count(f, x, y, z) == brute_sifted(f, x, y, z)


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
                params = dataclasses.replace(SieveParams.of(f, x, y), z=z)
                rep = selberg_upper_bound(params)
                assert rep.upper_bound >= rep.sifted_count, (f, z, x, y)
                assert rep.main_term + rep.remainder_signed >= rep.sifted_count
                assert rep.remainder_majorized >= abs(rep.remainder_signed) - 1e-9


def test_selberg_degenerate_z_is_trivial_bound():
    f = Form(1, 0, 1)
    params = SieveParams.of(f, 10**4, 10**4)
    assert params.z < 2  # the (log y)^7 damping keeps z near 1 at desk scale
    rep = selberg_upper_bound(params)
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
            pinned = SieveParams.of(f, x, y)
            assert pinned.z < 2
            for params in [pinned] + [dataclasses.replace(pinned, z=z)
                                      for z in (1.5, 2.0, 3.0, 7.5)]:
                rep = selberg_upper_bound(params)
                assert rep.sifted_count == sifted_interval_count(f, x, y, params.z), (
                    f, x, y, params.z)


def test_selberg_weight_check_raises(monkeypatch):
    # a density outside (0, 1) pushes a weight out of [-1, 1]; the check
    # must be a raised exception, not an assert that python -O strips
    monkeypatch.setattr(sieve, "local_density_g", lambda f, ell: Fraction(-1, 2))
    with pytest.raises(RuntimeError, match="escaped"):
        sieve._build_system(Form(1, 0, 1), 7.5)


def test_selberg_degenerate_L_branch():
    # tiny y makes (log y)^-2 exceed L(1,chi) and flips script_J to (log y)^2
    f = Form(1, 1, 1)
    params = SieveParams.of(f, 3, 2)
    rep = selberg_upper_bound(params)
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
    rep = selberg_upper_bound(SieveParams.of(Form(2, 1, 3), 10**5, 2 * 10**4))
    assert rep.script_J > 0 and not rep.degenerate_L_branch
    assert calls["characters.L_values"] >= 1
    assert calls["characters.sum_local_densities"] == 1
    theorem_rhs(Form(2, 1, 3), 10**5, 10**5, 0.25, 0.2)
    assert calls["forms.enumerate_class_set"] == 2


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
    # one bitmap, sliced at floor(x - y), against the two counts it replaced
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


def test_selberg_rejects_bad_ranges():
    f = Form(1, 0, 1)
    with pytest.raises(ValueError):
        selberg_upper_bound(SieveParams.of(f, 100, 5))  # y < sqrt(ax)
    with pytest.raises(ValueError):
        SieveParams.of(f, 100, 200)  # y > x
    with pytest.raises(ValueError):
        SieveParams.of(f, 100, 100, phi_mode=0.5)
    for eps in (0, -1, math.nan):
        with pytest.raises(ValueError, match="epsilon"):
            SieveParams.of(f, 100, 100, epsilon=eps)
    with pytest.raises(ValueError):
        selberg_upper_bound(SieveParams.of(Form(1, 0, 30), 20, 20))  # x < D/a


def test_sieve_params_z_formula():
    f = Form(2, 1, 3)
    p = SieveParams.of(f, 10**6, 10**5)
    expect = (f.a / (f.D * 10**6)) ** 0.25 * math.sqrt(10**5) * math.log(10**5) ** -7 + 1
    assert p.z == expect


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
    assert abs(tb8.rhs_full - 8 * 1.0 * x8 / (1 * math.log(x8))) < 1e-6
    # phi = 0 at the exact range boundary
    x0 = (D / f.a) ** 1.2
    tb0 = theorem_rhs(f, x0, x0, 0, 0.2)
    assert x0 >= full_range_x(f.D, f.a, 0, 0.2)
    assert tb0.theta < 1


def test_theorem_rhs_rejects():
    with pytest.raises(ValueError):
        theorem_rhs(Form(1, 5, 7), 100, 100, 0.25, 0.2)  # not reduced
    with pytest.raises(ValueError):
        theorem_rhs(Form(1, 0, 1), 100, 100, 0.1, 0.2)


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


def test_sieve_refuses_x_above_the_mask_cap_before_any_window():
    # 2,309,401 window rows, under the row cap: the mask cap refuses first
    import tracemalloc

    params = SieveParams.of(Form(1, 1, 1), 1e12, 1e12)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="prime mask limited to 2e8"):
            selberg_upper_bound(params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_step0_inequality_on_sweep_rows():
    # (w/delta_f)(pi_f(x) - pi_f(x-y)) <= sifted + (w/delta_f) pi(z) over
    # full-range sweep style runs
    for D in [d for d in range(3, 120) if d % 4 in (0, 3)]:
        cs = enumerate_class_set(D)
        for f in cs.reduced_forms:
            x = math.ceil((D * D / f.a) ** 1.2)
            params = SieveParams.of(f, x, x)
            lhs = unit_count(D) / delta_f(f) * pi_f_interval(f, x, x)
            sifted = sifted_interval_count(f, x, x, params.z)
            pi_z = len(primes_upto(math.floor(params.z)))
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
        ramified = [p for p, _ in factorize(D).factors]
        lhs = 0.0
        for f in enumerate_class_set(D).reduced_forms:
            lhs += delta_f(f) * (pi_f(f, x) - sum(1 for p in ramified if r_f(f, p)))
            forms_seen += 1
        rhs = int(np.count_nonzero(char_profile(D).chi[primes % D] == 1))
        if lhs != rhs:
            bad.append((D, lhs, rhs))
    assert bad == [] and forms_seen == 4449
