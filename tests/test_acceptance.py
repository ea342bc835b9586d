"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
The two expensive sweeps (the D <= 500 decomposition sweep and the D <= 2000
theorem sweep) are module-scoped fixtures shared by the criteria that read
them.
"""

import math
import os
import random
import time
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction

import pytest

from bqfsieve.arith import kronecker, mult_functions, primes_upto
from bqfsieve.characters import (L_values, average_exceptional_report,
                                 class_number_estimate, family)
from bqfsieve.forms import Form, enumerate_class_set, scale_form
from bqfsieve.lattice import (EllipseWindow, count_A, count_B_ell,
                              count_congruence, local_density_report, r_f,
                              sqrt_average)
from bqfsieve.sieve import count_almost_primes, pi_f
from bqfsieve.sweeps import SweepConfig, run_sweep

pytestmark = pytest.mark.slow

JOBS = min(int(os.environ.get("BQF_THREADS", os.cpu_count() or 1)), 4)

SQUAREFREE_ELLS = tuple(l for l in range(1, 31) if mult_functions(l).squarefree)
SWEEP_XS = (100, 1000, 10000)


def report(num, ok, detail, started):
    line = "ACCEPTANCE %2d: %s — %s (%.1fs)" % (
        num, "PASS" if ok else "FAIL", detail, time.time() - started)
    print(line)
    assert ok, line


def _decomposition_worker(D):
    """Identities of criterion 1 plus the envelope ratio of criterion 4."""
    violations = 0
    max_ratio = 0.0
    rows = 0
    for f in enumerate_class_set(D).reduced_forms:
        for x in SWEEP_XS:
            win = EllipseWindow.of(f, x)
            for ell in SQUAREFREE_ELLS:
                cc = count_congruence(win, ell)
                rows += 1
                if cc.a_ell != sum(cc.a_ell_by_d.values()):
                    violations += 1
                if cc.b_ell != sum(cc.b_ell_by_m.values()):
                    violations += 1
                if cc.a_ell_by_d.get(1, 0) != cc.b_ell:
                    violations += 1
                for d, n in cc.a_ell_by_d.items():
                    if d == 1:
                        continue
                    r = math.gcd(f.a, d)
                    scaled = scale_form(f, r).form
                    xprime = Fraction(r * r * x, d * d)
                    if n != count_B_ell(EllipseWindow.of(scaled, xprime), ell // d):
                        violations += 1
                ratio = local_density_report(win, ell, exact=cc.a_ell).ratio
                max_ratio = max(max_ratio, ratio)
    return violations, max_ratio, rows


@pytest.fixture(scope="module")
def decomposition_sweep():
    started = time.time()
    ds = [D for D in range(3, 501) if D % 4 in (0, 3)]
    with ProcessPoolExecutor(max_workers=JOBS) as pool:
        results = list(pool.map(_decomposition_worker, ds, chunksize=8))
    violations = sum(r[0] for r in results)
    max_ratio = max(r[1] for r in results)
    rows = sum(r[2] for r in results)
    return {"violations": violations, "max_ratio": max_ratio, "rows": rows,
            "elapsed": time.time() - started}


@pytest.fixture(scope="module")
def theorem_sweep():
    started = time.time()
    res = run_sweep(SweepConfig(Q=2000, jobs=JOBS))
    return {"result": res, "elapsed": time.time() - started}


def test_criterion_01_exact_decompositions(decomposition_sweep):
    started = time.time() - decomposition_sweep["elapsed"]
    s = decomposition_sweep
    ok = s["violations"] == 0 and s["elapsed"] < 300
    report(1, ok, "decomposition identities: %d rows, %d violations, %.0fs sweep"
           % (s["rows"], s["violations"], s["elapsed"]), started)


def test_criterion_02_root_count_formula():
    started = time.time()
    rng = random.Random(20250810)
    primes = primes_upto(100)
    checked = 0
    forms = []
    while len(forms) < 50:
        a = rng.randint(1, 50)
        b = rng.randint(-50, 50)
        cmin = (b * b) // (4 * a) + 1
        c = rng.randint(cmin, cmin + 50)
        f = Form(a, b, c)
        if f.D <= 10**4 and math.gcd(math.gcd(a, b), c) == 1:
            forms.append(f)
    ok = True
    for f in forms:
        chi = lambda p: kronecker(-f.D, p)
        for p in primes:
            brute = sum(1 for m in range(p)
                        if (f.a * m * m + f.b * m + f.c) % p == 0)
            expect = (1 + chi(p)) if f.a % p else chi(p)
            if brute != expect:
                ok = False
        checked += len(primes)
    report(2, ok, "M(p) formula: 50 forms x %d primes, %d checks" %
           (len(primes), checked), started)


def _class_number_worker(ds):
    bad = []
    worst_resid = 0.0
    for D in ds:
        cs = enumerate_class_set(D)
        bound = math.isqrt(D // 3)
        for f in cs.reduced_forms:
            if f.a > bound:
                bad.append(("a-bound", D))
        h_formula, resid = class_number_estimate(D)
        worst_resid = max(worst_resid, resid)
        if h_formula != cs.h or resid >= 0.5:
            bad.append((D, cs.h, h_formula, resid))
    return bad, worst_resid


def test_criterion_03_class_number_formula():
    started = time.time()
    ds = family(10**4).members
    chunks = [ds[i::JOBS] for i in range(JOBS)]
    with ProcessPoolExecutor(max_workers=JOBS) as pool:
        results = list(pool.map(_class_number_worker, chunks))
    bad = [b for r in results for b in r[0]]
    worst = max(r[1] for r in results)
    elapsed = time.time() - started
    ok = not bad and elapsed < 600
    report(3, ok, "class number formula: %d discriminants, worst residual %.3g, "
           "%d mismatches" % (len(ds), worst, len(bad)), started)


def test_criterion_04_local_density_envelope(decomposition_sweep):
    started = time.time()
    s = decomposition_sweep
    ok = s["max_ratio"] <= 50
    report(4, ok, "local-density envelope: max |residual|/envelope = %.3f "
           "over %d rows (threshold 50)" % (s["max_ratio"], s["rows"]), started)


def test_criterion_05_first_moment():
    started = time.time()
    forms = []
    D = 3
    while len(forms) < 20:
        if D % 4 in (0, 3):
            forms.extend(enumerate_class_set(D).reduced_forms)
        D += 1
    forms = forms[:20]
    worst = 0.0
    ok = True
    for f in forms:
        x = 100 * f.c
        total = count_A(EllipseWindow.of(f, x))
        envelope = (math.sqrt(f.a * x / f.D) + (f.D * x) ** 0.25 / f.a**0.75 + 1)
        err = abs(total - 2 * math.pi * x / math.sqrt(f.D))
        worst = max(worst, err / envelope)
        if err > 50 * envelope:
            ok = False
    report(5, ok, "first moment 2 pi x / sqrt(D): 20 forms, worst ratio %.3f "
           "(threshold 50)" % worst, started)


def test_criterion_06_sqrt_average():
    started = time.time()
    worst = 0.0
    ok = True
    for W in list(range(1, 1001)) + [10**4, 10**5]:
        sa = sqrt_average(W)
        worst = max(worst, abs(sa.error) / math.sqrt(W))
        if abs(sa.error) > 10 * math.sqrt(W):
            ok = False
    report(6, ok, "sqrt-average lemma: worst |error|/sqrt(W) = %.3f "
           "(threshold 10)" % worst, started)


def test_criterion_07_sieve_validity(theorem_sweep):
    started = time.time()
    res = theorem_sweep["result"]
    checked = 0
    violations = 0
    for r in res.records:
        if r.sieve_valid is not None:
            checked += 1
            if not r.sieve_valid or r.upper_bound < r.sifted_count:
                violations += 1
    ok = violations == 0 and checked > 0
    report(7, ok, "Selberg bound >= sifted count: %d runs, %d violations"
           % (checked, violations), started)


def test_criterion_08_full_range_sweep(theorem_sweep):
    started = time.time()
    res = theorem_sweep["result"]
    rows = [r for r in res.records if r.pass_ in ("0", "1")]
    upper_bad = 0
    lower_pass = 0
    worst_upper = 0.0
    for r in rows:
        ratio = r.exact_count / r.rhs_theorem
        worst_upper = max(worst_upper, ratio)
        if not r.exact_count < 1.5 * r.rhs_theorem:
            upper_bad += 1
        base = r.delta_f * r.x / (r.h * math.log(r.x))
        if r.exact_count >= 0.2 * base:
            lower_pass += 1
    lower_frac = lower_pass / len(rows)
    elapsed = theorem_sweep["elapsed"]
    ok = (upper_bad == 0 and lower_frac >= 0.95 and len(rows) > 10**4
          and elapsed < 1800)
    report(8, ok, "full-range sweep: %d rows, max pi_f/rhs = %.3f (<1.5), "
           "lower sanity %.1f%% (>=95%%), %.0fs"
           % (len(rows), worst_upper, 100 * lower_frac, elapsed), started)


def test_criterion_09_known_values():
    started = time.time()
    ok = (pi_f(Form(1, 0, 1), 100) == 12
          and enumerate_class_set(23).h == 3
          and enumerate_class_set(15).h == 2
          and count_A(EllipseWindow.of(Form(1, 0, 1), 10)) == 37)
    report(9, ok, "known values: pi_f(100)=12, h(-23)=3, h(-15)=2, |A(10)|=37",
           started)


def test_criterion_10_almost_primes():
    started = time.time()
    f = Form(1, 0, 1)
    ok = True
    ratios = []
    for x in (10**6, 10**5, 10**4):
        count = count_almost_primes(f, x, 10)
        threshold = 0.5 * x / (math.sqrt(f.D) * math.log(x) ** 2)
        ratios.append(count / threshold)
        if count < threshold:
            ok = False
    report(10, ok, "almost primes k=10: count/threshold = %s at x=1e6,1e5,1e4"
           % ", ".join("%.0f" % r for r in ratios), started)


def test_criterion_11_family_averages():
    started = time.time()
    rep = average_exceptional_report(5000, 0.1, jobs=JOBS)
    elapsed = time.time() - started
    e_budget = 3 * 5000 ** (1 - 0.1 / 10)
    ok = (rep.violators_E <= e_budget
          and rep.violators_L <= 0.01 * rep.total
          and elapsed < 1800)
    report(11, ok, "family Q=5000: violators_E=%d (<=%.0f), "
           "-L'/L within 10 log log D for %.2f%% (>=99%%), %.0fs"
           % (rep.violators_E, e_budget, 100 * (1 - rep.fraction_L), elapsed),
           started)
