import math

import mpmath
import numpy as np
import pytest
from scipy.special import digamma

from bqfsieve import characters
from bqfsieve.arith import kronecker
from bqfsieve.characters import (EULER_GAMMA, ErrorFunctionals,
                                 L_values, _chi_period, _functional_minima,
                                 _x_grid, _y_grid, average_exceptional_report,
                                 char_prefix_sums, char_profile,
                                 class_number_estimate,
                                 dirichlet_convolution_table, error_functionals,
                                 family, scan_discriminant,
                                 sum_local_densities, weighted_dirichlet_sums)
from bqfsieve.forms import D_MAX, Form, enumerate_class_set, fundamental_part


def test_char_prefix_sums_examples():
    ps4 = char_prefix_sums(4, 4)
    assert ps4.S.tolist() == [0, 1, 1, 0, 0]
    ps3 = char_prefix_sums(3, 6)
    assert ps3.S[6] == 0
    assert ps3.S[0] == 0


def test_char_prefix_sums_rejects():
    with pytest.raises(ValueError):
        char_prefix_sums(5, 10)


def test_profile_matches_kronecker():
    for D in (3, 4, 12, 23, 40, 163):
        prof = char_profile(D)
        for n in range(1, 2 * D + 1):
            assert prof.chi_at(n) == kronecker(-D, n), (D, n)
    # the whole period, every discriminant below 2000
    for D in range(3, 2000):
        if D % 4 in (0, 3):
            chi = _chi_period(D).tolist()
            assert chi == [0] + [kronecker(-D, n) for n in range(1, D + 1)], D
    # a power of 2, 4p, a large prime factor (3 * 65537), a prime: sampled n
    rng = np.random.default_rng(7)
    for D in (2**16, 4 * 10007, 3 * 65537, 100003):
        chi = _chi_period(D)
        ns = np.concatenate([np.arange(1, 300), [D - 1, D],
                             rng.integers(1, D + 1, 3000)])
        assert all(chi[n] == kronecker(-D, int(n)) for n in ns), D
    with pytest.raises(ValueError):
        _chi_period(D_MAX + 1)


def test_prefix_sum_step_invariant():
    for D in (3, 8, 23, 100):
        prof = char_profile(D)
        vals = [prof.S(t) for t in range(3 * D)]
        assert all(abs(vals[t + 1] - vals[t]) <= 1 for t in range(len(vals) - 1))


def test_polya_vinogradov_envelope_measured():
    for D in range(3, 501):
        if D % 4 not in (0, 3):
            continue
        prof = char_profile(D)
        assert prof.s_max <= math.sqrt(D) * (2 + math.log(D)), D


def test_tail_quadratic_against_truncated_sum():
    prof = char_profile(23)
    for y in (7, 23, 100):
        # truncated brute sum + exact mean tail correction bounds the value
        N = 10**6
        brute = sum(prof.S(n) / (n * (n + 1)) for n in range(y, N))
        exact = prof.tail_quadratic(y)
        assert abs(brute - exact) < 5e-6  # remaining tail is mu_S/N-sized


def test_L_values_classical():
    lv4 = L_values(4)
    assert abs(lv4.L1 - math.pi / 4) < 1e-6
    lv3 = L_values(3)
    assert abs(lv3.L1 - math.pi / (3 * math.sqrt(3))) < 1e-6
    # round(w sqrt(D) L1 / 2pi) recovers h(-23) = 3
    h, resid = class_number_estimate(23)
    assert h == 3 and resid < 0.5


def _mp_L_values(D):
    """(L(1,chi), L'(1,chi)) at 30 digits from the Hurwitz-zeta expansion:
    L1 = -(1/D) sum chi(r) psi(r/D) and
    L1' = -log D L1 - (1/D) sum chi(r) gamma_1(r/D)  (Berndt 1972)."""
    prof = char_profile(D)
    with mpmath.workdps(30):
        rs = [r for r in range(1, D) if prof.chi[r]]
        L1 = -mpmath.fsum(int(prof.chi[r]) * mpmath.digamma(mpmath.mpf(r) / D)
                          for r in rs) / D
        g1 = mpmath.fsum(int(prof.chi[r]) * mpmath.stieltjes(1, mpmath.mpf(r) / D)
                         for r in rs)
        return L1, -mpmath.log(D) * L1 - g1 / D


def test_L_values_against_mpmath():
    # fundamental and non-fundamental (12, 27, 300) discriminants
    for D in (3, 4, 8, 12, 23, 27, 40, 84, 300):
        L1, L1p = _mp_L_values(D)
        lv = L_values(D)
        assert abs(lv.L1 - L1) <= 1e-13, D
        assert abs(lv.L1_prime - L1p) <= lv.error_bound <= 1e-7, D


def _tail_two_psi(prof, vals, ys):
    """The closed-form tail with two digamma calls per cell."""
    D = prof.D
    A = ys[:, None] + np.arange(D, dtype=np.int64)[None, :]
    diff = digamma((A + 1) / D) - digamma(A / D)
    return (vals[A % D] * diff).sum(axis=1) / D


def test_tail_bit_identical_to_two_psi_formula():
    # the y-grids scan_discriminant builds at epsilon = 0.1
    for D in (3, 4, 23, 40, 163, 600, 2003):
        prof = char_profile(D)
        ys = _y_grid(_x_grid(D**0.1, min(D**2.1, 1e7))[-1])
        for vals in (prof.S_mod, np.abs(prof.S_mod)):
            assert np.array_equal(prof._tail(vals, ys), _tail_two_psi(prof, vals, ys)), D


def _scan_eager(D, epsilon, x_cap=1e7):
    """scan_discriminant with the whole tail grid computed up front."""
    prof = char_profile(D)
    xs = _x_grid(float(D) ** epsilon, min(float(D) ** (2 + epsilon), x_cap))
    ys = _y_grid(xs[-1])
    tails = np.asarray(prof.tail_quadratic_abs(ys))
    viol_E = False
    for x in xs:
        sel = ys <= x
        if not np.any(sel):
            sel = ys <= ys[0]
        ef = _functional_minima(prof, x, ys[sel], tails[sel])
        if ef.E0 > x ** (7 / 8 + epsilon) or ef.E1 > x ** (-1 / 8 + epsilon):
            viol_E = True
            break
    lv = L_values(D)
    viol_L = (-lv.L1_prime / lv.L1) > 10 * math.log(math.log(D))
    return viol_E, viol_L


def test_lazy_scan_matches_eager_scan(monkeypatch):
    cases = [(D, eps, cap) for D in (*range(3, 400), 1000, 2003, 4999)
             if D % 4 in (0, 3)
             for eps, cap in ((0.01, 1e7), (0.1, 1e7), (0.12, 1e7), (0.1, 1.5))]
    for D, eps, cap in cases:
        assert scan_discriminant(D, eps, cap) == _scan_eager(D, eps, cap), (D, eps, cap)
    # with no violation the loop walks every x; each x must see the rows
    # ys <= x (at least one) with the full-grid tail values, and every row
    # is computed once; with a violation at the first x only its rows are
    seen, rows = [], []
    tail = characters.CharacterProfile._tail

    def counted_tail(prof, vals, y):
        rows.append(np.size(y))
        return tail(prof, vals, y)

    def minima(prof, x, ys, tails, E0=0.0):
        seen.append((x, ys.copy(), tails.copy()))
        return ErrorFunctionals(x=x, E0=E0, E1=0.0, argmin_y0=1.0, argmin_y1=1.0)

    monkeypatch.setattr(characters.CharacterProfile, "_tail", counted_tail)
    for E0 in (0.0, math.inf):
        monkeypatch.setattr(characters, "_functional_minima",
                            lambda *a, E0=E0: minima(*a, E0=E0))
        for D in (3, 4, 23, 40, 163, 600, 2003):
            for eps in (0.01, 0.1):
                xs = _x_grid(float(D) ** eps, min(float(D) ** (2 + eps), 1e7))
                ys = _y_grid(xs[-1])
                full = tail(char_profile(D), char_profile(D).abs_S, ys)
                seen.clear()
                rows.clear()
                scan_discriminant(D, eps)
                assert [x for x, _, _ in seen] == (xs if E0 == 0 else xs[:1])
                for x, ys_x, tails_x in seen:
                    k = max(int(np.sum(ys <= x)), 1)
                    assert np.array_equal(ys_x, ys[:k]), (D, eps, x)
                    assert np.array_equal(tails_x, full[:k]), (D, eps, x)
                assert sum(rows) == k, (D, eps, E0)


def test_L_values_rejects_non_discriminant():
    with pytest.raises(ValueError):
        L_values(7**2 - 48)  # 1 is not a discriminant


def test_L1_positive_at_desk_scale():
    for D in range(3, 500):
        if D % 4 in (0, 3):
            assert L_values(D).L1 > 0, D


def test_class_number_formula_subset():
    for D in range(3, 300):
        if D % 4 not in (0, 3):
            continue
        h_formula, resid = class_number_estimate(D)
        assert resid < 0.5, D
        assert h_formula == enumerate_class_set(D).h, D


def test_weighted_dirichlet_sums_hand_value():
    ws = weighted_dirichlet_sums(3, 3)
    assert abs(ws.Sigma0 - 2 / 3) < 1e-12


def test_weighted_dirichlet_sums_rejects_small_x():
    with pytest.raises(ValueError):
        weighted_dirichlet_sums(3, 2)


def conv_direct(D, N):
    prof = char_profile(D)
    out = [0] * (N + 1)
    for n in range(1, N + 1):
        out[n] = sum(prof.chi_at(d) for d in range(1, n + 1) if n % d == 0)
    return out


def test_convolution_two_paths():
    for D in (3, 4, 23, 40):
        table = dirichlet_convolution_table(D, 1000)
        assert table.tolist() == conv_direct(D, 1000), D


def test_weighted_sums_against_error_functional():
    for D in (3, 4, 23):
        for x in (100, 1000, 10**4):
            ws = weighted_dirichlet_sums(D, x)
            ef = error_functionals(D, x)
            assert abs(ws.Sigma0 - ws.main0) <= 2 * ef.E0, (D, x)
            assert abs(ws.Sigma1 - ws.main1) <= 2 * ef.E1, (D, x)


def test_weighted_sums_ratio_converges():
    ratios = []
    for k in range(2, 7):
        ws = weighted_dirichlet_sums(4, 10**k)
        ratios.append(abs(ws.Sigma0 / ws.main0 - 1))
    assert all(r2 < r1 for r1, r2 in zip(ratios, ratios[1:]))
    assert ratios[-1] < 1e-5


def test_error_functionals_basic():
    ef = error_functionals(3, 100)
    assert ef.E0 >= 0 and ef.E1 >= 0
    assert math.isfinite(ef.E0) and math.isfinite(ef.E1)
    assert 1 <= ef.argmin_y0 <= 100 and 1 <= ef.argmin_y1 <= 100


def test_error_functionals_envelopes_at_typical_point():
    ef = error_functionals(4, 10**4)
    assert ef.E0 <= (10**4) ** (7 / 8 + 0.1)
    assert ef.E1 <= (10**4) ** (-1 / 8 + 0.1)


def test_error_functionals_monotone_under_refinement():
    # grid at ratio r^2 is a subset of the grid at ratio r, so the reported
    # minima cannot increase under refinement
    for D in (3, 23, 40):
        for x in (50, 1000, 10**5):
            coarse = error_functionals(D, x, ratio=1.1)
            fine = error_functionals(D, x, ratio=math.sqrt(1.1))
            assert fine.E0 <= coarse.E0 + 1e-12
            assert fine.E1 <= coarse.E1 + 1e-12


def test_error_functional_reported_values_are_upper_bounds():
    # brute-force the defining expressions at the argmin (long truncated sums)
    D, x = 23, 1000
    prof = char_profile(D)
    ef = error_functionals(D, x)
    y0, y1 = int(ef.argmin_y0), int(ef.argmin_y1)
    N = 2 * 10**6
    tail0 = sum(abs(prof.S(n)) / (n * (n + 1)) for n in range(y0, N))
    brute0 = y0**2 / x + abs(prof.S(y0)) + x * tail0
    assert brute0 <= ef.E0 + x * (prof.s_max / N) + 1e-9
    tail1 = sum(abs(prof.S(n)) * (math.log(n) / n - math.log(n + 1) / (n + 1))
                for n in range(y1, N))
    brute1 = y1 / x + math.log(x) * tail1
    assert brute1 <= ef.E1 + math.log(x) * prof.s_max * (1 + math.log(N)) / N + 1e-9


def test_sum_local_densities_edges():
    f = Form(1, 0, 1)
    assert sum_local_densities(f, 1).sum == 0.0
    assert sum_local_densities(f, 2).sum == 1.0


def test_sum_local_densities_residual():
    for f, z in ((Form(1, 0, 1), 1000), (Form(1, 1, 1), 1000),
                 (Form(2, 1, 3), 500), (Form(1, 0, 6), 2000)):
        sl = sum_local_densities(f, z)
        lv = L_values(f.D)
        ef = error_functionals(f.D, z)
        assert abs(sl.residual) <= 5 * (lv.L1 + ef.E1 + ef.E0 / z), (f, z)


def test_family():
    assert family(8).members == (3, 4, 7, 8)
    assert family(3).members == (3,)
    assert len(family(20).members) == 10
    with pytest.raises(ValueError):
        family(2)


def test_chi_factorization_through_fundamental_part():
    # chi_{-D}(n) = chi_Delta(n) * [gcd(n, k) = 1] for -D = Delta k^2
    import random

    rng = random.Random(3)
    nonfund = [D for D in range(3, 2000)
               if D % 4 in (0, 3) and fundamental_part(D)[1] > 1]
    for D in rng.sample(nonfund, 100):
        delta_abs, k = fundamental_part(D)
        prof = char_profile(D)
        prof_f = char_profile(delta_abs)
        for n in range(1, 1001):
            expect = prof_f.chi_at(n) if math.gcd(n, k) == 1 else 0
            assert prof.chi_at(n) == expect, (D, n)


def test_average_exceptional_report_runs():
    rep = average_exceptional_report(100, 0.1)
    assert rep.total == len(family(100).members)
    assert 0 <= rep.fraction_E <= 1 and 0 <= rep.fraction_L <= 1
    assert rep.violators_L <= rep.total


def test_average_exceptional_report_rejects():
    with pytest.raises(ValueError):
        average_exceptional_report(50, 0.1)
    with pytest.raises(ValueError):
        average_exceptional_report(100, 0.2)
    with pytest.raises(ValueError):
        average_exceptional_report(100, 0.0)
    for cap in (float("nan"), float("inf"), -1.0, 0.0, 0.5):
        with pytest.raises(ValueError, match="x_cap"):
            average_exceptional_report(100, 0.1, x_cap=cap)


def test_euler_gamma_constant():
    assert abs(EULER_GAMMA - 0.57721566490153286) < 1e-15
