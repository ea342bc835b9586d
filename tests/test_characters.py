import math
from fractions import Fraction

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
from bqfsieve.lattice import local_density_g


def test_char_prefix_sums_examples():
    ps4 = char_prefix_sums(4, 4)
    assert ps4.tolist() == [0, 1, 1, 0, 0]
    ps3 = char_prefix_sums(3, 6)
    assert ps3[6] == 0
    assert ps3[0] == 0


def test_char_prefix_sums_against_kronecker():
    # S is read off the profile's period, so T past D wraps around it
    for D in (3, 4, 8, 12, 23, 40, 163, 300):
        for T in (1, D - 1, D, D + 1, 2 * D + 3, 3 * D):
            want = np.cumsum([0] + [kronecker(-D, n) for n in range(1, T + 1)])
            S = char_prefix_sums(D, T)
            assert S.dtype == np.int64 and S.tolist() == want.tolist(), (D, T)


def test_char_prefix_sums_rejects():
    with pytest.raises(ValueError):
        char_prefix_sums(5, 10)


def test_profile_matches_kronecker():
    for D in (3, 4, 12, 23, 40, 163):
        chi = char_profile(D).chi
        for n in range(1, 2 * D + 1):
            assert chi[n % D] == kronecker(-D, n), (D, n)
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
        vals = char_prefix_sums(D, 3 * D - 1).tolist()
        assert all(abs(vals[t + 1] - vals[t]) <= 1 for t in range(len(vals) - 1))


def test_polya_vinogradov_envelope_measured():
    for D in range(3, 501):
        if D % 4 not in (0, 3):
            continue
        prof = char_profile(D)
        assert prof.s_max <= math.sqrt(D) * (2 + math.log(D)), D


def test_tail_quadratic_against_truncated_sum():
    prof = char_profile(23)
    N = 10**6
    S = char_prefix_sums(23, N).tolist()
    for y in (7, 23, 100):
        # the closed form against the sum truncated at N, whose remaining
        # tail is at most max|S|/N
        brute = sum(abs(S[n]) / (n * (n + 1)) for n in range(y, N))
        exact = prof.tail_quadratic_abs(y)
        assert 0 <= exact - brute <= prof.s_max / N


def test_L_values_classical():
    lv4 = L_values(4)
    assert abs(lv4.L1 - math.pi / 4) < 1e-6
    lv3 = L_values(3)
    assert abs(lv3.L1 - math.pi / (3 * math.sqrt(3))) < 1e-6
    # round(w sqrt(D) L1 / 2pi) recovers h(-23) = 3
    h, resid = class_number_estimate(23)
    assert h == 3 and resid < 0.5


def test_euler_maclaurin_coefficients_are_the_exact_bernoulli_numbers():
    # B_2, B_4, ..., B_20, each B_2j/(2j) rounded once from its Fraction
    bernoulli = ["1/6", "-1/30", "1/42", "-1/30", "5/66", "-691/2730", "7/6",
                 "-3617/510", "43867/798", "-174611/330"]
    assert characters._EM_B.tolist() == [
        float(Fraction(b) / (2 * j)) for j, b in enumerate(bernoulli, 1)]


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


@pytest.mark.parametrize("periods", [1, 3, 5, pytest.param(1 / 3, id="1/3")])
def test_L_values_blocked_sum_matches_one_block(monkeypatch, periods):
    # a few periods per block, as every D in (2^17, 2^20] sums them, or a
    # third of the residue classes per block, as every D > 2^20 takes its
    # tail and its direct sum, against one block
    for D in (23, 300, 2003):
        whole = L_values(D)
        want = (whole.L1, whole.L1_prime, whole.error_bound)  # before the patch
        monkeypatch.setattr(characters, "_SUM_CELLS", int(periods * D))
        monkeypatch.delattr(char_profile(D), "lvals")
        blocked = L_values(D)
        assert (blocked.L1, blocked.error_bound) == (want[0], want[2]), D
        assert abs(blocked.L1_prime - want[1]) <= 1e-13, D
        monkeypatch.undo()


def test_L_values_computed_once_per_profile(monkeypatch):
    characters._profile_cache.cache_clear()
    calls = []

    def counted(x):
        calls.append(np.size(x))
        return digamma(x)

    monkeypatch.setattr(characters, "_digamma", counted)
    D = 2003
    lv = L_values(D)
    assert len(calls) == 1          # L1 is the only digamma pass of lvals
    assert L_values(D) is lv and char_profile(D).lvals is lv
    sum_local_densities(Form(1, 1, 501), 10.0)
    class_number_estimate(D)
    assert len(calls) == 1


def test_class_number_estimate_computes_L1_alone():
    # L1 at once; L1_prime and error_bound together, on the first read of
    # either, after which the object no longer holds chi
    characters._profile_cache.cache_clear()
    D = 2003
    class_number_estimate(D)
    lv = L_values(D)
    assert "_derivative" not in vars(lv)
    lv.error_bound
    assert "_derivative" in vars(lv) and "_chi" not in vars(lv)  # chi released
    assert lv.L1_prime == lv._derivative[0]


def test_profile_computes_no_abs_S_statistic_until_read():
    stats = {"abs_S", "s_max", "_mu_absS", "_r_dev_absS", "lvals"}
    prof = characters.CharacterProfile(2003)
    assert stats.isdisjoint(vars(prof))
    assert prof.s_max == int(np.max(np.abs(prof.S_mod.astype(np.int64))))
    assert stats & vars(prof).keys() == {"abs_S", "s_max"}
    assert not prof.abs_S.flags.writeable


def _L_values_unblocked(D):
    """(L1, L1_prime, error_bound) by the one-block formulas: one digamma sum,
    then N periods summed directly and the Euler-Maclaurin tail in one array."""
    N, q = characters._EM_PERIODS, characters._EM_ORDER
    chi = char_profile(D).chi[1:].astype(np.float64)
    r = np.arange(1, D + 1, dtype=np.float64)
    L1 = -float(np.sum(chi * digamma(r / D))) / D
    y = N * D
    n = np.arange(1, N * D + 1, dtype=np.float64).reshape(-1, D)
    partial = float(np.sum(np.log(n) / n * chi))
    ell = np.log1p(r / y)
    log_y = math.log(y)
    u = y + r
    log_u = log_y + ell
    s = (D / u) ** 2
    em = (log_u * np.polyval(characters._EM_P, s)
          - np.polyval(characters._EM_Q, s))
    tail = (em - log_y * ell - ell * ell / 2) / D + log_u / (2 * u)
    L1p = -(partial + float(np.sum(tail * chi)))
    remainder = (abs(characters._EM_B[-1]) / N ** (2 * q)
                 * (math.log(y + D) + characters._EM_H[-1] + 1 / (2 * q)))
    mass = log_y**2 / 2 + 2 + 2 * math.log(y + D) / N
    rounding = (y + D + 4 * q + 16) * np.finfo(np.float64).eps * mass
    return L1, L1p, remainder + rounding


def test_L_values_bit_identical_to_the_unblocked_formulas():
    for D in family(2000):
        lv = L_values(D)
        assert (lv.L1, lv.L1_prime, lv.error_bound) == _L_values_unblocked(D), D


def test_profile_memo_is_bounded_by_period_cells(monkeypatch):
    memo = characters._profile_cache
    monkeypatch.setattr(memo, "bound", 100)
    memo.cache_clear()
    profs = [char_profile(D) for D in (23, 40, 47)]   # 110 cells: 23 goes
    assert 23 not in memo and 40 in memo and 47 in memo and memo.cells == 87
    for arr in (profs[0].chi, profs[0].S_mod, profs[0].abs_S):
        with pytest.raises(ValueError):
            arr[0] = 1
    assert char_profile(40) is profs[1]               # 47 is now the oldest
    char_profile(23)
    assert 47 not in memo and 40 in memo and memo.cells == 63
    big = char_profile(103)                           # above the bound: not kept
    assert 103 not in memo and big.D == 103 and memo.cells == 63
    assert char_profile(103) is not big


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
        return ErrorFunctionals(E0=E0, E1=0.0, argmin_y0=1.0, argmin_y1=1.0)

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


def test_one_refusal_for_a_non_discriminant():
    want = "D = 5 is not a discriminant (need D >= 3, D = 0 or 3 mod 4)"
    for refuse in (char_profile, fundamental_part, enumerate_class_set):
        with pytest.raises(ValueError) as err:
            refuse(5)
        assert str(err.value) == want, refuse


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
    chi = char_profile(D).chi.tolist()
    out = [0] * (N + 1)
    for n in range(1, N + 1):
        out[n] = sum(chi[d % D] for d in range(1, n + 1) if n % d == 0)
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
    S = char_prefix_sums(D, N).tolist()
    tail0 = sum(abs(S[n]) / (n * (n + 1)) for n in range(y0, N))
    brute0 = y0**2 / x + abs(S[y0]) + x * tail0
    assert brute0 <= ef.E0 + x * (prof.s_max / N) + 1e-9
    tail1 = sum(abs(S[n]) * (math.log(n) / n - math.log(n + 1) / (n + 1))
                for n in range(y1, N))
    brute1 = y1 / x + math.log(x) * tail1
    assert brute1 <= ef.E1 + math.log(x) * prof.s_max * (1 + math.log(N)) / N + 1e-9


def loop_y_grid(limit, ratio):
    # the grid as a loop: the running products <= limit, rounded, and floor(limit)
    ys = set()
    y = 1.0
    while y <= limit:
        ys.add(int(round(y)))
        y *= ratio
    ys.add(max(int(limit), 1))
    return np.array(sorted(v for v in ys if 1 <= v <= limit), dtype=np.int64)


def test_y_grid_against_loop():
    rng = np.random.default_rng(11)
    limits = ([1, 1.05, 2.3, 6.7e5, 1e7, 2e8] + [k / 2 for k in range(6000)]
              + (10 ** rng.uniform(0, 8.3, 500)).tolist())
    for ratio in (1.1, math.sqrt(1.1)):
        for limit in limits:
            ys, want = _y_grid(limit, ratio), loop_y_grid(limit, ratio)
            assert ys.dtype == want.dtype and np.array_equal(ys, want), (ratio, limit)


def test_sum_local_densities_edges():
    f = Form(1, 0, 1)
    lv = L_values(f.D)
    g2 = float(local_density_g(f, 2))
    # the l < z: none at z = 1, l = 1 up to z = 2, then l = 1, 2
    for z, want in ((1, 0.0), (1.5, 1.0), (2, 1.0), (2.0, 1.0), (3.0, 1.0 + g2)):
        sl = sum_local_densities(f, z)
        assert sl.sum == want, z
        assert sl.residual == want - (lv.L1 * math.log(z) + lv.L1_prime), z
    assert sum_local_densities(f, 1).residual == -lv.L1_prime


def test_sum_local_densities_residual():
    for f, z in ((Form(1, 0, 1), 1000), (Form(1, 1, 1), 1000),
                 (Form(2, 1, 3), 500), (Form(1, 0, 6), 2000)):
        sl = sum_local_densities(f, z)
        lv = L_values(f.D)
        ef = error_functionals(f.D, z)
        assert abs(sl.residual) <= 5 * (lv.L1 + ef.E1 + ef.E0 / z), (f, z)


def test_family():
    assert family(8) == (3, 4, 7, 8)
    assert family(3) == (3,)
    assert len(family(20)) == 10
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
        chi, chi_f = char_profile(D).chi, char_profile(delta_abs).chi
        for n in range(1, 1001):
            expect = chi_f[n % delta_abs] if math.gcd(n, k) == 1 else 0
            assert chi[n % D] == expect, (D, n)


def test_average_exceptional_report_runs():
    rep = average_exceptional_report(100, 0.1)
    assert rep.total == len(family(100))
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
