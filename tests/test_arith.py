import math
import os
import time

import numpy as np
import pytest
from hypothesis import given, strategies as st

from bqfsieve import arith
from bqfsieve.arith import (CellMemo, big_omega_upto, divisors, factorize, kronecker,
                            mult_functions, prime_table, primes_upto, sieve_primes,
                            spf_block)


def brute_is_square_mod(m, p):
    # is m a nonzero square mod p (odd prime)?
    m %= p
    if m == 0:
        return None
    return any(x * x % p == m for x in range(1, p))


def test_kronecker_examples():
    assert kronecker(-4, 3) == -1
    # oracle: 2^2 = 4 = -3 (mod 7)
    assert brute_is_square_mod(-3, 7)
    assert kronecker(-3, 7) == 1
    assert kronecker(-4, 2) == 0


def test_kronecker_rejects_zero_zero():
    with pytest.raises(ValueError):
        kronecker(0, 0)


def test_kronecker_low_arguments():
    assert kronecker(1, 0) == 1
    assert kronecker(5, 0) == 0
    assert kronecker(-3, -1) == -1
    assert kronecker(3, -1) == 1


def test_kronecker_quadratic_residue_oracle():
    # against brute-force squares, all discriminants D <= 500, odd p <= 97
    primes = primes_upto(97)[1:]
    for D in range(3, 501):
        if D % 4 not in (0, 3):
            continue
        for p in primes:
            if D % p == 0:
                assert kronecker(-D, p) == 0
            else:
                expect = 1 if brute_is_square_mod(-D, p) else -1
                assert kronecker(-D, p) == expect, (D, p)


@given(st.integers(-1000, 1000), st.integers(1, 1000), st.integers(1, 1000))
def test_kronecker_completely_multiplicative(m, n1, n2):
    assert kronecker(m, n1 * n2) == kronecker(m, n1) * kronecker(m, n2)


def test_kronecker_multiplicative_exhaustive_grid():
    for m in (-163, -20, -4, -3, 5, 12):
        chi = [kronecker(m, n) for n in range(0, 101)]
        for n1 in range(1, 101):
            for n2 in range(1, 101):
                assert kronecker(m, n1 * n2) == chi[n1] * chi[n2]


def test_sieve_primes():
    assert np.flatnonzero(sieve_primes(10)).tolist() == [2, 3, 5, 7]
    assert np.flatnonzero(sieve_primes(2)).tolist() == [2]
    assert np.count_nonzero(sieve_primes(100)) == 25
    with pytest.raises(ValueError):
        sieve_primes(1)


def test_prime_table_membership():
    mask = sieve_primes(50)
    assert len(mask) == 51
    assert mask[47] and not mask[49]


def test_factorize_examples():
    assert factorize(12) == ((2, 2), (3, 1))
    assert factorize(1) == ()
    first8 = (2, 3, 5, 7, 11, 13, 17, 19)
    n = math.prod(first8)
    assert n == 9699690
    assert factorize(n) == tuple((p, 1) for p in first8)


def test_factorize_rejects_nonpositive():
    with pytest.raises(ValueError):
        factorize(0)


def test_factorize_refuses_2_44_and_above_before_any_work():
    # sqrt(n) < 2^22 for n < 2^44: the table's primes reach that far, and the
    # largest square of a prime below 2^22 still factors
    q = 4194301  # the last prime below 2^22
    assert trial_division_prime(q) and not any(map(trial_division_prime, range(q + 1, 2**22)))
    assert factorize(q * q) == ((q, 2),)
    p = 4194319  # the first prime above 2^22
    assert trial_division_prime(p) and not any(map(trial_division_prime, range(2**22, p)))
    for n in (2**44, p * p, p * (p + 2)):
        took = []
        for _ in range(3):
            start = time.perf_counter()
            with pytest.raises(ValueError, match="2\\^44"):
                factorize(n)
            took.append(time.perf_counter() - start)
        assert min(took) < 1e-3, (n, took)


def trial_division_factors(n):
    out, p = [], 2
    while p * p <= n:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e:
            out.append((p, e))
        p += 1
    return tuple(out + [(n, 1)] * (n > 1))


def test_factorize_reads_primes_only_as_far_as_it_divides(monkeypatch):
    read = []
    kernel = arith.primes_upto

    def spy(n, lo=0):
        got = kernel(n, lo)
        read.extend(got)
        return got

    monkeypatch.setattr(arith, "primes_upto", spy)
    assert factorize.__wrapped__(2**43) == ((2, 43),)
    assert max(read) <= 2**12
    # against trial division: every n to 3 10^4, and n whose factors sit at
    # the block edges 2^10, 2^11, ... or above sqrt(n)
    edge = [1021, 1031, 2039, 2053, 4093, 4099, 1048573, 1048583, 4194301]
    cases = list(range(1, 30001)) + [p * q for p in edge for q in edge]
    cases += [p * 3**k for p in edge for k in (1, 5)] + [2**43 - 1, 2**44 - 1]
    for n in cases:
        read.clear()
        fac = factorize.__wrapped__(n)
        assert fac == trial_division_factors(n), n
        # no block reads past sqrt(n), or past the first block's 2^10
        assert not read or max(read) <= max(2**10, math.isqrt(n)), n


@given(st.integers(1, 10**6))
def test_factorize_roundtrip(n):
    fac = factorize(n)
    assert math.prod(p**e for p, e in fac) == n
    ps = [p for p, _ in fac]
    assert ps == sorted(ps) and len(set(ps)) == len(ps)


def test_mult_functions_examples():
    m1 = mult_functions(1)
    assert (m1.mu, m1.tau, m1.tau3) == (1, 1, 1)
    m12 = mult_functions(12)
    # tau3(12) = sum_{d | 12} tau(d) = 1+2+2+3+4+6 = 18
    assert (m12.mu, m12.tau, m12.tau3) == (0, 6, 18)
    m30 = mult_functions(30)
    assert m30.mu == -1 and m30.squarefree


def test_tau3_is_tau_convolved_with_one():
    tau = [0] * (10**4 + 1)
    for d in range(1, 10**4 + 1):
        for m in range(d, 10**4 + 1, d):
            tau[m] += 1
    for n in range(1, 10**4 + 1):
        expect = sum(tau[d] for d in divisors(n))
        assert mult_functions(n).tau3 == expect, n


def test_divisors():
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(1) == [1]


def trial_division_prime(n):
    if n < 2:
        return False
    return all(n % d for d in range(2, math.isqrt(n) + 1))


# --- the shared prime table ------------------------------------------------

@pytest.fixture
def fresh_tables(monkeypatch):
    """An empty set of shared tables, and a log of every sieve_primes build."""
    monkeypatch.setattr(arith, "_mask", np.zeros(0, dtype=bool))
    monkeypatch.setattr(arith, "_omega", np.zeros(0, dtype=np.uint8))
    builds = []
    kernel = arith.sieve_primes

    def spy(limit):
        builds.append(limit)
        return kernel(limit)

    monkeypatch.setattr(arith, "sieve_primes", spy)
    return builds


def uncached_factors(n):
    return factorize.__wrapped__(n)


def test_mask_against_trial_division(fresh_tables):
    mask = prime_table(10**5)
    assert ([bool(v) for v in mask[: 10**5 + 1]]
            == [trial_division_prime(n) for n in range(10**5 + 1)])
    # across a growth boundary: the table built at 2^16 cells is rebuilt at
    # max(request, 2 x current) and stays exact past the old limit
    arith._mask = np.zeros(0, dtype=bool)
    fresh_tables.clear()
    first = prime_table(1000)
    assert len(first) - 1 == 1 << 16 and fresh_tables == [1 << 16]
    grown = prime_table((1 << 16) + 10)
    assert len(grown) - 1 == 1 << 17 and fresh_tables == [1 << 16, 1 << 17]
    lo = (1 << 16) - 2000
    assert ([bool(v) for v in grown[lo:]]
            == [trial_division_prime(n) for n in range(lo, (1 << 17) + 1)])


def test_prime_table_cap(fresh_tables):
    with pytest.raises(ValueError, match="limited to 2e8"):
        prime_table(arith.MASK_CAP + 1)
    with pytest.raises(ValueError, match="limited to 2e8"):
        big_omega_upto(arith.MASK_CAP + 1)
    assert fresh_tables == [] and len(arith._omega) == 0


def test_spf_and_omega_against_factorize(fresh_tables):
    N = 10**5
    spf = spf_block(0, N + 1)
    omega = big_omega_upto(N)
    assert spf[0] == 0 and spf[1] == 1 and omega[0] == 0 and omega[1] == 0
    for n in range(2, N + 1):
        fac = uncached_factors(n)
        assert spf[n] == fac[0][0], n
        assert omega[n] == sum(e for _, e in fac), n


def test_spf_and_omega_blocks_straddling_2_20(fresh_tables):
    lo, hi = 2**20 - 3000, 2**20 + 3000
    block = spf_block(lo, hi)
    # Omega grown from a prefix: its next block [10^6 + 1, 2 10^6 + 1)
    # straddles 2^20
    big_omega_upto(10**6)
    omega = big_omega_upto(10**6 + 1)
    assert len(omega) == 2 * 10**6 + 1
    for n in range(lo, hi):
        fac = uncached_factors(n)
        assert block[n - lo] == fac[0][0], n
        assert omega[n] == sum(e for _, e in fac), n


def test_tables_hold_python_ints_and_read_only_arrays(fresh_tables):
    ps = primes_upto(1000)
    assert ps == np.flatnonzero(sieve_primes(1000)).tolist() and len(ps) == 168
    assert all(type(p) is int for p in ps)
    assert all(type(p) is int for p, _ in factorize(2**3 * 3 * 999983))
    assert primes_upto(1) == [] and primes_upto(2) == [2]
    arrays = (prime_table(100), sieve_primes(100), spf_block(0, 101),
              spf_block(50, 100), big_omega_upto(100))
    for arr in arrays:
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[2] = 0


def test_ascending_requests_rebuild_logarithmically(fresh_tables):
    top = 2 * 10**6
    omega = None
    omega_builds = 0
    for n in range(1000, top + 1, 1000):
        prime_table(n)
        assert primes_upto(n // 100)[-1] <= n // 100
        grown = big_omega_upto(n // 4)
        omega_builds += grown is not omega
        omega = grown
    # the mask: 2^16 cells, then doubled up to 2^21 >= top
    assert fresh_tables == [1 << k for k in range(16, 22)]
    # Omega: up to 250, then doubled up to 512,000 >= top / 4
    assert omega_builds == 12
    assert len(omega) == 250 * 2**11 + 1


def test_presized_sweep_builds_once(fresh_tables):
    from bqfsieve.sweeps import SweepConfig, build_tasks, run_sweep

    cfg = SweepConfig(Q=150, sample=30, seed=3)
    res = run_sweep(cfg)
    assert res.summary.passes > 0
    x_top = max(t.x for t in build_tasks(cfg) if t.pass_ != "na")
    assert x_top > 1 << 16 and fresh_tables == [math.floor(x_top)]


def test_cell_memo_is_a_cell_bounded_lru():
    built = []

    def build(n):
        built.append(n)
        return np.zeros(n)

    memo = CellMemo(build, np.size, 10)
    assert memo(3) is memo(3) and built == [3]
    memo(4)
    memo(3)                     # 3 is now the most recently used
    memo(5)                     # 12 cells: 4, the least recently used, goes
    assert 3 in memo and 5 in memo and 4 not in memo
    assert memo.cells == sum(np.size(v) for v in memo.kept.values()) == 8
    assert list(memo.kept) == [3, 5]
    big = memo(11)              # above the bound: built, not kept
    assert big.size == 11 and 11 not in memo and memo.cells == 8
    memo(11)
    assert built == [3, 4, 5, 11, 11]
    memo(10)                    # exactly the bound: kept, alone
    assert list(memo.kept) == [10] and memo.cells == 10
    memo.cache_clear()
    assert not memo.kept and memo.cells == 0 and 10 not in memo


_initialised = []


def _square_where(x):
    return x * x, os.getpid(), tuple(_initialised)


def test_worker_map_in_process_and_on_a_pool():
    # one job or one item maps here after init; more go to `jobs` workers,
    # each running init first, and come back in item order
    here = os.getpid()
    for items, jobs in (([3, 1, 2], 1), ([5], 2)):
        _initialised.clear()
        with arith.worker_map(_square_where, items, jobs, _initialised.append, "x") as it:
            assert list(it) == [(x * x, here, ("x",)) for x in items]
    _initialised.clear()
    with arith.worker_map(_square_where, range(40), 2, _initialised.append, "y") as it:
        out = list(it)
    assert [sq for sq, _, _ in out] == [x * x for x in range(40)] and _initialised == []
    assert here not in {pid for _, pid, _ in out}
    assert {seen for _, _, seen in out} == {("y",)}
    for jobs in (0, arith.JOBS_MAX + 1):
        with pytest.raises(ValueError, match="jobs must lie in"):
            with arith.worker_map(_square_where, range(40), jobs):
                pass
