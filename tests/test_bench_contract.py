"""The benchmark harness reads library internals by name (`sieve._prime_mask`,
`sieve._system_cached`, `characters._profile_cache`, `arith.sieve_primes`,
...).  Its self-test runs every workload at a tiny size, traced and
untraced, so a rename of such a name fails here and not only in the
benchmark."""

import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.mark.slow
def test_bench_selftest_passes():
    proc = subprocess.run([sys.executable, str(BENCH / "selftest.py")],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-4000:]
