"""The benchmark harness reads library internals by name (`sieve._prime_mask`,
`sieve._system_cached`, `characters._profile_cache`, `arith.sieve_primes`,
...).  A fast check imports the tracer and the runner and resolves every name
they read, every `__all__` entry of the layers the tracer wraps and every name
the package re-exports; the slow self-test runs every workload at a tiny size,
traced and untraced.  So a rename of such a name fails here and not only in
the benchmark."""

import ast
import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

import bqfsieve
from bqfsieve import arith, characters, sieve

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)   # definitions only: neither runs on import
    return module


def test_bench_reads_names_that_exist():
    tracer, run = _load("tracer"), _load("run")
    layers = {layer: importlib.import_module(f"bqfsieve.{layer}") for layer in tracer.LAYERS}
    for layer, module in layers.items():   # the tracer wraps every __all__ name
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{layer}.__all__: {name}"
    package = ast.parse(Path(bqfsieve.__file__).read_text())
    for node in package.body:   # each name the package re-exports, from its layer
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                assert alias.name in layers[node.module].__all__, f"{node.module}.{alias.name}"
                assert getattr(bqfsieve, alias.name) is getattr(layers[node.module], alias.name)
    for layer, names in tracer.SPANNED.items():
        for name in names:
            assert callable(getattr(layers[layer], name)), f"{layer}.{name}"
    for name in tracer.COUNTED:
        assert callable(getattr(arith, name)), name
    for key in run.PER_LAYER:   # "layer.function.metric"; two parts name a counter
        parts = key.split(".")
        if parts[0] in layers and len(parts) == 3:
            owner, attr = layers[parts[0]], parts[1]
            if key.startswith("characters.tail."):  # spans CharacterProfile._tail
                owner, attr = characters.CharacterProfile, "_tail"
            assert callable(getattr(owner, attr)), key
    characters.char_profile(23)
    assert 23 in characters._profile_cache
    sieve._system_cached.cache_info()
    arith.prime_table(100)
    assert sieve._prime_mask is arith._mask


@pytest.mark.slow
def test_bench_selftest_passes():
    proc = subprocess.run([sys.executable, str(BENCH / "selftest.py")],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-4000:]
