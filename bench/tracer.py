"""Per-layer spans and counters for the traced benchmark run.

The tracer wraps the public functions of the seven bqfsieve layers by
rebinding each function's name in every bqfsieve module that holds it (so
`sieve`'s own import of `value_bitmap` sees the wrapper too).  Nothing under
src/ changes.  A span is (name, start, end, parent); spans stay in memory and
are written when the run ends.  A span's self time is its duration minus the
durations of its direct children; calls never overlap inside one process, so
that is the part of its interval the children cover.

`forms` spans only `enumerate_class_set` and `arith` only the prime-table
build (`sieve_primes`); `kronecker` and `factorize` are counted without a
span.  The other forms and arith helpers run inside nearly every row and
lattice call, and a span each would dominate the tracing overhead; their
time lands in the self time of the span that called them.
"""

from __future__ import annotations

import contextlib
import functools
import math
import os
import sys
import time
from array import array
from collections import Counter, defaultdict

import numpy as np

LAYERS = ("cli", "sweeps", "sieve", "lattice", "characters", "forms", "arith")
# Functions that get a span, per layer: the public API (__all__) where its
# calls are coarse, a named subset where small helpers run in inner loops.
SPANNED = {
    "cli": ("main",),
    "sweeps": ("run_sweep", "build_tasks", "eval_rule"),
    "characters": ("char_profile", "char_prefix_sums", "L_values",
                   "weighted_dirichlet_sums", "error_functionals",
                   "sum_local_densities", "family", "average_exceptional_report",
                   "scan_discriminant", "class_number_estimate"),
    "forms": ("enumerate_class_set",),
    "arith": ("sieve_primes",),
}
COUNTED = ("kronecker", "factorize")


def _window_rows(window) -> int:
    """Rows of the ellipse window, as the lattice counters walk them."""
    T = 4 * window.f.a * window.x
    return 2 * math.isqrt(int(T / window.f.D)) + 1 if T >= window.f.D else 1


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[list] = []         # [span index, time covered by children]
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.active = True
        self._restore: list[tuple[object, str, object]] = []
        self._mask = None
        self._cache_hits0 = 0
        os.register_at_fork(after_in_child=self._stop)

    def _stop(self) -> None:
        # pool workers inherit the wrappers; their spans are not collected
        self.active = False

    # --- spans ---------------------------------------------------------------

    def _open(self, label: str) -> list:
        idx = len(self.span_start)
        idx_name = self._ids.get(label)
        if idx_name is None:
            idx_name = self._ids[label] = len(self.names)
            self.names.append(label)
        self.span_name.append(idx_name)
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_end.append(0.0)
        frame = [idx, 0.0]
        self._stack.append(frame)
        self.span_start.append(time.perf_counter())
        return frame

    def _close(self, label: str, frame: list) -> None:
        end = time.perf_counter()
        idx = frame[0]
        self.span_end[idx] = end
        self._stack.pop()
        dur = end - self.span_start[idx]
        self.self_s[label] += dur - frame[1]
        self.calls[label] += 1
        if self._stack:
            self._stack[-1][1] += dur

    @contextlib.contextmanager
    def span(self, label: str):
        """A span the benchmark itself opens."""
        frame = self._open(label)
        try:
            yield
        finally:
            self._close(label, frame)

    def wrap(self, label: str, fn, before=None, after=None):
        """fn inside a span; before(*args) and after(result, *args) run inside it."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            frame = tracer._open(label)
            try:
                if before is not None:
                    before(*args, **kwargs)
                result = fn(*args, **kwargs)
                if after is not None:
                    after(result, *args, **kwargs)
                tracer._watch_mask()
                return result
            finally:
                tracer._close(label, frame)

        return traced

    def count(self, label: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[label] += 1
            return fn(*args, **kwargs)

        return counted

    # --- installation --------------------------------------------------------

    def install(self) -> None:
        """Wrap the SPANNED and COUNTED functions of the seven layers."""
        from bqfsieve import characters, sieve

        hooks = self._hooks()
        for layer in LAYERS:
            mod = sys.modules[f"bqfsieve.{layer}"]
            for attr in SPANNED[layer] if layer in SPANNED else mod.__all__:
                fn = getattr(mod, attr)
                if not callable(fn) or isinstance(fn, type) or fn.__module__ != mod.__name__:
                    continue
                label = f"{layer}.{attr}"
                self._rebind(fn, self.wrap(label, fn, *hooks.get(label, (None, None))))
        for attr in COUNTED:
            fn = getattr(sys.modules["bqfsieve.arith"], attr)
            self._rebind(fn, self.count(f"arith.{attr}.calls", fn))
        tail = characters.CharacterProfile._tail
        self._restore.append((characters.CharacterProfile, "_tail", tail))
        characters.CharacterProfile._tail = self.wrap(
            "characters.tail", tail, before=self._tail_cells)
        self._mask = sieve._prime_mask
        self._cache_hits0 = sieve._system_cached.cache_info().hits

    def _rebind(self, fn, wrapped) -> None:
        for name, mod in list(sys.modules.items()):
            if name != "bqfsieve" and not name.startswith("bqfsieve."):
                continue
            for key, val in list(vars(mod).items()):
                if val is fn:
                    self._restore.append((mod, key, fn))
                    setattr(mod, key, wrapped)

    def uninstall(self) -> None:
        for owner, key, val in reversed(self._restore):
            setattr(owner, key, val)
        self._restore.clear()

    # --- counters ------------------------------------------------------------

    def _hooks(self) -> dict:
        counts = self.counts
        from bqfsieve import characters

        def rows(window, ell=1, *_, **__):
            if ell != 1:
                counts["lattice.window_rows"] += _window_rows(window)

        def all_rows(window, *_, **__):
            counts["lattice.window_rows"] += _window_rows(window)

        def bitmap(result, *_, **__):
            counts["lattice.value_bitmap.cells"] += len(result)

        def profile(D, *_, **__):
            if D in characters._profile_cache:
                counts["characters.char_profile.hits"] += 1

        def support(result, *_, **__):
            counts["sieve.system_support_max"] = max(
                counts["sieve.system_support_max"], len(result.support))

        def table(limit, *_, **__):
            counts["arith.table_builds"] += 1
            counts["arith.table_cells"] += limit + 1

        return {
            "lattice.count_A": (all_rows, None),
            "lattice.count_congruence": (all_rows, None),
            "lattice.count_A_ell": (rows, None),
            "lattice.count_B_ell": (rows, None),
            "lattice.value_bitmap": (None, bitmap),
            "characters.char_profile": (profile, None),
            "sieve.selberg_system": (None, support),
            "arith.sieve_primes": (table, None),
        }

    def _tail_cells(self, prof, vals, y):
        self.counts["characters.tail.cells"] += np.size(y) * prof.D

    def _watch_mask(self) -> None:
        mask = sys.modules["bqfsieve.sieve"]._prime_mask
        if mask is not self._mask:
            self._mask = mask
            self.counts["sieve.mask_rebuilds"] += 1
            self.counts["sieve.mask_cells"] += len(mask)

    # --- results -------------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-function calls and self_s, per-layer self_s, and the counters."""
        from bqfsieve import sieve

        out: dict[str, float] = {}
        for label, n in self.calls.items():
            out[f"{label}.calls"] = n
            out[f"{label}.self_s"] = self.self_s[label]
            layer = label.split(".")[0]
            out[f"self_s.{layer}"] = out.get(f"self_s.{layer}", 0.0) + self.self_s[label]
        out.update(self.counts)
        out["sieve.system_cache_hits"] = (sieve._system_cached.cache_info().hits
                                          - self._cache_hits0)
        return out

    def span_arrays(self) -> dict[str, np.ndarray]:
        return {"names": np.array(self.names),
                "name": np.frombuffer(self.span_name, dtype=np.int32),
                "parent": np.frombuffer(self.span_parent, dtype=np.int32),
                "start": np.frombuffer(self.span_start, dtype=np.float64),
                "end": np.frombuffer(self.span_end, dtype=np.float64)}

    def save(self, path) -> None:
        np.savez(path, **self.span_arrays())
