"""bqfsieve benchmark: one workload, measured for a fixed time.

    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1

Each timed repetition runs in a fresh interpreter (bench/child.py), because
users pay the module cache fills on every `bqf` run.  Repetitions start
until the next one would overrun S seconds; a host-speed probe runs before
each one.  Every output is checked exactly against the stored reference.

--trace 0 prints the end-to-end metrics (medians over the repetitions);
--trace 1 alternates untraced and traced repetitions and prints the
per-layer metrics.  Human-readable lines come first; the last line of stdout
is one JSON object {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

CHILD_TIMEOUT_S = 170
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END = {"wall_s": "s", "items_per_s": "1/s", "cpu_s": "s", "setup_s": "s",
              "peak_rss_mb": "MiB"}

_calls_self = ("calls", "self_s")
PER_LAYER = {
    **{f"sieve.{f}.{m}": "count" if m == "calls" else "s"
       for f in ("selberg_upper_bound", "pi_f", "sifted_interval_count",
                 "selberg_system", "theorem_rhs") for m in _calls_self},
    "sieve.system_cache_hits": "count", "sieve.system_support_max": "count",
    "sieve.mask_rebuilds": "count", "sieve.mask_cells": "count",
    **{f"lattice.{f}.{m}": "count" if m == "calls" else "s"
       for f in ("value_bitmap", "count_A_ell", "count_congruence", "count_B_ell",
                 "local_density_report") for m in _calls_self},
    "lattice.value_bitmap.cells": "count", "lattice.window_rows": "count",
    **{f"characters.{f}.{m}": "count" if m == "calls" else "s"
       for f in ("L_values", "char_profile", "tail", "scan_discriminant",
                 "class_number_estimate", "sum_local_densities") for m in _calls_self},
    "characters.char_profile.hits": "count", "characters.tail.cells": "count",
    "sweeps.build_tasks.self_s": "s", "sweeps.rows_live": "count",
    "sweeps.row_busy_s": "s", "sweeps.row_p50_ms": "ms", "sweeps.row_tail_ms": "ms",
    "sweeps.utilization": "ratio",
    "forms.enumerate_class_set.calls": "count", "forms.enumerate_class_set.self_s": "s",
    "arith.table_builds": "count", "arith.table_cells": "count",
    "arith.factorize.calls": "count", "arith.kronecker.calls": "count",
    "cli.main.self_s": "s",
    **{f"self_s.{layer}": "s" for layer in
       ("bench", "cli", "sweeps", "sieve", "lattice", "characters", "forms", "arith")},
    "proc.threads_max": "count", "proc.cpu_per_wall": "ratio",
    "trace.wall_s": "s", "trace.accounted_frac": "ratio", "trace.overhead_frac": "ratio",
}


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    s = sorted(values)
    return s[max(0, min(len(s) - 1, -(-len(s) * q // 100) - 1))]


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least 10 of n samples beyond it (0: none)."""
    return (100 * (n - 10)) // n if n > 10 else 0


def host_probe() -> dict:
    """A fixed pure-Python loop and a fixed numpy bitmap loop, in seconds."""
    import numpy as np

    t0 = time.perf_counter()
    acc = 0
    for i in range(500_000):
        acc += i * i % 7
    t1 = time.perf_counter()
    rng = np.random.default_rng(0)
    idx = rng.integers(0, 1 << 20, size=1 << 16)
    bits = np.zeros(1 << 20, dtype=bool)
    for _ in range(100):
        bits[idx] = True
        bits[::3] = False
    np.count_nonzero(bits)
    t2 = time.perf_counter()
    return {"python_s": t1 - t0, "numpy_s": t2 - t1}


def run_child(workload: str, seed: int, spans: Path | None, timeout: float) -> dict:
    """Start one repetition and wait for it; kill its process group on timeout."""
    env = {k: v for k, v in os.environ.items() if k != "BQF_THREADS"}
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(seed)]
    if spans is not None:
        cmd += ["--trace", str(spans)]
    cmd += ["--spawned-at", repr(time.time())]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, env=env, cwd=ROOT, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return {"error": f"repetition timed out after {timeout:.0f} s"}
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    try:
        res = json.loads(out.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        raise SystemExit(f"repetition failed (exit {proc.returncode}):\n{err}")
    if proc.returncode != 0:
        res["error"] = f"{res.get('error')} (exit {proc.returncode}):\n{err}"
    return res


def environment(args) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((l.split(":", 1)[1].strip() for l in fh
                          if l.startswith("model name")), model)
    except OSError:
        pass
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)), "cpu_model": model,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas, "git_sha": git_sha(),
            "thread_env": {k: os.environ.get(k, "unset") for k in THREAD_VARS},
            "BQF_THREADS": os.environ.get("BQF_THREADS", "unset") + " (removed for runs)"}


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        loose = ROOT / ".git" / ref[5:]
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def summarize(name: str, values: list[float], unit: str) -> str:
    n = len(values)
    med = statistics.median(values)
    tail = tail_percentile(n)
    tail_txt = (f"p{tail} {percentile(values, tail):.6g} {unit}" if tail
                else "no percentile with 10 samples beyond it")
    return f"{name} = {med:.6g} {unit} (median; {tail_txt}; n={n})"


def sweep_metrics(output: dict, jobs: int, wall: float) -> dict:
    """sweeps.* from the runtime_ms column of a verify CSV."""
    from workloads import verify_rows

    ms = [int(r[-1]) for r in verify_rows(output)[1] if r[-1]]
    busy = sum(ms) / 1000
    tail = tail_percentile(len(ms))
    return {"sweeps.rows_live": len(ms), "sweeps.row_busy_s": busy,
            "sweeps.row_p50_ms": percentile(ms, 50) if ms else 0,
            "sweeps.row_tail_ms": percentile(ms, tail) if tail else max(ms, default=0),
            "sweeps.utilization": busy / (jobs * wall)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    missing = [p for p in (ROOT / "src" / "bqfsieve" / "__init__.py", HERE / "refs")
               if not p.exists()]
    if missing:
        print(f"error: not a bqfsieve checkout, missing {missing}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    env = environment(args)

    start = time.monotonic()
    reps: list[dict] = []
    traced: list[dict] = []
    probes: list[dict] = []
    last = 0.0
    while True:
        elapsed = time.monotonic() - start
        done = len(reps) + len(traced)
        if done >= (2 if args.trace else 1) and elapsed + last > args.seconds:
            break
        t = time.monotonic()
        probes.append(host_probe())
        trace_this = bool(args.trace) and done % 2 == 1
        # a traced repetition repeats the inputs of the untraced one before it
        seed = wl.input_seed(args.seed, done // 2 if args.trace else done)
        spans = OUT / f"spans-{args.workload}.npz" if trace_this else None
        res = run_child(args.workload, seed, spans, max(30.0, CHILD_TIMEOUT_S - elapsed))
        last = time.monotonic() - t
        if "error" in res:
            reps.append({**res, "attempted": 1, "failed": 1})
            break
        output = res.pop("output")
        res.update(wl.check(output, seed).as_dict())
        if trace_this:
            if "csv" in output:
                res["layers"].update(sweep_metrics(output, wl.jobs, res["wall_s"]))
            traced.append(res)
        else:
            reps.append(res)

    every = reps + traced
    attempted = sum(r["attempted"] for r in every)
    failed = sum(r["failed"] for r in every)
    env["threads_observed"] = max((r.get("threads", 0) for r in every), default=0)
    env["host_probe_median_s"] = {k: statistics.median(p[k] for p in probes)
                                  for k in probes[0]}
    print("env " + json.dumps(env))
    (OUT / f"env-{args.workload}.json").write_text(json.dumps(env, indent=1) + "\n")
    for r in every:
        if r.get("first_diff") or r.get("error"):
            print(f"first differing item: {r.get('first_diff') or r.get('error')}")
            break
    print(f"failed_frac = {failed / attempted:.6g} ratio ({failed} of {attempted} items)")

    ok = [r for r in reps if "error" not in r]
    if args.trace:
        units = PER_LAYER
        metrics = layer_metrics(ok, traced)
        for k, v in metrics.items():
            print(f"{k} = {v:.6g} {units[k]}")
    else:
        units = END_TO_END
        for r in ok:
            r["items_per_s"] = r["attempted"] / r["wall_s"]
        metrics = {k: statistics.median(r[k] for r in ok) if ok else 0.0 for k in units}
        for k in units:
            if ok:
                print(summarize(k, [r[k] for r in ok], units[k]))
    print(json.dumps({"correct": failed == 0 and bool(ok), "attempted": attempted,
                      "failed": failed,
                      "metrics": {k: {"value": v, "unit": units[k]}
                                  for k, v in metrics.items()}}))
    return 0


def layer_metrics(untraced: list[dict], traced: list[dict]) -> dict[str, float]:
    """Medians over the traced repetitions; overhead against the untraced ones."""
    out = {}
    for k in PER_LAYER:
        vals = [r["layers"].get(k, 0) for r in traced]
        out[k] = statistics.median(vals) if vals else 0.0
    accounted = [sum(v for k, v in r["layers"].items() if k.startswith("self_s."))
                 / r["layers"]["trace.wall_s"] for r in traced]
    out["trace.accounted_frac"] = statistics.median(accounted) if accounted else 0.0
    if traced and untraced:
        out["trace.overhead_frac"] = (out["trace.wall_s"]
                                      / statistics.median(r["wall_s"] for r in untraced)
                                      - 1)
    return out


if __name__ == "__main__":
    sys.exit(main())
