"""One timed repetition of a workload, in a fresh interpreter.

    python3 bench/child.py --workload W --seed N --spawned-at T [--trace SPANS]

N is the input seed of this repetition (Workload.input_seed).  T is the
parent's wall clock just before it started this process, so setup_s covers
interpreter start and the numpy/scipy/bqfsieve imports.  The last line of
stdout is one JSON object with this repetition's measurements and the
workload's output, which the parent checks.  With --trace the public
functions of the seven layers run inside spans, the per-layer metrics are
added and the spans are saved to SPANS (.npz).
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRATCH = Path(__file__).resolve().parent / "out"


def threads_now() -> int:
    """OS threads of this process, BLAS pool included."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("Threads:"):
                return int(line.split()[1])
    return 0


def cpu_s(who: int) -> float:
    ru = resource.getrusage(who)
    return ru.ru_utime + ru.ru_stime


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--trace", default=None, metavar="SPANS")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import numpy  # noqa: F401  (the program's own imports, timed as set-up)
    import scipy.special  # noqa: F401
    import bqfsieve
    if Path(bqfsieve.__file__).resolve().parent != ROOT / "src" / "bqfsieve":
        print(f"error: bqfsieve imported from {bqfsieve.__file__}, not this checkout",
              file=sys.stderr)
        return 2
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    SCRATCH.mkdir(exist_ok=True)
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    threads = threads_now()

    cpu0 = cpu_s(resource.RUSAGE_SELF) + cpu_s(resource.RUSAGE_CHILDREN)
    setup = time.time() - args.spawned_at
    t0 = time.perf_counter()
    try:
        if tracer is not None:
            with tracer.span("bench.run"):
                output = wl.run(args.seed, wl.jobs, SCRATCH)
        else:
            output = wl.run(args.seed, wl.jobs, SCRATCH)
    except Exception:
        traceback.print_exc()
        print(json.dumps({"error": "workload raised"}))
        return 1
    wall = time.perf_counter() - t0
    cpu = cpu_s(resource.RUSAGE_SELF) + cpu_s(resource.RUSAGE_CHILDREN) - cpu0
    threads = max(threads, threads_now())
    # ru_maxrss is KiB on Linux; workers report only the largest one, so
    # parent + jobs x largest worker bounds their simultaneous peak
    rss_self = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    rss_worker = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    rss = (rss_self + (wl.jobs * rss_worker if rss_worker else 0)) / 1024

    result = {"setup_s": setup, "wall_s": wall, "cpu_s": cpu, "peak_rss_mb": rss,
              "threads": threads, "output": output}
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = {**tracer.layer_metrics(), "proc.threads_max": threads,
                            "proc.cpu_per_wall": cpu / wall, "trace.wall_s": wall}
        tracer.save(args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
