#!/usr/bin/env python3
"""Full-range verification sweep with margin statistics.

Runs the full sweep over every reduced form of every discriminant -D with
D <= Q (x = ceil((D^(1+4 phi)/a)^(1+eps)) capped at --xmax), writes the
per-row CSV, and prints the margin distribution of pi_f(x) against the
Brun-Titchmarsh right-hand side plus the sieve-validity tally.
"""

import argparse
import math
import sys

from bqfsieve.cli import write_verify_csv
from bqfsieve.sweeps import SweepConfig, run_sweep


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--Q", type=int, default=2000)
    ap.add_argument("--phi", type=float, default=0.25, choices=(0.0, 0.25))
    ap.add_argument("--epsilon", type=float, default=0.2)
    ap.add_argument("--xmax", type=float, default=1e7)
    ap.add_argument("--jobs", type=int, default=2)
    ap.add_argument("--out", default="theorem_sweep.csv")
    args = ap.parse_args()

    cfg = SweepConfig(Q=args.Q, phi_mode=args.phi, epsilon=args.epsilon,
                      x_max=args.xmax, jobs=args.jobs)
    res = run_sweep(cfg)

    with open(args.out, "w", newline="") as fh:
        write_verify_csv(fh, res.records)

    rows = [r for r in res.records if r.pass_ in ("0", "1")]
    ratios = sorted(r.exact_count / r.rhs_theorem for r in rows)
    lower = sorted(r.exact_count / (r.delta_f * r.x / (r.h * math.log(r.x)))
                   for r in rows)
    sieve_bad = sum(1 for r in rows if r.sieve_valid is False)
    q = lambda v, p: v[min(int(p * len(v)), len(v) - 1)] if v else float("nan")
    print(f"rows: {res.summary.total} ({len(rows)} in range, "
          f"{res.summary.not_applicable} capped)")
    print(f"failures: {res.summary.failures}   sieve violations: {sieve_bad}")
    print("pi_f / rhs  : min %.4f  median %.4f  p99 %.4f  max %.4f"
          % (q(ratios, 0.0), q(ratios, 0.5), q(ratios, 0.99), q(ratios, 1.0)))
    print("pi_f / main : min %.4f  median %.4f  max %.4f"
          % (q(lower, 0.0), q(lower, 0.5), q(lower, 1.0)))
    print(f"csv: {args.out}")
    return 3 if res.summary.failures else 0


if __name__ == "__main__":
    sys.exit(main())
