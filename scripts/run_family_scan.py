#!/usr/bin/env python3
"""Per-discriminant scan of the character-sum machinery over a family.

For every -D with 3 <= D <= Q this emits one plot-ready CSV row holding
L(1,chi), L'(1,chi), the class numbers from enumeration and from the
analytic formula, and the error functionals E0/E1 at x = D and x = D^2
(capped), so the average behaviour of the family can be inspected directly.
"""

import argparse
import csv
import math
import sys

from bqfsieve.characters import (L_values, class_number_estimate,
                                 error_functionals, family)
from bqfsieve.forms import enumerate_class_set, unit_count


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--Q", type=int, default=1000)
    ap.add_argument("--xmax", type=float, default=1e7)
    ap.add_argument("--out", default="family_scan.csv")
    args = ap.parse_args()

    cols = ["D", "h", "w", "L1", "L1_prime", "h_formula", "residual",
            "neg_LpL", "E0_at_D", "E1_at_D", "E0_at_D2", "E1_at_D2"]
    with open(args.out, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(cols)
        for D in family(args.Q):
            lv = L_values(D)
            h_formula, resid = class_number_estimate(D)
            e_small = error_functionals(D, D)
            e_big = error_functionals(D, min(D * D, args.xmax))
            w.writerow([D, enumerate_class_set(D).h, unit_count(D),
                        "%.10g" % lv.L1, "%.10g" % lv.L1_prime,
                        h_formula, "%.3g" % resid,
                        "%.10g" % (-lv.L1_prime / lv.L1),
                        "%.6g" % e_small.E0, "%.6g" % e_small.E1,
                        "%.6g" % e_big.E0, "%.6g" % e_big.E1])
    n = len(family(args.Q))
    print(f"wrote {n} rows to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
