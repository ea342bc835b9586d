"""Regenerate the exact output references in refs/ from the current code.

    python3 bench/make_refs.py [--jobs N] [workload ...]

Run it only when a change is meant to alter the program's output, and say
so in the change.  verify's reference is the whole Q=2000 family (every
row the seeded --sample can pick, runtime_ms dropped), so it covers every
seed; the other workloads are deterministic and have one reference each.
"""

from __future__ import annotations

import argparse
import csv
import gzip
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads as W  # noqa: E402
from bqfsieve import cli  # noqa: E402


TINY_FAMILY_Q = 100     # bench/selftest.py's size


def ref_verify(jobs: int) -> None:
    out = W.REFS / "verify_full.tmp.csv"
    code = cli.main(["verify", "--Q", str(W.VERIFY_Q), "--mode", "full",
                     "--jobs", str(jobs), "--out", str(out)])
    assert code == 0, f"full sweep exited {code}"
    rows = list(csv.reader(io.StringIO(out.read_text())))
    out.unlink()
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(r[:-1] for r in rows)
    with open(W.REFS / "verify_q2000.csv.gz", "wb") as fh:
        with gzip.GzipFile(fileobj=fh, mode="wb", mtime=0, filename="") as gz:
            gz.write(buf.getvalue().encode())


def write_json(name: str, doc: dict) -> None:
    (W.REFS / name).write_text(json.dumps(doc, indent=None) + "\n")


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--jobs", type=int, default=1)
    ap.add_argument("workloads", nargs="*",
                    default=["verify", "family", "class_numbers", "decompositions"])
    args = ap.parse_args()
    W.REFS.mkdir(exist_ok=True)
    for name in args.workloads:
        if name == "verify":
            ref_verify(args.jobs)
        elif name == "family":
            reports = {}
            for q in (W.FAMILY_Q, TINY_FAMILY_Q):
                reports[str(q)] = W.family_report(W.run_family(0, 1, W.REFS, Q=q))
            write_json("family.json", {"keys": W.FAMILY_KEYS, "reports": reports})
        elif name == "class_numbers":
            rows = W.run_class_numbers(0, 1, W.REFS)["rows"]
            write_json("class_numbers.json", {"band": W.CLASS_BAND,
                                              "rows": [r[:3] for r in rows]})
        elif name == "decompositions":
            rows = W.run_decompositions(0, 1, W.REFS)["rows"]
            write_json("decompositions.json", {"D_max": W.DECOMP_DMAX,
                                               "rows": rows})
        else:
            raise SystemExit(f"unknown workload {name}")
        print(f"wrote the {name} reference")


if __name__ == "__main__":
    main()
