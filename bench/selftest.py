"""Self-tests of the benchmark harness.

    python3 bench/selftest.py

Runs every workload at a tiny size, checks that a perturbed reference is
detected, that traced and untraced runs give identical outputs, and that
each traced root's span self times add up to its duration.  The file name
keeps pytest's default collection (test_*.py) away from it.
"""

from __future__ import annotations

import gzip
import json
import random
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE.parent / "src"))

import workloads as W  # noqa: E402
from tracer import Tracer  # noqa: E402

TINY = {"VERIFY_SAMPLE": 4, "FAMILY_Q": 100, "CLASS_BAND": (9991, 10000),
        "DECOMP_DMAX": 12}


class TinySizes(unittest.TestCase):
    def setUp(self):
        self.saved = {k: getattr(W, k) for k in TINY}
        for k, v in TINY.items():
            setattr(W, k, v)
        OUT.mkdir(exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(dir=OUT))

    def tearDown(self):
        for k, v in self.saved.items():
            setattr(W, k, v)
        shutil.rmtree(self.tmp)

    def run_workload(self, name: str, seed: int = 5) -> dict:
        wl = W.WORKLOADS[name]
        return wl.run(wl.input_seed(seed, 0), wl.jobs, self.tmp)

    def check(self, name: str, output: dict, seed: int = 5) -> W.Check:
        wl = W.WORKLOADS[name]
        return wl.check(output, wl.input_seed(seed, 0))

    def test_every_workload_runs_and_matches(self):
        for name in W.WORKLOADS:
            with self.subTest(workload=name):
                chk = self.check(name, self.run_workload(name))
                self.assertGreater(chk.attempted, 0)
                self.assertEqual(chk.failed, 0, chk.first_diff)

    def test_perturbed_reference_is_detected(self):
        outputs = {name: self.run_workload(name) for name in W.WORKLOADS}
        refs = self.tmp / "refs"
        shutil.copytree(W.REFS, refs)
        self.perturb(refs)
        saved, W.REFS = W.REFS, refs
        W.load_verify_ref.cache_clear()
        try:
            for name, out in outputs.items():
                with self.subTest(workload=name):
                    chk = self.check(name, out)
                    self.assertGreater(chk.failed, 0)
                    self.assertIsNotNone(chk.first_diff)
        finally:
            W.REFS = saved
            W.load_verify_ref.cache_clear()

    @staticmethod
    def perturb(refs: Path) -> None:
        """Change one item of every reference that the tiny runs read."""
        path = refs / "verify_q2000.csv.gz"
        with gzip.open(path, "rt") as fh:
            lines = fh.read().splitlines()
        picked = {tuple(r[:4]) for r in random.Random(W.verify_seed(5, 0)).sample(
            [l.split(",") for l in lines[1:]], W.VERIFY_SAMPLE)}
        for i, line in enumerate(lines[1:], 1):
            row = line.split(",")
            if tuple(row[:4]) in picked and row[13] != "na":
                row[9] = str(int(row[9]) + 1)     # exact_count
                lines[i] = ",".join(row)
                break
        with gzip.open(path, "wt") as fh:
            fh.write("\n".join(lines) + "\n")
        fam = json.loads((refs / "family.json").read_text())
        fam["reports"][str(W.FAMILY_Q)][4] += 1   # violators_L
        (refs / "family.json").write_text(json.dumps(fam))
        for name, col in (("class_numbers.json", 1), ("decompositions.json", 2)):
            doc = json.loads((refs / name).read_text())
            lo = W.CLASS_BAND[0] if name == "class_numbers.json" else 0
            row = next(r for r in doc["rows"] if r[0] >= lo)
            row[col] += 1
            (refs / name).write_text(json.dumps(doc))

    def test_traced_and_untraced_outputs_match(self):
        for name in W.WORKLOADS:
            with self.subTest(workload=name):
                plain = self.run_workload(name)
                tracer = Tracer()
                tracer.install()
                try:
                    with tracer.span("bench.run"):
                        traced = self.run_workload(name)
                finally:
                    tracer.uninstall()
                self.assertEqual(strip_runtime(plain), strip_runtime(traced))
                self.assertGreater(len(tracer.span_start), 1)

    def test_span_self_times_add_up(self):
        tracer = Tracer()
        tracer.install()
        try:
            for name in ("verify_j1", "decompositions"):
                with tracer.span("bench.run"):
                    self.run_workload(name)
        finally:
            tracer.uninstall()
        sp = tracer.span_arrays()
        n = len(sp["start"])
        dur = sp["end"] - sp["start"]
        own = dur.copy()
        root = np.arange(n)
        for i in range(n):
            p = sp["parent"][i]
            if p >= 0:
                own[p] -= dur[i]
                root[i] = root[p]
        roots = np.flatnonzero(sp["parent"] < 0)
        self.assertEqual(len(roots), 2)
        for r in roots:
            self.assertAlmostEqual(own[root == r].sum(), dur[r], delta=1e-9 * n)
        # the online per-function totals agree with the spans
        for label, total in tracer.self_s.items():
            ids = sp["name"] == tracer.names.index(label)
            self.assertAlmostEqual(own[ids].sum(), total, delta=1e-9 * n)

    def test_install_restores_every_binding(self):
        from bqfsieve import cli, sieve

        before = (cli.main, sieve.value_bitmap, sieve.L_values)
        tracer = Tracer()
        tracer.install()
        self.assertIsNot(sieve.value_bitmap, before[1])
        tracer.uninstall()
        self.assertEqual((cli.main, sieve.value_bitmap, sieve.L_values), before)


def strip_runtime(output: dict) -> dict:
    if "csv" not in output:
        return output
    return {**output, "csv": [r[:-1] for r in W.verify_rows(output)[1]]}


class EndToEnd(unittest.TestCase):
    def test_run_prints_result_line(self):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", "class_numbers",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            capture_output=True, text=True, timeout=170)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        lines = proc.stdout.strip().splitlines()
        res = json.loads(lines[-1])
        self.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(res["correct"])
        self.assertEqual(set(res["metrics"]),
                         {"wall_s", "items_per_s", "cpu_s", "setup_s", "peak_rss_mb"})
        self.assertTrue(any(l.startswith("failed_frac = 0 ") for l in lines))


if __name__ == "__main__":
    unittest.main()
