import concurrent.futures
import csv
import dataclasses
import functools
import json
import math
import multiprocessing
import os
import random
import re
import shlex
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from bqfsieve import arith, characters, forms, sweeps
from bqfsieve.characters import family
from bqfsieve.cli import main
from bqfsieve.forms import delta_f, enumerate_class_set
from bqfsieve.sweeps import SweepConfig, build_tasks, eval_rule, run_sweep, RuleError


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_reduce_command(capsys):
    code, out, _ = run_cli(capsys, "reduce", "1", "5", "7")
    assert code == 0
    assert out.splitlines()[0] == "(1,1,1) D=3 delta=1 primitive=1"
    code, out, _ = run_cli(capsys, "reduce", "1", "0", "1")
    assert code == 0 and out.startswith("(1,0,1)")


def test_reduce_rejects_indefinite(capsys):
    code, _, err = run_cli(capsys, "reduce", "1", "0", "-1")
    assert code == 2 and "error" in err


def test_classgroup_command(capsys):
    code, out, _ = run_cli(capsys, "classgroup", "23")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 4 and lines[-1] == "h(-23) = 3, w = 2"
    code, _, err = run_cli(capsys, "classgroup", "5")
    assert code == 2
    # D is printed as given: no "--7" for -7
    for D in ("-7", "0"):
        code, _, err = run_cli(capsys, "classgroup", D)
        assert code == 2 and err == (f"error: D = {D} is not a discriminant"
                                     " (need D >= 3, D = 0 or 3 mod 4)\n")


def test_count_command(capsys):
    code, out, _ = run_cli(capsys, "count", "1", "0", "1", "10")
    assert code == 0 and "A_ell = 37" in out
    code, out, _ = run_cli(capsys, "count", "1", "0", "1", "25", "--ell", "5")
    assert code == 0 and "A_ell = 37" in out
    code, _, _ = run_cli(capsys, "count", "1", "0", "1", "25", "--ell", "4")
    assert code == 2


def test_count_rejects_large_modulus_at_once():
    # l >= 2^21 is rejected before any O(l) work (factorising, the root scan)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-m", "bqfsieve.cli", "count", "1", "1", "1",
                           "100", "--ell", "1000000007"],
                          capture_output=True, text=True, env=env, timeout=5)
    assert proc.returncode == 2
    assert "too large" in proc.stderr and "Traceback" not in proc.stderr


def test_count_bounds_the_residue_work_of_a_large_modulus(capsys):
    # l = 2097143 takes one 2^21-cell residue block per window row: 23 rows
    # (4.8e7 cells) are counted, 2,309 rows (4.8e9 cells) are refused at once
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "count", "1", "1", "1", "1e6", "--ell", "2097143")
    assert time.perf_counter() - start < 1
    assert code == 2 and out == "" and "modulus 2097143 too large" in err
    code, out, _ = run_cli(capsys, "count", "1", "1", "1", "100", "--ell", "2097143",
                           "--format", "json")
    assert code == 0 and out == (
        '{"schema": "bqf-sieve/1", "form": [1, 1, 1], "x": 100.0, "ell": 2097143, '
        '"counts": {"A_ell": 1, "B_ell": 0, "A_ell(1)": 0, "A_ell(2097143)": 1}, '
        '"local_density": {"exact": 1, "main": 8.248275354613966e-11, '
        '"residual": 0.9999999999175172, "envelope": 51175.624622434836}}\n')


def test_count_non_primitive_fails_before_counting(capsys, monkeypatch):
    from bqfsieve import cli

    def count(*args):
        raise AssertionError("counted a non-primitive form")

    monkeypatch.setattr(cli, "count_congruence", count)
    code, out, err = run_cli(capsys, "count", "65537", "65537", "65537", "100",
                             "--ell", "65537")
    assert code == 2 and out == ""
    assert err == "error: local density is defined for primitive forms\n"


def test_count_local_density_reuses_exact(capsys, monkeypatch):
    from bqfsieve import lattice

    def recount(*args):
        raise AssertionError("|A_l| counted a second time")

    code, want, _ = run_cli(capsys, "count", "2", "1", "3", "1000", "--ell", "30")
    monkeypatch.setattr(lattice, "count_A_ell", recount)
    code, out, _ = run_cli(capsys, "count", "2", "1", "3", "1000", "--ell", "30")
    assert code == 0 and out == want


@pytest.mark.parametrize("argv", [
    # "--" keeps argparse from reading a positional "-inf" as an option
    ("count", "1", "1", "1", "--", "{}"),
    ("pif", "1", "1", "1", "--", "{}"),
    ("pif", "1", "1", "1", "100", "--interval={}"),
    ("sieve", "1", "1", "1", "--", "{}"),
    ("sieve", "1", "1", "1", "1000", "--y={}"),
])
@pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
def test_non_finite_x_and_y_exit_2(capsys, argv, value):
    with pytest.raises(SystemExit) as exc:
        main([a.format(value) for a in argv])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "must be a finite number" in err and repr(value) in err


def test_pif_command(capsys):
    code, out, _ = run_cli(capsys, "pif", "1", "0", "1", "100")
    assert code == 0 and "pi_f(100) = 12" in out
    code, out, _ = run_cli(capsys, "pif", "1", "0", "1", "2")
    assert code == 0 and "= 1" in out
    code, _, _ = run_cli(capsys, "pif", "1", "0", "1", "100", "--interval", "200")
    assert code == 2


def test_pif_interval_outside_0_x_exits_2(capsys):
    for y in ("-5", "200"):
        code, out, err = run_cli(capsys, "pif", "1", "0", "1", "100", "--interval", y)
        assert code == 2 and out == "" and "need 0 <= y <= x" in err, y
        assert "Traceback" not in err


@pytest.mark.parametrize("form", [(1, 1, 6), (2, 1, 3), (1, 0, 1), (2, 1, 7), (1, 1, 4)])
def test_pif_chebotarev_main_term_matches_the_count(capsys, form):
    code, out, _ = run_cli(capsys, "pif", *map(str, form), "1e6", "--format", "json")
    doc = json.loads(out)
    assert code == 0 and abs(doc["count"] / doc["chebotarev_main"] - 1) < 0.01


# Pinned `bqf sieve` bytes: one input on the degenerate L branch (with its
# stderr anomaly line) and one off it
SIEVE_GOLDEN = {
    ("1", "1", "1", "3", "--y", "2"): (
        "z = 11.62126252  J = 2.425  scriptJ = 0.4804530139\n"
        "main = 2.991834003  remainder = 48.85701492  upper_bound = 51.84884892\n"
        "sifted = 0  primes in interval = 1  rhs = nan\n"
        "sieve bound valid: 1\n",
        '{"schema": "bqf-sieve/1", "form": [1, 1, 1], "x": 3.0, "y": 2.0, '
        '"z": 11.621262519083086, "J": 2.425, "script_J": 0.4804530139182014, '
        '"main_term": 2.991834002860566, "remainder_majorized": 48.85701492113278, '
        '"remainder_signed": -2.807542367192588, "upper_bound": 51.848848923993344, '
        '"sifted_count": 0, "exact_interval_count": 1, "theta": 1.6, '
        '"theta_prime": 2.0604512509375033, "rhs_theorem": NaN, '
        '"degenerate_L_branch": true, "conditional": false}\n',
        "anomaly: L(1,chi) < (log y)^-2, scriptJ took the (log y)^2 branch\n"),
    ("2", "1", "3", "100000", "--y", "20000"): (
        "z = 1.000000462  J = 1  scriptJ = 0.5088535288\n"
        "main = 26202.69405  remainder = 25.30594523  upper_bound = 26228\n"
        "sifted = 26228  primes in interval = 591  rhs = 3358.178756\n"
        "sieve bound valid: 1\n",
        '{"schema": "bqf-sieve/1", "form": [2, 1, 3], "x": 100000.0, "y": 20000.0, '
        '"z": 1.000000462193057, "J": 1.0, "script_J": 0.5088535287807691, '
        '"main_term": 26202.69405477146, "remainder_majorized": 25.305945228541532, '
        '"remainder_signed": 25.305945228541532, "upper_bound": 26228.0, '
        '"sifted_count": 26228, "exact_interval_count": 591, '
        '"theta": 0.3755469083928335, "theta_prime": 0.7995450565210953, '
        '"rhs_theorem": 3358.17875574466, "degenerate_L_branch": false, '
        '"conditional": false}\n',
        ""),
}


@pytest.mark.parametrize("argv", list(SIEVE_GOLDEN))
def test_sieve_output_bytes(capsys, argv):
    text, js, err = SIEVE_GOLDEN[argv]
    assert run_cli(capsys, "sieve", *argv) == (0, text, err)
    assert run_cli(capsys, "sieve", *argv, "--format", "json") == (0, js, err)


# Pinned bytes of the other report commands, text then JSON; none writes to stderr
COMMAND_GOLDEN = {
    ("reduce", "1", "5", "7"): (
        "(1,1,1) D=3 delta=1 primitive=1\n",
        '{"schema": "bqf-sieve/1", "reduce": {"a": 1, "b": 1, "c": 1, "D": 3, '
        '"delta": 1.0, "primitive": true}}\n'),
    ("classgroup", "23"): (
        "(1,1,6) delta=1\n"
        "(2,-1,3) delta=0.5\n"
        "(2,1,3) delta=0.5\n"
        "h(-23) = 3, w = 2\n",
        '{"schema": "bqf-sieve/1", "D": 23, "h": 3, "w": 2, '
        '"forms": [[1, 1, 6], [2, -1, 3], [2, 1, 3]]}\n'),
    ("count", "1", "0", "1", "25", "--ell", "5"): (
        "A_ell = 37\n"
        "B_ell = 32\n"
        "A_ell(1) = 32\n"
        "A_ell(5) = 5\n"
        "B_ell(2) = 16\n"
        "B_ell(3) = 16\n"
        "M(5) = 2, roots = [2, 3]\n"
        "main = 28.27433388  residual = 8.725666118  envelope = 76  ratio = 0.1148113963\n",
        '{"schema": "bqf-sieve/1", "form": [1, 0, 1], "x": 25.0, "ell": 5, '
        '"counts": {"A_ell": 37, "B_ell": 32, "A_ell(1)": 32, "A_ell(5)": 5, '
        '"B_ell(2)": 16, "B_ell(3)": 16}, "local_density": {"exact": 37, '
        '"main": 28.274333882308138, "residual": 8.725666117691862, '
        '"envelope": 76.0}}\n'),
    ("pif", "1", "0", "1", "100"): (
        "pi_f(100) = 12  (Chebotarev main term 14.5404889)\n",
        '{"schema": "bqf-sieve/1", "form": [1, 0, 1], "x": 100.0, "y": null, '
        '"count": 12, "chebotarev_main": 14.54048890198107}\n'),
    ("pif", "1", "0", "1", "1000", "--interval", "500"): (
        "pi_f(1000) - pi_f(500) = 36  (Chebotarev main term 37.90789275)\n",
        '{"schema": "bqf-sieve/1", "form": [1, 0, 1], "x": 1000.0, "y": 500.0, '
        '"count": 36, "chebotarev_main": 37.90789275076281}\n'),
    # a non-reduced form of the class (2, +-1, 3) of D = 23
    ("pif", "3", "7", "6", "10000"): (
        "pi_f(10000) = 408  (Chebotarev main term 415.030684)\n",
        '{"schema": "bqf-sieve/1", "form": [3, 7, 6], "x": 10000.0, "y": null, '
        '"count": 408, "chebotarev_main": 415.03068403975726}\n'),
    # w = 6 and w = 4; x^2 + y^2 represents 2 = 1 + 1
    ("pif", "1", "1", "1", "10000"): (
        "pi_f(10000) = 612  (Chebotarev main term 622.5460261)\n",
        '{"schema": "bqf-sieve/1", "form": [1, 1, 1], "x": 10000.0, "y": null, '
        '"count": 612, "chebotarev_main": 622.5460260596359}\n'),
    ("pif", "1", "0", "1", "10000"): (
        "pi_f(10000) = 610  (Chebotarev main term 622.5460261)\n",
        '{"schema": "bqf-sieve/1", "form": [1, 0, 1], "x": 10000.0, "y": null, '
        '"count": 610, "chebotarev_main": 622.5460260596359}\n'),
    # D = 8 represents 2 = f(0, 1)
    ("pif", "1", "0", "2", "5000"): (
        "pi_f(5000) = 330  (Chebotarev main term 341.6178383)\n",
        '{"schema": "bqf-sieve/1", "form": [1, 0, 2], "x": 5000.0, "y": null, '
        '"count": 330, "chebotarev_main": 341.61783825218674}\n'),
    ("pif", "2", "1", "3", "1e6", "--interval", "1e4"): (
        "pi_f(1e+06) - pi_f(990000) = 249  (Chebotarev main term 241.3623674)\n",
        '{"schema": "bqf-sieve/1", "form": [2, 1, 3], "x": 1000000.0, "y": 10000.0, '
        '"count": 249, "chebotarev_main": 241.36236740798145}\n'),
    ("family", "--Q", "100"): (
        "family D <= 100: 50 members\n"
        "E-envelope violators: 50 (fraction 1)\n"
        "-L'/L violators: 0 (fraction 0)\n",
        '{"schema": "bqf-sieve/1", "Q": 100, "epsilon": 0.1, "total": 50, '
        '"violators_E": 50, "violators_L": 0, "fraction_E": 1.0, "fraction_L": 0.0}\n'),
}


@pytest.mark.parametrize("argv", list(COMMAND_GOLDEN), ids=" ".join)
def test_command_output_bytes(capsys, argv):
    text, js = COMMAND_GOLDEN[argv]
    assert run_cli(capsys, *argv) == (0, text, "")
    assert run_cli(capsys, *argv, "--format", "json") == (0, js, "")


# `bqf verify --Q 30` rows without their last column, runtime_ms
VERIFY_Q30_ROWS = [
    "3,1,1,1,1,1,14,14,1.00164858,3,54,63.54410426,0.6660634622,1",
    "4,1,0,1,1,1,28,28,1.000356577,4,88,100.5265498,0.6656467126,1",
    "7,1,1,2,1,1,107,107,1.000040645,12,254.2116562,274.469361,0.6662893825,1",
    "8,1,0,2,1,1,148,148,1.00002665,18,329.5466748,354.4685597,0.6657925028,1",
    "11,1,1,3,1,1,316,316,1.000011063,29,601.2934429,658.6387163,0.6665747516,1",
    "12,1,0,3,1,1,390,390,1.000008874,37,712,783.802973,0.666401752,1",
    "15,1,1,4,2,1,665,665,1.000005265,26,1090,613.7781513,0.666618813,1",
    "15,2,1,2,2,1,290,290,1.000013238,18,476,285.6934875,0.6419417252,1",
    "16,1,0,4,1,1,777,777,1.000004564,66,1221.017492,1400.442594,0.6665437179,1",
    "19,1,1,5,1,1,1173,1173,1.000003183,96,1695.668839,1991.327217,0.6666038141,1",
    "20,1,0,5,2,1,1326,1326,1.000002873,51,1865.961733,1106.498137,0.666651394,1",
    "20,2,2,3,2,1,578,578,1.000006554,29,816,511.6064265,0.6447011296,1",
    "23,1,1,6,3,1,1855,1855,1.000002192,42,2446.599747,985.8437503,0.6666264613,1",
    "23,2,-1,3,3,0.5,808,808,1.000004804,46,1060,227.197463,0.6458441235,1",
    "23,2,1,3,3,0.5,808,808,1.000004804,46,1060,227.197463,0.6458441235,1",
    "24,1,0,6,2,1,2054,2054,1.000002025,72,2634.714702,1615.631979,0.6666478578,1",
    "24,2,0,3,2,1,894,894,1.000004389,40,1152,743.7706626,0.6462520735,1",
    "27,1,1,7,1,1,2725,2725,1.000001636,194,3304,4133.665727,0.6666485274,1",
    "28,1,0,7,1,1,2973,2973,1.000001534,211,3540,4460.950467,0.6666636658,1",
]


def test_verify_json_output_bytes(capsys):
    code, out, err = run_cli(capsys, "verify", "--Q", "30", "--format", "json")
    # blank runtime_ms, the last element of each row in the indent=1 layout
    out = re.sub(r'"\d+"\n  \]', '"RT"\n  ]', out)
    doc = {"schema": "bqf-sieve/1",
           "config": {"Q": 30, "mode": "full", "phi": 0.25, "epsilon": 0.2,
                      "x_rule": None, "y_rule": None, "x_max": 1e7, "k": 10,
                      "seed": 0},
           "columns": ["D", "a", "b", "c", "h", "delta_f", "x", "y", "z",
                       "exact_count", "upper_bound", "rhs_theorem",
                       "theta_or_theta_prime", "pass", "runtime_ms"],
           "rows": [row.split(",") + ["RT"] for row in VERIFY_Q30_ROWS],
           "summary": {"total": 19, "passes": 19, "failures": 0, "not_applicable": 0,
                       "skipped": 0, "max_ratio": 0.20246704957674957,
                       "partial": False}}
    assert code == 0 and out == json.dumps(doc, indent=1) + "\n"
    assert err == "total=19 passes=19 failures=0 na=0 skipped=0 max_ratio=0.2024670496\n"


def test_sieve_command_json(capsys):
    code, out, _ = run_cli(capsys, "sieve", "1", "0", "1", "10000", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "bqf-sieve/1"
    assert doc["upper_bound"] >= doc["sifted_count"]
    assert not doc["conditional"]
    code, out, _ = run_cli(capsys, "sieve", "1", "0", "1", "10000", "--phi", "0",
                           "--format", "json")
    assert json.loads(out)["conditional"]


def test_verify_single_row(tmp_path, capsys):
    out_path = tmp_path / "sweep.csv"
    code, _, err = run_cli(capsys, "verify", "--Q", "3", "--out", str(out_path))
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0].startswith("D,a,b,c,h,delta_f,x,y,z,")
    assert len(lines) == 2
    assert lines[1].startswith("3,1,1,1,1,1,14,14,")
    assert "total=1 passes=1 failures=0" in err


def test_verify_json_schema(tmp_path, capsys):
    out_path = tmp_path / "sweep.json"
    code, _, _ = run_cli(capsys, "verify", "--Q", "20", "--format", "json",
                         "--out", str(out_path))
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc["schema"] == "bqf-sieve/1"
    assert doc["summary"]["failures"] == 0
    assert len(doc["rows"]) == doc["summary"]["total"]


def test_verify_determinism_across_jobs(tmp_path, capsys):
    paths = []
    for jobs in ("1", "2"):
        p = tmp_path / f"sweep_{jobs}.csv"
        code, _, _ = run_cli(capsys, "verify", "--Q", "60", "--jobs", jobs,
                             "--out", str(p))
        assert code == 0
        paths.append(p)

    def strip_runtime(path):
        lines = path.read_text().splitlines()
        return [",".join(line.split(",")[:-1]) for line in lines]

    assert strip_runtime(paths[0]) == strip_runtime(paths[1])


def test_verify_sampling_is_seeded(tmp_path, capsys):
    outs = []
    for run in range(2):
        p = tmp_path / f"s{run}.csv"
        code, _, _ = run_cli(capsys, "verify", "--Q", "120", "--sample", "10",
                             "--seed", "42", "--out", str(p))
        assert code == 0
        outs.append([",".join(l.split(",")[:-1]) for l in p.read_text().splitlines()])
    assert outs[0] == outs[1]
    assert len(outs[0]) == 11


def test_verify_malformed_rule(capsys):
    code, _, err = run_cli(capsys, "verify", "--Q", "10", "--x-rule", "D **")
    assert code == 2 and "malformed" in err
    code, _, err = run_cli(capsys, "verify", "--Q", "10", "--x-rule", "D - D")
    assert code == 2


@pytest.mark.parametrize("xmax, mode", [("3e8", "full"), ("nan", "full"),
                                        ("inf", "full"), ("1", "full"),
                                        ("3e8", "almost")],
                         ids=["3e8", "nan", "inf", "1", "3e8-almost"])
def test_verify_rejects_bad_xmax(capsys, xmax, mode):
    # rejected before any worker starts, with a message instead of a traceback
    code, _, err = run_cli(capsys, "verify", "--Q", "10", "--xmax", xmax, "--jobs", "2",
                           "--mode", mode)
    assert code == 2
    assert "x_max" in err and "Traceback" not in err


def test_verify_time_budget_marks_skipped(tmp_path, capsys):
    p = tmp_path / "sweep.csv"
    code, _, err = run_cli(capsys, "verify", "--Q", "40", "--time-budget", "0",
                           "--out", str(p))
    assert code == 0
    rows = p.read_text().splitlines()[1:]
    assert all(r.split(",")[-2] == "skipped" for r in rows)
    assert "partial" in err


def test_verify_almost_mode(tmp_path, capsys):
    # k = 10 puts the theorem range at (D/a)^50: every row na under the cap
    p = tmp_path / "ap.csv"
    code, _, err = run_cli(capsys, "verify", "--Q", "12", "--mode", "almost",
                           "--k", "10", "--out", str(p))
    assert code == 0
    assert "failures=0" in err
    rows = [l.split(",") for l in p.read_text().splitlines()[1:]]
    assert all(r[-2] == "na" for r in rows)
    # k = 30 brings the range exponent down to 1 + 49/101 and rows run
    code, _, err = run_cli(capsys, "verify", "--Q", "40", "--mode", "almost",
                           "--k", "30", "--out", str(p))
    assert code == 0 and "failures=0" in err
    rows = [l.split(",") for l in p.read_text().splitlines()[1:]]
    assert any(r[-2] == "1" for r in rows)


def test_family_command(capsys):
    code, out, _ = run_cli(capsys, "family", "--Q", "100", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "bqf-sieve/1"
    assert doc["total"] == 50
    code, _, _ = run_cli(capsys, "family", "--Q", "100", "--epsilon", "0.2")
    assert code == 2
    code, _, _ = run_cli(capsys, "family", "--Q", "3")
    assert code == 2
    for bad in (("--jobs", "0"), ("--xmax", "nan"), ("--xmax", "inf"),
                ("--xmax", "-1"), ("--xmax", "0")):
        code, _, err = run_cli(capsys, "family", "--Q", "100", *bad)
        assert code == 2 and "Traceback" not in err, bad


def test_verify_rejects_zero_jobs(capsys):
    code, _, err = run_cli(capsys, "verify", "--Q", "10", "--jobs", "0")
    assert code == 2 and "jobs" in err


def _no_pool(*args, **kwargs):
    raise AssertionError("a process pool was started")


@pytest.mark.parametrize("command", [("verify", "--Q", "100"), ("family", "--Q", "100")])
def test_jobs_above_cap_exit_2_before_any_worker(capsys, monkeypatch, command):
    # a pool that cannot start: a regressed check fails here instead of forking
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _no_pool)
    for jobs in (0, arith.JOBS_MAX + 1, 100_000):
        code, out, err = run_cli(capsys, *command, "--jobs", str(jobs))
        assert code == 2 and out == "" and "jobs" in err and "Traceback" not in err


def test_library_refuses_jobs_outside_cap_before_any_worker(monkeypatch):
    # the library's own check, for callers that do not come through the CLI
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _no_pool)
    for jobs in (0, arith.JOBS_MAX + 1, 10_000):
        with pytest.raises(ValueError, match="jobs must lie in"):
            run_sweep(SweepConfig(Q=100, jobs=jobs))
        with pytest.raises(ValueError, match="jobs must lie in"):
            characters.average_exceptional_report(100, 0.1, jobs=jobs)


@pytest.mark.parametrize("rule", [
    "().__class__.__base__.__subclasses__().__len__() + 0*D",
    "9**9**9**9 + D",
    "D**1000",
    "__import__('os').getpid() + D",
    "(lambda: D)()",
    "log(-D)",
    "(-D)**0.5",
    "D if a else a",
    "min()",
    "True + D",
    "__builtins__ + D",
    "abs(D) * D",
    "~D + D * D",
])
def test_verify_rejects_hostile_rule(capsys, rule):
    started = time.monotonic()
    code, _, err = run_cli(capsys, "verify", "--Q", "3", "--x-rule", rule)
    assert code == 2 and "rule" in err and "Traceback" not in err
    assert time.monotonic() - started < 5


def test_bqf_threads_env_is_ignored(capsys, monkeypatch):
    # --jobs is the one job count: the variable neither refuses nor changes a run
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _no_pool)
    monkeypatch.delenv("BQF_THREADS", raising=False)
    argvs = (("verify", "--Q", "30"), ("family", "--Q", "100", "--format", "json"))

    def runs():  # exit code, stdout without verify's runtime_ms column, stderr
        out = [run_cli(capsys, *argv) for argv in argvs]
        csv_rows = [line.rsplit(",", 1)[0] for line in out[0][1].splitlines()]
        return out[0][0], csv_rows, out[0][2], out[1]

    plain = runs()
    assert plain[0] == plain[3][0] == 0 and len(plain[1]) > 1
    for bad in ("abc", "0"):
        monkeypatch.setenv("BQF_THREADS", bad)
        assert runs() == plain, bad


def test_eval_rule():
    assert eval_rule("(D*D/a)**1.2", 10, 2, 0.25, 0.2) == (100 / 2) ** 1.2
    assert eval_rule("(D**(1+4*phi)/a)**(1+epsilon)", 10, 1, 0.25, 0.2) == (100.0) ** 1.2
    with pytest.raises(RuleError):
        eval_rule("__import__('os')", 10, 1, 0.25, 0.2)
    with pytest.raises(RuleError):
        eval_rule("1", 10, 1, 0.25, 0.2)
    assert eval_rule("max(sqrt(D), log(a)) * -(-2) / 1e0", 16, 3, 0.25, 0.2) == 8.0
    assert eval_rule("min(D, a, 7) - 1", 16, 9, 0.25, 0.2) == 6.0
    assert eval_rule("2**-(-100)", 16, 9, 0.25, 0.2) == 2.0**100
    with pytest.raises(RuleError, match="exponent"):
        eval_rule("2**101", 16, 9, 0.25, 0.2)


def test_build_tasks_interval_window():
    cfg = SweepConfig(Q=30, mode="interval", x_rule="(D*D/a)**3.0", x_max=1e9)
    tasks = build_tasks(cfg)
    assert tasks
    for t in tasks:
        if t.pass_ != "na":
            assert t.y <= t.x
            thr = (t.D ** 2 / t.a) ** 0.7 * t.x ** 0.7
            assert t.y >= thr - 1


def test_run_sweep_records_sorted_and_flagged():
    cfg = SweepConfig(Q=60, x_max=300.0)  # low cap forces na rows
    res = run_sweep(cfg)
    keys = [(r.D, r.a, r.b, r.c, r.x) for r in res.records]
    assert keys == sorted(keys)
    assert res.summary.not_applicable > 0
    for r in res.records:
        if r.pass_ == "na":
            assert r.exact_count is None and r.rhs_theorem is None
        elif r.pass_ in ("0", "1"):
            assert r.upper_bound >= r.sifted_count
            assert (r.pass_ == "1") == (r.exact_count < r.rhs_theorem)


@pytest.mark.parametrize("argv", [
    ("--mode", "almost", "--k", "9"),
    ("--mode", "almost", "--k", "1"),
    ("--time-budget", "nan"),
    ("--time-budget", "-1"),
    ("--epsilon", "0"),
    ("--epsilon", "-1"),
    ("--sample", "-1"),
], ids=["k9", "k1", "budget-nan", "budget-neg", "epsilon0", "epsilon-neg", "sample-neg"])
def test_verify_rejects_bad_config(capsys, argv):
    # rejected by SweepConfig before any row runs, not by a ZeroDivisionError,
    # with a message that names the field
    code, _, err = run_cli(capsys, "verify", "--Q", "20", *argv)
    assert code == 2 and "error" in err and "Traceback" not in err
    assert argv[-2].lstrip("-").replace("-", "_") in err


@pytest.mark.parametrize("command", [("verify", "--Q", "10"),
                                     ("sieve", "1", "1", "6", "1000")],
                         ids=["verify", "sieve"])
@pytest.mark.parametrize("eps", ["inf", "-inf", "nan"])
def test_non_finite_epsilon_exits_2(capsys, command, eps):
    with pytest.raises(SystemExit) as exc:
        main([*command, f"--epsilon={eps}"])
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert err.count("error:") == 1 and "finite" in err and "Traceback" not in err


def test_epsilon_checked_by_the_library():
    for eps in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError, match="epsilon"):
            SweepConfig(Q=10, epsilon=eps)


@pytest.mark.parametrize("mode", ["full", "interval"])
def test_verify_epsilon_beyond_float_range_gives_na_rows(capsys, mode):
    # (D^2/a)^(1 + 1e308) overflows a float: a range no x reaches, so every row is na
    code, out, err = run_cli(capsys, "verify", "--Q", "10", "--mode", mode,
                             "--epsilon", "1e308")
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert code == 0 and "Traceback" not in err
    assert len(rows) == 4 and all(r[13] == "na" for r in rows)
    assert "na=4" in err


def test_sieve_epsilon_beyond_float_range_is_vacuous(capsys):
    code, out, err = run_cli(capsys, "sieve", "1", "1", "6", "1000", "--epsilon", "1e308")
    assert code == 0 and "rhs = nan" in out and "Traceback" not in err


def test_verify_rejects_Q_above_cap_before_allocating(capsys):
    import tracemalloc

    tracemalloc.start()
    try:
        code = main(["verify", "--Q", str(sweeps.Q_MAX + 1)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err
    assert code == 2 and f"Q must lie in [3, {sweeps.Q_MAX}]" in err
    assert peak < 1 << 20
    SweepConfig(Q=sweeps.Q_MAX)  # the cap itself is accepted


def _refuse(*args, **kwargs):
    raise AssertionError("an O(D) character table was built past D_MAX")


@pytest.mark.parametrize("argv, message", [
    (("family", "--Q", str(forms.Q_MAX + 1)), f"Q must lie in [3, {forms.Q_MAX}]"),
    (("classgroup", str(forms.D_MAX + 3)), "exceeds D_MAX"),
    (("pif", "1", "1", str((forms.D_MAX + 4) // 4), "1000"),  # D = D_MAX + 3
     "exceeds D_MAX"),
    (("sieve", "3000", "1", "3334", "20000"), "exceeds D_MAX"),  # D = 40,007,999
], ids=["family-Q", "classgroup-D", "pif-D", "sieve-D"])
def test_memory_sized_inputs_exit_2_before_allocating(capsys, monkeypatch, argv,
                                                      message):
    import tracemalloc

    monkeypatch.setattr(characters, "_chi_period", _refuse)
    # pif and sieve are guarded by the patch above, untraced: a traced O(D)
    # class enumeration behind a regressed check would run for minutes
    # (`test_sieve_refuses_before_any_count` traces the sieve)
    if argv[0] in ("family", "classgroup"):
        tracemalloc.start()
    try:
        code = main(list(argv))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err
    assert code == 2 and message in err and "Traceback" not in err
    assert peak < 1 << 20


# f <= 1e17 spans 730,296,743 window rows (about 50 GiB of kernel arrays): the
# child refuses an address space above 2 GiB, so a regressed check fails there,
# and prints its tracemalloc peak
_WINDOW_CHILD = """
import resource, sys, tracemalloc
resource.setrlimit(resource.RLIMIT_AS, (1 << 31, 1 << 31))
from bqfsieve.cli import main
tracemalloc.start()
code = main(sys.argv[1:])
print(tracemalloc.get_traced_memory()[1])
sys.exit(code)
"""


def _run_child(*argv):
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    return subprocess.run([sys.executable, "-c", _WINDOW_CHILD, *argv],
                          capture_output=True, text=True, env=env, timeout=60)


@pytest.mark.parametrize("command", ["count", "pif", "sieve"])
def test_memory_sized_window_exits_2_before_allocating(command):
    proc = _run_child(command, "1", "1", "1", "1e17")
    assert proc.returncode == 2 and "Traceback" not in proc.stderr
    assert "window too large" in proc.stderr and "730296743 rows" in proc.stderr
    assert int(proc.stdout) < 1 << 20


_SCIPY_CHILD = """
import contextlib, io, sys
import bqfsieve.cli
loaded = ["scipy" in sys.modules]
with contextlib.redirect_stdout(io.StringIO()):
    code = bqfsieve.cli.main(["verify", "--Q", "30"])
loaded.append("scipy" in sys.modules)
print(code, *loaded)
"""


def test_verify_loads_no_scipy():
    # SciPy serves the L-values and the tail grid alone, imported on first use
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-c", _SCIPY_CHILD],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.stdout.split() == ["0", "False", "False"], proc.stderr


@pytest.mark.parametrize("argv, message", [
    (("1", "1", "3000000", "2e8"), "exceeds D_MAX"),  # D = 11,999,999
    (("1", "0", "1", "1e8", "--y", "5"), "need (ax)^(1/2) <= y <= x"),
], ids=["D", "y"])
def test_sieve_refuses_before_any_count(argv, message):
    # the theorem's and the sieve's checks come before the pi_f count and its
    # x-sized prime mask (200 MB at x = 2e8)
    proc = _run_child("sieve", *argv)
    assert proc.returncode == 2 and "Traceback" not in proc.stderr
    assert message in proc.stderr
    assert int(proc.stdout) < 1 << 20


def test_window_under_the_row_cap_still_counts(capsys):
    # 2,309,401 rows: under the cap, and counted as before
    code, out, _ = run_cli(capsys, "count", "1", "1", "1", "1e12")
    assert code == 0 and out.startswith("A_ell = 3627598727173\n")


def _exit_in_worker(parent_pid, *args, **kwargs):
    if os.getpid() != parent_pid:
        os._exit(1)
    raise AssertionError("the row ran in the parent process")


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="the patched function reaches the workers by fork")
@pytest.mark.parametrize("command", ["verify", "family"])
def test_dead_worker_exits_3(capsys, monkeypatch, command):
    # a module-level function, so that it also reaches the workers inside a
    # pickled partial
    fake = functools.partial(_exit_in_worker, os.getpid())
    if command == "verify":
        monkeypatch.setattr(sweeps, "selberg_upper_bound", fake)
    else:
        monkeypatch.setattr(characters, "scan_discriminant", fake)
    code, out, err = run_cli(capsys, command, "--Q", "100", "--jobs", "2")
    assert code == 3 and out == ""
    assert err.count("error: a worker process died") == 1 and "Traceback" not in err


def _build_all_sorted(cfg):
    """Every row of the sweep, built with its original inline theorem ranges
    and sorted: the first half of the path build_tasks replaced."""
    phi, eps = cfg.phi_mode, cfg.epsilon

    def x_threshold(D, a):
        if cfg.mode == "almost":
            return (D / a) ** (1 + 49 / (5 * cfg.k - 49))
        return (D ** (1 + 4 * phi) / a) ** (1 + eps)

    def y_threshold(D, a, x):
        return (D ** (1 + 4 * phi) / a) ** (0.5 + eps) * x ** (0.5 + eps)

    tasks = []
    for D in family(cfg.Q):
        cs = enumerate_class_set(D)
        for f in cs.reduced_forms:
            raw_x = (eval_rule(cfg.x_rule, D, f.a, phi, eps) if cfg.x_rule
                     else x_threshold(D, f.a))
            x = float(min(math.ceil(raw_x), cfg.x_max))
            y = x
            applicable = x >= x_threshold(D, f.a) - 1e-9
            if cfg.mode == "interval":
                raw_y = (eval_rule(cfg.y_rule, D, f.a, phi, eps) if cfg.y_rule
                         else y_threshold(D, f.a, x))
                y = float(min(math.ceil(raw_y), x))
                applicable = applicable and y >= y_threshold(D, f.a, x) - 1e-9
            tasks.append(sweeps.SweepRecord(D=D, a=f.a, b=f.b, c=f.c, h=cs.h,
                                            delta_f=delta_f(f), x=x, y=y,
                                            pass_="skipped" if applicable else "na"))
    return sorted(tasks, key=_task_key)


def _task_key(t):
    return (t.D, t.a, t.b, t.c, t.x)


def _sample_after_build(tasks, cfg):
    """The second half: Random(seed).sample over the built rows."""
    if cfg.sample is not None and cfg.sample < len(tasks):
        return sorted(random.Random(cfg.seed).sample(tasks, cfg.sample), key=_task_key)
    return tasks


@pytest.mark.parametrize("Q", [150, 600])
@pytest.mark.parametrize("mode", [
    dict(),
    dict(mode="interval", x_rule="(D*D/a)**3.0", y_rule="(D*D/a)**2.4"),
    dict(mode="almost", k=30),
], ids=["full", "interval-y-rule", "almost-k30"])
def test_build_tasks_samples_by_index(Q, mode):
    every = _build_all_sorted(SweepConfig(Q=Q, **mode))
    n = len(every)
    assert any(t.pass_ != "na" for t in every)
    for seed in range(20):
        for k in (1, 5, 100, n - 1, n, n + 5):
            cfg = SweepConfig(Q=Q, seed=seed, sample=k, **mode)
            # record equality compares every field, x, y and pass_ included
            assert build_tasks(cfg) == _sample_after_build(every, cfg), (seed, k)


@pytest.mark.parametrize("jobs", [1, 2])
def test_time_budget_expires_mid_run(monkeypatch, jobs):
    # the sweep's clock reads 0 at the start and t before the t-th live row
    main_thread, calls = threading.main_thread(), []
    real = time.monotonic

    def clock():
        if threading.current_thread() is not main_thread:
            return real()
        calls.append(None)
        return float(len(calls) - 1)

    cfg = SweepConfig(Q=60, x_max=2000.0, jobs=jobs)
    full = run_sweep(cfg).records
    live = [(r.D, r.a, r.b, r.c) for r in full if r.pass_ != "na"]
    monkeypatch.setattr(sweeps.time, "monotonic", clock)
    res = run_sweep(dataclasses.replace(cfg, time_budget=3.5))
    monkeypatch.undo()
    # rows 0-2 ran; the check before live row 3 read 4 > 3.5 and was the last
    assert len(calls) == 1 + 4
    s = res.summary
    assert s.partial and s.skipped == len(live) - 3 > 0
    assert s.passes + s.failures + s.not_applicable + s.skipped == s.total == len(full)
    assert [(r.D, r.a, r.b, r.c) for r in res.records if r.pass_ == "skipped"] == live[3:]
    strip = lambda r: dataclasses.replace(r, runtime_ms=None)
    assert [strip(r) for r in res.records if r.pass_ != "skipped"] == \
        [strip(r) for r in full if r.pass_ == "na" or (r.D, r.a, r.b, r.c) in live[:3]]


def test_time_budget_returns_unrun_rows_as_built(monkeypatch):
    # the clock reads 0 at the start and before the first live row, then 2:
    # one row runs, and each later live row is the record build_tasks built
    ticks = iter([0.0, 0.0])
    monkeypatch.setattr(sweeps.time, "monotonic", lambda: next(ticks, 2.0))
    cfg = SweepConfig(Q=60, x_max=2000.0, time_budget=1.0)
    res = run_sweep(cfg)
    built = build_tasks(cfg)
    assert res.summary.partial and res.summary.passes + res.summary.failures == 1
    unrun = [(r, b) for r, b in zip(res.records, built) if r.pass_ == "skipped"]
    assert len(unrun) == res.summary.skipped > 0
    counts = [fd.name for fd in dataclasses.fields(sweeps.SweepRecord)
              if fd.name not in ("D", "a", "b", "c", "h", "delta_f", "x", "y", "z",
                                 "pass_")]
    for r, b in unrun:
        assert r == b and b.pass_ == "skipped" and r.z is None
        assert all(getattr(r, name) is None for name in counts), r


def test_theorem_sweep_script_csv_matches_verify(tmp_path, capsys):
    script = Path(__file__).resolve().parent.parent / "scripts" / "run_theorem_sweep.py"
    src = str(script.parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    subprocess.run([sys.executable, str(script), "--Q", "40", "--jobs", "1",
                    "--out", str(tmp_path / "script.csv")],
                   check=True, capture_output=True, env=env, timeout=120)
    code, _, _ = run_cli(capsys, "verify", "--Q", "40", "--out", str(tmp_path / "cli.csv"))
    assert code == 0
    strip = lambda p: [l.rsplit(",", 1)[0] for l in p.read_text().splitlines()]
    assert strip(tmp_path / "script.csv") == strip(tmp_path / "cli.csv")


def test_family_scan_script_rows_match_the_library(tmp_path):
    script = Path(__file__).resolve().parent.parent / "scripts" / "run_family_scan.py"
    src = str(script.parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    out = tmp_path / "scan.csv"
    subprocess.run([sys.executable, str(script), "--Q", "100", "--out", str(out)],
                   check=True, capture_output=True, env=env, timeout=120)
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert [int(r["D"]) for r in rows] == list(family(100))
    for r in rows:
        assert r["h"] == r["h_formula"], r
        assert r["L1"] == "%.10g" % characters.L_values(int(r["D"])).L1, r


def test_readme_cli_examples(capsys, monkeypatch, tmp_path):
    readme = Path(__file__).resolve().parent.parent / "README.md"
    block = readme.read_text().split("## CLI", 1)[1].split("```")[1]
    lines = [line for line in block.splitlines() if line.startswith("bqf ")]
    assert len(lines) >= 8
    monkeypatch.chdir(tmp_path)  # for the files that --out writes
    for line in lines:
        command, _, comment = line.partition("#")
        code, out, err = run_cli(capsys, *shlex.split(command)[1:])
        assert code == 0, (line, err)
        if comment.startswith(" -> "):
            assert out == comment[4:] + "\n", line
