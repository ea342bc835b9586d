import dataclasses
import json
import math
import multiprocessing
import os
import random
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from bqfsieve import characters, sweeps
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


def test_bqf_threads_env_override(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("BQF_THREADS", "2")
    p = tmp_path / "sweep.csv"
    code, _, _ = run_cli(capsys, "verify", "--Q", "30", "--jobs", "1",
                         "--out", str(p))
    assert code == 0
    assert len(p.read_text().splitlines()) > 1
    for bad in ("abc", "0", "-2", "1.5"):
        monkeypatch.setenv("BQF_THREADS", bad)
        for argv in (("family", "--Q", "100"), ("verify", "--Q", "10")):
            code, _, err = run_cli(capsys, *argv)
            assert code == 2 and "BQF_THREADS" in err, (bad, argv)


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
        if t.applicable:
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
            assert r.sieve_valid is True
            assert (r.pass_ == "1") == (r.exact_count < r.rhs_theorem)


@pytest.mark.parametrize("argv", [
    ("--mode", "almost", "--k", "9"),
    ("--mode", "almost", "--k", "1"),
    ("--mode", "almost", "--k", "30", "--slack", "0"),
    ("--slack", "-1"),
    ("--slack", "nan"),
    ("--slack", "inf"),
    ("--time-budget", "nan"),
    ("--time-budget", "-1"),
    ("--epsilon", "0"),
    ("--epsilon", "-1"),
], ids=["k9", "k1", "almost-slack0", "slack-neg", "slack-nan", "slack-inf",
        "budget-nan", "budget-neg", "epsilon0", "epsilon-neg"])
def test_verify_rejects_bad_config(capsys, argv):
    # rejected by SweepConfig before any row runs, not by a ZeroDivisionError
    code, _, err = run_cli(capsys, "verify", "--Q", "20", *argv)
    assert code == 2 and "error" in err and "Traceback" not in err


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


def _exit_in_worker(parent_pid):
    def fake(*args, **kwargs):
        if os.getpid() != parent_pid:
            os._exit(1)
        raise AssertionError("the row ran in the parent process")
    return fake


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="the patched function reaches the workers by fork")
@pytest.mark.parametrize("command", ["verify", "family"])
def test_dead_worker_exits_3(capsys, monkeypatch, command):
    fake = _exit_in_worker(os.getpid())
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
    for D in family(cfg.Q).members:
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
            tasks.append(sweeps.RowTask(D=D, a=f.a, b=f.b, c=f.c, h=cs.h,
                                        delta=delta_f(f), x=x, y=y,
                                        applicable=applicable))
    return sorted(tasks, key=_task_key)


def _task_key(t):
    return (t.D, t.a, t.b, t.c, t.x)


def _sample_after_build(tasks, cfg):
    """The second half: Random(seed).sample over the built RowTasks."""
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
    assert any(t.applicable for t in every)
    for seed in range(20):
        for k in (1, 5, 100, n - 1, n, n + 5):
            cfg = SweepConfig(Q=Q, seed=seed, sample=k, **mode)
            # RowTask equality compares every field, x, y and applicable included
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


def test_theorem_sweep_script_csv_matches_verify(tmp_path, capsys):
    script = Path(__file__).resolve().parent.parent / "scripts" / "run_theorem_sweep.py"
    src = str(script.parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    env.pop("BQF_THREADS", None)
    subprocess.run([sys.executable, str(script), "--Q", "40", "--jobs", "1",
                    "--out", str(tmp_path / "script.csv")],
                   check=True, capture_output=True, env=env, timeout=120)
    code, _, _ = run_cli(capsys, "verify", "--Q", "40", "--out", str(tmp_path / "cli.csv"))
    assert code == 0
    strip = lambda p: [l.rsplit(",", 1)[0] for l in p.read_text().splitlines()]
    assert strip(tmp_path / "script.csv") == strip(tmp_path / "cli.csv")
