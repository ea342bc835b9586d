"""Verification sweeps over discriminant families.

A sweep walks every reduced primitive form of every discriminant -D with
3 <= D <= Q, picks x (and y) per a power-law rule, evaluates the exact count
(pi_f, interval pi_f, or almost-prime count per mode), the theorem right-hand
side, and the Selberg report, and emits one SweepRecord per row.  Rows are
computed in parallel but post-sorted by (D, a, b, c, x), so row content is
independent of the parallelism level; runtime_ms is the one measured,
non-reproducible column.

Row x-rule semantics: x = ceil(rule(D, a)) capped at x_max, with the rule
defaulting to the theorem's own range threshold; rows that land outside the
theorem's valid range (e.g. capped below it) carry the not-applicable marker
and skip the heavy counting entirely.
"""

from __future__ import annotations

import ast
import contextlib
import math
import operator
import random
import time
from dataclasses import dataclass

from .arith import MASK_CAP, prime_table
from .characters import family
from .forms import Form, delta_f, enumerate_class_set
from .sieve import SieveParams, count_almost_primes, selberg_upper_bound

__all__ = ["SweepConfig", "SweepRecord", "SweepSummary", "SweepResult",
           "RuleError", "run_sweep", "build_tasks", "eval_rule", "CSV_COLUMNS"]

CSV_COLUMNS = ["D", "a", "b", "c", "h", "delta_f", "x", "y", "z",
               "exact_count", "upper_bound", "rhs_theorem",
               "theta_or_theta_prime", "pass", "runtime_ms"]


class RuleError(ValueError):
    """Malformed or out-of-range x/y rule."""


_MAX_RULE_EXPONENT = 100.0


def _capped_pow(base: float, exp: float) -> float:
    if not abs(exp) <= _MAX_RULE_EXPONENT:
        raise ValueError(f"exponent {exp:g} exceeds {_MAX_RULE_EXPONENT:g}")
    return math.pow(base, exp)


_RULE_FUNCS = {"log": math.log, "sqrt": math.sqrt, "min": min, "max": max}
_RULE_OPS = {ast.Add: operator.add, ast.Sub: operator.sub,
             ast.Mult: operator.mul, ast.Div: operator.truediv,
             ast.Pow: _capped_pow}


def _eval_node(node: ast.AST, ns: dict[str, float]) -> float:
    if isinstance(node, ast.Constant) and type(node.value) in (int, float):
        return float(node.value)
    if isinstance(node, ast.Name) and node.id in ns:
        return ns[node.id]
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        return -_eval_node(node.operand, ns)
    if isinstance(node, ast.BinOp) and type(node.op) in _RULE_OPS:
        return _RULE_OPS[type(node.op)](_eval_node(node.left, ns),
                                        _eval_node(node.right, ns))
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in _RULE_FUNCS and not node.keywords):
        return float(_RULE_FUNCS[node.func.id](*(_eval_node(a, ns) for a in node.args)))
    raise ValueError(f"{type(node).__name__} is not allowed")


def eval_rule(expr: str, D: int, a: int, phi: float, epsilon: float) -> float:
    """Evaluate a power-law rule over (D, a) in floats.

    Admitted: numbers, the names D, a, phi and epsilon, + - * / **, unary
    minus, and calls to log, sqrt, min and max.  An exponent above 100 in
    absolute value is rejected.
    """
    ns = {"D": float(D), "a": float(a), "phi": float(phi), "epsilon": float(epsilon)}
    try:
        val = _eval_node(ast.parse(expr, "<rule>", mode="eval").body, ns)
    except (SyntaxError, ValueError, ArithmeticError, TypeError, RecursionError) as exc:
        raise RuleError(f"malformed rule {expr!r}: {exc}") from exc
    if not math.isfinite(val) or val < 2:
        raise RuleError(f"rule {expr!r} evaluated to {val}; need a finite x >= 2")
    return val


@dataclass(frozen=True)
class SweepConfig:
    Q: int
    mode: str = "full"              # full | interval | almost
    phi_mode: float = 0.25
    epsilon: float = 0.2
    x_rule: str | None = None        # default: the theorem range threshold
    y_rule: str | None = None
    x_max: float = 1e7
    k: int = 10                      # almost-prime factor bound (mode almost)
    slack: float = 1.0               # rhs multiplier used in the pass check
    seed: int = 0
    sample: int | None = None        # deterministic row subsample
    jobs: int = 1
    time_budget: float | None = None

    def __post_init__(self):
        if self.mode not in ("full", "interval", "almost"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.phi_mode not in (0, 0.25):
            raise ValueError("phi must be 0 or 0.25")
        if self.Q < 3:
            raise ValueError("Q must be >= 3")
        if not (math.isfinite(self.x_max) and self.x_max >= 2):
            raise ValueError(f"x_max must be a finite number >= 2, got {self.x_max}")


@dataclass(frozen=True)
class RowTask:
    D: int
    a: int
    b: int
    c: int
    h: int
    delta: float
    x: float
    y: float
    applicable: bool


@dataclass
class SweepRecord:
    D: int
    a: int
    b: int
    c: int
    h: int
    delta_f: float
    x: float
    y: float
    z: float
    exact_count: int | None
    upper_bound: float | None
    rhs_theorem: float | None
    theta_or_theta_prime: float | None
    pass_: str                        # "1" | "0" | "na" | "skipped"
    runtime_ms: int | None
    sifted_count: int | None = None
    sieve_valid: bool | None = None


@dataclass(frozen=True)
class SweepSummary:
    total: int
    passes: int
    failures: int
    not_applicable: int
    skipped: int
    max_ratio: float
    partial: bool


@dataclass(frozen=True)
class SweepResult:
    records: list[SweepRecord]
    summary: SweepSummary


def _range_threshold(cfg: SweepConfig, D: int, a: int) -> float:
    """Smallest x admitted by the theorem the mode verifies."""
    if cfg.mode == "almost":
        # almost-prime theorem range: x >= (D/a)^(1 + 49/(5k - 49))
        return (D / a) ** (1 + 49 / (5 * cfg.k - 49))
    return (D ** (1 + 4 * cfg.phi_mode) / a) ** (1 + cfg.epsilon)


def _default_y(cfg: SweepConfig, D: int, a: int, x: float) -> float:
    # minimal y admitted by the short-interval theorem
    return (D ** (1 + 4 * cfg.phi_mode) / a) ** (0.5 + cfg.epsilon) * x ** (0.5 + cfg.epsilon)


def build_tasks(cfg: SweepConfig) -> list[RowTask]:
    tasks = []
    for D in family(cfg.Q).members:
        cs = enumerate_class_set(D)
        for f in cs.reduced_forms:
            raw_x = (eval_rule(cfg.x_rule, D, f.a, cfg.phi_mode, cfg.epsilon)
                     if cfg.x_rule else _range_threshold(cfg, D, f.a))
            x = float(min(math.ceil(raw_x), cfg.x_max))
            if cfg.mode == "interval":
                raw_y = (eval_rule(cfg.y_rule, D, f.a, cfg.phi_mode, cfg.epsilon)
                         if cfg.y_rule else _default_y(cfg, D, f.a, x))
                y = float(min(math.ceil(raw_y), x))
            else:
                y = x
            # rows outside the theorem's valid range carry the na marker
            applicable = x >= _range_threshold(cfg, D, f.a) - 1e-9
            if cfg.mode == "interval":
                applicable = applicable and y >= _default_y(cfg, D, f.a, x) - 1e-9
            tasks.append(RowTask(D=D, a=f.a, b=f.b, c=f.c, h=cs.h,
                                 delta=delta_f(f), x=x, y=y, applicable=applicable))
    tasks.sort(key=lambda t: (t.D, t.a, t.b, t.c, t.x))
    if cfg.sample is not None and cfg.sample < len(tasks):
        rng = random.Random(cfg.seed)
        tasks = sorted(rng.sample(tasks, cfg.sample),
                       key=lambda t: (t.D, t.a, t.b, t.c, t.x))
    return tasks


def _na_record(t: RowTask, status: str) -> SweepRecord:
    return SweepRecord(D=t.D, a=t.a, b=t.b, c=t.c, h=t.h, delta_f=t.delta,
                       x=t.x, y=t.y, z=float("nan"), exact_count=None,
                       upper_bound=None, rhs_theorem=None,
                       theta_or_theta_prime=None, pass_=status, runtime_ms=None)


def _run_row(args: tuple[RowTask, str, float, float, float, int]) -> SweepRecord:
    t, mode, phi, epsilon, slack, k = args
    f = Form(t.a, t.b, t.c)
    start = time.perf_counter()
    if mode == "almost":
        exact = count_almost_primes(f, t.x, k)
        rhs = 0.5 * t.x / (math.sqrt(f.D) * math.log(t.x) ** 2)
        ok = exact >= rhs / slack
        rec = SweepRecord(D=t.D, a=t.a, b=t.b, c=t.c, h=t.h, delta_f=t.delta,
                          x=t.x, y=t.y, z=float("nan"), exact_count=exact,
                          upper_bound=None, rhs_theorem=rhs,
                          theta_or_theta_prime=None,
                          pass_="1" if ok else "0", runtime_ms=None)
    else:
        params = SieveParams.of(f, t.x, t.y, phi_mode=phi, epsilon=epsilon)
        rep = selberg_upper_bound(params)
        rhs = rep.rhs_theorem
        theta = rep.theta_prime if mode == "interval" else rep.theta
        ok = rep.exact_interval_count < rhs * slack
        rec = SweepRecord(D=t.D, a=t.a, b=t.b, c=t.c, h=t.h, delta_f=t.delta,
                          x=t.x, y=t.y, z=params.z,
                          exact_count=rep.exact_interval_count,
                          upper_bound=rep.upper_bound, rhs_theorem=rhs,
                          theta_or_theta_prime=theta,
                          pass_="1" if ok else "0", runtime_ms=None,
                          sifted_count=rep.sifted_count,
                          sieve_valid=rep.upper_bound >= rep.sifted_count)
    rec.runtime_ms = int((time.perf_counter() - start) * 1000)
    return rec


def run_sweep(cfg: SweepConfig) -> SweepResult:
    if cfg.x_max > MASK_CAP:
        raise ValueError(f"x_max {cfg.x_max:g} exceeds the table cap {MASK_CAP:g}")
    tasks = build_tasks(cfg)
    start = time.monotonic()
    records: list[SweepRecord] = []
    live = [(t, cfg.mode, cfg.phi_mode, cfg.epsilon, cfg.slack, cfg.k)
            for t in tasks if t.applicable]
    for t in tasks:
        if not t.applicable:
            records.append(_na_record(t, "na"))
    partial = False
    done = 0
    # pi_f reads the prime mask up to each row's x: size it once, for the largest
    mask_x = (math.floor(max(job[0].x for job in live))
              if live and cfg.mode != "almost" else None)
    pool, chunk, run = None, 1, map
    if cfg.jobs > 1 and len(live) > 1:
        from concurrent.futures import ProcessPoolExecutor

        pool = ProcessPoolExecutor(max_workers=cfg.jobs,
                                   initializer=prime_table if mask_x else None,
                                   initargs=(mask_x,))
        chunk, run = 32, pool.map
    elif mask_x:
        prime_table(mask_x)
    with pool or contextlib.nullcontext():
        for i in range(0, len(live), chunk):
            if cfg.time_budget is not None and time.monotonic() - start > cfg.time_budget:
                partial = True
                break
            records.extend(run(_run_row, live[i : i + chunk]))
            done = i + chunk
    if partial:
        for job in live[done:]:
            records.append(_na_record(job[0], "skipped"))
    records.sort(key=lambda r: (r.D, r.a, r.b, r.c, r.x))
    passes = sum(1 for r in records if r.pass_ == "1")
    failures = sum(1 for r in records if r.pass_ == "0")
    na = sum(1 for r in records if r.pass_ == "na")
    skipped = sum(1 for r in records if r.pass_ == "skipped")
    ratios = [r.exact_count / r.rhs_theorem for r in records
              if r.exact_count is not None and r.rhs_theorem]
    if cfg.mode == "almost":
        ratios = [r.rhs_theorem / r.exact_count for r in records
                  if r.exact_count and r.rhs_theorem is not None]
    summary = SweepSummary(total=len(records), passes=passes, failures=failures,
                           not_applicable=na, skipped=skipped,
                           max_ratio=max(ratios, default=0.0), partial=partial)
    return SweepResult(records=records, summary=summary)
