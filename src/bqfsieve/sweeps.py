"""Verification sweeps over discriminant families.

A sweep walks the reduced primitive forms of the discriminants -D, 3 <= D <= Q,
in (D, a, b, c) order and checks one theorem per row (pi_f, interval pi_f or
the almost-prime count) against its right-hand side, as `sieve` states it.
The row keys come from one vectorised list (`forms.reduced_forms_upto`), and
Q is capped at Q_MAX.

x = ceil(rule(D, a)) capped at x_max, the rule defaulting to the theorem's
range threshold; rows outside the theorem's range (e.g. capped below it) are
na and skip the counting, as are rows whose threshold overflows a float.
Almost mode needs k >= 10 (5k - 49 > 0).  `sample` keeps the rows at
sorted(Random(seed).sample(range(n), sample)), the rows that sampling the row
list itself would pick, and only they are built.  Each row is one
`SweepRecord` from the key list to the CSV: a row in range is "skipped" until
it runs, and running it fills in its counts.

Rows run in key order through `arith.worker_map`, serially or on its pool,
so records do not depend on `jobs` (runtime_ms is the one measured column).
The time budget is checked before each row is taken; once it has run out,
the remaining rows are skipped and queued chunks are cancelled, while a
chunk that has started runs to its end.  A dead worker raises
BrokenProcessPool (the CLI exits 3).
"""

from __future__ import annotations

import ast
import math
import operator
import random
import time
from collections import Counter
from dataclasses import dataclass, replace
from functools import lru_cache, partial

from .arith import JOBS_MAX, MASK_CAP, prime_table, worker_map
from .forms import Q_MAX, Form, delta_f, reduced_forms_upto
from .sieve import (almost_range_x, almost_rhs, count_almost_primes, full_range_x,
                    interval_min_y, pi_f_interval, pinned_z, selberg_upper_bound,
                    theorem_rhs)

__all__ = ["SweepConfig", "SweepRecord", "SweepSummary", "SweepResult",
           "RuleError", "run_sweep", "build_tasks", "eval_rule"]


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


@lru_cache(maxsize=8)
def _parsed(expr: str) -> ast.AST:
    return ast.parse(expr, "<rule>", mode="eval").body


def eval_rule(expr: str, D: int, a: int, phi: float, epsilon: float) -> float:
    """Evaluate a power-law rule over (D, a) in floats.

    Admitted: numbers, the names D, a, phi and epsilon, + - * / **, unary
    minus, and calls to log, sqrt, min and max.  An exponent above 100 in
    absolute value is rejected.
    """
    ns = {"D": float(D), "a": float(a), "phi": float(phi), "epsilon": float(epsilon)}
    try:
        val = _eval_node(_parsed(expr), ns)
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
    seed: int = 0
    sample: int | None = None        # deterministic row subsample
    jobs: int = 1
    time_budget: float | None = None

    def __post_init__(self):
        if self.mode not in ("full", "interval", "almost"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.phi_mode not in (0, 0.25):
            raise ValueError("phi must be 0 or 0.25")
        if not 3 <= self.Q <= Q_MAX:
            raise ValueError(f"Q must lie in [3, {Q_MAX}], got {self.Q}")
        if not self.epsilon > 0:
            raise ValueError(f"epsilon must be > 0, got {self.epsilon}")
        if not (math.isfinite(self.x_max) and self.x_max >= 2):
            raise ValueError(f"x_max must be a finite number >= 2, got {self.x_max}")
        if self.mode == "almost" and self.k < 10:
            raise ValueError(f"almost mode needs k >= 10, got {self.k}")
        if not 1 <= self.jobs <= JOBS_MAX:
            raise ValueError(f"jobs must lie in [1, {JOBS_MAX}], got {self.jobs}")
        if self.sample is not None and self.sample < 0:
            raise ValueError(f"sample must be >= 0, got {self.sample}")
        if self.time_budget is not None and not self.time_budget >= 0:
            raise ValueError(f"time_budget must be >= 0, got {self.time_budget}")


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
    z: float | None = None
    exact_count: int | None = None
    upper_bound: float | None = None
    rhs_theorem: float | None = None
    theta_or_theta_prime: float | None = None
    pass_: str = "na"                 # "1" | "0" | "na" | "skipped"
    runtime_ms: int | None = None
    sifted_count: int | None = None


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


def build_tasks(cfg: SweepConfig) -> list[SweepRecord]:
    """The sweep's rows in key order, each a record with its x and y: "na"
    outside the theorem's range, else "skipped" until it runs.  Only the
    rows `sample` keeps are built."""
    keys = reduced_forms_upto(cfg.Q)
    n = len(keys[0])
    if cfg.sample is not None and cfg.sample < n:
        rows = sorted(random.Random(cfg.seed).sample(range(n), cfg.sample))
        keys = [col[rows] for col in keys]
    return [_task(cfg, D, Form(a, b, c), h)
            for D, a, b, c, h in zip(*(col.tolist() for col in keys))]


def _task(cfg: SweepConfig, D: int, f: Form, h: int) -> SweepRecord:
    rule = partial(eval_rule, D=D, a=f.a, phi=cfg.phi_mode, epsilon=cfg.epsilon)
    x_min = (almost_range_x(D, f.a, cfg.k) if cfg.mode == "almost"
             else full_range_x(D, f.a, cfg.phi_mode, cfg.epsilon))
    x = _ceil_capped(rule(cfg.x_rule) if cfg.x_rule else x_min, cfg.x_max)
    applicable = x >= x_min - 1e-9
    y = x
    if cfg.mode == "interval":
        y_min = interval_min_y(D, f.a, x, cfg.phi_mode, cfg.epsilon)
        y = _ceil_capped(rule(cfg.y_rule) if cfg.y_rule else y_min, x)
        applicable = applicable and y >= y_min - 1e-9
    return SweepRecord(D=D, a=f.a, b=f.b, c=f.c, h=h, delta_f=delta_f(f), x=x, y=y,
                       pass_="skipped" if applicable else "na")


def _ceil_capped(value: float, cap: float) -> float:
    # min(ceil(value), cap), with a threshold that overflowed to +inf at the cap
    return float(cap if value >= cap else min(math.ceil(value), cap))


def _run_row(cfg: SweepConfig, row: SweepRecord) -> SweepRecord:
    f = Form(row.a, row.b, row.c)
    start = time.perf_counter()
    if cfg.mode == "almost":
        exact = count_almost_primes(f, row.x, cfg.k)
        rhs = almost_rhs(row.D, row.x)
        counts = dict(pass_="1" if exact >= rhs else "0",
                      exact_count=exact, rhs_theorem=rhs)
    else:
        rep = selberg_upper_bound(f, row.x, row.y, pinned_z(f, row.x, row.y))
        exact = pi_f_interval(f, row.x, row.y)
        tb = theorem_rhs(f, row.x, row.y, cfg.phi_mode, cfg.epsilon, row.h)
        counts = dict(pass_="1" if exact < tb.rhs else "0", z=rep.z,
                      exact_count=exact, upper_bound=rep.upper_bound,
                      rhs_theorem=tb.rhs, theta_or_theta_prime=tb.theta_used,
                      sifted_count=rep.sifted_count)
    return replace(row, runtime_ms=int((time.perf_counter() - start) * 1000), **counts)


def run_sweep(cfg: SweepConfig) -> SweepResult:
    if cfg.x_max > MASK_CAP:
        raise ValueError(f"x_max {cfg.x_max:g} exceeds the table cap {MASK_CAP:g}")
    rows = build_tasks(cfg)
    start = time.monotonic()
    live = [r for r in rows if r.pass_ == "skipped"]
    # pi_f reads the prime mask up to each row's x: size it once, for the largest
    mask_x = (math.floor(max((r.x for r in live), default=0))
              if cfg.mode != "almost" else 0)
    records, expired = [], False
    with worker_map(partial(_run_row, cfg), live, cfg.jobs,
                    prime_table if mask_x else None, mask_x) as results:
        for row in rows:
            if row.pass_ == "skipped" and not expired:
                expired = (cfg.time_budget is not None
                           and time.monotonic() - start > cfg.time_budget)
                row = row if expired else next(results)
            records.append(row)
    n = Counter(r.pass_ for r in records)
    ratios = [r.rhs_theorem / r.exact_count if cfg.mode == "almost"
              else r.exact_count / r.rhs_theorem for r in records if r.exact_count]
    return SweepResult(records=records, summary=SweepSummary(
        total=len(records), passes=n["1"], failures=n["0"], not_applicable=n["na"],
        skipped=n["skipped"], max_ratio=max(ratios, default=0.0), partial=expired))
