"""Command-line front end.

Subcommands: reduce, classgroup, count, pif, sieve, verify, family.
Exit codes: 0 on success, 2 on usage/validation errors, 3 when a verification
sweep contains a failing row or a pool worker of `verify` or `family` dies.
CSV output always carries a header row; floats are printed with 10
significant digits and booleans as 0/1.  JSON output is versioned under
"schema": "bqf-sieve/1".  The environment variable BQF_THREADS overrides
--jobs; either is capped at JOBS_MAX = 64.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import os
import sys
from concurrent.futures import BrokenExecutor

from . import __version__
from .characters import average_exceptional_report
from .forms import Form, delta_f, enumerate_class_set, is_primitive, reduce_form
from .lattice import EllipseWindow, count_congruence, local_density_report
from .sieve import SieveParams, pi_f, pi_f_interval, selberg_upper_bound
from .sweeps import CSV_COLUMNS, RuleError, SweepConfig, SweepRecord, run_sweep

EXIT_OK, EXIT_USAGE, EXIT_VERIFY_FAILED = 0, 2, 3
JOBS_MAX = 64  # a pool forks all of its workers on its first task, ~60 MiB each


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, float):
        return "%.10g" % v
    return str(v)


def _parse_form(args) -> Form:
    return Form(args.a, args.b, args.c)


def cmd_reduce(args) -> int:
    f = _parse_form(args)
    r = reduce_form(f)
    out = {"a": r.a, "b": r.b, "c": r.c, "D": r.D,
           "delta": delta_f(r), "primitive": is_primitive(r)}
    if args.format == "json":
        print(json.dumps({"schema": "bqf-sieve/1", "reduce": out}))
    else:
        print("(%d,%d,%d) D=%d delta=%s primitive=%s"
              % (r.a, r.b, r.c, r.D, _fmt(out["delta"]), _fmt(out["primitive"])))
    return EXIT_OK


def cmd_classgroup(args) -> int:
    cs = enumerate_class_set(args.D)
    if args.format == "json":
        print(json.dumps({"schema": "bqf-sieve/1", "D": cs.D, "h": cs.h, "w": cs.w,
                          "forms": [f.triple() for f in cs.reduced_forms]}))
    else:
        for f in cs.reduced_forms:
            print("(%d,%d,%d) delta=%s" % (f.a, f.b, f.c, _fmt(delta_f(f))))
        print("h(-%d) = %d, w = %d" % (cs.D, cs.h, cs.w))
    return EXIT_OK


def cmd_count(args) -> int:
    f = _parse_form(args)
    if not is_primitive(f):  # checked before any count, for the density below
        raise ValueError("local density is defined for primitive forms")
    window = EllipseWindow.of(f, args.x)
    cc = count_congruence(window, args.ell)
    rep = local_density_report(window, args.ell, exact=cc.a_ell)
    if args.format == "json":
        print(json.dumps({"schema": "bqf-sieve/1", "form": f.triple(),
                          "x": args.x, "ell": args.ell, "counts": cc.counts,
                          "local_density": {"exact": rep.exact, "main": rep.main,
                                            "residual": rep.residual,
                                            "envelope": rep.envelope}}))
    else:
        for label, n in cc.counts.items():
            print(f"{label} = {n}")
        print("M(%d) = %d, roots = %s" % (args.ell, cc.roots.M, list(cc.roots.roots)))
        print("main = %s  residual = %s  envelope = %s  ratio = %s"
              % (_fmt(rep.main), _fmt(rep.residual), _fmt(rep.envelope),
                 _fmt(rep.ratio)))
    return EXIT_OK


def _Li(x: float) -> float:
    from scipy.special import expi

    return float(expi(math.log(x)) - expi(math.log(2))) if x > 2 else 0.0


def cmd_pif(args) -> int:
    f = _parse_form(args)
    if not is_primitive(f):
        raise ValueError("pi_f needs a primitive form")
    # Chebotarev: each class takes 1/(2h) of the primes, and f represents those
    # of its class and of f(u, -v)'s, one class when delta_f = 1, two otherwise
    density = 1 / (2 * enumerate_class_set(f.D).h * delta_f(reduce_form(f)))
    if args.interval is not None:
        count = pi_f_interval(f, args.x, args.interval)
        main = density * (_Li(args.x) - _Li(args.x - args.interval))
        label = "pi_f(%g) - pi_f(%g)" % (args.x, args.x - args.interval)
    else:
        count = pi_f(f, args.x)
        main = density * _Li(args.x)
        label = "pi_f(%g)" % args.x
    if args.format == "json":
        print(json.dumps({"schema": "bqf-sieve/1", "form": f.triple(), "x": args.x,
                          "y": args.interval, "count": count,
                          "chebotarev_main": main}))
    else:
        print("%s = %d  (Chebotarev main term %s)" % (label, count, _fmt(main)))
    return EXIT_OK


def cmd_sieve(args) -> int:
    f = _parse_form(args)
    y = args.y if args.y is not None else args.x
    params = SieveParams.of(f, args.x, y, phi_mode=args.phi, epsilon=args.epsilon)
    rep = selberg_upper_bound(params)
    tag = " [conditional: GRH for chi_{-D}]" if args.phi == 0 else ""
    payload = {
        "schema": "bqf-sieve/1", "form": f.triple(), "x": args.x, "y": y,
        "z": params.z, "J": rep.J, "script_J": rep.script_J,
        "main_term": rep.main_term, "remainder_majorized": rep.remainder_majorized,
        "remainder_signed": rep.remainder_signed, "upper_bound": rep.upper_bound,
        "sifted_count": rep.sifted_count,
        "exact_interval_count": rep.exact_interval_count,
        "theta": rep.theta, "theta_prime": rep.theta_prime,
        "rhs_theorem": rep.rhs_theorem,
        "degenerate_L_branch": rep.degenerate_L_branch,
        "conditional": args.phi == 0,
    }
    if args.format == "json":
        print(json.dumps(payload))
    else:
        print("z = %s  J = %s  scriptJ = %s%s"
              % (_fmt(params.z), _fmt(rep.J), _fmt(rep.script_J), tag))
        print("main = %s  remainder = %s  upper_bound = %s"
              % (_fmt(rep.main_term), _fmt(rep.remainder_majorized),
                 _fmt(rep.upper_bound)))
        print("sifted = %d  primes in interval = %d  rhs = %s"
              % (rep.sifted_count, rep.exact_interval_count, _fmt(rep.rhs_theorem)))
        ok = rep.upper_bound >= rep.sifted_count
        print("sieve bound valid: %s" % _fmt(ok))
    if rep.degenerate_L_branch:
        print("anomaly: L(1,chi) < (log y)^-2, scriptJ took the (log y)^2 branch",
              file=sys.stderr)
    return EXIT_OK


def _record_row(r: SweepRecord) -> list[str]:
    return [_fmt(r.D), _fmt(r.a), _fmt(r.b), _fmt(r.c), _fmt(r.h),
            _fmt(r.delta_f), _fmt(r.x), _fmt(r.y),
            _fmt(r.z) if r.z == r.z else "",
            _fmt(r.exact_count), _fmt(r.upper_bound), _fmt(r.rhs_theorem),
            _fmt(r.theta_or_theta_prime), r.pass_, _fmt(r.runtime_ms)]


def write_verify_csv(fh, records) -> None:
    """The `bqf verify` CSV: the header, then one `_record_row` line per record."""
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    writer.writerows(_record_row(r) for r in records)


def cmd_verify(args) -> int:
    cfg = SweepConfig(Q=args.Q, mode=args.mode, phi_mode=args.phi,
                      epsilon=args.epsilon, x_rule=args.x_rule, y_rule=args.y_rule,
                      x_max=args.xmax, k=args.k, slack=args.slack,
                      seed=args.seed, sample=args.sample, jobs=args.jobs,
                      time_budget=args.time_budget)
    result = run_sweep(cfg)
    s = result.summary
    with open(args.out, "w") if args.out else contextlib.nullcontext(sys.stdout) as fh:
        if args.format == "json":
            doc = {"schema": "bqf-sieve/1",
                   "config": {"Q": cfg.Q, "mode": cfg.mode, "phi": cfg.phi_mode,
                              "epsilon": cfg.epsilon, "x_rule": cfg.x_rule,
                              "y_rule": cfg.y_rule, "x_max": cfg.x_max, "k": cfg.k,
                              "slack": cfg.slack, "seed": cfg.seed},
                   "columns": CSV_COLUMNS,
                   "rows": [_record_row(r) for r in result.records],
                   "summary": {"total": s.total, "passes": s.passes,
                               "failures": s.failures,
                               "not_applicable": s.not_applicable,
                               "skipped": s.skipped, "max_ratio": s.max_ratio,
                               "partial": s.partial}}
            fh.write(json.dumps(doc, indent=1) + "\n")
        else:
            write_verify_csv(fh, result.records)
    print("total=%d passes=%d failures=%d na=%d skipped=%d max_ratio=%s%s"
          % (s.total, s.passes, s.failures, s.not_applicable, s.skipped,
             _fmt(s.max_ratio), " [partial: time budget hit]" if s.partial else ""),
          file=sys.stderr)
    return EXIT_VERIFY_FAILED if s.failures else EXIT_OK


def cmd_family(args) -> int:
    rep = average_exceptional_report(args.Q, args.epsilon, x_cap=args.xmax,
                                     jobs=args.jobs)
    payload = {"schema": "bqf-sieve/1", "Q": rep.Q, "epsilon": rep.epsilon,
               "total": rep.total, "violators_E": rep.violators_E,
               "violators_L": rep.violators_L, "fraction_E": rep.fraction_E,
               "fraction_L": rep.fraction_L}
    if args.format == "json":
        print(json.dumps(payload))
    else:
        print("family D <= %d: %d members" % (rep.Q, rep.total))
        print("E-envelope violators: %d (fraction %s)"
              % (rep.violators_E, _fmt(rep.fraction_E)))
        print("-L'/L violators: %d (fraction %s)"
              % (rep.violators_L, _fmt(rep.fraction_L)))
    return EXIT_OK


def _finite_float(text: str) -> float:
    """argparse type: a float that is not inf, -inf or nan."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return value


def _add_form_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("a", type=int)
    p.add_argument("b", type=int)
    p.add_argument("c", type=int)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="bqf", description=__doc__)
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("reduce", help="reduce a form; print D, delta, primitivity")
    _add_form_args(p)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("classgroup", help="list the reduced primitive forms of -D")
    p.add_argument("D", type=int)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_classgroup)

    p = sub.add_parser("count", help="congruence counts and local density at x")
    _add_form_args(p)
    p.add_argument("x", type=_finite_float)
    p.add_argument("--ell", type=int, default=1)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("pif", help="primes up to x represented by the form")
    _add_form_args(p)
    p.add_argument("x", type=_finite_float)
    p.add_argument("--interval", type=_finite_float, default=None, metavar="Y")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_pif)

    p = sub.add_parser("sieve", help="run the Selberg upper-bound sieve once")
    _add_form_args(p)
    p.add_argument("x", type=_finite_float)
    p.add_argument("--y", type=_finite_float, default=None)
    p.add_argument("--phi", type=float, choices=(0.0, 0.25), default=0.25)
    p.add_argument("--epsilon", type=_finite_float, default=0.2)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_sieve)

    p = sub.add_parser("verify", help="theorem-verification sweep over D <= Q")
    p.add_argument("--Q", type=int, required=True)
    p.add_argument("--mode", choices=("full", "interval", "almost"), default="full")
    p.add_argument("--phi", type=float, choices=(0.0, 0.25), default=0.25)
    p.add_argument("--epsilon", type=_finite_float, default=0.2)
    p.add_argument("--x-rule", default=None, dest="x_rule",
                   help="expression over (D, a), e.g. '(D*D/a)**1.2'")
    p.add_argument("--y-rule", default=None, dest="y_rule")
    p.add_argument("--xmax", type=float, default=1e7)
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--slack", type=float, default=1.0)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--sample", type=int, default=None)
    p.add_argument("--time-budget", type=float, default=None, dest="time_budget")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("family", help="average exceptional-set report over D <= Q")
    p.add_argument("--Q", type=int, required=True)
    p.add_argument("--epsilon", type=_finite_float, default=0.1)
    p.add_argument("--xmax", type=float, default=1e7)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_family)

    return ap


def _set_jobs(args) -> None:
    """Apply the BQF_THREADS override (the one place it is read) and require
    an integer job count in [1, JOBS_MAX], before any worker starts."""
    env = os.environ.get("BQF_THREADS")
    if env:
        try:
            args.jobs = int(env)
        except ValueError:
            raise ValueError(f"BQF_THREADS must be an integer, got {env!r}") from None
    if not 1 <= args.jobs <= JOBS_MAX:
        raise ValueError(f"jobs (--jobs or BQF_THREADS) must lie in [1, {JOBS_MAX}], "
                         f"got {args.jobs}")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if "jobs" in args:
            _set_jobs(args)
        return args.func(args)
    except (ValueError, RuleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BrokenExecutor as exc:  # a pool worker died: BrokenProcessPool
        print(f"error: a worker process died: {exc}", file=sys.stderr)
        return EXIT_VERIFY_FAILED


if __name__ == "__main__":
    sys.exit(main())
