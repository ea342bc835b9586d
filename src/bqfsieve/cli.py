"""Command-line front end.

Subcommands: reduce, classgroup, count, pif, sieve, verify, family.
Exit codes: 0 on success, 2 on usage/validation errors, 3 when a verification
sweep contains a failing row or a pool worker of `verify` or `family` dies.
Every report but verify's is printed by `_emit`, as text or as one JSON line;
verify writes a CSV (CSV_COLUMNS, after a header row) or indented JSON.  Floats
are printed with 10 significant digits and booleans as 0/1, and JSON is
versioned under "schema": "bqf-sieve/1".  --jobs is the one job count of
verify and family; the library refuses one outside [1, arith.JOBS_MAX]
before any worker starts, and main turns that ValueError into exit code 2.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import sys
from concurrent.futures import BrokenExecutor
from dataclasses import asdict
from functools import partial

from . import __version__
from .characters import average_exceptional_report
from .forms import (Form, delta_f, enumerate_class_set, is_primitive, reduce_form,
                    unit_count)
from .lattice import EllipseWindow, count_congruence, local_density_report
from .sieve import SieveParams, pi_f, pi_f_interval, selberg_upper_bound
from .sweeps import SweepConfig, SweepRecord, run_sweep

EXIT_OK, EXIT_USAGE, EXIT_VERIFY_FAILED = 0, 2, 3
SCHEMA = "bqf-sieve/1"
CSV_COLUMNS = ["D", "a", "b", "c", "h", "delta_f", "x", "y", "z",
               "exact_count", "upper_bound", "rhs_theorem",
               "theta_or_theta_prime", "pass", "runtime_ms"]


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, float):
        return "%.10g" % v
    return str(v)


def _emit(args, doc: dict, text: str) -> int:
    """Print a command's report: `doc` tagged with SCHEMA on one line under
    --format json, else `text`."""
    print(json.dumps({"schema": SCHEMA, **doc}) if args.format == "json" else text)
    return EXIT_OK


def cmd_reduce(args) -> int:
    r = reduce_form(Form(args.a, args.b, args.c))
    out = {"a": r.a, "b": r.b, "c": r.c, "D": r.D,
           "delta": delta_f(r), "primitive": is_primitive(r)}
    return _emit(args, {"reduce": out}, "(%d,%d,%d) D=%d delta=%s primitive=%s"
                 % (r.a, r.b, r.c, r.D, _fmt(out["delta"]), _fmt(out["primitive"])))


def cmd_classgroup(args) -> int:
    cs = enumerate_class_set(args.D)
    lines = ["(%d,%d,%d) delta=%s" % (f.a, f.b, f.c, _fmt(delta_f(f)))
             for f in cs.reduced_forms]
    w = unit_count(cs.D)
    lines.append("h(-%d) = %d, w = %d" % (cs.D, cs.h, w))
    return _emit(args, {"D": cs.D, "h": cs.h, "w": w,
                        "forms": [f.triple() for f in cs.reduced_forms]},
                 "\n".join(lines))


def cmd_count(args) -> int:
    f = Form(args.a, args.b, args.c)
    if not is_primitive(f):  # checked before any count, for the density below
        raise ValueError("local density is defined for primitive forms")
    window = EllipseWindow.of(f, args.x)
    cc = count_congruence(window, args.ell)
    rep = local_density_report(window, args.ell, exact=cc.a_ell)
    counts = cc.counts
    lines = [f"{label} = {n}" for label, n in counts.items()]
    lines += ["M(%d) = %d, roots = %s" % (args.ell, len(cc.roots), list(cc.roots)),
              "main = %s  residual = %s  envelope = %s  ratio = %s"
              % (_fmt(rep.main), _fmt(rep.residual), _fmt(rep.envelope),
                 _fmt(rep.ratio))]
    return _emit(args, {"form": f.triple(), "x": args.x, "ell": args.ell,
                        "counts": counts, "local_density": asdict(rep)},
                 "\n".join(lines))


def _Li(x: float) -> float:
    from scipy.special import expi

    return float(expi(math.log(x)) - expi(math.log(2))) if x > 2 else 0.0


def cmd_pif(args) -> int:
    f = Form(args.a, args.b, args.c)
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
    return _emit(args, {"form": f.triple(), "x": args.x, "y": args.interval,
                        "count": count, "chebotarev_main": main},
                 "%s = %d  (Chebotarev main term %s)" % (label, count, _fmt(main)))


def cmd_sieve(args) -> int:
    f = Form(args.a, args.b, args.c)
    y = args.y if args.y is not None else args.x
    params = SieveParams.of(f, args.x, y, phi_mode=args.phi, epsilon=args.epsilon)
    rep = selberg_upper_bound(params)
    doc = {
        "form": f.triple(), "x": args.x, "y": y,
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
    tag = " [conditional: GRH for chi_{-D}]" if args.phi == 0 else ""
    lines = ["z = %s  J = %s  scriptJ = %s%s"
             % (_fmt(params.z), _fmt(rep.J), _fmt(rep.script_J), tag),
             "main = %s  remainder = %s  upper_bound = %s"
             % (_fmt(rep.main_term), _fmt(rep.remainder_majorized),
                _fmt(rep.upper_bound)),
             "sifted = %d  primes in interval = %d  rhs = %s"
             % (rep.sifted_count, rep.exact_interval_count, _fmt(rep.rhs_theorem)),
             "sieve bound valid: %s" % _fmt(rep.upper_bound >= rep.sifted_count)]
    _emit(args, doc, "\n".join(lines))
    if rep.degenerate_L_branch:
        print("anomaly: L(1,chi) < (log y)^-2, scriptJ took the (log y)^2 branch",
              file=sys.stderr)
    return EXIT_OK


def _record_row(r: SweepRecord) -> list[str]:
    return [_fmt(getattr(r, "pass_" if c == "pass" else c)) for c in CSV_COLUMNS]


def write_verify_csv(fh, records) -> None:
    """The `bqf verify` CSV: the header, then one `_record_row` line per record."""
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    writer.writerows(_record_row(r) for r in records)


def cmd_verify(args) -> int:
    cfg = SweepConfig(Q=args.Q, mode=args.mode, phi_mode=args.phi,
                      epsilon=args.epsilon, x_rule=args.x_rule, y_rule=args.y_rule,
                      x_max=args.xmax, k=args.k, seed=args.seed, sample=args.sample,
                      jobs=args.jobs, time_budget=args.time_budget)
    result = run_sweep(cfg)
    s = result.summary
    with open(args.out, "w") if args.out else contextlib.nullcontext(sys.stdout) as fh:
        if args.format == "json":
            doc = {"schema": SCHEMA,
                   "config": {"Q": cfg.Q, "mode": cfg.mode, "phi": cfg.phi_mode,
                              "epsilon": cfg.epsilon, "x_rule": cfg.x_rule,
                              "y_rule": cfg.y_rule, "x_max": cfg.x_max, "k": cfg.k,
                              "seed": cfg.seed},
                   "columns": CSV_COLUMNS,
                   "rows": [_record_row(r) for r in result.records],
                   "summary": asdict(s)}
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
    lines = ["family D <= %d: %d members" % (rep.Q, rep.total),
             "E-envelope violators: %d (fraction %s)"
             % (rep.violators_E, _fmt(rep.fraction_E)),
             "-L'/L violators: %d (fraction %s)"
             % (rep.violators_L, _fmt(rep.fraction_L))]
    return _emit(args, asdict(rep), "\n".join(lines))


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
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=("text", "json"), default="text")
    report = partial(sub.add_parser, parents=[fmt])  # a command printing via _emit

    p = report("reduce", help="reduce a form; print D, delta, primitivity")
    _add_form_args(p)
    p.set_defaults(func=cmd_reduce)

    p = report("classgroup", help="list the reduced primitive forms of -D")
    p.add_argument("D", type=int)
    p.set_defaults(func=cmd_classgroup)

    p = report("count", help="congruence counts and local density at x")
    _add_form_args(p)
    p.add_argument("x", type=_finite_float)
    p.add_argument("--ell", type=int, default=1)
    p.set_defaults(func=cmd_count)

    p = report("pif", help="primes up to x represented by the form")
    _add_form_args(p)
    p.add_argument("x", type=_finite_float)
    p.add_argument("--interval", type=_finite_float, default=None, metavar="Y")
    p.set_defaults(func=cmd_pif)

    p = report("sieve", help="run the Selberg upper-bound sieve once")
    _add_form_args(p)
    p.add_argument("x", type=_finite_float)
    p.add_argument("--y", type=_finite_float, default=None)
    p.add_argument("--phi", type=float, choices=(0.0, 0.25), default=0.25)
    p.add_argument("--epsilon", type=_finite_float, default=0.2)
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
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--sample", type=int, default=None)
    p.add_argument("--time-budget", type=float, default=None, dest="time_budget")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_verify)

    p = report("family", help="average exceptional-set report over D <= Q")
    p.add_argument("--Q", type=int, required=True)
    p.add_argument("--epsilon", type=_finite_float, default=0.1)
    p.add_argument("--xmax", type=float, default=1e7)
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=cmd_family)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:  # a RuleError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BrokenExecutor as exc:  # a pool worker died: BrokenProcessPool
        print(f"error: a worker process died: {exc}", file=sys.stderr)
        return EXIT_VERIFY_FAILED


if __name__ == "__main__":
    sys.exit(main())
