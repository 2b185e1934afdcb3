"""Command line front end.

Subcommands: constants, simulate, markov, parry, verify, entropy. Every
artifact is plain CSV or JSON with floats at 12 significant digits, and a
fixed config maps to byte-identical output. Each command builds its report
from raw values and hands it to `_write`, the one writer: it renders the
report as JSON, or a header and rows as CSV, per `--format`, to `--out` or
stdout. An orbit `simulate` is always CSV. Options that several subcommands
share live in one table, `_SHARED`; each subcommand names the ones it
reads. Exit codes: 0 success, 1 verification/runtime failure, 2 usage
error.

`main(argv)` can be called repeatedly in one process: it builds its parser
on the first call and reuses it, since each parse keeps its state in the
namespace it returns. `build_parser()` returns a new parser on every call.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys

from . import kernels, markov, measures, verify
from .algebra import MIN_PRECISION, arithmetic, solve_beta
from .dynamics import CoinStream, OrbitRow, PointState, orbit
from .errors import (InvariantViolationError, PrecisionLimitError,
                     ShrinkBetaError)
from .gls import expected_return_time, return_time_law
from .symbolic import mme_entropy

_LN2 = math.log(2.0)
# `entropy --samples` samples the chains of n up to this
_SAMPLED_N_MAX = 8


class UsageError(Exception):
    """Arguments that parse but do not fit together; exit code 2."""


def _fmt(x) -> str:
    return f"{float(x):.12g}"


def _jnum(x):
    """Round-trip every float in x, through lists, tuples and dicts, via
    the 12-significant-digit print format, so JSON and CSV artifacts carry
    identical values."""
    if isinstance(x, float):
        return float(_fmt(x))
    if isinstance(x, (list, tuple)):
        return [_jnum(v) for v in x]
    if isinstance(x, dict):
        return {k: _jnum(v) for k, v in x.items()}
    return x


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        try:
            with open(out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise UsageError(f"cannot write --out {out!r}: "
                             f"{exc.strerror}") from None


def _csv(header, rows) -> str:
    """CSV text: floats at 12 significant digits, other values as str,
    fields quoted only where the csv module needs it."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([_fmt(v) if isinstance(v, float) else str(v)
                      for v in row] for row in rows)
    return buf.getvalue()


def _write(args, report, header, rows) -> None:
    """Write `report` as JSON, or `header` and `rows` as CSV, per --format,
    to --out or stdout."""
    if args.format == "json":
        text = json.dumps(_jnum(report), indent=2, sort_keys=True) + "\n"
    else:
        text = _csv(header, rows)
    _emit(text, args.out)


def _scale(value: float, log_base: str) -> float:
    return value / _LN2 if log_base == "2" else value


def cmd_constants(args) -> int:
    bits = args.precision
    if bits is not None:
        # lambda_n's extended limit lies below beta_n's: it names the
        # refusal and the precision that takes both roots
        markov.parry_center(args.n, bits)
    ctx = solve_beta(args.n, bits)
    center = markov.parry_center(args.n, bits)
    with arithmetic(bits):
        expected_tau = expected_return_time(return_time_law(ctx))
    lam = float(center.lam)
    report = {
        "n": args.n,
        "beta": float(ctx.beta),
        "a": float(ctx.a),
        "b": float(ctx.b),
        "domain_max": float(ctx.domain_max),
        "lambda": lam,
        "cd": float(1 / center.inv_cd),
        "h_K": _scale(math.log(lam), args.log_base),
        "h_I_max": _scale(mme_entropy(args.n), args.log_base),
        "h_I_induced": _scale(float(center.h_induced), args.log_base),
        "margin": _scale(float(center.margin), args.log_base),
        "root_gap": lam - float(ctx.beta),
        "mu_center": float(center.mu_center),
        "expected_tau": float(expected_tau),
    }
    _write(args, report, ["quantity", "value"], report.items())
    return 0


def _orbit_simulate(args, ctx) -> str:
    state = PointState(CoinStream.seeded(args.seed), args.x0)
    rows = orbit(state, args.steps, ctx)
    text = _csv(OrbitRow._fields, rows)
    if args.steps == 0:
        return text
    # return-time tally: gaps between the steps k = 0..steps whose point
    # x_k lies in [a, b]
    xs = [args.x0] + [r.x for r in rows]
    visits = [k for k, x in enumerate(xs) if ctx.a <= x <= ctx.b]
    taus = [k1 - k0 for k0, k1 in zip(visits, visits[1:])]
    if taus and max(taus) > ctx.n + 1:
        raise InvariantViolationError(
            f"return time exceeded n+1 = {ctx.n + 1} in the orbit of "
            f"x={args.x0!r}")
    law = return_time_law(ctx)
    total = max(len(taus), 1)
    tally = [(t, taus.count(t), taus.count(t) / total, law[t])
             for t in range(2, ctx.n + 1)]
    return text + "\n" + _csv(["tau", "count", "freq", "expected"], tally)


def _bulk_simulate(args, ctx) -> None:
    points = args.points
    steps = args.samples // points
    total = points * steps
    x0 = kernels.uniform_starts(args.seed, points, ctx.a, ctx.b)
    hist, _ = kernels.induced_stats(ctx, x0, steps, args.seed)
    law = return_time_law(ctx)
    rows = []
    for t in range(2, ctx.n + 1):
        count = int(hist[t])
        freq = count / total
        expected = law[t]
        sigma = math.sqrt(expected * (1 - expected) / total)
        rows.append((t, count, freq, expected, (freq - expected) / sigma))
    header = ("tau", "count", "freq", "expected", "z")
    report = {
        "n": ctx.n, "seed": args.seed, "points": points, "steps": steps,
        "samples": total, "backend": kernels.BACKEND,
        "tau1_count": int(hist[1]),
        "out_of_range_count": int(hist[0] + hist[1] + hist[ctx.n + 1]),
        "max_abs_z": max(abs(r[-1]) for r in rows),
        "histogram": [dict(zip(header, r)) for r in rows],
    }
    _write(args, report, header, rows)


def cmd_simulate(args) -> int:
    if args.x0 is None and args.samples < args.points:
        raise UsageError(f"--samples must be >= --points ({args.points}) "
                         f"in bulk mode, got {args.samples}")
    ctx = solve_beta(args.n)
    if args.x0 is not None:
        _emit(_orbit_simulate(args, ctx), args.out)
    else:
        _bulk_simulate(args, ctx)
    return 0


def cmd_markov(args) -> int:
    chain = markov.parry_chain(args.n)
    center = markov.parry_center(args.n)
    report = {
        "n": args.n, "lambda": chain.lam,
        "cells": [cell._asdict() for cell in chain.cells],
        "adjacency": chain.adjacency.tolist(),
        "u": chain.u.tolist(), "v": chain.v.tolist(),
        "cd": float(1 / center.inv_cd),
        "p": chain.p.tolist(), "P_trans": chain.P_trans.tolist(),
        "h_K": _scale(math.log(chain.lam), args.log_base),
        "h_I_induced": _scale(center.h_induced, args.log_base),
        "h_I_max": _scale(mme_entropy(args.n), args.log_base),
        "margin": _scale(center.margin, args.log_base),
    }
    _write(args, report, ["label", "lo", "hi", "p"],
           ((cell.label, cell.lo, cell.hi, p)
            for cell, p in zip(chain.cells, report["p"])))
    return 0


def _check_chain_samples(samples: int, n: int) -> None:
    """The entropy-rate estimate needs about 100 draws per state pair of
    the (2n-1)-state chain; 0 means no sampling."""
    need = 100 * (2 * n - 1) ** 2
    if samples != 0 and samples < need:
        raise UsageError(f"--samples must be 0 or >= {need} for n={n}, "
                         f"got {samples}")


def _sampled_rate(chain, samples: int, seed: int) -> float:
    """Entropy-rate estimate from a seeded sample path of the chain."""
    path = markov.sample_chain(chain, samples, seed)
    return measures.entropy_rate_estimate(path, 2, alphabet_size=len(chain.p))


def cmd_parry(args) -> int:
    _check_chain_samples(args.samples, args.n)
    chain = markov.parry_chain(args.n)
    h = markov.entropy_rate(chain.p, chain.P_trans)
    report = {
        "n": args.n,
        "lambda": chain.lam,
        "p": chain.p.tolist(),
        "P_trans": chain.P_trans.tolist(),
        "entropy_rate": _scale(h, args.log_base),
        "log_lambda": _scale(math.log(chain.lam), args.log_base),
    }
    if args.samples > 0:
        est = _sampled_rate(chain, args.samples, args.seed)
        report["empirical_rate"] = _scale(est, args.log_base)
        report["empirical_deviation"] = abs(_scale(est - h, args.log_base))
    rows = [(i, cell.label, p)
            for i, (cell, p) in enumerate(zip(chain.cells, chain.p))]
    rows.append(("entropy_rate", "", report["entropy_rate"]))
    _write(args, report, ["state", "label", "p"], rows)
    return 0


def cmd_verify(args) -> int:
    kwargs = {"seed": args.seed}
    if args.n is not None:
        lo, hi = args.n
        kwargs["n_values"] = tuple(range(lo, hi + 1))
    rows = verify.run(args.suite, **kwargs)
    rows = sorted(rows, key=lambda r: (r.n, r.check, r.params))
    ok = all(r.passed for r in rows)
    report = {
        "suite": args.suite,
        "pass": ok,
        "checks": len(rows),
        "failures": sum(1 for r in rows if not r.passed),
        "rows": [r.as_json() for r in rows],
    }
    # params strings may contain commas; _csv quotes them
    _write(args, report,
           ["check", "n", "params", "lhs", "rhs", "deviation", "pass"],
           ((r.check, r.n, r.params, r.lhs, r.rhs, r.deviation,
             int(r.passed)) for r in rows))
    return 0 if ok else 1


def cmd_entropy(args) -> int:
    lo, hi = args.n_range or (3, args.n or 30)
    if lo <= _SAMPLED_N_MAX:
        _check_chain_samples(args.samples, min(hi, _SAMPLED_N_MAX))
    rows = [r for r in markov.check_inequality(hi, args.precision)
            if r.n >= lo]
    out_rows = []
    for r in rows:
        entry = {
            "n": r.n, "lambda": r.lam,
            "h_max": _scale(r.h_max, args.log_base),
            "h_induced": _scale(r.h_induced, args.log_base),
            "margin": _scale(r.margin, args.log_base),
        }
        if args.samples > 0 and r.n <= _SAMPLED_N_MAX:
            est = _sampled_rate(markov.parry_chain(r.n), args.samples,
                                args.seed)
            entry["empirical_rate"] = _scale(est, args.log_base)
        out_rows.append(entry)
    cols = ["n", "lambda", "h_max", "h_induced", "margin"]
    if any("empirical_rate" in e for e in out_rows):
        cols.append("empirical_rate")
    _write(args, {"rows": out_rows}, cols,
           ([e.get(c, "") for c in cols] for e in out_rows))
    return 0


def _at_least(minimum: int):
    """argparse type: an integer >= minimum."""
    def count(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(
                f"must be >= {minimum}, got {value}")
        return value
    return count


_int_ge3 = _at_least(3)


def _precision(text: str):
    """'double' as None, else an mpmath significand width in bits."""
    if text == "double":
        return None
    bits = int(text)
    if bits < MIN_PRECISION:
        raise argparse.ArgumentTypeError(
            f"precision must be 'double' or >= {MIN_PRECISION} bits, "
            f"got {bits}")
    return bits


def _n_range(text: str):
    """'A..B' or a single 'A' as (lo, hi), with 3 <= lo <= hi."""
    lo, sep, hi = text.partition("..")
    lo = _int_ge3(lo)
    hi = _int_ge3(hi) if sep else lo
    if lo > hi:
        raise argparse.ArgumentTypeError(f"empty range {text!r}")
    return lo, hi


# the options that several subcommands share, as add_argument keywords
_SHARED = {
    "--n": {"type": _int_ge3, "default": 3},
    "--seed": {"type": int, "default": 1},
    "--precision": {"type": _precision, "default": "double",
                    "help": "'double' or an mpmath significand width in "
                            f"bits (>= {MIN_PRECISION})"},
    "--format": {"choices": ("csv", "json"), "default": "json"},
    "--log-base": {"choices": ("e", "2"), "default": "e"},
    "--out": {"default": None},
}


def _add_shared(parser, names, **changes) -> None:
    """Add the shared options `names` to parser (or an argument group),
    each with the table's keywords updated by changes[dest]."""
    for name in names:
        dest = name[2:].replace("-", "_")
        parser.add_argument(name, **{**_SHARED[name], **changes.get(dest, {})})


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shrinkbeta",
        description="Coin-driven beta-expansions with a shrinking switch "
                    "region: constants, simulation, Markov chains, "
                    "measures and verification suites.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("constants", help="derived constants for one n")
    _add_shared(p, ("--n", "--precision", "--format", "--log-base", "--out"))
    p.set_defaults(fn=cmd_constants)

    p = sub.add_parser("simulate", help="orbit CSV or bulk return-time law")
    _add_shared(p, ("--n", "--seed", "--format", "--out"),
                format={"help": "bulk mode's format; an orbit (--x0) is "
                                "always CSV"})
    p.add_argument("--x0", type=float, default=None,
                   help="start point: emit one orbit instead of bulk stats")
    p.add_argument("--steps", type=_at_least(0), default=32,
                   help="orbit steps when --x0 is given")
    p.add_argument("--samples", type=_at_least(1), default=100000,
                   help="total induced steps in bulk mode, at least "
                        "--points; rounded down to a multiple of --points")
    p.add_argument("--points", type=_at_least(1), default=1024,
                   help="number of parallel start points in bulk mode")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("markov", help="cells, adjacency, eigendata, chain")
    _add_shared(p, ("--n", "--format", "--log-base", "--out"))
    p.set_defaults(fn=cmd_markov)

    p = sub.add_parser("parry", help="maximal-entropy chain and its entropy")
    _add_shared(p, ("--n", "--seed", "--format", "--log-base", "--out"))
    p.add_argument("--samples", type=int, default=0,
                   help="if not 0, sample a path of at least 100*(2n-1)^2 "
                        "states and report an empirical rate")
    p.set_defaults(fn=cmd_parry)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", choices=("gls", "symbolic", "markov",
                                       "measures", "all"), default="all")
    p.add_argument("--n", type=_n_range, default=None,
                   help="single n or range A..B for the suite")
    _add_shared(p, ("--seed", "--format", "--out"),
                seed={"default": verify._DEFAULT_SEED})
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("entropy", help="entropy-margin table over a range")
    n_args = p.add_mutually_exclusive_group()
    _add_shared(n_args, ("--n",), n={"default": None})
    n_args.add_argument("--n-range", type=_n_range, default=None)
    _add_shared(p, ("--seed", "--precision", "--format", "--log-base",
                    "--out"), format={"default": "csv"})
    p.add_argument("--samples", type=_at_least(0), default=0,
                   help="if not 0, add empirical rates for n <= "
                        f"{_SAMPLED_N_MAX} (at least 100*(2n-1)^2 states)")
    p.set_defaults(fn=cmd_entropy)

    return parser


_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except UsageError as exc:
        parser.error(f"{args.command}: {exc}")
    except PrecisionLimitError as exc:
        # the roots' refusal names the supported n, then after a ';' their
        # precision parameter, which only commands with --precision can set
        message = str(exc) if "precision" in args else str(exc).split(";")[0]
        parser.error(f"{args.command}: {message}")
    except ShrinkBetaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
