"""Command line front end.

Subcommands: constants, simulate, markov, parry, verify, entropy. Every
artifact is plain CSV or JSON with floats at 12 significant digits, and a
fixed config maps to byte-identical output. Exit codes: 0 success, 1
verification/runtime failure, 2 usage error.

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

import numpy as np

from . import kernels, markov, measures, verify
from .algebra import MIN_PRECISION, solve_beta, solve_lambda
from .dynamics import (CoinStream, PointState, orbit, orbit_to_csv,
                       return_time, step)
from .errors import PrecisionLimitError, ShrinkBetaError
from .gls import return_time_law
from .symbolic import mme_entropy

_LN2 = math.log(2.0)
# `entropy --samples` samples the chains of n up to this
_SAMPLED_N_MAX = 8


class UsageError(Exception):
    """Arguments that parse but do not fit together; exit code 2."""


def _fmt(x) -> str:
    return f"{float(x):.12g}"


def _jnum(x) -> float:
    """Round-trip a float through the 12-significant-digit print format so
    JSON and CSV artifacts carry identical values."""
    return float(_fmt(x))


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


def _dump_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _scale(value: float, log_base: str) -> float:
    return value / _LN2 if log_base == "2" else value


def cmd_constants(args) -> int:
    bits = args.precision
    ctx = solve_beta(args.n, bits)
    lam = solve_lambda(args.n, bits).lam
    if bits is None:
        inv_cd = markov._inv_cd_direct(lam, args.n)
        mu_center = lam ** args.n / inv_cd
    else:
        import mpmath
        with mpmath.workprec(bits):
            inv_cd = markov._inv_cd_direct(lam, args.n)
            mu_center = lam ** args.n / inv_cd
    h_k = math.log(float(lam))
    h_ind = float(markov.induced_parry_entropy(args.n, bits))
    h_max = mme_entropy(args.n)
    law = return_time_law(ctx)
    report = {
        "n": args.n,
        "beta": float(ctx.beta),
        "a": float(ctx.a),
        "b": float(ctx.b),
        "domain_max": float(ctx.domain_max),
        "lambda": float(lam),
        "cd": float(1 / inv_cd),
        "h_K": _scale(h_k, args.log_base),
        "h_I_max": _scale(h_max, args.log_base),
        "h_I_induced": _scale(h_ind, args.log_base),
        "margin": _scale(h_max - h_ind, args.log_base),
        "root_gap": float(lam) - float(ctx.beta),
        "mu_center": float(mu_center),
        "expected_tau": float(sum(t * w for t, w in law.items())),
    }
    if args.format == "json":
        _emit(_dump_json({k: _jnum(v) if isinstance(v, float) else v
                          for k, v in report.items()}), args.out)
    else:
        lines = ["quantity,value"]
        for k, v in report.items():
            lines.append(f"{k},{_fmt(v) if isinstance(v, float) else v}")
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def _orbit_simulate(args, ctx) -> str:
    state = PointState(CoinStream.seeded(args.seed), args.x0)
    rows = orbit(state, args.steps, ctx)
    text = orbit_to_csv(rows)
    if args.steps == 0:
        return text
    # return-time tally along the same trajectory
    taus = []
    cur = PointState(CoinStream.seeded(args.seed), args.x0)
    used = 0
    while used < args.steps:
        if not (ctx.a <= cur.x <= ctx.b):
            cur, _ = step(cur, ctx)
            used += 1
            continue
        res = return_time(cur, ctx)
        if used + res.t > args.steps:
            break
        taus.append(res.t)
        used += res.t
        cur = res.state
    law = return_time_law(ctx)
    lines = ["", "tau,count,freq,expected"]
    total = len(taus)
    for t in range(2, ctx.n + 1):
        count = taus.count(t)
        freq = count / total if total else 0.0
        lines.append(f"{t},{count},{_fmt(freq)},{_fmt(law[t])}")
    return text + "\n".join(lines) + "\n"


def _bulk_simulate(args, ctx) -> str:
    points = args.points
    steps = args.samples // points
    total = points * steps
    x0 = kernels.uniform_starts(args.seed, points, ctx.a, ctx.b)
    hist, _, tau1 = kernels.induced_stats(ctx, x0, steps, args.seed)
    law = return_time_law(ctx)
    rows = []
    max_z = 0.0
    for t in range(2, ctx.n + 1):
        count = int(hist[t])
        freq = count / total
        expected = law[t]
        sigma = math.sqrt(expected * (1 - expected) / total)
        z = (freq - expected) / sigma
        max_z = max(max_z, abs(z))
        rows.append({"tau": t, "count": count, "freq": _jnum(freq),
                     "expected": _jnum(expected), "z": _jnum(z)})
    if args.format == "json":
        report = {
            "n": ctx.n, "seed": args.seed, "points": points, "steps": steps,
            "samples": total, "backend": kernels.BACKEND,
            "tau1_count": tau1, "out_of_range_count": int(hist[0] + hist[1] + hist[ctx.n + 1]),
            "max_abs_z": _jnum(max_z), "histogram": rows,
        }
        return _dump_json(report)
    lines = ["tau,count,freq,expected,z"]
    for r in rows:
        lines.append(f"{r['tau']},{r['count']},{_fmt(r['freq'])},"
                     f"{_fmt(r['expected'])},{_fmt(r['z'])}")
    return "\n".join(lines) + "\n"


def cmd_simulate(args) -> int:
    if args.x0 is None and args.samples < args.points:
        raise UsageError(f"--samples must be >= --points ({args.points}) "
                         f"in bulk mode, got {args.samples}")
    ctx = solve_beta(args.n)
    if args.x0 is not None:
        _emit(_orbit_simulate(args, ctx), args.out)
    else:
        _emit(_bulk_simulate(args, ctx), args.out)
    return 0


def cmd_markov(args) -> int:
    report = markov.chain_to_json(args.n)
    for key in ("h_K", "h_I_induced", "h_I_max", "margin"):
        report[key] = _scale(report[key], args.log_base)
    if args.format == "json":
        def walk(x):
            if isinstance(x, float):
                return _jnum(x)
            if isinstance(x, list):
                return [walk(v) for v in x]
            if isinstance(x, dict):
                return {k: walk(v) for k, v in x.items()}
            return x
        _emit(_dump_json(walk(report)), args.out)
    else:
        lines = ["label,lo,hi,p"]
        for cell, p in zip(report["cells"], report["p"]):
            lines.append(f"{cell['label']},{_fmt(cell['lo'])},"
                         f"{_fmt(cell['hi'])},{_fmt(p)}")
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def _check_chain_samples(samples: int, n: int) -> None:
    """The entropy-rate estimate needs about 100 draws per state pair of
    the (2n-1)-state chain; 0 means no sampling."""
    need = 100 * (2 * n - 1) ** 2
    if samples != 0 and samples < need:
        raise UsageError(f"--samples must be 0 or >= {need} for n={n}, "
                         f"got {samples}")


def cmd_parry(args) -> int:
    _check_chain_samples(args.samples, args.n)
    chain = markov.build_chain(args.n)
    h = markov.entropy_rate(chain.p, chain.P_trans)
    report = {
        "n": args.n,
        "lambda": _jnum(chain.lam),
        "p": [_jnum(v) for v in chain.p],
        "P_trans": [[_jnum(v) for v in row] for row in chain.P_trans],
        "entropy_rate": _jnum(_scale(h, args.log_base)),
        "log_lambda": _jnum(_scale(math.log(chain.lam), args.log_base)),
    }
    if args.samples > 0:
        path = markov.sample_chain(chain, args.samples, args.seed)
        est = measures.entropy_rate_estimate(np.asarray(path), 2,
                                             alphabet_size=len(chain.p))
        report["empirical_rate"] = _jnum(_scale(est, args.log_base))
        report["empirical_deviation"] = _jnum(abs(_scale(est - h, args.log_base)))
    if args.format == "json":
        _emit(_dump_json(report), args.out)
    else:
        lines = ["state,label,p"]
        for i, (cell, p) in enumerate(zip(chain.cells, chain.p)):
            lines.append(f"{i},{cell.label},{_fmt(p)}")
        lines.append(f"entropy_rate,,{_fmt(report['entropy_rate'])}")
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_verify(args) -> int:
    kwargs = {"seed": args.seed}
    n_range = args.n or args.n_range
    if n_range is not None:
        lo, hi = n_range
        kwargs["n_values"] = tuple(range(lo, hi + 1))
    if args.corrupt_adjacency:
        kwargs["corrupt_adjacency"] = True
        if args.suite == "all":
            args.suite = "markov"
    rows = verify.run(args.suite, **kwargs)
    rows = sorted(rows, key=lambda r: (r.n, r.check, r.params))
    ok = all(r.passed for r in rows)
    if args.format == "json":
        report = {
            "suite": args.suite,
            "pass": ok,
            "checks": len(rows),
            "failures": sum(1 for r in rows if not r.passed),
            "rows": [
                {k: (_jnum(v) if isinstance(v, float) else v)
                 for k, v in r.as_json().items()}
                for r in rows
            ],
        }
        _emit(_dump_json(report), args.out)
    else:
        # params strings may contain commas, so quote per the csv module
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["check", "n", "params", "lhs", "rhs", "deviation",
                         "pass"])
        for r in rows:
            writer.writerow([r.check, r.n, r.params, _fmt(r.lhs),
                             _fmt(r.rhs), _fmt(r.deviation), int(r.passed)])
        _emit(buf.getvalue(), args.out)
    return 0 if ok else 1


def cmd_entropy(args) -> int:
    lo, hi = args.n_range or (3, args.n or 30)
    if lo <= _SAMPLED_N_MAX:
        _check_chain_samples(args.samples, min(hi, _SAMPLED_N_MAX))
    if args.precision is None:
        rows = markov.check_inequality(hi)
    else:
        rows = markov.check_inequality(hi, extended_threshold=0,
                                       bits=args.precision)
    rows = [r for r in rows if r.n >= lo]
    out_rows = []
    for r in rows:
        entry = {
            "n": r.n, "lambda": _jnum(r.lam),
            "h_max": _jnum(_scale(r.h_max, args.log_base)),
            "h_induced": _jnum(_scale(r.h_induced, args.log_base)),
            "margin": _jnum(_scale(r.margin, args.log_base)),
        }
        if args.samples > 0 and r.n <= _SAMPLED_N_MAX:
            chain = markov.build_chain(r.n)
            path = markov.sample_chain(chain, args.samples, args.seed)
            est = measures.entropy_rate_estimate(np.asarray(path), 2,
                                                 alphabet_size=len(chain.p))
            entry["empirical_rate"] = _jnum(_scale(est, args.log_base))
        out_rows.append(entry)
    if args.format == "json":
        _emit(_dump_json({"rows": out_rows}), args.out)
    else:
        cols = ["n", "lambda", "h_max", "h_induced", "margin"]
        if any("empirical_rate" in e for e in out_rows):
            cols.append("empirical_rate")
        lines = [",".join(cols)]
        for entry in out_rows:
            cells = []
            for c in cols:
                if c not in entry:
                    cells.append("")
                elif c == "n":
                    cells.append(str(entry[c]))
                else:
                    cells.append(_fmt(entry[c]))
            lines.append(",".join(cells))
        _emit("\n".join(lines) + "\n", args.out)
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shrinkbeta",
        description="Coin-driven beta-expansions with a shrinking switch "
                    "region: constants, simulation, Markov chains, "
                    "measures and verification suites.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, n_default=3):
        p.add_argument("--n", type=_int_ge3, default=n_default)
        p.add_argument("--seed", type=int, default=1)
        p.add_argument("--format", choices=("csv", "json"), default="json")
        p.add_argument("--log-base", choices=("e", "2"), default="e",
                       dest="log_base")
        p.add_argument("--out", default=None)

    p = sub.add_parser("constants", help="derived constants for one n")
    common(p)
    p.add_argument("--precision", type=_precision, default="double",
                   help="'double' or an mpmath significand width in bits "
                        f"(>= {MIN_PRECISION})")
    p.set_defaults(fn=cmd_constants)

    p = sub.add_parser("simulate", help="orbit CSV or bulk return-time law")
    common(p)
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
    common(p)
    p.set_defaults(fn=cmd_markov)

    p = sub.add_parser("parry", help="maximal-entropy chain and its entropy")
    common(p)
    p.add_argument("--samples", type=int, default=0,
                   help="if not 0, sample a path of at least 100*(2n-1)^2 "
                        "states and report an empirical rate")
    p.set_defaults(fn=cmd_parry)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", choices=("gls", "symbolic", "markov",
                                       "measures", "all"), default="all")
    p.add_argument("--n", type=_n_range, default=None,
                   help="single n or range A..B for the suite")
    p.add_argument("--n-range", type=_n_range, dest="n_range", default=None,
                   help="range A..B (same as --n A..B)")
    p.add_argument("--seed", type=int, default=verify._DEFAULT_SEED)
    p.add_argument("--format", choices=("csv", "json"), default="json")
    p.add_argument("--out", default=None)
    p.add_argument("--corrupt-adjacency", action="store_true",
                   dest="corrupt_adjacency", help=argparse.SUPPRESS)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("entropy", help="entropy-margin table over a range")
    p.add_argument("--n", type=_int_ge3, default=None)
    p.add_argument("--n-range", type=_n_range, dest="n_range", default=None)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--samples", type=int, default=0,
                   help="if not 0, add empirical rates for n <= "
                        f"{_SAMPLED_N_MAX} (at least 100*(2n-1)^2 states)")
    p.add_argument("--precision", type=_precision, default="double")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--log-base", choices=("e", "2"), default="e",
                   dest="log_base")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_entropy)

    return parser


_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (UsageError, PrecisionLimitError) as exc:
        parser.error(f"{args.command}: {exc}")
    except ShrinkBetaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
