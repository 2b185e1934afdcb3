"""Output checks for one CLI operation, valid at any seed.

`check(argv, text)` returns (problem, work): `problem` is None when the
output is right, else a one-line reason; `work` holds the units the
end-to-end throughputs divide by, read from the output itself.
"""

from __future__ import annotations

import csv
import io
import json

# Bulk `simulate`: each return-time frequency is compared with beta^-t by a
# binomial z-score. Only rows expected to hold at least MIN_EXPECTED returns
# are judged: in rows with fewer the normal approximation fails (at n = 24,
# t = 24 a small run expects 0.3 returns, so 4 of them read as z = 6.6).
# From 10 expected returns on, |z| >= 6 has a Poisson probability of at
# most about 8e-7 per row.
MAX_ABS_Z = 6.0
MIN_EXPECTED = 10
# `parry --samples m`: |empirical - exact| entropy rate in nats. With
# m >= 100 (2n-1)^2 draws the largest deviation over seeds 1..40 and every
# workload's sizes was 0.0014 (n = 3, m = 2500).
MAX_ENTROPY_DEVIATION = 0.01


def _verify(argv, text):
    report = json.loads(text)
    if report["pass"] is not True or report["failures"] != 0:
        failed = [r["check"] for r in report["rows"] if not r["pass"]]
        return f"verify failed rows: {failed[:5]}", {}
    if report["checks"] != len(report["rows"]) or not report["rows"]:
        return "verify row count does not match its rows", {}
    return None, {"rows": report["checks"]}


def _bulk_simulate(argv, text):
    report = json.loads(text)
    counts = sum(row["count"] for row in report["histogram"])
    if report["out_of_range_count"] != 0:
        return f"out_of_range_count = {report['out_of_range_count']}", {}
    if counts != report["samples"]:
        return f"counts sum to {counts}, samples = {report['samples']}", {}
    for row in report["histogram"]:
        if (report["samples"] * row["expected"] >= MIN_EXPECTED
                and not abs(row["z"]) < MAX_ABS_Z):
            return (f"tau = {row['tau']}: |z| = {abs(row['z'])} "
                    f">= {MAX_ABS_Z}"), {}
    return None, {"induced_steps": report["samples"]}


def _orbit(argv, text):
    steps = int(argv[argv.index("--steps") + 1])
    orbit_part, _, tally = text.partition("\n\n")
    rows = list(csv.DictReader(io.StringIO(orbit_part)))
    if len(rows) != steps or [int(r["step"]) for r in rows] != list(
            range(1, steps + 1)):
        return f"orbit has {len(rows)} rows, expected {steps}", {}
    if not tally.startswith("tau,count,freq,expected"):
        return "orbit output lacks the return-time tally", {}
    return None, {}


def _parry(argv, text):
    deviation = json.loads(text)["empirical_deviation"]
    if not deviation < MAX_ENTROPY_DEVIATION:
        return f"empirical_deviation = {deviation}", {}
    return None, {"chain_steps": int(argv[argv.index("--samples") + 1])}


def _constants(argv, text):
    report = json.loads(text)
    if not report["margin"] > 0:
        return f"entropy margin {report['margin']} is not positive", {}
    return None, {}


def _markov(argv, text):
    report = json.loads(text)
    if abs(sum(report["p"]) - 1) > 1e-9:
        return "Parry measure does not sum to 1", {}
    return None, {}


def _entropy(argv, text):
    rows = list(csv.DictReader(io.StringIO(text)))
    if not rows or not all(float(r["margin"]) > 0 for r in rows):
        return "entropy table empty or has a non-positive margin", {}
    return None, {}


def check(argv, text):
    """Judge one operation's stdout; see the module docstring."""
    command = argv[0]
    if command == "simulate":
        fn = _orbit if "--x0" in argv else _bulk_simulate
    else:
        fn = {"verify": _verify, "parry": _parry, "constants": _constants,
              "markov": _markov, "entropy": _entropy}[command]
    try:
        return fn(argv, text)
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable output: {exc!r}", {}
