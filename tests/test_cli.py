"""CLI surface: artifacts, exit codes, determinism."""

import argparse
import csv
import dataclasses
import hashlib
import io
import json
import math
import shlex
from pathlib import Path

import pytest

from shrinkbeta import cli, kernels, markov, verify
from shrinkbeta.algebra import solve_beta
from shrinkbeta.cli import build_parser, main
from shrinkbeta.errors import PrecisionLimitError

LOG4 = math.log(4.0)


def _run(capsys, argv):
    rc = main(argv)
    out = capsys.readouterr().out
    return rc, out


def test_constants_json_frozen(capsys):
    rc, out = _run(capsys, ["constants", "--n", "3"])
    assert rc == 0
    rep = json.loads(out)
    want = {
        "n": 3,
        "beta": 1.324717957244746,
        "a": 1.3247179572447456,
        "b": 1.7548776662466923,
        "domain_max": 3.0795956234914383,
        "lambda": 1.7692923542386314,
        "cd": 0.07646914772729807,
        "h_K": 0.570579666779284,
        "h_I_max": LOG4,
        "h_I_induced": 1.3471974089195764,
        "margin": 0.03909695220031417,
        "root_gap": 0.4445743969938854,
        "mu_center": 0.42353085227270193,
        "expected_tau": 2.4301597090019467,
    }
    assert set(rep) == set(want)
    assert rep["n"] == 3
    for key, value in want.items():
        if key == "n":
            continue
        # artifacts round floats to 12 significant digits
        assert rep[key] == pytest.approx(value, rel=1e-11), f"key {key}"


def test_constants_log_base_two(capsys):
    _, out_e = _run(capsys, ["constants", "--n", "4"])
    _, out_2 = _run(capsys, ["constants", "--n", "4", "--log-base", "2"])
    rep_e, rep_2 = json.loads(out_e), json.loads(out_2)
    for key in ("h_K", "h_I_max", "h_I_induced", "margin"):
        assert rep_2[key] == pytest.approx(rep_e[key] / math.log(2.0),
                                           rel=1e-11)
    assert rep_2["beta"] == rep_e["beta"]  # not an entropy, not rescaled


def test_constants_csv_matches_json(capsys):
    _, out_json = _run(capsys, ["constants", "--n", "5"])
    _, out_csv = _run(capsys, ["constants", "--n", "5", "--format", "csv"])
    rep = json.loads(out_json)
    lines = out_csv.strip().splitlines()
    assert lines[0] == "quantity,value"
    table = dict(line.split(",") for line in lines[1:])
    assert set(table) == set(rep)
    for key, text in table.items():
        assert float(text) == pytest.approx(rep[key], rel=1e-11), f"key {key}"


def test_n_below_three_is_usage_error():
    # also non-integers and empty ranges wherever an n range is read
    for argv in (["constants", "--n", "2"],
                 ["verify", "--n", "abc"],
                 ["verify", "--n", "2..3"],
                 ["verify", "--n", "4..3"],
                 ["entropy", "--n-range", "5..3"],
                 ["entropy", "--n-range", "1..4"]):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2, argv


@pytest.mark.parametrize("argv,message", [
    (["constants", "--precision", "50"], ">= 100 bits, got 50"),
    (["constants", "--precision", "abc"], "invalid _precision value"),
    (["entropy", "--precision", "64", "--n", "5"], ">= 100 bits, got 64"),
    (["simulate", "--points", "0"], "must be >= 1, got 0"),
    (["simulate", "--samples", "0"], "must be >= 1, got 0"),
    (["simulate", "--x0", "1.4", "--steps", "-1"], "must be >= 0, got -1"),
    (["parry", "--n", "3", "--samples", "2499"], ">= 2500 for n=3"),
    (["parry", "--n", "3", "--samples", "-1"], ">= 2500 for n=3"),
    (["entropy", "--n", "4", "--samples", "4899"], ">= 4900 for n=4"),
    (["entropy", "--n", "4", "--samples", "-5"],
     "argument --samples: must be >= 0, got -5"),
    (["entropy", "--n-range", "10..12", "--samples", "-5"],
     "argument --samples: must be >= 0, got -5"),
    (["simulate", "--n", "3", "--samples", "10"],
     "--samples must be >= --points (1024) in bulk mode, got 10"),
    (["simulate", "--samples", "63", "--points", "64"],
     "--samples must be >= --points (64)"),
    (["constants", "--n", "54"], "lambda_n in doubles supports n <= 53"),
    (["markov", "--n", "60"], "lambda_n in doubles supports n <= 53"),
    (["simulate", "--n", "78", "--samples", "2000"],
     "beta_n in doubles supports n <= 77"),
    (["constants", "--seed", "2"], "unrecognized arguments: --seed 2"),
    (["markov", "--seed", "2"], "unrecognized arguments: --seed 2"),
    (["simulate", "--log-base", "2"],
     "unrecognized arguments: --log-base 2"),
    (["verify", "--suite", "gls", "--n-range", "3..4"],
     "unrecognized arguments: --n-range 3..4"),
    (["verify", "--suite", "markov", "--corrupt-adjacency"],
     "unrecognized arguments: --corrupt-adjacency"),
    (["entropy", "--n", "5", "--n-range", "3..4"],
     "argument --n-range: not allowed with argument --n"),
    (["constants", "--n", "3", "--out", "no-such-dir/x.json"],
     "constants: cannot write --out 'no-such-dir/x.json': No such file"),
    (["simulate", "--n", "3", "--x0", "0.5", "--steps", "3", "--out", "."],
     "simulate: cannot write --out '.': Is a directory"),
    (["markov", "--n", "3", "--out", "no-such-dir/m.csv"],
     "markov: cannot write --out 'no-such-dir/m.csv': No such file"),
    (["parry", "--n", "3", "--out", "."],
     "parry: cannot write --out '.': Is a directory"),
    (["verify", "--suite", "gls", "--n", "3", "--out", "."],
     "verify: cannot write --out '.': Is a directory"),
    (["entropy", "--n", "3", "--out", "no-such-dir/e.csv"],
     "entropy: cannot write --out 'no-such-dir/e.csv': No such file"),
], ids=["precision-50", "precision-abc", "entropy-precision-64", "points-0",
        "samples-0", "steps-negative", "parry-samples-2499",
        "parry-samples-negative", "entropy-samples-4899",
        "entropy-samples-negative", "entropy-samples-negative-above-8",
        "samples-below-default-points", "samples-below-points",
        "constants-n-54", "markov-n-60", "simulate-n-78",
        "constants-seed", "markov-seed", "simulate-log-base",
        "verify-n-range", "verify-corrupt-adjacency",
        "entropy-n-and-n-range", "constants-out-missing-dir",
        "simulate-out-dir", "markov-out-missing-dir", "parry-out-dir",
        "verify-out-dir", "entropy-out-missing-dir"])
def test_bad_precision_or_size_is_usage_error(argv, message, capsys):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    err_text = capsys.readouterr().err
    assert message in err_text
    assert "Traceback" not in err_text


@pytest.mark.parametrize("argv,message", [
    (["simulate", "--n", "78"],
     "simulate: beta_n in doubles supports n <= 77, got n=78"),
    (["markov", "--n", "54"],
     "markov: lambda_n in doubles supports n <= 53, got n=54"),
    (["parry", "--n", "54"],
     "parry: lambda_n in doubles supports n <= 53, got n=54"),
    (["verify", "--suite", "gls", "--n", "78"],
     "verify: the gls suite in doubles supports n <= 21, got n=78"),
    (["constants", "--n", "78"],
     "constants: beta_n in doubles supports n <= 77, got n=78; pass "
     "precision (>= 100 bits) for larger n"),
], ids=["simulate", "markov", "parry", "verify", "constants"])
def test_double_limit_names_only_options_the_command_has(argv, message,
                                                         capsys):
    # only constants and entropy take --precision
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    assert capsys.readouterr().err.endswith(f"error: {message}\n")


@pytest.mark.parametrize("suite,n,limit", [
    ("gls", 22, 21), ("symbolic", 19, 18), ("markov", 28, 27),
    ("markov", 32, 27), ("markov", 54, 27), ("measures", 25, 24),
    ("measures", 40, 24),
])
def test_verify_refuses_n_beyond_its_double_limit(suite, n, limit, capsys):
    with pytest.raises(SystemExit) as err:
        main(["verify", "--suite", suite, "--n", str(n)])
    assert err.value.code == 2
    err_text = capsys.readouterr().err
    assert err_text.endswith(f"error: verify: the {suite} suite in doubles "
                             f"supports n <= {limit}, got n={n}\n")


@pytest.mark.parametrize("suite,n", [("gls", 21), ("symbolic", 18),
                                     ("markov", 27)])
def test_verify_runs_at_its_double_limit(suite, n, capsys):
    rc, out = _run(capsys, ["verify", "--suite", suite, "--n", str(n)])
    assert rc == 0
    assert json.loads(out)["pass"] is True


def test_verify_measures_reports_rows_at_its_double_limit(capsys):
    # the measures suite's failures below its limit are rows, not refusals
    rc, out = _run(capsys, ["verify", "--suite", "measures", "--n", "24"])
    report = json.loads(out)
    assert report["checks"] == len(report["rows"]) > 0
    assert {row["n"] for row in report["rows"]} == {24}
    assert rc == (0 if report["pass"] else 1)


def test_verify_refuses_before_any_row_runs(monkeypatch):
    ran = []
    for name in verify.SUITES:
        monkeypatch.setitem(verify.SUITES, name,
                            lambda name=name, **kwargs: ran.append(name) or [])
    # gls comes first in `all` and resolves n = 20; symbolic does not
    with pytest.raises(PrecisionLimitError,
                       match="the symbolic suite in doubles supports "
                             "n <= 18, got n=20"):
        verify.run("all", n_values=(3, 20))
    assert ran == []


def test_chain_sample_minimum_is_inclusive(capsys):
    # 100*(2n-1)^2 draws: the smallest sample the entropy estimate takes
    assert main(["parry", "--n", "3", "--samples", "2500"]) == 0
    assert "empirical_rate" in json.loads(capsys.readouterr().out)
    assert main(["entropy", "--n", "4", "--samples", "4900"]) == 0


def test_bulk_samples_equal_to_points_runs(capsys):
    # one induced step per point: the smallest bulk run accepted
    rc, out = _run(capsys, ["simulate", "--samples", "64", "--points", "64"])
    assert rc == 0
    assert json.loads(out)["samples"] == 64


def test_n_beyond_doubles_runs_with_precision(capsys):
    assert main(["constants", "--n", "53"]) == 0
    assert json.loads(capsys.readouterr().out)["n"] == 53
    # above both double limits (53 for lambda_n, 77 for beta_n)
    rc, out = _run(capsys, ["constants", "--n", "78", "--precision", "150"])
    assert rc == 0
    rep = json.loads(out)
    assert rep["margin"] > 0 and 3 < rep["expected_tau"] < 4


@pytest.mark.parametrize("bits", [100, 150, 200])
def test_precision_too_narrow_for_lambda_is_usage_error(bits, capsys):
    # lambda_n rounds below 2 at the root's working width, bits + 20, only
    # while n <= bits + 20 (algebra._LAMBDA_DOUBLE_N_MAX's derivation)
    rc, out = _run(capsys, ["constants", "--n", str(bits + 20),
                            "--precision", str(bits)])
    assert rc == 0
    assert json.loads(out)["margin"] > 0
    n = bits + 21
    for argv in (["constants", "--n", str(n)],
                 ["entropy", "--n-range", f"{n - 1}..{n}"]):
        with pytest.raises(SystemExit) as err:
            main(argv + ["--precision", str(bits)])
        assert err.value.code == 2
        err_text = capsys.readouterr().err
        assert err_text.endswith(
            f"error: {argv[0]}: lambda_n at precision {bits} supports "
            f"n <= {bits + 20}, got n={n}; pass precision >= {bits + 1} "
            "bits for this n\n")
        assert "Traceback" not in err_text


def test_lambda_names_the_refusal_above_both_extended_limits(capsys):
    # beta_n's extended limit, about 1.44 (precision + 20) = 170 at 100
    # bits, lies above lambda_n's 120; `constants` solves lambda_n first,
    # so at n = 400 the refusal still names lambda_n
    with pytest.raises(SystemExit) as err:
        main(["constants", "--n", "400", "--precision", "100"])
    assert err.value.code == 2
    assert capsys.readouterr().err.endswith(
        "error: constants: lambda_n at precision 100 supports n <= 120, "
        "got n=400; pass precision >= 380 bits for this n\n")


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as err:
        main([])
    assert err.value.code == 2


def test_orbit_csv_header_only_for_zero_steps(capsys):
    rc, out = _run(capsys, ["simulate", "--x0", "1.4", "--steps", "0"])
    assert rc == 0
    assert out == "step,x,digit,in_switch,coin_cursor\n"


def test_orbit_csv_with_tally(capsys):
    rc, out = _run(capsys, ["simulate", "--x0", "1.4", "--steps", "24",
                            "--seed", "7"])
    assert rc == 0
    head, _, tally = out.partition("\n\n")
    rows = head.splitlines()
    assert rows[0] == "step,x,digit,in_switch,coin_cursor"
    assert len(rows) == 25  # header plus one row per step
    tally_rows = tally.strip().splitlines()
    assert tally_rows[0] == "tau,count,freq,expected"
    assert [r.split(",")[0] for r in tally_rows[1:]] == ["2", "3"]
    counts = [int(r.split(",")[1]) for r in tally_rows[1:]]
    assert sum(c * t for c, t in zip(counts, (2, 3))) <= 24


def test_orbit_tally_drift_guard(monkeypatch, capsys):
    # under a slope of 1.2 the orbit of 1.4 stays out of [a, b] for more
    # than n + 1 = 4 steps after some switch visit: the tally refuses the
    # gap as return_time refuses such a return
    fake = dataclasses.replace(solve_beta(3), beta=1.2)
    monkeypatch.setattr(cli, "solve_beta", lambda n: fake)
    rc = main(["simulate", "--x0", "1.4", "--steps", "40"])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err.startswith("error: return time exceeded n+1 = 4")


def test_orbit_escape_is_runtime_error(capsys):
    # --steps 0 iterates nothing but still checks the start
    for steps in ("4", "0"):
        rc = main(["simulate", "--x0", "5.0", "--steps", steps])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert captured.err.startswith("error: orbit escaped")


@pytest.mark.parametrize("x0", ["nan", "inf"])
def test_non_finite_start_is_runtime_error(x0, capsys):
    for steps in ("4", "0"):
        rc = main(["simulate", "--n", "3", "--x0", x0, "--steps", steps])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert captured.err.startswith("error: orbit escaped")


def test_bulk_simulate_json(capsys):
    rc, out = _run(capsys, ["simulate", "--samples", "2000", "--points",
                            "64", "--n", "4"])
    assert rc == 0
    rep = json.loads(out)
    assert rep["backend"] == kernels.BACKEND
    assert rep["points"] == 64 and rep["steps"] == 31
    assert rep["samples"] == 64 * 31
    assert rep["tau1_count"] == 0
    assert rep["out_of_range_count"] == 0
    assert rep["max_abs_z"] < 5.0
    assert [row["tau"] for row in rep["histogram"]] == [2, 3, 4]
    assert sum(row["count"] for row in rep["histogram"]) == rep["samples"]


def test_markov_json_adjacency(capsys):
    rc, out = _run(capsys, ["markov", "--n", "3"])
    assert rc == 0
    rep = json.loads(out)
    assert rep["adjacency"] == [[0, 1, 0, 0, 0],
                                [0, 0, 1, 0, 0],
                                [1, 1, 0, 1, 1],
                                [0, 0, 1, 0, 0],
                                [0, 0, 0, 1, 0]]
    assert len(rep["cells"]) == 5
    assert [c["label"] for c in rep["cells"]] == \
        ["L0", "L1", "C", "R0", "R1"]
    assert rep["margin"] == pytest.approx(0.03909695220031417, rel=1e-11)
    assert rep["h_K"] == pytest.approx(math.log(1.7692923542386314),
                                       rel=1e-11)
    assert rep["cd"] == pytest.approx(0.07646914772729807, rel=1e-11)
    assert sum(rep["p"]) == pytest.approx(1.0, abs=1e-12)


def test_parry_report(capsys):
    rc, out = _run(capsys, ["parry", "--n", "3"])
    assert rc == 0
    rep = json.loads(out)
    assert sum(rep["p"]) == pytest.approx(1.0, abs=1e-12)
    assert rep["entropy_rate"] == pytest.approx(rep["log_lambda"], abs=1e-10)
    assert "empirical_rate" not in rep


def test_parry_empirical_rate(capsys):
    rc, out = _run(capsys, ["parry", "--n", "3", "--samples", "50000",
                            "--seed", "2"])
    assert rc == 0
    rep = json.loads(out)
    assert rep["empirical_rate"] == pytest.approx(rep["log_lambda"], rel=0.05)
    assert rep["empirical_deviation"] >= 0.0


def test_verify_suite_passes(capsys):
    rc, out = _run(capsys, ["verify", "--suite", "gls", "--n", "3..5"])
    assert rc == 0
    rep = json.loads(out)
    assert rep["pass"] is True
    assert rep["failures"] == 0
    assert rep["checks"] == len(rep["rows"]) > 0


def test_verify_csv_header(capsys):
    rc, out = _run(capsys, ["verify", "--suite", "symbolic", "--n", "3",
                            "--format", "csv"])
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "check,n,params,lhs,rhs,deviation,pass"
    assert all(line.endswith(",1") for line in lines[1:])


def test_verify_csv_quotes_comma_params(capsys):
    # gls rows carry params like "bits=0,1"; they must stay one column
    rc, out = _run(capsys, ["verify", "--suite", "gls", "--n", "3",
                            "--format", "csv"])
    assert rc == 0
    parsed = list(csv.reader(io.StringIO(out)))
    assert all(len(row) == 7 for row in parsed)
    assert any("," in row[2] for row in parsed[1:])
    assert all(row[6] == "1" for row in parsed[1:])


def test_verify_corrupted_adjacency_fails(monkeypatch, capsys):
    # negative control: the cell images disagree with the adjacency rule
    # in one entry, and the markov suite must say so
    def flipped(ctx):
        images = markov.build_adjacency(ctx.n)
        images[0, 0] ^= 1
        return images

    monkeypatch.setattr(markov, "adjacency_from_images", flipped)
    rc, out = _run(capsys, ["verify", "--suite", "markov", "--n", "3"])
    assert rc == 1
    rep = json.loads(out)
    assert rep["suite"] == "markov"
    assert rep["pass"] is False
    failing = {row["check"] for row in rep["rows"] if not row["pass"]}
    assert "adjacency-rule-vs-images" in failing


def test_entropy_table_csv(capsys):
    rc, out = _run(capsys, ["entropy", "--n-range", "3..6"])
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,lambda,h_max,h_induced,margin"
    assert len(lines) == 5
    margins = [float(line.split(",")[4]) for line in lines[1:]]
    assert all(m > 0 for m in margins)
    assert margins == sorted(margins)  # margin grows with n


def test_entropy_single_n(capsys):
    rc, out = _run(capsys, ["entropy", "--n", "4"])
    assert rc == 0
    lines = out.strip().splitlines()
    assert len(lines) == 3  # header, n=3, n=4


@pytest.mark.parametrize("argv", [
    ["constants", "--n", "6"],
    ["simulate", "--samples", "3000", "--points", "128", "--seed", "9"],
    ["markov", "--n", "4"],
    ["verify", "--suite", "gls", "--n", "3..4", "--format", "csv"],
    ["entropy", "--n-range", "3..5"],
], ids=["constants", "simulate", "markov", "verify", "entropy"])
def test_artifacts_are_byte_deterministic(argv, tmp_path):
    first = tmp_path / "first.out"
    second = tmp_path / "second.out"
    assert main(argv + ["--out", str(first)]) == 0
    assert main(argv + ["--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()
    assert first.stat().st_size > 0


def test_out_file_suppresses_stdout(capsys, tmp_path):
    path = tmp_path / "constants.json"
    rc, out = _run(capsys, ["constants", "--out", str(path)])
    assert rc == 0
    assert out == ""
    assert json.loads(path.read_text())["n"] == 3


DIGESTS = Path(__file__).resolve().parents[1] / "perfbench" / "digests.json"


@pytest.mark.parametrize("argv", [
    ["verify", "--suite", "all", "--seed", "1"],
    ["verify", "--suite", "all", "--n", "3..6", "--seed", "1"],
], ids=["default", "n3-6"])
def test_verify_stdout_matches_recorded_digest(argv, capsys):
    # the benchmark's recorded sha256 of this stdout: any bit drift in a
    # verify row (lift deviations print near 1e-11) changes the bytes
    want = json.loads(DIGESTS.read_text())["verify-sweep"][" ".join(argv)]
    rc, out = _run(capsys, argv)
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == want


def test_benchmark_operations_match_recorded_digests(capsys):
    # every operation of every perfbench workload at its default seed,
    # against the stdout sha256 the benchmark checks it by
    recorded = json.loads(DIGESTS.read_text())
    changed = []
    for workload, operations in recorded.items():
        for command, want in operations.items():
            rc, out = _run(capsys, shlex.split(command))
            if (rc, hashlib.sha256(out.encode()).hexdigest()) != (0, want):
                changed.append(f"{workload}: {command}")
    assert changed == []


ARTIFACT_DIGESTS = Path(__file__).with_name("artifact_digests.json")


def test_artifacts_match_recorded_bytes(capsys):
    # exit code and stdout sha256 of every subcommand in both formats,
    # `--log-base 2`, `constants --precision`, extended `entropy` rows,
    # orbit tallies and a failing verify; recorded before the switch-cell
    # numbers and the CSV/JSON writers moved into one place each
    recorded = json.loads(ARTIFACT_DIGESTS.read_text())
    changed = []
    for command, (want_rc, want) in recorded.items():
        rc, out = _run(capsys, shlex.split(command))
        if (rc, hashlib.sha256(out.encode()).hexdigest()) != (want_rc, want):
            changed.append(command)
    assert changed == []


def test_main_reuses_one_parser(monkeypatch, capsys):
    main(["constants", "--n", "3"])  # warm-up: may build the parser
    added = []
    original = argparse.ArgumentParser.add_argument

    def counting(self, *args, **kwargs):
        added.append(args)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "add_argument", counting)
    for n in range(3, 13):
        assert main(["constants", "--n", str(n)]) == 0
    capsys.readouterr()
    assert added == []


def test_build_parser_returns_a_new_parser():
    assert build_parser() is not build_parser()


class _ReadRecorder(argparse.Namespace):
    """A namespace that records the names of the attributes read from it."""

    def __init__(self):
        super().__init__()
        self._reads = set()

    def __getattribute__(self, name):
        if not name.startswith("_"):
            object.__getattribute__(self, "_reads").add(name)
        return object.__getattribute__(self, name)


# per subcommand, runs that between them take every branch that reads an
# option: orbit and bulk simulate, sampled parry, entropy by --n and by
# --n-range
_EVERY_OPTION_RUNS = {
    "constants": [["--n", "4"]],
    "simulate": [["--x0", "1.4", "--steps", "4"],
                 ["--samples", "128", "--points", "64"]],
    "markov": [[]],
    "parry": [["--samples", "2500"]],
    "verify": [["--suite", "symbolic", "--n", "3"]],
    "entropy": [["--n", "4", "--samples", "4900"], ["--n-range", "3..4"]],
}


def test_every_option_a_subcommand_declares_is_read(tmp_path):
    parser = build_parser()
    subparsers = next(a for a in parser._actions
                      if isinstance(a, argparse._SubParsersAction)).choices
    assert set(_EVERY_OPTION_RUNS) == set(subparsers)
    unread = []
    for command, runs in _EVERY_OPTION_RUNS.items():
        read = set()
        for argv in runs:
            args = _ReadRecorder()
            parser.parse_args([command, *argv, "--out",
                               str(tmp_path / "out")], namespace=args)
            args._reads.clear()
            assert args.fn(args) == 0, argv
            read |= args._reads
        declared = {a.dest for a in subparsers[command]._actions
                    if not isinstance(a, argparse._HelpAction)}
        unread += [f"{command}.{dest}" for dest in sorted(declared - read)]
    assert unread == []


_INTERLEAVED = [
    ("constants --n 3", 0),
    ("simulate --points 0", 2),
    ("simulate --x0 5.0 --steps 4", 1),
    ("simulate --n 5 --x0 nan --steps 0", 1),
    ("verify --suite markov --n 3", 0),
    ("simulate --n 4 --samples 2000 --points 64", 0),
]


def _exit_code(argv):
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def test_parser_reuse_keeps_calls_independent(capsys):
    # one sequence, forwards then backwards, in one process: no call may
    # see state left by another
    seen = {}
    for order in (_INTERLEAVED, _INTERLEAVED[::-1]):
        for line, want in order:
            rc = _exit_code(shlex.split(line))
            out = capsys.readouterr().out
            assert rc == want, line
            seen.setdefault(line, []).append(out.encode())
    for line, outs in seen.items():
        assert outs[0] == outs[1], line


README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_cli_lines():
    text = README.read_text()
    block = text.split("## CLI", 1)[1].split("```sh\n", 1)[1]
    block = block.split("```", 1)[0]
    return [shlex.split(line)[1:] for line in block.splitlines()
            if line.startswith("shrinkbeta ")]


def test_readme_cli_examples_run(capsys):
    examples = _readme_cli_lines()
    assert len(examples) == 7
    for argv in examples:
        rc, out = _run(capsys, argv)
        assert rc == 0, argv
        assert out, argv
