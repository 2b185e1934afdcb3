"""Tests of the benchmark itself: tiny-size runs of every workload, metric
names against BENCHMARK.json, and spans seen through copied imports.

Run with: python3 -m pytest perfbench
"""

import json
import re
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _declared(kind):
    return {m["name"]: m["unit"] for m in BENCH[kind]}


def _reported(result):
    return {k: v["unit"] for k, v in result["metrics"].items()}


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_tiny_run_is_correct_and_reports_every_end_to_end_metric(workload):
    result, record = run.run_workload(workload, seed=3, seconds=0, trace=0,
                                      tiny=True)
    assert record["failures"] == []
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == run.MIN_PASSES * len(
        workloads.ops(workload, 3, tiny=True))
    assert _reported(result) == _declared("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert record["provenance"]["backend"] in ("python", "compiled")


def test_tiny_traced_run_reports_every_per_layer_metric():
    result, record = run.run_workload("verify-sweep", seed=3, seconds=0,
                                      trace=1, tiny=True)
    # correct covers: traced stdout equals untraced stdout for every
    # operation, and both traced passes give identical counts
    assert record["failures"] == []
    assert result["correct"]
    assert [p["traced"] for p in record["passes"]] == [False, True, True]
    assert _reported(result) == _declared("per_layer")
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert m["verify.rows"] > 0 and m["kernels.map_steps"] > 0
    assert m["cli.calls"] == len(workloads.ops("verify-sweep", 3, tiny=True))


def test_benchmark_names_are_well_formed():
    names = [w["name"] for w in BENCH["workloads"]]
    names += [m["name"] for kind in ("end_to_end", "per_layer")
              for m in BENCH[kind]]
    assert all(NAME.fullmatch(n) for n in names)
    assert len(names) == len(set(names))
    assert tuple(w["name"] for w in BENCH["workloads"]) == workloads.NAMES
    assert _declared("end_to_end") == run.UNITS
    assert all(m["bound"] <= 0.25 for m in BENCH["end_to_end"])


def test_digests_cover_every_default_seed_operation():
    digests = json.loads(run.DIGESTS.read_text())
    for name in workloads.NAMES:
        cmds = {" ".join(a) for a in workloads.ops(name, run.DEFAULT_SEED)}
        assert set(digests[name]) == cmds


def test_copied_imports_are_traced():
    import shrinkbeta.cli as cli
    import shrinkbeta.measures as measures

    tracer = spans.Tracer().install()
    try:
        ctx = cli.solve_beta(3)            # cli's own `from .algebra` copy
        measures.greedy_breakpoints(ctx)   # measures' own `from .gls` copy
    finally:
        tracer.uninstall()
    m = tracer.metrics()
    assert m["algebra.solve_calls"] == 1
    assert m["gls.partition_builds"] == 1
    assert m["algebra.self_s"] > 0 and m["gls.self_s"] > 0
    # uninstall put the originals back
    assert not hasattr(cli.solve_beta, "__wrapped__")


def test_tracer_time_is_not_charged_to_the_caller():
    tracer = spans.Tracer()
    caller, callee = tracer.name_id("cli.main"), tracer.name_id("gls.f")

    def slow_observer(*_):
        time.sleep(0.05)

    def parent():
        for _ in range(4):
            tracer.call(callee, lambda: None, (), {}, slow_observer)

    tracer.call(caller, parent, (), {})
    m = tracer.metrics()
    assert m["gls.calls"] == 4
    # 0.2 s of observer work: outside the caller's self time, and recorded
    # as tracer time inside its span
    assert m["cli.self_s"] < 0.05
    assert tracer.span_hidden[0] >= 0.2
