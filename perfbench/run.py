"""shrinkbeta benchmark: timed CLI workloads with output checks.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the package is taken from the
checkout's `src`. Each pass over the workload's operations runs in a fresh
interpreter (`worker.py`), one operation after the other, so every run pays
the CLI's cold start and no in-process cache outlives a pass. Passes repeat
until `--seconds` is spent (at least three); the end-to-end metrics are
medians over them (see `end_to_end`). `--trace 0` reports the end-to-end
metrics; `--trace 1` runs untraced and traced passes and reports the
per-layer metrics.

The last line of stdout is the result: {"correct", "attempted", "failed",
"metrics"}. The line before it holds the provenance. A full record, with
per-pass figures, goes to `.bench_build/results/`.

`--write-digests` runs one pass of every workload at the default seed and
records each operation's stdout sha256 in `digests.json`; at the default
seed every later run must reproduce them byte for byte.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
DIGESTS = HERE / "digests.json"
DEFAULT_SEED = 1
MIN_PASSES = 3
MAX_SECONDS = 120     # longest --seconds accepted
RUN_LIMIT_S = 170     # a pass still running this long after the start fails

UNITS = {"setup_s": "s", "run_s": "s", "op_p90_ms": "ms", "peak_rss_mb": "MB"}
# Command-level throughputs, each over the operations of one command family
# (metric, work unit reported by checks.py). Every workload runs each family,
# but outside its purpose only briefly, so these are too noisy there for an
# end-to-end bound; they are reported with the layers instead.
THROUGHPUTS = (("cli.checks_per_s", "rows"),
               ("cli.induced_steps_per_s", "induced_steps"),
               ("cli.chain_steps_per_s", "chain_steps"))
_LAYER_UNITS = {"kernels.steps_per_call": "steps/call",
                "kernels.ns_per_map_step": "ns",
                "kernels.ns_per_chain_step": "ns",
                "trace.overhead_frac": "fraction",
                "cli.op_p50_ms": "ms", "cli.checks_per_s": "rows/s",
                "cli.induced_steps_per_s": "steps/s",
                "cli.chain_steps_per_s": "steps/s"}


class WorkerError(RuntimeError):
    pass


def build():
    """Build the package in place, as `pip install -e .` would: compile
    the optional extension (skipped with a warning when its toolchain is
    missing) and byte-compile the sources."""
    BUILD.mkdir(exist_ok=True)
    with open(BUILD / "build.log", "w") as log:
        for cmd in ([sys.executable, "setup.py", "build_ext", "--inplace"],
                    [sys.executable, "-m", "compileall", "-q", "src"]):
            subprocess.run(cmd, cwd=ROOT, stdout=log, stderr=subprocess.STDOUT,
                           timeout=600, check=True)


def _worker_env():
    env = dict(os.environ)
    paths = [str(ROOT / "src"), env.get("PYTHONPATH")]
    env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
    # one process, no helper threads in the numeric libraries
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_worker(ops, trace=False, spans_path=None, timeout=RUN_LIMIT_S):
    """One pass in a fresh interpreter; returns the worker's report."""
    spec = json.dumps({"ops": ops, "trace": trace,
                       "spans": str(spans_path) if spans_path else None})
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py")],
                              input=spec, capture_output=True, text=True,
                              env=_worker_env(), cwd=ROOT,
                              timeout=max(timeout, 1))
    except subprocess.TimeoutExpired:
        raise WorkerError(f"pass did not end within {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise WorkerError(f"worker exited {proc.returncode}: "
                          f"{proc.stderr.strip()[-1000:]}")
    return json.loads(proc.stdout)


def percentile(values, q):
    """Nearest-rank percentile: the smallest value with at least a share q
    of the values at or below it."""
    ordered = sorted(values)
    rank = math.ceil(q * len(ordered) - 1e-9)  # 0.9 * 10 is 9.000...02
    return ordered[max(0, rank - 1)]


def _throughput(ops, unit):
    done = [op for op in ops if unit in op["work"]]
    seconds = sum(op["seconds"] for op in done)
    return sum(op["work"][unit] for op in done) / seconds if seconds else 0.0


def _command_metrics(p):
    """Command-level figures of one untraced pass."""
    latencies = [op["seconds"] for op in p["ops"]]
    metrics = {"cli.op_p50_ms": 1e3 * percentile(latencies, 0.5)}
    for name, unit in THROUGHPUTS:
        metrics[name] = _throughput(p["ops"], unit)
    return metrics


def end_to_end(passes):
    """Each operation's latency is its median over the run's passes, so a
    stall that hits one operation in one pass moves no figure: `run_s` is
    the sum of these medians, `op_p90_ms` their p90. `setup_s` and
    `peak_rss_mb` are medians over the passes."""
    typical = [statistics.median(p["ops"][i]["seconds"] for p in passes)
               for i in range(len(passes[0]["ops"]))]
    metrics = {"setup_s": statistics.median(p["setup_s"] for p in passes),
               "run_s": sum(typical),
               "op_p90_ms": 1e3 * percentile(typical, 0.9),
               "peak_rss_mb": statistics.median(p["peak_rss_mb"]
                                                for p in passes)}
    return {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()}


def per_layer(untraced, traced, problems):
    counts = [{k: p["layers"][k] for k in spans.COUNT_METRICS}
              for p in traced]
    if any(c != counts[0] for c in counts[1:]):
        differing = sorted(k for k in counts[0]
                           if any(c[k] != counts[0][k] for c in counts))
        problems.append(f"traced passes disagree on counts: {differing}")
    metrics = dict(counts[0])
    for key in traced[0]["layers"].keys() - counts[0].keys():
        metrics[key] = statistics.median(p["layers"][key] for p in traced)
    command = [_command_metrics(p) for p in untraced]
    for key in command[0]:
        metrics[key] = statistics.median(m[key] for m in command)
    metrics["proc.cpu_s"] = statistics.median(p["cpu_s"] for p in untraced)
    metrics["trace.overhead_frac"] = (
        statistics.median(p["run_s"] for p in traced)
        / statistics.median(p["run_s"] for p in untraced) - 1)
    return {k: {"value": v, "unit": layer_unit(k)}
            for k, v in sorted(metrics.items())}


def layer_unit(name):
    return _LAYER_UNITS.get(name, "s" if name.endswith("_s") else "count")


def judge(ops, passes, digests):
    """One line per failed attempt (an operation in one pass): its run or
    output check failed, its stdout differs from the first pass, or, at
    the default seed, from its recorded digest."""
    failures = []
    for i, argv in enumerate(ops):
        cmd = " ".join(argv)
        first = passes[0]["ops"][i]["sha256"]
        for k, p in enumerate(passes):
            op = p["ops"][i]
            if op["problem"]:
                failures.append(f"pass {k}: {cmd}: {op['problem']}")
            elif op["sha256"] != first:
                failures.append(f"pass {k}: {cmd}: stdout differs from "
                                "pass 0 (traced vs untraced, or unstable)")
            elif digests is not None and op["sha256"] != digests.get(cmd):
                failures.append(f"pass {k}: {cmd}: stdout sha256 differs "
                                "from the recorded digest")
    return failures


def run_workload(name, seed, seconds, trace, tiny=False, spans_dir=None):
    """Run one workload; returns (result line dict, full record dict)."""
    started = time.perf_counter()
    ops = workloads.ops(name, seed, tiny)
    digests = None
    if seed == DEFAULT_SEED and not tiny:
        digests = json.loads(DIGESTS.read_text())[name]

    def remaining():
        return RUN_LIMIT_S - (time.perf_counter() - started)

    passes, walls = [], []
    while True:
        t0 = time.perf_counter()
        # trace 1: pass 0 is untraced (artifacts and overhead are compared
        # against it), 1 and 2 are traced, then they alternate
        i = len(passes)
        kind = bool(trace) and i > 0 and (i < 3 or i % 2 == 0)
        span_file = None
        if kind and spans_dir is not None:
            span_file = spans_dir / f"{name}-seed{seed}-pass{len(passes)}.json"
        report = run_worker(ops, kind, span_file, timeout=remaining())
        walls.append(time.perf_counter() - t0)
        report["traced"] = kind
        passes.append(report)
        elapsed = time.perf_counter() - started
        if len(passes) >= MIN_PASSES and (
                elapsed + statistics.median(walls) > seconds):
            break

    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    failures = judge(ops, passes, digests)
    run_problems = []
    if trace:
        metrics = per_layer(untraced, traced, run_problems)
    else:
        metrics = end_to_end(passes)
    attempted = len(ops) * len(passes)
    result = {"correct": not failures and not run_problems,
              "attempted": attempted, "failed": len(failures),
              "metrics": metrics}
    record = {"workload": name, "seed": seed, "seconds": seconds,
              "trace": bool(trace), "tiny": tiny,
              "provenance": provenance(passes[0]["provenance"]),
              "result": result, "failures": failures + run_problems,
              "passes": [{"traced": p["traced"], "setup_s": p["setup_s"],
                          "run_s": p["run_s"],
                          "cpu_s": p["cpu_s"], "peak_rss_mb": p["peak_rss_mb"],
                          "op_seconds": [op["seconds"] for op in p["ops"]],
                          "layers": p["layers"]} for p in passes]}
    return result, record


def provenance(worker_side):
    """Where the numbers came from: code, interpreter, libraries, backend
    (as the worker loaded it) and machine."""
    sha = None
    if (ROOT / ".git").exists():  # never the sha of an enclosing repository
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True,
                                 timeout=30).stdout.strip() or None
        except OSError:
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.suffix in (".py", ".pyx", ".c") and path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    cpu = None
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.partition(":")[2].strip()
                break
    return {"git_sha": sha, "source_sha256": digest.hexdigest(),
            **worker_side, "nproc": os.cpu_count(), "cpu_model": cpu}


def write_digests():
    digests = {}
    for name in workloads.NAMES:
        ops = workloads.ops(name, DEFAULT_SEED)
        report = run_worker(ops)
        bad = [op for op in report["ops"] if op["problem"]]
        if bad:
            raise SystemExit(f"{name}: {bad[0]['argv']}: {bad[0]['problem']}")
        digests[name] = {" ".join(op["argv"]): op["sha256"]
                         for op in report["ops"]}
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-digests", action="store_true",
                        dest="write_digests")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "shrinkbeta" / "cli.py").is_file():
        print(f"error: no shrinkbeta sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    if not args.write_digests and args.workload is None:
        parser.error("--workload is required")
    if not 0 <= args.seconds <= MAX_SECONDS:
        parser.error(f"--seconds must lie in [0, {MAX_SECONDS}]")
    build()
    if args.write_digests:
        write_digests()
        return 0
    spans_dir = BUILD / "spans" if args.trace else None
    results_dir = BUILD / "results"
    for d in (spans_dir, results_dir):
        if d is not None:
            d.mkdir(parents=True, exist_ok=True)
    try:
        result, record = run_workload(args.workload, args.seed, args.seconds,
                                      args.trace, spans_dir=spans_dir)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results_dir / name).write_text(json.dumps(record, indent=1) + "\n")
    for failure in record["failures"][:20]:
        print(f"FAILED {failure}", file=sys.stderr)
    print(json.dumps({"provenance": record["provenance"]}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
