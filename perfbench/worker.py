"""One pass over a workload in a fresh interpreter.

Reads a JSON spec on stdin: {"ops": [[argv...], ...], "trace": bool,
"spans": path or null}. Times `import shrinkbeta.cli` first, so set-up is
what a CLI user pays on every invocation, then runs each operation through
`shrinkbeta.cli.main(argv)` with stdout captured, one after the other.
Prints one JSON object: set-up time, each operation's latency, exit code,
stdout digest, check result and work units, plus pass time, CPU time and
peak RSS, and the layer metrics when traced.

The environment is set by `run.py`: PYTHONPATH points at the checkout's
`src` and numeric libraries are held to one thread.
"""

import sys
import time

_start = time.perf_counter()
import shrinkbeta.cli  # noqa: E402  timed: the CLI's cold start

SETUP_S = time.perf_counter() - _start

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402

import mpmath  # noqa: E402
import numpy as np  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402


def run_pass(argvs, tracer=None):
    """Run the operations in order; returns (results, pass seconds, CPU s)."""
    main = shrinkbeta.cli.main
    raw = []
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    for argv in argvs:
        out, err = io.StringIO(), io.StringIO()
        error = None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                rc = tracer.operation(main, argv) if tracer else main(argv)
            except SystemExit as exc:  # argparse usage errors
                rc = exc.code if isinstance(exc.code, int) else 2
            except Exception:  # an operation failure is a result, not a crash
                rc, error = None, traceback.format_exc(limit=3)
            seconds = time.perf_counter() - start
        raw.append((argv, seconds, rc, out.getvalue(), error or err.getvalue()))
    run_s = time.perf_counter() - t0
    cpu_s = time.process_time() - cpu0
    results = []
    for argv, seconds, rc, text, error in raw:
        problem, work = checks.check(argv, text) if rc == 0 else (
            f"exit code {rc}: {error.strip()[-300:]}", {})
        results.append({"argv": argv, "seconds": seconds, "rc": rc,
                        "sha256": hashlib.sha256(text.encode()).hexdigest(),
                        "problem": problem, "work": work})
    return results, run_s, cpu_s


def main():
    spec = json.load(sys.stdin)
    tracer = spans.Tracer().install() if spec.get("trace") else None
    results, run_s, cpu_s = run_pass(spec["ops"], tracer)
    report = {
        "setup_s": SETUP_S,
        "ops": results,
        "run_s": run_s,
        "cpu_s": cpu_s,
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "provenance": {"python": platform.python_version(),
                       "numpy": np.__version__,
                       "mpmath": mpmath.__version__,
                       "backend": shrinkbeta.kernels.BACKEND},
        "layers": None,
    }
    if tracer is not None:
        report["layers"] = tracer.metrics()
        if spec.get("spans"):
            tracer.write(spec["spans"])
    json.dump(report, sys.stdout)


if __name__ == "__main__":
    main()
