"""Packaging: the in-place build step that the benchmark runs before
every run, the names the package exports, that every public name has
a reader in the package, and what a cold CLI process imports."""

import ast
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import shrinkbeta

ROOT = Path(__file__).resolve().parent.parent


def test_build_ext_inplace_builds_nothing(tmp_path):
    for name in ("setup.py", "pyproject.toml"):
        shutil.copy(ROOT / name, tmp_path / name)
    shutil.copytree(ROOT / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__", "*.so",
                                                  "*.egg-info"))
    proc = subprocess.run([sys.executable, "setup.py", "build_ext",
                           "--inplace"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    built = [p for p in tmp_path.rglob("*") if p.suffix in (".so", ".c")]
    assert built == []


def test_every_exported_name_resolves():
    missing = [name for name in shrinkbeta.__all__
               if not hasattr(shrinkbeta, name)]
    assert missing == []
    assert len(set(shrinkbeta.__all__)) == len(shrinkbeta.__all__)


def test_every_public_name_is_read_in_the_package():
    # a public module-level function or class must be named somewhere in
    # src/ besides its own definition, or be exported: a helper that only
    # tests use belongs in the tests
    trees = [ast.parse(path.read_text())
             for path in sorted((ROOT / "src" / "shrinkbeta").glob("*.py"))]
    named = set(shrinkbeta.__all__)
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.add(node.name)
    unread = [node.name for tree in trees for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith("_") and node.name not in named]
    assert unread == []


# runs in a fresh interpreter: prints, per command group, whether mpmath
# was loaded after it, then the extended-precision command's exit code and
# stdout sha256
COLD_PATH = """
import contextlib, hashlib, io, json, sys
import shrinkbeta.cli as cli
loaded = ["mpmath" in sys.modules]
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
loaded.append("mpmath" in sys.modules)
out = io.StringIO()
with contextlib.redirect_stdout(out):
    rc = cli.main(sys.argv[2].split())
loaded.append("mpmath" in sys.modules)
print(json.dumps([loaded, rc, hashlib.sha256(out.getvalue().encode()).hexdigest()]))
"""


def _assert_loads_mpmath_only_for(doubles, extended):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", COLD_PATH,
                           json.dumps(doubles), extended], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    loaded, rc, digest = json.loads(proc.stdout)
    assert loaded == [False, False, True]
    pins = json.loads((ROOT / "tests" / "artifact_digests.json").read_text())
    assert [rc, digest] == pins[extended]


def test_double_precision_commands_never_load_mpmath():
    # mpmath is imported only where extended precision runs
    _assert_loads_mpmath_only_for(
        [["constants", "--n", "5"],
         ["simulate", "--n", "4", "--samples", "32768", "--points", "64"],
         ["markov", "--n", "4"],
         ["parry", "--n", "3", "--samples", "2500"],
         ["verify", "--suite", "gls", "--n", "3"],
         ["verify", "--suite", "markov", "--n", "3"]],
        "constants --n 40 --precision 200 --format json")


def test_entropy_loads_mpmath_only_above_the_double_lambda_limit():
    # the margin rows run in doubles while lambda_n has a double, n <= 53
    _assert_loads_mpmath_only_for([["entropy", "--n-range", "3..53"]],
                                  "entropy --n-range 3..54 --format json")
