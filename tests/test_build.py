"""Packaging: the in-place build step that the benchmark runs before
every run, the names the package exports, and that every public name has
a reader in the package."""

import ast
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
