"""Packaging: the in-place build step that the benchmark runs before
every run, and the names the package exports."""

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
