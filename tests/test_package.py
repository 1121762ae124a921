"""The package: each module imports on its own, and the version is declared
where the build reads it."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import xft

SRC = Path(xft.__file__).parents[1]
MODULES = sorted(p.stem for p in (SRC / "xft").glob("*.py"))


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_alone(module):
    name = "xft" if module == "__init__" else f"xft.{module}"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, "-W", "error", "-c", f"import {name}"],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_version_matches_pyproject():
    tomllib = pytest.importorskip("tomllib")
    with open(SRC.parent / "pyproject.toml", "rb") as f:
        assert xft.__version__ == tomllib.load(f)["project"]["version"]
