"""Import graph: the package root loads nothing, the CLI only what it calls."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import twinbeam

SRC = str(Path(twinbeam.__file__).resolve().parents[1])


def loaded_submodules(module: str) -> set:
    """``twinbeam`` submodules in ``sys.modules`` after a fresh ``import module``."""
    code = (f"import sys, json, {module}; "
            "print(json.dumps(sorted(m for m in sys.modules if m.startswith('twinbeam.'))))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH", "")) if p))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    return set(json.loads(out))


@pytest.mark.parametrize("module,expected", [
    ("twinbeam", set()),
    ("twinbeam.cli", {f"twinbeam.{name}" for name in
                      ("errors", "modes", "fock", "spectra", "tracefit", "cli")}),
])
def test_fresh_import_loads_exactly(module, expected):
    assert loaded_submodules(module) == expected
