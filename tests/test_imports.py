"""Import graph: the package root loads nothing, the CLI only what it calls,
and no module loads a test-only dependency."""

import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import twinbeam

SRC = str(Path(twinbeam.__file__).resolve().parents[1])


def loaded_modules(module: str) -> set:
    """Every name in ``sys.modules`` after a fresh ``import module``; a
    comma-separated list imports each."""
    code = f"import sys, json, {module}; print(json.dumps(sorted(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH", "")) if p))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    return set(json.loads(out))


@pytest.mark.parametrize("module,expected", [
    ("twinbeam", set()),
    ("twinbeam.cli", {f"twinbeam.{name}" for name in
                      ("errors", "modes", "fock", "spectra", "tracefit", "cli")}),
    ("twinbeam.quadratures", {f"twinbeam.{name}" for name in
                              ("errors", "modes", "fock", "quadratures")}),
])
def test_fresh_import_loads_exactly(module, expected):
    assert {m for m in loaded_modules(module) if m.startswith("twinbeam.")} == expected


def test_no_module_loads_scipy():
    # scipy is a test dependency: the oracles use it, the package must not
    modules = [f"twinbeam.{m.name}" for m in pkgutil.iter_modules(twinbeam.__path__)]
    assert "twinbeam.cli" in modules
    assert not {m for m in loaded_modules(", ".join(modules)) if m.split(".")[0] == "scipy"}


def fresh_import(module: str, **env) -> dict:
    """OPENBLAS_NUM_THREADS and this process's thread count after a fresh
    ``import module``, started with OPENBLAS_NUM_THREADS as given in ``env``
    (unset when absent)."""
    code = (f"import json, os, {module}\n"
            "status = dict(line.split(':', 1) for line in open('/proc/self/status')\n"
            "              if ':' in line) if os.path.exists('/proc/self/status') else {}\n"
            "print(json.dumps(dict(blas=os.environ.get('OPENBLAS_NUM_THREADS'),\n"
            "                      threads=status.get('Threads', '').strip() or None)))")
    child = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    child.update(env, PYTHONPATH=os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH", "")) if p))
    out = subprocess.run([sys.executable, "-c", code], env=child, check=True,
                         capture_output=True, text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


class TestBlasThreads:
    """The CLI pins OpenBLAS to one thread before numpy loads, unless the
    caller set a count; the library modules leave the setting alone."""

    def test_the_cli_starts_one_thread(self):
        got = fresh_import("twinbeam.cli")
        assert got["blas"] == "1"
        if got["threads"] is None:
            pytest.skip("no /proc/self/status to count threads in")
        assert got["threads"] == "1"

    def test_an_explicit_count_is_kept(self):
        assert fresh_import("twinbeam.cli", OPENBLAS_NUM_THREADS="2")["blas"] == "2"

    def test_the_fock_module_alone_leaves_it_unset(self):
        assert fresh_import("twinbeam.fock")["blas"] is None
