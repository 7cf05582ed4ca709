"""Byte-for-byte golden output of every CSV table the toolkit writes.

The files under ``golden/`` hold the output of each case below; a change to
a number format, a header, a comment line or a trailer shows up here.
"""

import contextlib
import io
from pathlib import Path

import numpy as np
import pytest

from twinbeam import cli, spectra, tracefit

GOLDEN = Path(__file__).parent / "golden"

PARAMS = spectra.OpoParams.from_correlation(0.72, 2.98e6, -79.0)
ODD_GRID = tracefit.grid_hz(0.5e6, 1.2e6, 12345.678)


def cli_stdout(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(list(argv)) == 0
    return out.getvalue()


def noisy_trace():
    return tracefit.synth_trace(PARAMS, "intensity", ODD_GRID, 0.3, seed=7,
                                rbw_hz=12345.6789012, label="bench A, run 3")


def bare_trace():
    nu = ODD_GRID
    return tracefit.SpectrumTrace(nu, -80.0 - np.sqrt(nu / 1e6))


def phase_prediction():
    fit = tracefit.FitResult(s0_dbm=-79.0123456789, xi=0.7234567891, delta_hz=2981234.56789,
                             covariance=np.zeros((3, 3)), rms_residual_db=0.1, points_used=57,
                             iterations=5)
    return tracefit.predict_phase_spectrum(fit, ODD_GRID)


CASES = {
    "trace_noisy.csv": lambda: tracefit.trace_to_csv(noisy_trace()),
    "trace_bare.csv": lambda: tracefit.trace_to_csv(bare_trace()),
    "curve_dbm.csv": lambda: phase_prediction().to_csv(),
    "curve_relative.csv": lambda: spectra.physical_frequency_curve(
        PARAMS, ODD_GRID, "phase").to_csv(),
    "hom.csv": lambda: cli_stdout("hom", "--n-a", "3", "--n-b", "2", "--theta", "0.3",
                                  "--format", "csv"),
    "hom_distinguishable.csv": lambda: cli_stdout("hom", "--distinguishable", "--format", "csv"),
    "limits.csv": lambda: cli_stdout("limits", "--n-max", "10"),
    "spectra_both.csv": lambda: cli_stdout(
        "spectra", "--xi", "0.72", "--delta-hz", "2.98e6", "--s0-dbm", "-79",
        "--f-start", "0.5e6", "--f-stop", "1.2e6", "--f-step", "12345.678"),
    "spectra_default_grid.csv": lambda: cli_stdout(
        "spectra", "--t", "0.02", "--a", "0.005", "--d", "1.18e9", "--s0-dbm", "-79.5",
        "--which", "phase"),
    "uncertainty.csv": lambda: cli_stdout("uncertainty", "--xi", "0.72",
                                          "--u-grid", "1e-4,0.125,0.5,1,2,1234.5678901"),
    "uncertainty_default_grid.csv": lambda: cli_stdout("uncertainty", "--xi", "0.3"),
    "synth.csv": lambda: cli_stdout(
        "synth", "--xi", "0.5", "--delta-hz", "4.3e6", "--s0-dbm", "-79.5", "--noise-db", "0.2",
        "--seed", "11", "--rbw-hz", "1e3", "--label", "golden",
        "--f-start", "1e6", "--f-stop", "2e6", "--f-step", "33333.3"),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden(name):
    assert CASES[name]().encode("utf-8") == (GOLDEN / name).read_bytes()
