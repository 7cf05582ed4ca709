"""Command-line interface tests: subcommands, exit codes, config precedence."""

import contextlib
import dataclasses
import io
import itertools
import json
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from twinbeam import cli, fock, tracefit
from twinbeam.errors import TraceParseError
from twinbeam.modes import ModeLabel, Polarization, Port
from twinbeam.spectra import OpoParams


def run(*argv):
    return cli.main(list(argv))


class TestHom:
    def test_degenerate_pair(self, capsys):
        assert run("hom", "--n-a", "1", "--n-b", "1") == 0
        report = json.loads(capsys.readouterr().out)
        assert report["dn_minus"] == pytest.approx(2.0, abs=1e-12)
        assert report["coincidence_probability"] == pytest.approx(0.0, abs=1e-12)
        assert report["distribution"]["2"] == pytest.approx(0.5, abs=1e-12)

    def test_distinguishable_pair(self, capsys):
        assert run("hom", "--n-a", "1", "--n-b", "1", "--distinguishable") == 0
        report = json.loads(capsys.readouterr().out)
        assert report["dn_minus"] == pytest.approx(np.sqrt(2.0), abs=1e-12)
        assert report["coincidence_probability"] == pytest.approx(0.5, abs=1e-12)

    def test_empty_input(self, capsys):
        assert run("hom", "--n-a", "0", "--n-b", "0") == 0
        report = json.loads(capsys.readouterr().out)
        assert report["dn_minus"] == 0.0
        assert report["coincidence_probability"] == 0.0
        assert report["distribution"] == {"0": 1.0}

    def test_reports_truncation_leakage(self, capsys):
        assert run("hom", "--n-a", "2", "--n-b", "1") == 0
        report = json.loads(capsys.readouterr().out)
        assert set(report) == {
            "n_a", "n_b", "distinguishable", "theta", "distribution", "dn_minus",
            "coincidence_probability", "truncation_leakage",
        }
        assert report["truncation_leakage"] == 0.0

    def test_cutoff_is_the_pair_total(self, capsys):
        # no cutoff to set: the pair never holds more than n_a + n_b photons
        assert run("hom", "--n-a", "6", "--n-b", "5") == 0
        report = json.loads(capsys.readouterr().out)
        assert report["truncation_leakage"] == 0.0
        assert sum(report["distribution"].values()) == pytest.approx(1.0, abs=1e-12)
        with pytest.raises(SystemExit) as exit_info:
            run("hom", "--cutoff", "3")
        assert exit_info.value.code == 2

    def test_negative_photon_number_is_named(self, capsys):
        assert run("hom", "--n-a", "3", "--n-b", "-1") == cli.EXIT_VALIDATION
        assert "negative occupation -1" in capsys.readouterr().err
        assert run("hom", "--n-a", "-1", "--n-b", "100") == cli.EXIT_VALIDATION
        assert "negative occupation -1" in capsys.readouterr().err

    @pytest.mark.parametrize("n_a, n_b", [(31, 30), (1000, 1000)])
    def test_pair_total_above_the_largest_cutoff_is_refused(self, n_a, n_b, capsys):
        # refused before make_fock: 1000 + 1000 would ask for a 64 GB rotation stack
        assert run("hom", "--n-a", str(n_a), "--n-b", str(n_b)) == cli.EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"n_a + n_b = {n_a + n_b} outside the documented range 0..60" in captured.err
        assert "Traceback" not in captured.err

    def test_the_largest_pair_total_runs(self, capsys):
        assert run("hom", "--n-a", "30", "--n-b", "30") == 0
        assert json.loads(capsys.readouterr().out)["distribution"]["0"] > 0.0

    def test_a_plate_angle_whose_double_overflows_is_refused(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run("hom", "--theta=1e308") == cli.EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: theta = 1e+308 is too large: its mixing angle 2*theta "
                                "overflows\n")

    @pytest.mark.parametrize("distinguishable", [False, True])
    def test_the_plate_reports_what_the_rotation_splitter_did(self, distinguishable, capsys):
        # the reference is the route hom took before the plate: beams on ports a
        # and b, the second on frequency tag 1 when distinguishable, through the
        # real rotation at twice the plate angle; the JSON is byte-identical
        flags = ["--distinguishable"] if distinguishable else []
        for n_a, n_b in itertools.product(range(5), repeat=2):
            for theta in (np.pi / 8, 0.0, 0.1, -0.7, np.pi / 4, 2.5):
                assert run("hom", "--n-a", str(n_a), "--n-b", str(n_b),
                           f"--theta={theta!r}", *flags) == 0
                modes = (ModeLabel(Polarization.H, 0, Port.A),
                         ModeLabel(Polarization.H, int(distinguishable), Port.B))
                state = fock.make_fock([n_a, n_b], max(n_a + n_b, 1), modes=modes)
                out = fock.apply_beam_splitter(state, mixing_angle=2.0 * theta,
                                               convention=fock.ROTATION)
                stats = fock.number_difference_stats(out)
                reference = {
                    "n_a": n_a, "n_b": n_b, "distinguishable": distinguishable, "theta": theta,
                    "distribution": {str(k): v for k, v in sorted(stats.distribution.items())},
                    "dn_minus": stats.std,
                    "coincidence_probability": fock.coincidence_probability(out),
                    "truncation_leakage": out.truncation_leakage,
                }
                assert capsys.readouterr().out == json.dumps(reference, indent=2) + "\n"


class TestLimits:
    def test_table_values(self, capsys):
        assert run("limits", "--n-max", "4") == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "n,dn_minus_single,dn_minus_twin,sqrt_n_reference,n_reference"
        rows = {int(line.split(",")[0]): line.split(",") for line in lines[1:]}
        assert float(rows[0][1]) == 0.0 and float(rows[0][2]) == 0.0
        assert float(rows[1][1]) == pytest.approx(1.0, abs=1e-10)
        assert float(rows[1][2]) == pytest.approx(2.0, abs=1e-10)
        assert float(rows[4][1]) == pytest.approx(2.0, abs=1e-10)
        assert float(rows[4][2]) == pytest.approx(np.sqrt(40.0), abs=1e-9)

    def test_bound_from_config(self):
        assert run("limits", "--n-max", "99") == cli.EXIT_VALIDATION

    def test_negative_n_max_rejected(self, capsys):
        assert run("limits", "--n-max", "-3") == cli.EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "n_max -3" in captured.err


class TestSpectra:
    def test_both_curves_with_reference(self, capsys):
        assert run(
            "spectra", "--xi", "0.72", "--delta-hz", "2.98e6", "--s0-dbm", "-79",
            "--f-start", "1e6", "--f-stop", "5e6", "--f-step", "1e6",
        ) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "frequency_hz,intensity_dbm,phase_dbm,shot_noise_dbm"
        first = [float(x) for x in lines[1].split(",")]
        u = first[0] / 2.98e6
        assert first[1] == pytest.approx(-79 + 10 * np.log10(1 - 0.72 / (1 + u**2)), abs=1e-6)
        assert first[3] == -79.0

    def test_zero_correlation_flat(self, capsys):
        assert run(
            "spectra", "--t", "0.02", "--a", "0.005", "--d", "1.18e9", "--s0-dbm", "-79",
            "--which", "flat", "--f-start", "1e6", "--f-stop", "3e6", "--f-step", "1e6",
        ) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        for line in lines[1:]:
            assert float(line.split(",")[1]) == -79.0

    def test_unit_correlation(self, capsys):
        assert run(
            "spectra", "--xi", "1", "--delta-hz", "3e6", "--s0-dbm", "-80",
            "--f-start", "1e6", "--f-stop", "5e6", "--f-step", "1e6",
        ) == 0
        for line in capsys.readouterr().out.strip().splitlines()[1:]:
            nu, intensity_dbm, _, _ = (float(x) for x in line.split(","))
            u = nu / 3e6
            assert intensity_dbm == pytest.approx(-80 + 10 * np.log10(u**2 / (1 + u**2)),
                                                  abs=1e-9)

    @pytest.mark.parametrize("xi,code", [("5e-324", cli.EXIT_VALIDATION), ("1e-323", 0)])
    def test_smallest_xi_is_the_least_with_a_positive_transmissivity(self, capsys, xi, code):
        # half of 5e-324 rounds to T = 0, which was refused as a transmissivity
        assert run(
            "spectra", "--xi", xi, "--delta-hz", "3e6", "--s0-dbm", "-80",
            "--f-start", "1e6", "--f-stop", "2e6", "--f-step", "1e6",
        ) == code
        err = capsys.readouterr().err
        if code:
            assert "xi = 5e-324" in err and "transmissivity" not in err
        else:
            assert err == ""

    def test_phase_grid_with_zero_frequency_fails(self, capsys):
        assert run(
            "spectra", "--xi", "0.5", "--delta-hz", "4.3e6", "--s0-dbm", "-79.5",
            "--which", "phase", "--f-start", "0", "--f-stop", "2e6", "--f-step", "1e6",
        ) == cli.EXIT_VALIDATION

    def test_missing_model_parameters(self):
        assert run(
            "spectra", "--s0-dbm", "-79", "--f-start", "1e6", "--f-stop", "2e6",
            "--f-step", "1e6",
        ) == cli.EXIT_VALIDATION


class TestFitCommand:
    @pytest.fixture()
    def trace_path(self, tmp_path):
        params = OpoParams.from_correlation(0.72, 2.98e6, -79.0)
        trace = tracefit.synth_trace(params, "intensity", tracefit.grid_hz(0.5e6, 10e6, 5e3),
                                     0.1, seed=4)
        path = tmp_path / "trace.csv"
        path.write_text(tracefit.trace_to_csv(trace), encoding="utf-8")
        return path

    def test_fit_writes_reports_and_prediction(self, tmp_path, trace_path, capsys):
        prefix = tmp_path / "out" / "run1"
        code = run("fit", "--trace", str(trace_path), "--output-prefix", str(prefix))
        assert code == 0
        payload = json.loads((tmp_path / "out" / "run1.fit.json").read_text())
        assert payload["xi"] == pytest.approx(0.72, rel=0.05)
        assert payload["delta_hz"] == pytest.approx(2.98e6, rel=0.05)
        assert set(payload) >= {"s0_dbm", "xi", "delta_hz", "rms_residual_db", "points_used"}
        key_value = (tmp_path / "out" / "run1.fit.txt").read_text()
        assert key_value.startswith("s0_dbm=")
        prediction = (tmp_path / "out" / "run1.phase_prediction.csv").read_text()
        assert prediction.splitlines()[0] == "frequency_hz,value,unit"
        stdout = capsys.readouterr().out
        assert "squeezing_raw_db=" in stdout

    def test_missing_trace_no_partial_output(self, tmp_path):
        prefix = tmp_path / "nope" / "run"
        code = run("fit", "--trace", str(tmp_path / "missing.csv"), "--output-prefix", str(prefix))
        assert code == cli.EXIT_PARSE
        assert not (tmp_path / "nope").exists()

    def test_floor_correction_in_report(self, tmp_path, trace_path, capsys):
        floor = tracefit.SpectrumTrace(
            tracefit.grid_hz(0.4e6, 10.5e6, 100e3),
            np.full(102, -94.5),
        )
        floor_path = tmp_path / "floor.csv"
        floor_path.write_text(tracefit.trace_to_csv(floor), encoding="utf-8")
        code = run(
            "fit", "--trace", str(trace_path), "--floor", str(floor_path),
            "--output-prefix", str(tmp_path / "run2"),
        )
        assert code == 0
        assert "squeezing_corrected_db=" in capsys.readouterr().out

    def test_floor_outside_the_trace_span_exits_4_and_writes_nothing(self, tmp_path, capsys):
        params = OpoParams.from_correlation(0.72, 3e6, -80.0)
        trace = tracefit.synth_trace(params, "intensity", tracefit.grid_hz(1e6, 10e6, 30e3), 0.1)
        floor = tracefit.synth_trace(params, "flat", tracefit.grid_hz(20e6, 30e6, 30e3))
        (tmp_path / "trace.csv").write_text(tracefit.trace_to_csv(trace), encoding="utf-8")
        (tmp_path / "floor.csv").write_text(tracefit.trace_to_csv(floor), encoding="utf-8")
        code = run("fit", "--trace", str(tmp_path / "trace.csv"),
                   "--floor", str(tmp_path / "floor.csv"),
                   "--output-prefix", str(tmp_path / "out" / "run"))
        assert code == cli.EXIT_VALIDATION
        assert "no sample in the trace span" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_malformed_trace_exit_code(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("frequency_hz,power_dbm\n10,-80\n5,-81\n")
        assert run("fit", "--trace", str(bad), "--output-prefix", str(tmp_path / "x")) == cli.EXIT_PARSE

    @pytest.mark.parametrize("flag,content", [
        ("--trace", b"frequency_hz,power_dbm\n1e6,-80\xff\n"),
        ("--trace", None),
        ("--config", None),
        ("--config", b"fock.cutoff = 5\xff\n"),
    ])
    def test_unreadable_file_exit_code(self, tmp_path, trace_path, capsys, flag, content):
        path = tmp_path / "input"
        if content is None:
            path.mkdir()
        else:
            path.write_bytes(content)
        config = ["--config", str(path)] if flag == "--config" else []
        trace = path if flag == "--trace" else trace_path
        code = run(*config, "fit", "--trace", str(trace), "--output-prefix", str(tmp_path / "w"))
        assert code == cli.EXIT_PARSE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize("flag,value", [
        ("--exclude", "3e6-4e6"), ("--guess", "-80,0.5"), ("--phase-grid", "1e6,2e6,x"),
    ])
    def test_malformed_flag_is_usage_error(self, tmp_path, trace_path, capsys, flag, value):
        with pytest.raises(SystemExit) as exit_info:
            run("fit", "--trace", str(trace_path), f"{flag}={value}",
                "--output-prefix", str(tmp_path / "z"))
        assert exit_info.value.code == 2
        assert f"argument {flag}" in capsys.readouterr().err
        assert not list(tmp_path.glob("z*"))

    def test_convergence_failure_exit_code(self, tmp_path, capsys):
        # a flat trace on which xi -> 1 and delta -> inf creep until the iterations run out
        trace_path = tmp_path / "flat.csv"
        assert run("synth", "--which", "flat", "--xi", "0.72", "--delta-hz", "3e6",
                   "--s0-dbm", "-80", "--noise-db", "0.1", "--seed", "7",
                   "--output", str(trace_path)) == 0
        code = run("fit", "--trace", str(trace_path), "--output-prefix", str(tmp_path / "y"))
        assert code == cli.EXIT_CONVERGENCE
        assert "no convergence after 200 iterations" in capsys.readouterr().err

    @pytest.mark.parametrize("guess", ["-80,0.5,nan", "-80,0.5,inf", "nan,0.5,3e6"])
    def test_non_finite_guess_exits_4(self, tmp_path, trace_path, guess, capsys):
        # the NaN or infinite delta went into the loop and exited 5; a NaN S0 exited 0
        code = run("fit", "--trace", str(trace_path), f"--guess={guess}",
                   "--output-prefix", str(tmp_path / "g"))
        assert code == cli.EXIT_VALIDATION
        assert "initial guess must be finite" in capsys.readouterr().err
        assert not list(tmp_path.glob("g*"))

    def test_optimum_on_the_xi_bound_converges(self, tmp_path):
        # the unconstrained step kept pushing xi into its bound here until
        # max_iterations ran out (exit 5)
        trace_path = tmp_path / "stall.csv"
        assert run("synth", "--xi", "0.9026", "--delta-hz", "1.9e6", "--s0-dbm", "-80",
                   "--noise-db", "0.2", "--seed", "129", "--output", str(trace_path)) == 0
        with pytest.warns(UserWarning, match="pinned at its boundary"):
            code = run("fit", "--trace", str(trace_path), "--output-prefix", str(tmp_path / "s"))
        assert code == 0
        fit = json.loads((tmp_path / "s.fit.json").read_text())
        assert fit["xi"] == 1.0
        trace = tracefit.load_trace(trace_path)
        mask = tracefit.usable_mask(trace, tracefit.FitConfig.standard())
        nu, y_db = trace.frequencies_hz[mask], trace.powers_dbm[mask]
        assert fit["points_used"] == nu.size
        sse = float(np.sum((y_db - oracles.intensity_db(
            nu, fit["s0_dbm"], fit["xi"], fit["delta_hz"])) ** 2))
        grid_sse, (_, grid_xi, _) = oracles.bounded_grid_sse(
            nu, y_db, 0.8, 201, np.linspace(1.2e6, 2.4e6, 481))
        assert grid_xi == 1.0
        assert sse <= grid_sse * (1.0 + 1e-9)
        assert fit["iterations"] <= 24

    def test_start_guess_past_the_float_range_ends_on_the_lower_bound(self, tmp_path, capsys):
        # the first three points sit 4080 dB above the rest: their power
        # ratio overflows a float, which escaped the start guess as an
        # OverflowError (exit 1); the guess takes the ratio as inf, and with
        # S0 at its closed form the fit ends on xi = 1e-9 at the grid's least
        # SSE, where damping S0 as a third parameter found no step (exit 5)
        nu = np.arange(1, 40) * 0.25e6
        powers = np.full(nu.size, -80.0)
        powers[:3] = 4000.0
        trace_path = tmp_path / "spike.csv"
        trace_path.write_text(tracefit.trace_to_csv(tracefit.SpectrumTrace(nu, powers)),
                              encoding="utf-8")
        with pytest.warns(UserWarning, match="pinned at its boundary"):
            code = run("fit", "--trace", str(trace_path), "--f-min", "0",
                       "--output-prefix", str(tmp_path / "o"))
        assert code == 0
        assert "error" not in capsys.readouterr().err
        fit = json.loads((tmp_path / "o.fit.json").read_text())
        assert fit["xi"] == 1e-9
        keep = tracefit.usable_mask(tracefit.load_trace(trace_path),
                                    tracefit.FitConfig.standard(fit_window_hz=(0.0, np.inf)))
        sse = float(np.sum((powers[keep] - oracles.intensity_db(
            nu[keep], fit["s0_dbm"], fit["xi"], fit["delta_hz"])) ** 2))
        assert sse == pytest.approx(45_996_631.58, abs=0.01)
        grid_sse, _ = oracles.bounded_grid_sse(nu[keep], powers[keep], 1e-9, 101,
                                               np.geomspace(1e3, 1e10, 400))
        assert sse <= grid_sse * (1.0 + 1e-9)

    def test_power_past_the_linear_range_exits_4(self, tmp_path, capsys):
        # in linear power 4000 dBm is 10^400 mW, past the float range: the
        # fit must refuse it as input, not run on to an inf SSE
        nu = np.arange(1, 40) * 0.25e6
        powers = np.full(nu.size, -80.0)
        powers[:3] = 4000.0
        trace_path = tmp_path / "spike.csv"
        trace_path.write_text(tracefit.trace_to_csv(tracefit.SpectrumTrace(nu, powers)),
                              encoding="utf-8")
        code = run("fit", "--trace", str(trace_path), "--f-min", "0", "--weight-space",
                   "linear", "--output-prefix", str(tmp_path / "linear"))
        assert code == cli.EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "error: power 4000 dBm is past what linear power" in err
        assert "Traceback" not in err
        with pytest.warns(UserWarning, match="pinned at its boundary"):
            code = run("fit", "--trace", str(trace_path), "--f-min", "0", "--weight-space",
                       "db", "--output-prefix", str(tmp_path / "db"))
        assert code == 0

    def test_squared_power_past_the_float_range_exits_4(self, tmp_path):
        # the fit's sums of squares overflowed from 1540 dBm on (10^308 mW^2
        # per point): numpy warned and the fit exited 5 with "sse inf". Below
        # about -1550 dBm they underflow to 0, and the fit exited 5 there too
        trace_path = tmp_path / "hot.csv"
        codes = {}
        for level in [*range(1400, 3081, 20), -1500, -1600, -3300]:
            assert run("synth", "--xi", "0.7", "--delta-hz", "3e6", "--s0-dbm", str(level),
                       "--output", str(trace_path)) == 0
            codes[level] = run("fit", "--trace", str(trace_path), "--weight-space", "linear",
                               "--output-prefix", str(tmp_path / "o"))
        assert set(codes.values()) <= {0, cli.EXIT_VALIDATION}
        assert codes[1400] == codes[-1500] == 0
        assert codes[3080] == codes[-1600] == codes[-3300] == cli.EXIT_VALIDATION

    @staticmethod
    def spiked_trace(path, powers):
        nu = np.linspace(2.1e6, 9e6, len(powers))
        path.write_text(tracefit.trace_to_csv(tracefit.SpectrumTrace(nu, powers)),
                        encoding="utf-8")
        return str(path)

    @pytest.mark.parametrize("space", ["db", "linear"])
    @pytest.mark.parametrize("powers, named", [
        ([-80.0] * 39 + [1e160], "1e+160"),
        ([-80.0] * 39 + [1e169], "1e+169"),
        ([-80.0] * 39 + [1e170], "1e+170"),
        ([-80.0] * 39 + [-1e300], "-1e+300"),
        ([1e300, -1e300] * 20, "1e+300"),
    ], ids=["1e160", "1e169", "1e170", "minus_1e300", "alternating_1e300"])
    def test_powers_whose_squares_leave_the_float_range_exit_4(self, tmp_path, capsys,
                                                                powers, named, space):
        # from about 1e154 dBm the dB residuals' sums of squares overflowed: up
        # to 1e169 numpy warned and the fit exited 0 with rms_residual_db=inf,
        # from 1e170 the SSE's rounding floor raised OverflowError (exit 1)
        path = self.spiked_trace(tmp_path / "spike.csv", powers)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run("fit", "--trace", path, "--f-min", "0", "--weight-space", space,
                       "--output-prefix", str(tmp_path / "o"))
        err = capsys.readouterr().err
        assert code == cli.EXIT_VALIDATION
        if space == "db" or named.startswith("-"):  # linear power refuses a hot trace first
            assert err == (f"error: power {named} dBm is past what the fit's sums of squares "
                           "can hold in a float\n")
        assert "Traceback" not in err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # rejected steps whose model is -inf dB
    def test_a_power_of_1e150_dbm_still_fits(self, tmp_path):
        path = self.spiked_trace(tmp_path / "spike.csv", [-80.0] * 39 + [1e150])
        with pytest.warns(UserWarning, match="pinned at its boundary"):
            assert run("fit", "--trace", path, "--f-min", "0",
                       "--output-prefix", str(tmp_path / "o")) == 0
        fit = json.loads((tmp_path / "o.fit.json").read_text())
        assert math.isfinite(fit["rms_residual_db"]) and fit["points_used"] == 39

    def test_undetermined_xi_on_the_bound_reports_its_error(self, tmp_path):
        # delta sits below the 2 MHz window start, so the window sees only
        # the tail of the dip, xi and delta trade off, and the optimum lands
        # on xi = 1: the report must say that xi is not determined
        trace_path = tmp_path / "tail.csv"
        assert run("synth", "--xi", "0.5", "--delta-hz", "1.5e6", "--s0-dbm", "-80",
                   "--noise-db", "0.15", "--seed", "9", "--output", str(trace_path)) == 0
        with pytest.warns(UserWarning, match="pinned at its boundary"):
            code = run("fit", "--trace", str(trace_path), "--output-prefix", str(tmp_path / "t"))
        assert code == 0
        fit = json.loads((tmp_path / "t.fit.json").read_text())
        assert fit["xi"] == 1.0
        assert fit["xi_at_boundary"] is True
        assert fit["xi_stderr"] > 0.5

    def test_fit_json_carries_standard_errors_after_the_existing_keys(self, tmp_path, trace_path):
        assert run("fit", "--trace", str(trace_path), "--output-prefix", str(tmp_path / "f")) == 0
        result = tracefit.fit_intensity_spectrum(tracefit.load_trace(trace_path),
                                                 tracefit.FitConfig.standard())
        fit = json.loads((tmp_path / "f.fit.json").read_text())
        assert list(fit) == [
            "s0_dbm", "xi", "delta_hz", "rms_residual_db", "points_used", "squeezing_raw_db",
            "squeezing_corrected_db", "squeezing_bandwidth_hz", "s0_dbm_stderr", "xi_stderr",
            "delta_hz_stderr", "iterations", "xi_at_boundary"]
        stderrs = [fit["s0_dbm_stderr"], fit["xi_stderr"], fit["delta_hz_stderr"]]
        assert stderrs == np.sqrt(result.covariance.diagonal()).tolist()
        assert fit["iterations"] == result.iterations
        assert fit["xi_at_boundary"] is False
        assert (tmp_path / "f.fit.txt").read_text() == result.to_key_value()

    def test_undefined_standard_errors_are_null(self, tmp_path, trace_path, monkeypatch):
        fit = tracefit.fit_intensity_spectrum
        monkeypatch.setattr(tracefit, "fit_intensity_spectrum", lambda *args: dataclasses.replace(
            fit(*args), covariance=np.diag([np.nan, -1.0, np.inf])))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run("fit", "--trace", str(trace_path), "--output-prefix",
                       str(tmp_path / "f")) == 0
        fit_json = json.loads((tmp_path / "f.fit.json").read_text())
        assert [fit_json[f"{name}_stderr"] for name in ("s0_dbm", "xi", "delta_hz")] == [None] * 3

    @pytest.mark.parametrize("case", ["interior", "floor", "floor_at_s0", "xi_1_tail"])
    def test_fit_outputs_assemble_the_api_results(self, tmp_path, trace_path, case, capsys):
        # the outputs are built here from the API's results, key by key, so a
        # change in how the CLI assembles them shows as a byte difference
        args, overrides, floor = [], {}, None
        if case == "xi_1_tail":  # the reproducer of the xi = 1 report above
            assert run("synth", "--xi", "0.5", "--delta-hz", "1.5e6", "--s0-dbm", "-80",
                       "--noise-db", "0.15", "--seed", "9", "--output", str(trace_path)) == 0
        if case.startswith("floor"):
            floor_dbm = -94.5 if case == "floor" else -79.0
            floor = tracefit.SpectrumTrace(tracefit.grid_hz(0.4e6, 10.5e6, 100e3),
                                           np.full(102, floor_dbm))
            (tmp_path / "floor.csv").write_text(tracefit.trace_to_csv(floor), encoding="utf-8")
            args += ["--floor", str(tmp_path / "floor.csv")]
        if case == "floor_at_s0":
            args += ["--weight-space", "linear"]
            overrides["weight_space"] = "linear"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # the boundary warning of xi = 1
            assert run("fit", "--trace", str(trace_path), *args,
                       "--output-prefix", str(tmp_path / "f")) == 0
            trace = tracefit.load_trace(trace_path)
            config = tracefit.FitConfig.standard(**overrides)
            result = tracefit.fit_intensity_spectrum(trace, config)
        report = tracefit.report_squeezing(trace, result, floor)
        assert (report.raw_db is None) == (case == "xi_1_tail")
        assert (report.corrected_db is None) == (case != "floor")

        payload = result.to_dict()
        payload["squeezing_raw_db"] = report.raw_db
        payload["squeezing_corrected_db"] = report.corrected_db
        payload["squeezing_bandwidth_hz"] = report.bandwidth_hz
        with np.errstate(invalid="ignore"):
            stderrs = np.sqrt(result.covariance.diagonal())
        for name, stderr in zip(("s0_dbm", "xi", "delta_hz"), stderrs):
            payload[f"{name}_stderr"] = float(stderr) if np.isfinite(stderr) else None
        payload["iterations"] = result.iterations
        payload["xi_at_boundary"] = bool(result.xi_at_boundary)
        lines = [
            f"s0_dbm={result.s0_dbm:.6g}",
            f"xi={result.xi:.6g}",
            f"delta_hz={result.delta_hz:.6g}",
            f"rms_residual_db={result.rms_residual_db:.6g}",
            f"points_used={result.points_used}",
            "squeezing_raw_db="
            f"{report.raw_db if report.raw_db is not None else 'complete correlation at dc'}",
        ]
        if report.corrected_db is not None:
            lines.append(f"squeezing_corrected_db={report.corrected_db:.6g}")
        nu = trace.frequencies_hz[trace.frequencies_hz > 0.0]

        assert capsys.readouterr().out == "\n".join(lines) + "\n"
        assert (tmp_path / "f.fit.txt").read_text() == result.to_key_value()
        assert (tmp_path / "f.fit.json").read_text() == json.dumps(payload, indent=2) + "\n"
        assert (tmp_path / "f.phase_prediction.csv").read_text() == (
            tracefit.predict_phase_spectrum(result, nu).to_csv())

    @pytest.mark.parametrize("noise_db", ["0.1", "0.02"])
    def test_flat_trace_ends_flat_or_exits_5(self, tmp_path, noise_db):
        # distinguishable beams hold no correlation: a fit may end on a xi
        # bound or at a statistically null interior optimum, both with a
        # curve flat to within the noise, or report non-convergence; its
        # singular normal equations used to escape as a traceback (exit 1)
        trace_path = tmp_path / "flat.csv"
        codes = []
        for seed in range(1, 21):
            assert run("synth", "--which", "flat", "--xi", "0.7", "--delta-hz", "3e6",
                       "--s0-dbm", "-80", "--noise-db", noise_db, "--seed", str(seed),
                       "--output", str(trace_path)) == 0
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                code = run("fit", "--trace", str(trace_path), "--output-prefix", str(tmp_path / "f"))
            assert code in (0, cli.EXIT_CONVERGENCE)
            codes.append(code)
            if code == 0:
                fit = json.loads((tmp_path / "f.fit.json").read_text())
                curve = oracles.intensity_db(tracefit.grid_hz(2e6, 10e6, 30e3), 0.0,
                                             fit["xi"], fit["delta_hz"])
                assert np.ptp(curve) < float(noise_db)
        assert 0 in codes


_GRID = ("--f-start", "1e6", "--f-stop", "2e6", "--f-step", "1e5")
_BY_XI = ("--xi", "0.5", "--delta-hz", "3e6", "--s0-dbm", "-80", *_GRID)
_BY_CAVITY = ("--t", "0.1", "--a", "0.01", "--d", "1e8", "--s0-dbm", "-80", *_GRID)
_MODEL_FLAGS = ("--xi", "--delta-hz", "--s0-dbm", "--f-start", "--f-stop", "--f-step")
#: Every float flag of spectra, synth, uncertainty and fit, last, as ``--flag={}``.
FLOAT_FLAG_RUNS = [
    *(("spectra", *_BY_XI, flag + "={}") for flag in _MODEL_FLAGS),
    *(("synth", *_BY_XI, flag + "={}") for flag in _MODEL_FLAGS + ("--noise-db", "--rbw-hz")),
    *((command, *_BY_CAVITY, flag + "={}")
      for command in ("spectra", "synth") for flag in ("--t", "--a", "--d")),
    ("uncertainty", "--u-grid=0.5,1", "--xi={}"),
    ("uncertainty", "--xi=0.5", "--u-grid=1,{}"),
    ("uncertainty", "--xi=0.5", "--u-grid={},1"),
    ("fit", "--phase-grid={},2e6,1e5"),
    ("fit", "--phase-grid=1e6,{},1e5"),
    ("fit", "--phase-grid=1e6,2e6,{}"),
    ("fit", "--f-min={}"),
    ("fit", "--f-max={}"),
    ("fit", "--exclude={}:5e6"),
    ("fit", "--exclude=4e6:{}"),
    ("hom", "--theta={}"),
]
#: (command, last argument) of runs that must be refused with exit 4.
REFUSED = {
    ("spectra", "--f-step=nan"), ("spectra", "--f-stop=inf"), ("spectra", "--f-step=inf"),
    ("uncertainty", "--xi=nan"), ("uncertainty", "--u-grid=1,inf"),
    ("uncertainty", "--u-grid=nan,1"), ("spectra", "--s0-dbm=nan"), ("spectra", "--s0-dbm=inf"),
    ("spectra", "--d=nan"), ("spectra", "--delta-hz=nan"),
    ("synth", "--rbw-hz=nan"), ("synth", "--rbw-hz=inf"), ("synth", "--rbw-hz=-inf"),
    ("hom", "--theta=nan"), ("hom", "--theta=inf"), ("hom", "--theta=-inf"),
    ("synth", "--noise-db=nan"), ("synth", "--noise-db=inf"), ("synth", "--noise-db=-inf"),
}


@pytest.mark.filterwarnings("ignore:fitted xi pinned at its boundary")
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("argv", FLOAT_FLAG_RUNS,
                         ids=lambda argv: f"{argv[0]} {argv[-1].format('x')}")
def test_non_finite_float_flag_maps_to_an_exit_code(argv, value, tmp_path, capsys):
    """A NaN or infinite float flag ends in a documented exit code with no
    traceback, and a run that exits 0 writes no NaN or infinite cell
    (``#`` metadata lines are not cells)."""
    argv = [arg.format(value) for arg in argv]
    outputs = []
    if argv[0] == "fit":
        trace = tracefit.synth_trace(OpoParams.from_correlation(0.72, 3e6, -80.0), "intensity",
                                     tracefit.grid_hz(*tracefit.DEFAULT_GRID_HZ), 0.1, seed=3)
        (tmp_path / "trace.csv").write_text(tracefit.trace_to_csv(trace), encoding="utf-8")
        prefix = tmp_path / "run"
        argv[1:1] = ["--trace", str(tmp_path / "trace.csv"), "--output-prefix", str(prefix)]
        outputs = [Path(f"{prefix}{suffix}") for suffix in
                   (".fit.txt", ".fit.json", ".phase_prediction.csv")]
    code = run(*argv)
    captured = capsys.readouterr()
    assert code in (0, 2, 3, 4, 5)
    assert "Traceback" not in captured.err
    if (argv[0], argv[-1]) in REFUSED:
        assert code == cli.EXIT_VALIDATION
    if argv[-1] == "--f-max=inf":
        assert code == 0  # an open upper edge is a legitimate window
    if code == 0:
        text = captured.out + "".join(path.read_text() for path in outputs)
        cells = [cell.strip(' "').lower() for line in text.splitlines()
                 if not line.startswith("#") for cell in re.split(r"[,=:\[\]{}]", line)]
        assert not {"nan", "inf", "-inf", "infinity", "-infinity"} & set(cells)


class TestPartialFlagGroups:
    @pytest.mark.parametrize("argv, message", [
        (("--xi", "0.5", "--delta-hz", "3e6", "--s0-dbm", "-80", "--f-start", "1e6",
          "--f-step", "1e5"), "--f-start, --f-stop, --f-step must be given together"),
        (("--t", "0.1", "--d", "1e8", "--s0-dbm", "-80", *_GRID),
         "--t, --a and --d must be given together"),
        (("--a", "0.01", "--s0-dbm", "-80", *_GRID), "--t, --a and --d must be given together"),
    ])
    @pytest.mark.parametrize("command", ["spectra", "synth"])
    def test_a_partial_group_is_refused_by_name(self, capsys, command, argv, message):
        assert run(command, *argv) == cli.EXIT_VALIDATION
        assert capsys.readouterr().err == f"error: {message}\n"


class TestFloatRange:
    """u^2 past the float range: each command writes the spectra's limits,
    or exits 4 naming u where a value is too large for a float."""

    @pytest.mark.parametrize("argv", [
        ("--xi", "0.5", "--delta-hz", "1e-300", "--which", "intensity"),
        ("--t", "1e-320", "--a", "0", "--d", "1e9"),
    ])
    def test_spectra_far_above_the_linewidth_are_at_shot_noise(self, argv, capsys):
        assert run("spectra", "--s0-dbm", "-80", *argv) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 318
        assert {cell for line in lines[1:] for cell in line.split(",")[1:]} == {"-80"}

    def test_uncertainty_without_correlation_is_unity(self, capsys):
        assert run("uncertainty", "--xi", "0", "--u-grid", "1e-170") == 0
        assert capsys.readouterr().out.splitlines()[1] == "1e-170,1,1,1,0"

    def test_uncertainty_at_a_subnormal_u_squared_keeps_every_digit(self, capsys):
        # u^2 = 1e-322 is subnormal: xi / u^2 wrote 1.1 and 0.1
        assert run("uncertainty", "--xi", "1e-323", "--u-grid", "1e-161,1e-158") == 0
        assert capsys.readouterr().out.splitlines()[1:] == [
            "1e-161,1,1.09881312917,1.09881312917,0.0988131291682",
            "1e-158,1,1.00000009881,1.00000009881,9.88131291682e-08",
        ]

    @pytest.mark.parametrize("xi, u", [("1", "1e-170"), ("0.5", "1e-160")])
    def test_uncertainty_past_the_float_range_is_refused(self, xi, u, capsys):
        assert run("uncertainty", "--xi", xi, "--u-grid", u) == cli.EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: phase-difference spectrum exceeds the float range at u = {u}\n"

    def test_phase_prediction_past_the_float_range_is_refused(self, tmp_path, capsys):
        trace = tracefit.synth_trace(OpoParams.from_correlation(0.72, 3e6, -80.0), "intensity",
                                     tracefit.grid_hz(*tracefit.DEFAULT_GRID_HZ), 0.1, seed=3)
        (tmp_path / "trace.csv").write_text(tracefit.trace_to_csv(trace), encoding="utf-8")
        assert run("fit", "--trace", str(tmp_path / "trace.csv"), "--output-prefix",
                   str(tmp_path / "run"), "--phase-grid", "1e-160,1e-159,1e-160") == 4
        assert "phase-difference spectrum exceeds the float range" in capsys.readouterr().err
        assert not (tmp_path / "run.phase_prediction.csv").exists()


class TestUncertainty:
    def test_table_columns_and_values(self, capsys):
        assert run("uncertainty", "--xi", "0.72", "--u-grid", "0.5,1,2") == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "u,s_intensity,s_phase,product,excess_over_1"
        row_u1 = [float(x) for x in lines[2].split(",")]
        assert row_u1[3] == pytest.approx(1.1008, abs=1e-9)
        assert row_u1[4] == pytest.approx(0.1008, abs=1e-9)

    def test_unit_correlation_product_is_one(self, capsys):
        assert run("uncertainty", "--xi", "1.0", "--u-grid", "0.3,1,3") == 0
        for line in capsys.readouterr().out.strip().splitlines()[1:]:
            assert float(line.split(",")[3]) == pytest.approx(1.0, abs=1e-12)

    def test_nonpositive_u_rejected(self):
        assert run("uncertainty", "--xi", "0.5", "--u-grid", "0,1") == cli.EXIT_VALIDATION

    def test_malformed_u_grid_is_usage_error(self):
        with pytest.raises(SystemExit) as exit_info:
            run("uncertainty", "--xi", "0.5", "--u-grid", "0.5;1")
        assert exit_info.value.code == 2

    def test_small_u_product_is_one_at_unit_correlation(self, capsys):
        assert run("uncertainty", "--xi", "1", "--u-grid", "1e-4,1e-3,0.125,1") == 0
        for line in capsys.readouterr().out.strip().splitlines()[1:]:
            assert float(line.split(",")[3]) == 1.0


class TestSynth:
    def test_roundtrip_through_fit(self, tmp_path, capsys):
        out = tmp_path / "synth.csv"
        assert run(
            "synth", "--xi", "0.5", "--delta-hz", "4.3e6", "--s0-dbm", "-79.5",
            "--f-start", "0.5e6", "--f-stop", "10e6", "--f-step", "30e3",
            "--noise-db", "0", "--output", str(out),
        ) == 0
        trace = tracefit.load_trace(out)
        fit = tracefit.fit_intensity_spectrum(trace, tracefit.FitConfig.standard())
        assert fit.xi == pytest.approx(0.5, rel=1e-6)
        assert fit.delta_hz == pytest.approx(4.3e6, rel=1e-6)

    def test_negative_noise_rejected(self, tmp_path, capsys):
        out = tmp_path / "synth.csv"
        assert run(
            "synth", "--xi", "0.5", "--delta-hz", "4.3e6", "--s0-dbm", "-79.5",
            "--noise-db", "-1", "--output", str(out),
        ) == cli.EXIT_VALIDATION
        assert "noise_db" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flags,name", [
        (("--noise-db", "inf"), "noise_db"), (("--noise-db", "0.1", "--seed", "-1"), "seed"),
        (("--seed", "-1"), "seed"),
    ])
    def test_non_finite_noise_or_negative_seed_is_named(self, tmp_path, capsys, flags, name):
        out = tmp_path / "synth.csv"
        assert run(
            "synth", "--xi", "0.5", "--delta-hz", "3e6", "--s0-dbm", "-80", *flags,
            "--output", str(out),
        ) == cli.EXIT_VALIDATION
        assert f"{name} must be non-negative" in capsys.readouterr().err
        assert not out.exists()

    def test_unit_correlation(self, capsys):
        assert run("synth", "--xi", "1", "--delta-hz", "3e6", "--s0-dbm", "-80",
                   "--f-start", "1e6", "--f-stop", "2e6", "--f-step", "5e5") == 0
        body = np.array([[float(x) for x in line.split(",")]
                         for line in capsys.readouterr().out.splitlines()[3:]])
        u = body[:, 0] / 3e6
        np.testing.assert_allclose(body[:, 1], -80 + 10 * np.log10(u**2 / (1 + u**2)), atol=1e-9)

    @pytest.mark.parametrize("char", list("\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"))
    def test_label_with_line_break_rejected(self, tmp_path, capsys, char):
        out = tmp_path / "lab.csv"
        assert run(
            "synth", "--xi", "0.7", "--delta-hz", "3e6", "--s0-dbm", "-80",
            "--label", f"run{char}B", "--output", str(out),
        ) == cli.EXIT_VALIDATION
        assert "label must be one line" in capsys.readouterr().err
        assert not out.exists()

    def test_label_that_is_not_utf8_rejected(self, tmp_path, capsys):
        out = tmp_path / "lab.csv"
        assert run(
            "synth", "--xi", "0.7", "--delta-hz", "3e6", "--s0-dbm", "-80",
            "--label", "run\udcffB", "--output", str(out),
        ) == cli.EXIT_VALIDATION
        assert "label is not UTF-8 text" in capsys.readouterr().err
        assert not out.exists()

    def test_deterministic_output(self, capsys):
        args = (
            "synth", "--xi", "0.72", "--delta-hz", "2.98e6", "--s0-dbm", "-79",
            "--f-start", "1e6", "--f-stop", "2e6", "--f-step", "100e3",
            "--noise-db", "0.2", "--seed", "42",
        )
        assert run(*args) == 0
        first = capsys.readouterr().out
        assert run(*args) == 0
        assert capsys.readouterr().out == first


CONFIG_KEYS = [*cli.DEFAULTS, "fock.", "trace_fit.cutoff", "unknown.key", ""]
CONFIG_VALUES = ["=", ":", ",", "-", ";", "#", " ", "\t", "inf", "-inf", "nan", "0", "1", "-3",
                 "2.5e6", "1e400", "9" * 4400, "1_0", "db", "linear", "\u0663"]


def _joined(parts):
    return st.lists(parts, max_size=5).map(b"".join)


CONFIG_LINES = st.one_of(
    st.sampled_from([b"trace_fit.weight_space = linear", b"trace_fit.fit_window_hz = 1e6, 9e6",
                     b"# note", b"", b"trace_fit.exclusions_hz =",
                     b"cli.grid_hz = 1e6, 2e6, 1e5"]),
    st.tuples(st.sampled_from(CONFIG_KEYS), st.sampled_from([" = ", "=", ":", " "]))
    .map(lambda kv: "".join(kv).encode())
    .flatmap(lambda head: _joined(st.one_of(
        st.sampled_from(CONFIG_VALUES).map(str.encode), st.binary(max_size=2)
    )).map(lambda value: head + value)),
    _joined(st.one_of(st.sampled_from(CONFIG_KEYS + CONFIG_VALUES).map(str.encode),
                      st.binary(max_size=3))),
)


class TestConfig:
    @pytest.fixture()
    def trace_path(self, tmp_path):
        params = OpoParams.from_correlation(0.72, 2.98e6, -79.0)
        path = tmp_path / "t.csv"
        nu = tracefit.grid_hz(*tracefit.DEFAULT_GRID_HZ)
        trace = tracefit.synth_trace(params, "intensity", nu, noise_db=0.05)
        path.write_text(tracefit.trace_to_csv(trace), encoding="utf-8")
        return path

    def write(self, tmp_path, text):
        path = tmp_path / "c.cfg"
        path.write_text(text)
        return str(path)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(lines=st.lists(CONFIG_LINES, max_size=6))
    def test_any_config_text_maps_to_an_exit_code(self, tmp_path_factory, lines):
        path = tmp_path_factory.getbasetemp() / "fuzz.cfg"
        path.write_bytes(b"\n".join(lines))
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = cli.main(["--config", str(path), "limits", "--n-max", "1"])
        assert code in (cli.EXIT_OK, cli.EXIT_PARSE, cli.EXIT_VALIDATION)

    def test_readme_defaults_table_is_DEFAULTS(self):
        # every row of the README "Physical defaults" table, parsed as a
        # config file value: a key added or removed without the README fails
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme.split("### Physical defaults", 1)[1].split("\n#", 1)[0]
        rows = re.findall(r"^\| `([^`]+)` \| `([^`]*)` \|", section, flags=re.MULTILINE)
        assert [key for key, _ in rows] == list(cli.DEFAULTS)
        for key, text in rows:
            default, parse = cli.DEFAULTS[key]
            assert parse(text) == default, key

    def test_defaults_load(self):
        assert cli.load_config(None) == {
            "trace_fit.fit_window_hz": (2e6, np.inf),
            "trace_fit.exclusions_hz": ((3.8e6, 4.0e6),),
            "trace_fit.weight_space": "db",
            "cli.grid_hz": (0.5e6, 10e6, 30e3),
        }

    def test_file_values_are_typed(self, tmp_path):
        config = cli.load_config(self.write(tmp_path, (
            "# comment\n"
            "trace_fit.fit_window_hz = 1e6, 9e6  # trailing comment\n"
            "trace_fit.exclusions_hz = 3e6:3.1e6; 5e6:5.2e6\n"
            "trace_fit.weight_space = linear\n"
        )))
        assert config["trace_fit.fit_window_hz"] == (1e6, 9e6)
        assert config["trace_fit.exclusions_hz"] == ((3e6, 3.1e6), (5e6, 5.2e6))
        assert config["trace_fit.weight_space"] == "linear"
        assert config["cli.grid_hz"] == (0.5e6, 10e6, 30e3)
        config = cli.load_config(self.write(tmp_path, "cli.grid_hz = 1e6, 2e6, 1e5\n"))
        assert config["cli.grid_hz"] == (1e6, 2e6, 1e5)

    def test_empty_exclusions_mean_none(self, tmp_path):
        config = cli.load_config(self.write(tmp_path, "trace_fit.exclusions_hz =\n"))
        assert config["trace_fit.exclusions_hz"] == ()

    def test_partial_config_keeps_defaults(self, tmp_path, trace_path, capsys):
        config = self.write(tmp_path, "trace_fit.weight_space = linear\n")
        assert run("--config", config, "fit", "--trace", str(trace_path),
                   "--output-prefix", str(tmp_path / "p")) == 0
        capsys.readouterr()
        assert run("--config", config, "spectra", "--xi", "0.72", "--delta-hz", "2.98e6",
                   "--s0-dbm", "-79") == 0
        assert len(capsys.readouterr().out.splitlines()) == 1 + 317  # the default grid

    @pytest.mark.parametrize("line", [
        # an unknown key is refused at its line as well
        "trace_fit.max_iterations = lots",
        "fock.cutoff = eight",
        "trace_fit.convergence_tol =",
        "trace_fit.exclusions_hz = 3e6-4e6",
        "trace_fit.fit_window_hz = 2e6",
        "cli.grid_hz = 1e6, 2e6, x",
    ])
    def test_unparsable_value_names_its_line(self, tmp_path, trace_path, line, capsys):
        config = self.write(tmp_path, f"# strict\n{line}\n")
        with pytest.raises(TraceParseError) as err:
            cli.load_config(config)
        assert err.value.line == 2
        assert run("--config", config, "fit", "--trace", str(trace_path),
                   "--output-prefix", str(tmp_path / "q")) == cli.EXIT_PARSE
        assert "line 2:" in capsys.readouterr().err

    def test_unknown_key(self, tmp_path, capsys):
        config = self.write(tmp_path, "trace_fit.max_iteration = 100\n")
        assert run("--config", config, "limits", "--n-max", "2") == cli.EXIT_PARSE
        assert "unknown config key 'trace_fit.max_iteration'" in capsys.readouterr().err

    @pytest.mark.parametrize("line", [
        "trace_fit.weight_space = log",
        "trace_fit.exclusions_hz = 4e6:3e6",
        "trace_fit.fit_window_hz = 5e6, 2e6",
    ])
    def test_domain_rule_is_validation_error(self, tmp_path, trace_path, line):
        config = self.write(tmp_path, line + "\n")
        assert run("--config", config, "fit", "--trace", str(trace_path),
                   "--output-prefix", str(tmp_path / "r")) == cli.EXIT_VALIDATION

    def test_flags_override_file(self, tmp_path):
        # window from file would exclude everything; the flag rescues the fit
        config = tmp_path / "narrow.cfg"
        config.write_text("trace_fit.fit_window_hz = 1e3, 2e3\ncli.grid_hz = 0.5e6, 10e6, 30e3\n")
        params = OpoParams.from_correlation(0.72, 2.98e6, -79.0)
        trace = tracefit.synth_trace(params, "intensity", tracefit.grid_hz(0.5e6, 10e6, 30e3),
                                     0.0)
        path = tmp_path / "t.csv"
        path.write_text(tracefit.trace_to_csv(trace), encoding="utf-8")
        bad = cli.main(["--config", str(config), "fit", "--trace", str(path),
                        "--output-prefix", str(tmp_path / "a")])
        assert bad == cli.EXIT_VALIDATION
        good = cli.main(["--config", str(config), "fit", "--trace", str(path),
                         "--f-min", "2e6", "--f-max", "1e7",
                         "--output-prefix", str(tmp_path / "b")])
        assert good == 0

    def test_malformed_config_line(self, tmp_path):
        config = tmp_path / "bad.cfg"
        config.write_text("this is not a key value pair\n")
        assert cli.main(["--config", str(config), "limits", "--n-max", "2"]) == cli.EXIT_PARSE
