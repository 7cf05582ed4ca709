"""Trace ingestion, floor subtraction, fitting, and prediction tests."""

from pathlib import Path

import numpy as np
import pytest

from twinbeam import tracefit
from twinbeam.errors import FitConvergenceError, TraceParseError, ValidationError
from twinbeam.spectra import OpoParams

PARAMS_A = OpoParams.from_correlation(0.72, 2.98e6, -79.0)
PARAMS_B = OpoParams.from_correlation(0.5, 4.3e6, -79.5)
COARSE_GRID = (0.5e6, 10.0e6, 30e3)
FINE_GRID = (0.5e6, 10.0e6, 1e3)

GOOD_CSV = """# rbw_hz=30000
# label=bench trace
frequency_hz,power_dbm
1000000,-80.1
1030000,-80.3
1060000,-79.9
1090000,-80.0
1120000,-80.2
1150000,-79.8
1180000,-80.1
1210000,-80.05
"""


def flat_trace(level_dbm, start=0.4e6, stop=10.5e6, step=50e3, label="flat"):
    nu = tracefit.grid_hz(start, stop, step)
    return tracefit.SpectrumTrace(nu, np.full(nu.size, float(level_dbm)), 30e3, label)


class TestLoadTrace:
    def test_wellformed_csv(self):
        trace = tracefit.load_trace(GOOD_CSV)
        assert len(trace) == 8
        assert trace.rbw_hz == 30000
        assert trace.label == "bench trace"
        assert trace.powers_dbm[0] == -80.1

    def test_bytes_input(self):
        trace = tracefit.load_trace(GOOD_CSV.encode("utf-8"))
        assert len(trace) == 8

    def test_duplicate_frequency_names_line(self):
        bad = GOOD_CSV + "1210000,-80.0\n"
        with pytest.raises(TraceParseError) as err:
            tracefit.load_trace(bad)
        assert err.value.line == 12
        assert "1.21e+06" in str(err.value)

    def test_non_numeric_field_names_line(self):
        bad = GOOD_CSV.replace("1060000,-79.9", "1060000,oops")
        with pytest.raises(TraceParseError) as err:
            tracefit.load_trace(bad)
        assert err.value.line == 6

    def test_wrong_column_count(self):
        bad = GOOD_CSV.replace("1060000,-79.9", "1060000,-79.9,1")
        with pytest.raises(TraceParseError):
            tracefit.load_trace(bad)

    def test_missing_header(self):
        with pytest.raises(TraceParseError):
            tracefit.load_trace("1000000,-80.0\n1030000,-80.2\n")

    @pytest.mark.parametrize("text,message", [
        ("frequency_hz,power_dbm", "no data rows"),
        ("# rbw_hz=30000", "missing"),
        ("frequency_hz,power_dbm\n1000000,-80.0", None),
    ])
    def test_str_with_newline_comment_or_header_is_text(self, text, message):
        if message is None:
            assert len(tracefit.load_trace(text)) == 1
        else:
            with pytest.raises(TraceParseError, match=message):
                tracefit.load_trace(text)

    def test_path_is_always_a_file(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "frequency_hz,power_dbm").write_text(GOOD_CSV)
        assert len(tracefit.load_trace(Path("frequency_hz,power_dbm"))) == 8
        assert len(tracefit.load_trace(str(tmp_path / "frequency_hz,power_dbm"))) == 8

    def test_grid_point_count(self):
        nu = tracefit.grid_hz(*COARSE_GRID)
        assert nu.size == 317  # (10 - 0.5) MHz at 30 kHz spacing, start inclusive

    def test_csv_roundtrip(self):
        trace = tracefit.synth_trace(PARAMS_A, "intensity", COARSE_GRID, 0.3, seed=5)
        back = tracefit.load_trace(tracefit.trace_to_csv(trace))
        np.testing.assert_allclose(back.frequencies_hz, trace.frequencies_hz, rtol=1e-9)
        np.testing.assert_allclose(back.powers_dbm, trace.powers_dbm, atol=1e-9)
        assert back.rbw_hz == trace.rbw_hz
        assert back.label == trace.label

    def test_file_roundtrip(self, tmp_path):
        trace = tracefit.synth_trace(PARAMS_B, "intensity", COARSE_GRID, 0.1, seed=2)
        path = tmp_path / "trace.csv"
        tracefit.save_trace(trace, path)
        back = tracefit.load_trace(path)
        np.testing.assert_allclose(back.powers_dbm, trace.powers_dbm, atol=1e-9)


class TestNoiseFloor:
    def test_pointwise_linear_subtraction(self):
        signal = flat_trace(-84.5, start=1e6, stop=9e6)
        floor = flat_trace(-94.5)
        corrected, dropped = tracefit.subtract_noise_floor(signal, floor)
        # 10 dB below: correction is 10 log10(1 - 0.1) = -0.458 dB
        expected = -84.5 + 10.0 * np.log10(1.0 - 10.0**-1)
        np.testing.assert_allclose(corrected.powers_dbm, expected, atol=1e-10)
        assert dropped.size == 0

    def test_subtract_then_add_back_is_identity(self):
        signal = tracefit.synth_trace(PARAMS_A, "intensity", (1e6, 9e6, 100e3), 0.2, seed=3)
        floor = flat_trace(-93.0)
        corrected, _ = tracefit.subtract_noise_floor(signal, floor)
        floor_mw = np.interp(corrected.frequencies_hz, floor.frequencies_hz, floor.powers_mw())
        restored = 10.0 * np.log10(corrected.powers_mw() + floor_mw)
        np.testing.assert_allclose(restored, signal.powers_dbm, atol=1e-10)

    def test_floor_above_signal_everywhere(self):
        signal = flat_trace(-95.0, start=1e6, stop=9e6)
        with pytest.raises(ValidationError):
            tracefit.subtract_noise_floor(signal, flat_trace(-90.0))

    def test_partially_swamped_points_dropped_and_reported(self):
        nu = tracefit.grid_hz(1e6, 5e6, 1e6)
        powers = np.array([-80.0, -95.0, -80.0, -96.0, -80.0])
        signal = tracefit.SpectrumTrace(nu, powers)
        corrected, dropped = tracefit.subtract_noise_floor(signal, flat_trace(-90.0))
        assert len(corrected) == 3
        np.testing.assert_allclose(dropped, [2e6, 4e6])

    def test_floor_must_cover_span(self):
        signal = flat_trace(-80.0, start=0.1e6, stop=9e6)
        with pytest.raises(ValidationError):
            tracefit.subtract_noise_floor(signal, flat_trace(-90.0, start=0.5e6))


class TestFit:
    def test_noiseless_roundtrip_recovers_parameters(self):
        for params in (PARAMS_A, PARAMS_B):
            trace = tracefit.synth_trace(params, "intensity", COARSE_GRID, 0.0)
            fit = tracefit.fit_intensity_spectrum(trace, tracefit.FitConfig.standard())
            assert fit.s0_dbm == pytest.approx(params.s0_dbm, abs=1e-6)
            assert fit.xi == pytest.approx(params.xi, rel=1e-6)
            assert fit.delta_hz == pytest.approx(params.delta_hz, rel=1e-6)
            assert fit.rms_residual_db < 1e-10

    def test_noisy_roundtrip_within_two_percent(self):
        trace = tracefit.synth_trace(PARAMS_A, "intensity", FINE_GRID, 0.2, seed=7)
        fit = tracefit.fit_intensity_spectrum(trace, tracefit.FitConfig.standard())
        assert fit.s0_dbm == pytest.approx(PARAMS_A.s0_dbm, abs=0.1)
        assert fit.xi == pytest.approx(PARAMS_A.xi, rel=0.02)
        assert fit.delta_hz == pytest.approx(PARAMS_A.delta_hz, rel=0.02)

    def test_deterministic_given_config(self):
        trace = tracefit.synth_trace(PARAMS_B, "intensity", COARSE_GRID, 0.2, seed=11)
        config = tracefit.FitConfig.standard()
        first = tracefit.fit_intensity_spectrum(trace, config)
        second = tracefit.fit_intensity_spectrum(trace, config)
        assert first.to_dict() == second.to_dict()
        assert first.iterations == second.iterations

    def test_estimator_consistency_as_noise_shrinks(self):
        errors = []
        for noise in (0.5, 0.1, 0.02):
            trace = tracefit.synth_trace(PARAMS_A, "intensity", FINE_GRID, noise, seed=21)
            fit = tracefit.fit_intensity_spectrum(trace, tracefit.FitConfig.standard())
            errors.append(
                abs(fit.xi - PARAMS_A.xi) / PARAMS_A.xi
                + abs(fit.delta_hz - PARAMS_A.delta_hz) / PARAMS_A.delta_hz
                + abs(fit.s0_dbm - PARAMS_A.s0_dbm)
            )
        assert errors[0] > errors[1] > errors[2]
        assert errors[2] < 5e-3

    def test_empty_exclusion_band_changes_nothing(self):
        trace = tracefit.synth_trace(PARAMS_A, "intensity", COARSE_GRID, 0.2, seed=13)
        base = tracefit.FitConfig.standard()
        # a band between grid points: (10 MHz span, 30 kHz step) misses 2.5105..2.5125
        padded = tracefit.FitConfig.standard(
            exclusions_hz=base.exclusions_hz + ((2.5105e6, 2.5125e6),)
        )
        first = tracefit.fit_intensity_spectrum(trace, base)
        second = tracefit.fit_intensity_spectrum(trace, padded)
        assert first.to_dict() == second.to_dict()

    def test_spur_exclusion_protects_fit(self):
        clean = tracefit.synth_trace(PARAMS_A, "intensity", COARSE_GRID, 0.2, seed=17)
        spur_band = (3.85e6, 3.95e6)
        in_band = (clean.frequencies_hz >= spur_band[0]) & (clean.frequencies_hz <= spur_band[1])
        powers = clean.powers_dbm.copy()
        powers[in_band] += 15.0  # narrowband modulation spur
        spurred = tracefit.SpectrumTrace(clean.frequencies_hz, powers, clean.rbw_hz, "spur")
        fit_clean = tracefit.fit_intensity_spectrum(
            clean, tracefit.FitConfig(fit_window_hz=(2e6, np.inf))
        )
        fit_spurred = tracefit.fit_intensity_spectrum(
            spurred, tracefit.FitConfig.standard()  # excludes the spur band
        )
        assert fit_spurred.xi == pytest.approx(fit_clean.xi, rel=5e-3)
        assert fit_spurred.delta_hz == pytest.approx(fit_clean.delta_hz, rel=5e-3)
        assert fit_spurred.s0_dbm == pytest.approx(fit_clean.s0_dbm, abs=0.05)

    def test_too_few_points_rejected(self):
        trace = tracefit.load_trace(GOOD_CSV)
        config = tracefit.FitConfig(fit_window_hz=(1.0e6, 1.1e6))
        with pytest.raises(ValidationError):
            tracefit.fit_intensity_spectrum(trace, config)

    def test_nonconvergence_carries_last_iterate(self):
        trace = tracefit.synth_trace(PARAMS_A, "intensity", COARSE_GRID, 0.2, seed=1)
        config = tracefit.FitConfig(max_iterations=2, initial_guess=(-60.0, 0.1, 1e5))
        with pytest.raises(FitConvergenceError) as err:
            tracefit.fit_intensity_spectrum(trace, config)
        assert err.value.last_params is not None
        assert err.value.iterations == 2

    def test_linear_weighting_also_recovers(self):
        trace = tracefit.synth_trace(PARAMS_A, "intensity", COARSE_GRID, 0.0)
        config = tracefit.FitConfig.standard(weight_space="linear")
        fit = tracefit.fit_intensity_spectrum(trace, config)
        assert fit.xi == pytest.approx(PARAMS_A.xi, rel=1e-6)
        assert fit.delta_hz == pytest.approx(PARAMS_A.delta_hz, rel=1e-6)

    def test_floor_in_config_is_applied(self):
        trace = tracefit.synth_trace(PARAMS_A, "intensity", (2.2e6, 9.8e6, 30e3), 0.0)
        mixed_mw = trace.powers_mw() + 10.0 ** (-94.5 / 10.0)
        contaminated = tracefit.SpectrumTrace(
            trace.frequencies_hz, 10.0 * np.log10(mixed_mw), trace.rbw_hz
        )
        config = tracefit.FitConfig(noise_floor=flat_trace(-94.5))
        fit = tracefit.fit_intensity_spectrum(contaminated, config)
        assert fit.xi == pytest.approx(PARAMS_A.xi, rel=1e-6)

    def test_bad_weight_space_rejected(self):
        with pytest.raises(ValidationError):
            tracefit.FitConfig(weight_space="log")

    def test_bad_xi_guess_rejected(self):
        with pytest.raises(ValidationError):
            tracefit.FitConfig(initial_guess=(-79.0, 1.5, 3e6))


class TestPrediction:
    def fit_a(self):
        trace = tracefit.synth_trace(PARAMS_A, "intensity", COARSE_GRID, 0.0)
        return tracefit.fit_intensity_spectrum(trace, tracefit.FitConfig.standard())

    def test_high_frequency_approaches_shot_noise(self):
        curve = tracefit.predict_phase_spectrum(self.fit_a(), [500e6])
        assert curve.values[0] == pytest.approx(-79.0, abs=1e-3)

    def test_linewidth_point_value(self):
        trace = tracefit.synth_trace(PARAMS_B, "intensity", COARSE_GRID, 0.0)
        fit = tracefit.fit_intensity_spectrum(trace, tracefit.FitConfig.standard())
        curve = tracefit.predict_phase_spectrum(fit, [fit.delta_hz])
        assert curve.values[0] == pytest.approx(-79.5 + 10 * np.log10(1.5), abs=1e-5)

    def test_no_extra_free_parameters(self):
        # the predicted curve is a pure function of the fitted triple
        fit = self.fit_a()
        nu = np.linspace(0.6e6, 9e6, 101)
        expected = fit.s0_dbm + 10.0 * np.log10(1.0 + fit.xi / (nu / fit.delta_hz) ** 2)
        np.testing.assert_allclose(
            tracefit.predict_phase_spectrum(fit, nu).values, expected, atol=1e-12
        )


class TestSqueezingReport:
    def result(self, xi, s0=-79.0, delta=2.98e6):
        return tracefit.FitResult(
            s0_dbm=s0, xi=xi, delta_hz=delta, covariance=np.zeros((3, 3)),
            rms_residual_db=0.0, points_used=100, iterations=1,
        )

    def test_deep_squeezing_value(self):
        report = tracefit.report_squeezing(flat_trace(-80.0), self.result(0.72))
        assert report.raw_db == pytest.approx(-5.53, abs=0.005)
        assert report.dc_level_dbm == pytest.approx(-84.53, abs=0.005)

    def test_half_correlation_value(self):
        report = tracefit.report_squeezing(flat_trace(-80.0), self.result(0.5))
        assert report.raw_db == pytest.approx(-3.01, abs=0.005)

    def test_no_correlation_gives_zero(self):
        report = tracefit.report_squeezing(flat_trace(-80.0), self.result(0.0))
        assert report.raw_db == 0.0

    def test_complete_correlation_flagged(self):
        report = tracefit.report_squeezing(flat_trace(-80.0), self.result(1.0))
        assert report.complete_correlation
        assert report.raw_db is None
        assert "complete correlation" in report.note

    def test_detection_correction_deepens_squeezing(self):
        # floor at -94.5 dBm against S0 = -79 dBm: about 0.46 dB more squeezing
        trace = flat_trace(-84.5, start=1e6, stop=9e6)
        report = tracefit.report_squeezing(trace, self.result(0.72), flat_trace(-94.5))
        floor_rel = 10.0 ** ((-94.5 + 79.0) / 10.0)
        expected = 10.0 * np.log10(0.28 - floor_rel)
        assert report.corrected_db == pytest.approx(expected, abs=1e-9)
        assert report.corrected_db - report.raw_db == pytest.approx(-0.461, abs=2e-3)

    def test_correction_reaching_minus_six_db(self):
        # raw -5.5 dB with the floor 9.635 dB below the squeezed level -> -6.0 dB
        xi = 1.0 - 10.0 ** (-0.55)
        dip_dbm = -79.0 + 10.0 * np.log10(1.0 - xi)
        gap_db = -10.0 * np.log10(1.0 - 10.0 ** (-0.05))
        assert gap_db == pytest.approx(9.635, abs=1e-3)
        floor = flat_trace(dip_dbm - gap_db)
        report = tracefit.report_squeezing(
            flat_trace(dip_dbm, 1e6, 9e6), self.result(xi), floor
        )
        assert report.raw_db == pytest.approx(-5.5, abs=1e-9)
        assert report.corrected_db == pytest.approx(-6.0, abs=1e-9)


class TestSynth:
    def test_noiseless_matches_model_exactly(self):
        trace = tracefit.synth_trace(PARAMS_A, "intensity", (1e6, 5e6, 500e3))
        u = trace.frequencies_hz / PARAMS_A.delta_hz
        expected = PARAMS_A.s0_dbm + 10 * np.log10(1 - PARAMS_A.xi / (1 + u**2))
        np.testing.assert_allclose(trace.powers_dbm, expected, atol=1e-12)

    def test_fixed_seed_reproducible(self):
        first = tracefit.synth_trace(PARAMS_A, "intensity", COARSE_GRID, 0.3, seed=9)
        second = tracefit.synth_trace(PARAMS_A, "intensity", COARSE_GRID, 0.3, seed=9)
        np.testing.assert_array_equal(first.powers_dbm, second.powers_dbm)

    def test_phase_trace_value_at_twice_linewidth(self):
        trace = tracefit.synth_trace(PARAMS_B, "phase", np.array([2 * PARAMS_B.delta_hz]))
        assert trace.powers_dbm[0] == pytest.approx(-79.5 + 10 * np.log10(1.125), abs=1e-10)

    def test_flat_trace_sits_at_shot_noise(self):
        trace = tracefit.synth_trace(PARAMS_A, "flat", (1e6, 3e6, 1e6))
        np.testing.assert_allclose(trace.powers_dbm, -79.0, atol=1e-12)

    def test_phase_model_rejects_zero_frequency(self):
        from twinbeam.errors import DomainError

        with pytest.raises(DomainError):
            tracefit.synth_trace(PARAMS_A, "phase", np.array([0.0, 1e6]))

    @pytest.mark.parametrize("noise_db", [-1.0, float("nan")])
    def test_negative_noise_rejected(self, noise_db):
        with pytest.raises(ValidationError, match="noise_db"):
            tracefit.synth_trace(PARAMS_A, "intensity", COARSE_GRID, noise_db)
