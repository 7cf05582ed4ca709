"""Noise-spectrum model tests: anchor values, identities, monotonicity, units."""

import math
import re
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import csv_table_per_row
from twinbeam import spectra
from twinbeam.errors import DomainError, ValidationError

finite_u = st.floats(min_value=0.05, max_value=50.0, allow_nan=False)
xi_values = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


class TestIntensitySpectrum:
    def test_shot_noise_recovered_at_high_frequency(self):
        assert spectra.intensity_diff_spectrum(1e6, 0.9) == pytest.approx(1.0, abs=1e-10)

    def test_dc_value_for_deep_squeezing(self):
        value = spectra.intensity_diff_spectrum(0.0, 0.72)
        assert value == pytest.approx(0.28, abs=1e-15)
        assert spectra.relative_to_dbm(value, 0.0) == pytest.approx(-5.53, abs=0.005)

    def test_dc_value_for_half_correlation(self):
        value = spectra.intensity_diff_spectrum(0.0, 0.5)
        assert value == pytest.approx(0.5, abs=1e-15)
        assert spectra.relative_to_dbm(value, 0.0) == pytest.approx(-3.01, abs=0.005)

    @settings(max_examples=200, deadline=None)
    @given(u1=finite_u, u2=finite_u, xi=st.floats(min_value=0.01, max_value=1.0))
    def test_monotone_increasing_and_bounded(self, u1, u2, xi):
        lo, hi = sorted((u1, u2))
        s_lo = spectra.intensity_diff_spectrum(lo, xi)
        s_hi = spectra.intensity_diff_spectrum(hi, xi)
        if hi > lo:
            assert s_hi >= s_lo
        assert 1.0 - xi <= s_lo <= 1.0

    def test_invalid_xi_rejected(self):
        with pytest.raises(ValidationError):
            spectra.intensity_diff_spectrum(1.0, 1.2)

    @pytest.mark.parametrize("xi", [math.nan, np.float64(math.nan), np.array([0.5, math.nan])])
    def test_nan_xi_rejected(self, xi):
        with pytest.raises(ValidationError, match="xi must be in"):
            spectra.intensity_diff_spectrum(1.0, xi)


class TestPhaseSpectrum:
    def test_shot_noise_recovered_at_high_frequency(self):
        assert spectra.phase_diff_spectrum(1e6, 0.9) == pytest.approx(1.0, abs=1e-10)

    def test_linewidth_value(self):
        assert spectra.phase_diff_spectrum(1.0, 0.5) == pytest.approx(1.5, abs=1e-15)
        assert spectra.relative_to_dbm(1.5, 0.0) == pytest.approx(1.76, abs=0.005)

    def test_zero_correlation_is_flat(self):
        u = np.linspace(0.1, 10, 50)
        np.testing.assert_allclose(spectra.phase_diff_spectrum(u, 0.0), 1.0, atol=1e-15)

    def test_pole_is_signaled(self):
        with pytest.raises(DomainError):
            spectra.phase_diff_spectrum(0.0, 0.5)
        with pytest.raises(DomainError):
            spectra.phase_diff_spectrum(np.array([0.5, 0.0, 1.0]), 0.5)

    @settings(max_examples=200, deadline=None)
    @given(u1=finite_u, u2=finite_u, xi=st.floats(min_value=0.01, max_value=1.0))
    def test_monotone_decreasing_and_above_shot_noise(self, u1, u2, xi):
        lo, hi = sorted((u1, u2))
        s_lo = spectra.phase_diff_spectrum(lo, xi)
        s_hi = spectra.phase_diff_spectrum(hi, xi)
        if hi > lo:
            assert s_hi <= s_lo
        assert s_hi >= 1.0


class TestDistinguishableBaseline:
    def test_flat_at_unity(self):
        u = np.linspace(0.01, 30, 101)
        np.testing.assert_array_equal(spectra.distinguishable_phase_spectrum(u), 1.0)

    def test_equals_phase_spectrum_without_correlation(self):
        u = np.linspace(0.2, 8, 40)
        np.testing.assert_allclose(
            spectra.distinguishable_phase_spectrum(u),
            spectra.phase_diff_spectrum(u, 0.0),
            atol=1e-15,
        )

    def test_dbm_form_is_flat_shot_noise(self):
        values = spectra.relative_to_dbm(spectra.distinguishable_phase_spectrum([1.0, 2.0]), -79.0)
        np.testing.assert_allclose(values, -79.0, atol=1e-12)


class TestUncertaintyProduct:
    @settings(max_examples=300, deadline=None)
    @given(u=finite_u, xi=xi_values)
    def test_closed_form_identity(self, u, xi):
        product = spectra.uncertainty_product(u, xi)
        identity = 1.0 + xi * (1.0 - xi) / (u**2 * (1.0 + u**2))
        assert product == pytest.approx(identity, rel=1e-12)
        assert product >= 1.0 - 1e-15

    @pytest.mark.parametrize("u", [0.125, 1e-4])
    def test_lossless_product_does_not_round_below_one(self, u):
        # 1 - xi/(1+u^2) cancels at xi = 1 and small u and would pull the
        # product below 1 (0.9999999999999964 at u = 0.125)
        assert spectra.uncertainty_product(u, 1.0) == 1.0
        assert spectra.intensity_diff_spectrum(u, 1.0) == pytest.approx(u**2 / (1 + u**2), rel=1e-15)

    def test_minimum_uncertainty_at_unit_correlation(self):
        u = np.linspace(0.05, 40, 2001)
        np.testing.assert_allclose(spectra.uncertainty_product(u, 1.0), 1.0, atol=1e-12)

    def test_reference_values(self):
        assert spectra.uncertainty_product(1.0, 0.5) == pytest.approx(1.125, abs=1e-12)
        assert spectra.uncertainty_product(1.0, 0.72) == pytest.approx(1.1008, abs=1e-12)

    def test_zero_correlation_is_unity(self):
        u = np.linspace(0.1, 5, 20)
        np.testing.assert_allclose(spectra.uncertainty_product(u, 0.0), 1.0, atol=1e-15)


class TestFloatRange:
    """Where u^2 overflows, is subnormal or underflows each spectrum returns
    its true value rounded, or raises DomainError where that exceeds the
    float range; a value the closed form computes from a normal u^2, finite
    and without overflow, is kept bit for bit."""

    U = [sign * 10.0**k for k in range(-320, 309) for sign in (1.0, -1.0)]
    # name -> (function, closed form, exact value on Fractions)
    MODELS = {
        "intensity": (spectra.intensity_diff_spectrum,
                      lambda u, xi: ((1.0 - xi) + u**2) / (1.0 + u**2),
                      lambda u, xi: ((1 - xi) + u * u) / (1 + u * u)),
        "phase": (spectra.phase_diff_spectrum,
                  lambda u, xi: 1.0 + xi / u**2,
                  lambda u, xi: 1 + xi / (u * u)),
        "excess": (spectra.uncertainty_excess,
                   lambda u, xi: xi * (1.0 - xi) / (u**2 * (1.0 + u**2)),
                   lambda u, xi: xi * (1 - xi) / (u * u * (1 + u * u))),
    }

    @pytest.mark.parametrize("xi", [0.0, 1e-323, 0.5, 1.0])
    @pytest.mark.parametrize("name", MODELS)
    def test_every_decade_of_u(self, name, xi):
        function, closed_form, exact_form = self.MODELS[name]
        for u in self.U:
            exact = exact_form(Fraction(u), Fraction(xi))
            if exact > sys.float_info.max:
                with pytest.raises(DomainError, match=re.escape(f"at u = {u!r}")):
                    function(u, xi)
                continue
            got = function(u, xi)
            assert isinstance(got, float)
            try:
                with np.errstate(over="raise", divide="raise", invalid="raise"):
                    direct = closed_form(np.float64(u), xi)
            except FloatingPointError:
                direct = None
            # past the float range, or a subnormal u^2, which keeps only a few digits
            if direct is None or u * u < sys.float_info.min:
                assert got == pytest.approx(float(exact), rel=1e-15, abs=1e-300), u
                continue
            assert got == direct, u
            assert got == pytest.approx(float(exact), rel=1e-12, abs=1e-300), u

    def test_arrays_take_the_limits_elementwise(self):
        u = np.array(self.U)
        np.testing.assert_array_equal(spectra.intensity_diff_spectrum(u, 0.5),
                                      [spectra.intensity_diff_spectrum(x, 0.5) for x in self.U])
        for function in (spectra.phase_diff_spectrum, spectra.uncertainty_product):
            np.testing.assert_array_equal(function(u, 0.0), 1.0)
        with pytest.raises(DomainError, match="phase-difference spectrum exceeds the float "
                                              "range at u = 1e-160"):
            spectra.phase_diff_spectrum(np.array([2.0, 1e-160, 1e-170]), 0.5)

    def test_a_frequency_past_the_float_range_is_at_shot_noise(self):
        params = spectra.OpoParams(1e-320, 0.0, 1e9, -80.0)
        for which in ("intensity", "phase"):
            curve = spectra.physical_frequency_curve(params, [1e5, 1e7], which)
            np.testing.assert_array_equal(curve.values, 1.0)


class TestOpoParams:
    @settings(max_examples=100, deadline=None)
    @given(
        t=st.floats(min_value=1e-4, max_value=0.5),
        a=st.floats(min_value=0.0, max_value=0.3),
        d=st.floats(min_value=1e6, max_value=1e12),
    )
    def test_derivation_identities(self, t, a, d):
        params = spectra.OpoParams(t, a, d, -79.0)
        assert params.xi * (t + a) == pytest.approx(t, rel=1e-14)
        assert 2.0 * np.pi * params.delta_hz == pytest.approx((t + a) * d, rel=1e-14)
        assert 0.0 < params.xi <= 1.0
        assert params.delta_hz > 0.0

    def test_unit_correlation_iff_lossless(self):
        assert spectra.OpoParams(0.01, 0.0, 1e9, -79.0).xi == 1.0
        assert spectra.OpoParams(0.01, 0.001, 1e9, -79.0).xi < 1.0

    @pytest.mark.parametrize("delta_hz", [math.nan, math.inf, 0.0])
    def test_from_correlation_needs_a_finite_positive_delta(self, delta_hz):
        with pytest.raises(ValidationError, match="delta must be positive and finite"):
            spectra.OpoParams.from_correlation(0.5, delta_hz, -79.0)

    @pytest.mark.parametrize("xi", [0.0, 5e-324])
    def test_from_correlation_refuses_an_xi_whose_half_is_zero(self, xi):
        with pytest.raises(ValidationError, match=rf"^xi = {xi!r} does not define a cavity"):
            spectra.OpoParams.from_correlation(xi, 3e6, -79.0)
        assert spectra.OpoParams.from_correlation(1e-323, 3e6, -79.0).transmissivity == 5e-324

    def test_from_correlation_roundtrip(self):
        params = spectra.OpoParams.from_correlation(0.72, 2.98e6, -79.0)
        assert params.xi == pytest.approx(0.72, rel=1e-14)
        assert params.delta_hz == pytest.approx(2.98e6, rel=1e-14)

    @settings(max_examples=200, deadline=None)
    @given(
        xi=st.floats(min_value=1e-300, max_value=1.0),
        delta_hz=st.floats(min_value=1e-3, max_value=1e300),
    )
    def test_from_correlation_reads_back_as_with_t_plus_a_one(self, xi, delta_hz):
        """T + A = 1/2 is a power-of-two scaling of T + A = 1: same bits back."""
        params = spectra.OpoParams.from_correlation(xi, delta_hz, -79.0)
        total = xi + (1.0 - xi)
        assert params.xi == xi / total
        assert params.delta_hz == total * (2.0 * np.pi * delta_hz) / (2.0 * np.pi)

    def test_unit_correlation_is_the_lossless_cavity(self):
        params = spectra.OpoParams.from_correlation(1.0, 3e6, -80.0)
        assert (params.transmissivity, params.loss) == (0.5, 0.0)
        assert (params.xi, params.delta_hz) == (1.0, 3e6)

    @pytest.mark.parametrize("bad", [
        dict(transmissivity=0.0), dict(loss=1.0), dict(free_spectral_range_hz=-1.0),
        dict(free_spectral_range_hz=math.nan), dict(free_spectral_range_hz=math.inf),
        dict(s0_dbm=math.nan), dict(s0_dbm=math.inf), dict(s0_dbm=-math.inf),
    ])
    def test_invalid_cavity_rejected(self, bad):
        kwargs = dict(transmissivity=0.02, loss=0.005, free_spectral_range_hz=1e9, s0_dbm=-79.0)
        kwargs.update(bad)
        with pytest.raises(ValidationError):
            spectra.OpoParams(**kwargs)


class TestUnits:
    def test_dbm_reference_point(self):
        assert spectra.relative_to_dbm(1.0, -79.0) == -79.0

    def test_dc_dip_in_dbm(self):
        assert spectra.relative_to_dbm(0.28, -79.0) == pytest.approx(-84.53, abs=0.005)

    def test_roundtrip_identity(self):
        rng = np.random.default_rng(0)
        values = rng.uniform(0.05, 3.0, 100)
        dbm = spectra.relative_to_dbm(values, -79.0)
        np.testing.assert_allclose(dbm, -79.0 + 10.0 * np.log10(values), rtol=1e-12)
        np.testing.assert_allclose(10.0 ** ((dbm + 79.0) / 10.0), values, rtol=1e-12)

    def test_nonpositive_power_rejected(self):
        with pytest.raises(DomainError):
            spectra.relative_to_dbm(0.0, -79.0)


class TestPhysicalFrequencyCurve:
    def test_linewidth_point_matches_normalized_form(self):
        params = spectra.OpoParams.from_correlation(0.72, 2.98e6, -79.0)
        curve = spectra.physical_frequency_curve(params, [2.98e6], "intensity")
        assert curve.values[0] == pytest.approx(spectra.intensity_diff_spectrum(1.0, 0.72), rel=1e-14)

    def test_squeezing_bandwidth_tracks_cavity_linewidth(self):
        params = spectra.OpoParams.from_correlation(0.72, 2.98e6, -79.0)
        nu = np.linspace(0.0, 12e6, 4801)
        curve = spectra.physical_frequency_curve(params, nu, "intensity")
        # the dip reaches half depth at nu = delta
        dc = curve.values[0]
        half = dc + (1.0 - dc) / 2.0
        crossing = nu[np.argmin(np.abs(curve.values - half))]
        assert crossing == pytest.approx(2.98e6, rel=2e-3)

    def test_phase_curve_rises_toward_low_frequency(self):
        params = spectra.OpoParams.from_correlation(0.5, 4.3e6, -79.5)
        curve = spectra.physical_frequency_curve(params, [0.5e6, 2e6, 8e6], "phase")
        dbm = spectra.relative_to_dbm(curve.values, params.s0_dbm)
        assert dbm[0] > dbm[1] > dbm[2] > -79.5

    def test_csv_export_format(self):
        params = spectra.OpoParams.from_correlation(0.5, 4.3e6, -79.5)
        curve = spectra.physical_frequency_curve(params, [1e6, 2e6], "intensity")
        text = curve.to_csv()
        lines = text.strip().splitlines()
        assert lines[0] == "frequency_hz,value,unit"
        assert len(lines) == 3
        assert lines[1].endswith(",relative")


    @pytest.mark.parametrize("make, message", [
        (lambda: spectra.SpectrumCurve([1e6, 2e6], [1.0], spectra.RELATIVE),
         "frequency and value arrays must match"),
        (lambda: spectra.SpectrumCurve([1e6], [1.0], "db"),
         "unit must be 'relative' or 'dbm', got 'db'"),
        (lambda: spectra.physical_frequency_curve(
            spectra.OpoParams.from_correlation(0.5, 4.3e6, -79.5), [1e6], "amplitude"),
         "which must be one of ['flat', 'intensity', 'phase'], got 'amplitude'"),
    ], ids=["shapes", "unit", "which"])
    def test_refused_by_name(self, make, message):
        with pytest.raises(ValidationError, match=re.escape(message)):
            make()


class TestCsvTable:
    any_float = st.one_of(
        st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
        st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                         1e308, -1e308, 1.7976931348623157e308, 123456789.0123456789]),
    )
    free_text = st.text(alphabet="ab %{}d=,.-", max_size=8)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(rows=st.lists(st.tuples(any_float, any_float, any_float), max_size=30),
           unit=free_text, comments=st.lists(free_text, max_size=2),
           trailer=st.lists(free_text, max_size=2))
    def test_matches_per_row_format(self, rows, unit, comments, trailer):
        a, b, c = (list(column) for column in zip(*rows)) if rows else ([], [], [])
        columns = {"frequency_hz": np.array(a), "value": b, "unit": unit, "extra": np.array(c)}
        assert spectra.csv_table(columns, comments, trailer) == csv_table_per_row(
            columns, comments, trailer)

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(n=st.lists(st.integers(-(2**62), 2**62), min_size=1, max_size=20))
    def test_int_column_matches_per_row_format(self, n):
        columns = {"n": np.array(n), "root": np.sqrt(np.abs(np.array(n, dtype=float)))}
        assert spectra.csv_table(columns) == csv_table_per_row(columns)

    @staticmethod
    def assert_matches_oracle(values):
        columns = {"frequency_hz": values, "value": values, "unit": "relative", "neg": -values}
        assert spectra.csv_table(columns) == csv_table_per_row(columns)

    @staticmethod
    def with_ulps(values, count):
        """values and their neighbours up to count ulps away on each side."""
        out, up, down = [values], values, values
        for _ in range(count):
            up, down = np.nextafter(up, np.inf), np.nextafter(down, -np.inf)
            out += [up, down]
        return np.concatenate(out)

    @pytest.mark.parametrize("values", [
        np.concatenate([10.0 ** np.arange(-6, 14), -(10.0 ** np.arange(-6, 14))]),
        np.ldexp(np.random.default_rng(1).uniform(1.0, 2.0, 2098), np.arange(-1074, 1024)),
        np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1.0, 0.0]),
        np.concatenate([2.0**53 + np.arange(-4, 5), -(2.0**53) - np.arange(-4, 5),
                        np.random.default_rng(2).integers(-(2**62), 2**62, 500),
                        10.0 ** np.arange(10, 20)]),
    ], ids=["powers_of_ten", "one_per_binary_exponent", "zeros_inf_nan", "integers_past_2_53"])
    def test_edge_values_match_per_row_format(self, values):
        self.assert_matches_oracle(self.with_ulps(values.astype(float), 3))

    @pytest.mark.parametrize("digits", [10, 12])
    def test_exact_decimal_half_ties(self, digits):
        # q / 2^j is exactly the (digits + 1)-digit decimal q 5^j / 10^j, whose
        # last digit is a 5 whenever q 5^j ends in one
        rng = np.random.default_rng(digits)
        ties = []
        for j in range(digits + 5):
            lo, hi = -(-10**digits // 5**j), 10 ** (digits + 1) // 5**j
            q = rng.integers(lo, hi, 40) if hi > lo + 40 else np.arange(lo, hi)
            q = q[(q * 5**j) % 10 == 5]
            ties.append(np.ldexp(q.astype(float), -j))
        ties = np.concatenate(ties)
        assert ties.size > 250
        self.assert_matches_oracle(self.with_ulps(ties, 1))

    @pytest.mark.parametrize("extra", [-1, 0, 1, spectra._BLOCK_ROWS + 1])
    def test_lengths_around_the_block(self, extra):
        # every fourth value is one that format spells, so rows it spells in
        # one block are spelled by numpy in the next
        n = spectra._BLOCK_ROWS + extra
        rng = np.random.default_rng(n)
        values = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-6.0, 14.0, n)
        values[::4] = rng.choice([0.0, np.nan, -np.inf, 1e-9, 2.5e15, 0.5], values[::4].size)
        self.assert_matches_oracle(values)

    def test_a_full_size_synthetic_trace(self):
        from twinbeam import tracefit

        params = spectra.OpoParams.from_correlation(0.72, 3e6, -80.0)
        trace = tracefit.synth_trace(params, "intensity", tracefit.grid_hz(0.5e6, 10e6, 100.0),
                                     0.05, seed=4)
        assert len(trace) == 95_001
        columns = {"frequency_hz": trace.frequencies_hz, "power_dbm": trace.powers_dbm}
        assert spectra.csv_table(columns) == csv_table_per_row(columns)

    def test_columns_of_unequal_length_are_refused(self):
        with pytest.raises(ValueError):
            spectra.csv_table({"frequency_hz": [1.0, 2.0], "value": [1.0]})

    def test_a_table_of_str_columns_only_is_refused(self):
        with pytest.raises(ValueError):
            spectra.csv_table({"unit": "relative"})

    def test_percent_and_braces_in_str_column(self):
        columns = {"frequency_hz": [1e6, 2e6], "value": [0.5, 0.25], "unit": "100%{x}%%s"}
        assert spectra.csv_table(columns, ["c %s {}"], ["t %d"]) == (
            "# c %s {}\nfrequency_hz,value,unit\n"
            "1000000,0.5,100%{x}%%s\n2000000,0.25,100%{x}%%s\n# t %d\n")
