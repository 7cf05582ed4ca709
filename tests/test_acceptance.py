"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them on
success). Timed criteria measure the computation on a warmed engine so that
one-time imports and cache fills are not charged against the physics.
"""

import time

import numpy as np
import pytest

import oracles
from twinbeam import fock, quadratures, spectra, tracefit
from twinbeam.modes import ModeLabel, Polarization, Port
from twinbeam.spectra import OpoParams

REFERENCE_A = dict(s0_dbm=-79.0, xi=0.72, delta_hz=2.98e6)
REFERENCE_B = dict(s0_dbm=-79.5, xi=0.5, delta_hz=4.3e6)

FINE_GRID = tracefit.grid_hz(0.5e6, 10.0e6, 1e3)


def _report(number: int, name: str, ok: bool) -> None:
    print(f"ACCEPTANCE {number} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {number} ({name}) failed"


def _loglog_slope(n_values, y_values) -> float:
    x = np.log(np.asarray(n_values, dtype=float))
    y = np.log(np.asarray(y_values, dtype=float))
    x = x - x.mean()
    return float((x @ (y - y.mean())) / (x @ x))


def test_criterion_1_hom_dichotomy(warm_engine):
    """Coincidence 0 with dN=2 for a degenerate pair; 1/2 and sqrt(2) for a
    distinguishable pair; exact to 1e-12 and done in under a second."""
    start = time.perf_counter()

    degenerate = fock.apply_beam_splitter(fock.make_fock([1, 1], cutoff=2))
    stats_deg = fock.number_difference_stats(degenerate)
    coincidence_deg = fock.coincidence_probability(degenerate)

    modes = (ModeLabel(Polarization.H, 0, Port.A), ModeLabel(Polarization.H, 1, Port.B))
    distinguishable = fock.apply_beam_splitter(fock.make_fock([1, 1], 2, modes=modes))
    stats_dis = fock.number_difference_stats(distinguishable)
    coincidence_dis = fock.coincidence_probability(distinguishable)

    elapsed = time.perf_counter() - start
    ok = (
        abs(coincidence_deg) <= 1e-12
        and abs(stats_deg.std - 2.0) <= 1e-12
        and abs(coincidence_dis - 0.5) <= 1e-12
        and abs(stats_dis.std - np.sqrt(2.0)) <= 1e-12
        and elapsed < 1.0
    )
    _report(1, "HOM dichotomy", ok)


def test_criterion_2_classical_vs_heisenberg_scaling(warm_engine):
    """Var = N exactly for |N,0> (dyadic oracle) and 2N(N+1) to 1e-9 for
    |N,N>, N = 1..8; scaling exponents 0.5 and ~1.

    The exponent of the interference branch is read by regression over the
    asymptotic half of the computed range (N = 4..8): the exact law
    2N(N+1) only approaches slope 1 from below as N grows.
    """
    start = time.perf_counter()
    n_values = np.arange(1, 9)
    classical_std, twin_std = [], []
    ok = True
    for n in n_values:
        out = fock.apply_beam_splitter(fock.make_fock([n, 0], cutoff=n))
        engine = fock.number_difference_stats(out)
        oracle = oracles.exact_binomial_distribution(n)
        oracle_mean = sum(p * k for k, p in oracle.items())
        oracle_var = sum(p * k * k for k, p in oracle.items()) - oracle_mean**2
        ok &= oracle_var == float(n)  # dyadic arithmetic: exact equality
        ok &= abs(engine.variance - n) <= 1e-12 * n
        classical_std.append(engine.std)

        out = fock.apply_beam_splitter(fock.make_fock([n, n], cutoff=2 * n))
        engine = fock.number_difference_stats(out)
        expected = 2.0 * n * (n + 1)
        ok &= abs(engine.variance - expected) <= 1e-9 * expected
        ok &= abs(engine.variance - oracles.twin_fock_output_variance(n)) <= 1e-9 * expected
        twin_std.append(engine.std)

    slope_classical = _loglog_slope(n_values, classical_std)
    slope_twin = _loglog_slope(n_values[3:], np.array(twin_std)[3:])
    elapsed = time.perf_counter() - start
    ok &= abs(slope_classical - 0.5) <= 0.1
    ok &= abs(slope_twin - 1.0) <= 0.1
    ok &= elapsed < 10.0
    _report(2, "classical vs interference scaling", ok)


def test_criterion_3_squeezing_numbers():
    """dc squeezing 10 log10(1 - xi): -5.53 dB at xi=0.72 and -3.01 dB at
    xi=0.5, within 0.1 dB of the -5.5 / -3 reference levels."""
    level_a = spectra.relative_to_dbm(spectra.intensity_diff_spectrum(0.0, 0.72), 0.0)
    level_b = spectra.relative_to_dbm(spectra.intensity_diff_spectrum(0.0, 0.5), 0.0)
    ok = (
        abs(level_a - (-5.53)) <= 0.005
        and abs(level_b - (-3.01)) <= 0.005
        and abs(level_a - (-5.5)) <= 0.1
        and abs(level_b - (-3.0)) <= 0.1
    )
    _report(3, "squeezing numbers", ok)


def test_criterion_4_uncertainty_product_identity():
    """Product of the two spectra equals 1 + xi(1-xi)/(u^2(1+u^2)) to 1e-12
    over 10^4 random samples, and is identically 1 at xi = 1."""
    rng = np.random.default_rng(20240817)
    u = rng.uniform(0.05, 30.0, 10_000)
    xi = rng.uniform(0.0, 1.0, 10_000)
    product = spectra.uncertainty_product(u, xi)
    identity = 1.0 + xi * (1.0 - xi) / (u**2 * (1.0 + u**2))
    worst = np.max(np.abs(product - identity) / identity)

    u_grid = np.linspace(0.05, 40.0, 4001)
    lossless = np.max(np.abs(spectra.uncertainty_product(u_grid, 1.0) - 1.0))

    ok = worst <= 1e-12 and lossless <= 1e-12 and bool(np.all(product >= 1.0 - 1e-12))
    _report(4, "uncertainty product identity", ok)


def _roundtrip(reference: dict, seed: int) -> tuple[tracefit.FitResult, bool]:
    params = OpoParams.from_correlation(
        reference["xi"], reference["delta_hz"], reference["s0_dbm"]
    )
    trace = tracefit.synth_trace(params, "intensity", FINE_GRID, noise_db=0.2, seed=seed)
    config = tracefit.FitConfig.standard()
    fit = tracefit.fit_intensity_spectrum(trace, config)
    again = tracefit.fit_intensity_spectrum(trace, config)
    ok = (
        fit.to_dict() == again.to_dict()
        and abs(fit.s0_dbm - reference["s0_dbm"]) <= 0.1
        and abs(fit.xi - reference["xi"]) <= 0.02 * reference["xi"]
        and abs(fit.delta_hz - reference["delta_hz"]) <= 0.02 * reference["delta_hz"]
    )
    return fit, ok


def test_criterion_5_fit_roundtrip(warm_engine):
    """Both reference parameter sets recovered from noisy traces (0.2 dB,
    fixed seeds, default window and spur exclusion): xi and delta within 2%,
    S0 within 0.1 dB, bit-identical across repeated runs, under 5 s."""
    start = time.perf_counter()
    _, ok_a = _roundtrip(REFERENCE_A, seed=0)
    _, ok_b = _roundtrip(REFERENCE_B, seed=0)
    elapsed = time.perf_counter() - start
    _report(5, "fit roundtrip", ok_a and ok_b and elapsed < 5.0)


def test_criterion_6_zero_free_parameter_phase_prediction():
    """The phase-difference curve predicted from the intensity fit alone
    matches an independently synthesized phase trace at its noise level.

    Checks: prediction-vs-trace rms within 5% of the trace's realized noise
    rms (headroom for the fitted-parameter transfer error, itself bounded by
    criterion 5), and prediction-vs-truth rms below a quarter of the noise."""
    noise_db = 0.2
    ok = True
    for reference in (REFERENCE_A, REFERENCE_B):
        params = OpoParams.from_correlation(
            reference["xi"], reference["delta_hz"], reference["s0_dbm"]
        )
        intensity = tracefit.synth_trace(params, "intensity", FINE_GRID, noise_db, seed=0)
        fit = tracefit.fit_intensity_spectrum(intensity, tracefit.FitConfig.standard())

        phase_trace = tracefit.synth_trace(params, "phase", FINE_GRID, noise_db, seed=1000)
        predicted = tracefit.predict_phase_spectrum(fit, phase_trace.frequencies_hz)
        truth = spectra.relative_to_dbm(
            spectra.phase_diff_spectrum(
                phase_trace.frequencies_hz / reference["delta_hz"], reference["xi"]
            ),
            reference["s0_dbm"],
        )
        realized_noise = float(np.sqrt(np.mean((phase_trace.powers_dbm - truth) ** 2)))
        rms_prediction = float(
            np.sqrt(np.mean((phase_trace.powers_dbm - predicted.values) ** 2))
        )
        rms_transfer = float(np.sqrt(np.mean((predicted.values - truth) ** 2)))
        ok &= rms_prediction <= 1.05 * realized_noise
        ok &= rms_transfer <= 0.25 * noise_db
    _report(6, "zero-free-parameter phase prediction", ok)


def test_criterion_7_cross_engine_oracle(warm_engine):
    """Linearized dN(theta) vs exact Fock statistics for coherent pairs:
    discrepancy non-increasing over |alpha| in {1, 2, 3} and below 5% at 3.

    For coherent inputs the linearization is exact, so the observed
    discrepancies sit at numerical-noise level; values below 1e-9 are
    treated as indistinguishable when checking monotonicity, and the
    1/|alpha|^2 convergence envelope is asserted as well."""
    floor = 1e-9
    raw, floored = [], []
    for alpha, cutoff in ((1.0, 20), (2.0, 36), (3.0, 56)):
        report = quadratures.cross_check_against_fock(alpha, cutoff=cutoff)
        raw.append(report.max_relative_error)
        floored.append(max(report.max_relative_error, floor))
    ok = (
        floored[0] >= floored[1] >= floored[2]
        and raw[2] < 0.05
        and all(err <= 1.0 / alpha**2 for err, alpha in zip(raw, (1.0, 2.0, 3.0)))
    )
    _report(7, "cross-engine oracle", ok)


def test_criterion_8_heisenberg_inequality_suite():
    """dX_minus * dP_minus >= 1 - 1e-9 for 1000 random valid covariances."""
    rng = np.random.default_rng(42)
    worst = np.inf
    for index in range(1000):
        cov = oracles.random_valid_covariance(
            rng, squeeze_max=1.5, noise_scale=0.3 if index % 3 == 0 else 0.0
        )
        dx_minus, dp_minus = oracles.difference_quadrature_stds(cov)
        worst = min(worst, dx_minus * dp_minus)
    _report(8, "Heisenberg inequality suite", worst >= 1.0 - 1e-9)
