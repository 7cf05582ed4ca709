"""Quadrature tests: the linearized number difference against the Fock engine,
and the Gaussian algebra and Langevin-derived OPO covariance of ``oracles``."""

import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from twinbeam import fock, spectra
from twinbeam import quadratures as quad
from twinbeam.modes import ModeLabel, Polarization, Port
from twinbeam.errors import TruncationError, ValidationError


def linear_std(mean_a, mean_b, cov, theta):
    """The linearized std of n_c - n_d of a Gaussian state, by the oracle."""
    return np.sqrt(oracles.gaussian_number_difference(mean_a, mean_b, cov, theta)[0])


def assert_valid_covariance(cov):
    """Finite, symmetric and C + (i/2) Omega >= 0: a quantum covariance."""
    assert np.isfinite(cov).all()
    assert np.allclose(cov, cov.T, atol=1e-10)
    assert np.linalg.eigvalsh(cov + 0.5j * oracles.OMEGA).min() >= -1e-10


class TestDifferenceStds:
    def test_vacuum_gives_unity(self):
        dx, dp = oracles.difference_quadrature_stds(0.5 * np.eye(4))
        assert dx == pytest.approx(1.0, abs=1e-12)
        assert dp == pytest.approx(1.0, abs=1e-12)
        assert dx * dp == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("r", [0.2, 1.0, 2.5, 4.0])
    def test_perfect_correlation_limit(self, r):
        dx, dp = oracles.difference_quadrature_stds(oracles.tmsv_covariance(r))
        assert dx == pytest.approx(np.exp(-r), rel=1e-10)
        assert dp == pytest.approx(np.exp(r), rel=1e-10)
        # dX_minus -> 0 while the product stays at the bound

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_random_symplectic_covariances_are_valid(self, seed):
        # the generator the Heisenberg sweeps and criterion 8 draw from
        rng = np.random.default_rng(seed)
        assert_valid_covariance(
            oracles.random_valid_covariance(rng, noise_scale=0.2 if seed % 2 else 0.0))

    def test_heisenberg_property_seeded_sweep(self):
        rng = np.random.default_rng(2024)
        for _ in range(300):
            cov = oracles.random_valid_covariance(rng, noise_scale=0.3 * rng.random())
            dx, dp = oracles.difference_quadrature_stds(cov)
            assert dx * dp >= 1.0 - 1e-9


class TestLangevinOracle:
    """The OPO difference mode, derived from its linearised Langevin
    equations in ``oracles``, against the closed forms of ``spectra``."""

    U_GRID = np.logspace(-3.0, 3.0, 61)

    @pytest.mark.parametrize("xi", [1e-12, 1e-6, 0.1, 0.3, 0.5, 0.72, 0.9, 1.0 - 1e-9, 1.0])
    @pytest.mark.parametrize("delta_hz", [1e-3, 1.0, 2.98e6])
    def test_reproduces_both_spectra_and_their_product(self, xi, delta_hz):
        # the cavity of OpoParams: xi = T / (T + A) and delta = (T + A) D / 2 pi
        params = spectra.OpoParams.from_correlation(xi, delta_hz, -79.0)
        for u in self.U_GRID:
            spectrum = oracles.opo_difference_mode_spectra(
                params.transmissivity, params.loss, params.free_spectral_range_hz,
                2.0 * np.pi * u * params.delta_hz)
            # amplitude and phase differences do not mix, and the spectrum is real
            assert spectrum[0, 1] == spectrum[1, 0] == 0.0
            assert np.abs(spectrum.imag).max() <= 1e-15
            s_x, s_p = spectrum.real.diagonal()
            assert s_x == pytest.approx(spectra.intensity_diff_spectrum(u, params.xi), rel=1e-13)
            assert s_p == pytest.approx(spectra.phase_diff_spectrum(u, params.xi), rel=1e-13)
            assert s_x * s_p == pytest.approx(spectra.uncertainty_product(u, params.xi),
                                              rel=1e-13)

    @pytest.mark.parametrize("xi", [0.3, 0.72, 1.0])
    def test_the_splitter_reads_each_spectrum_from_the_derived_covariance(self, xi):
        # at theta = 0 the number difference reads X_-, at the balanced pi/8
        # it reads P_-: per mean photon the two spectra. The covariance holds
        # both in (X_a, X_b) entries of size (s_x + s_p) / 4, so the smaller
        # comes back with a rounding error of about eps (s_x + s_p) / min(s_x, s_p)
        alpha = 1.0
        for u in self.U_GRID[::2]:
            cov = oracles.opo_covariance(u, xi)
            s_x, s_p = spectra.intensity_diff_spectrum(u, xi), spectra.phase_diff_spectrum(u, xi)
            rel = 1e-14 + 4.0 * np.finfo(float).eps * (s_x + s_p) / min(s_x, s_p)
            photons = 2.0 * alpha**2
            for theta, want in ((0.0, s_x), (np.pi / 8, s_p)):
                linear, _ = oracles.gaussian_number_difference(alpha, alpha, cov, theta)
                assert linear / photons == pytest.approx(want, rel=rel), (u, theta)

    def test_the_derived_covariance_is_a_valid_state(self):
        # the mirrored sum block keeps the state physical
        for u in (0.1, 0.5, 1.0, 5.0):
            for xi in (0.25, 0.72, 1.0):
                assert_valid_covariance(oracles.opo_covariance(u, xi))


class TestNumberDifferenceStd:
    def test_prefactor_pinned_by_coherent_statistics(self):
        # independent Poisson beams: exact Var(N_-) = 2 |alpha|^2
        alpha = 1.7
        got = quad.number_difference_std(alpha, alpha, 0.0)
        assert got == pytest.approx(np.sqrt(2.0) * alpha, rel=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_matches_the_oracle_at_vacuum(self, seed):
        # the package's gradient and the oracle's quadratic form H agree
        rng = np.random.default_rng(seed)
        mean_a, mean_b = (complex(*rng.normal(scale=3.0, size=2)) for _ in range(2))
        theta = float(rng.uniform(-3.0, 3.0))
        linear, fourth = oracles.gaussian_number_difference(mean_a, mean_b, 0.5 * np.eye(4), theta)
        assert quad.number_difference_std(mean_a, mean_b, theta) ** 2 == pytest.approx(
            linear, rel=1e-12)
        assert fourth == pytest.approx(0.0, abs=1e-15)

    def test_squeezed_input_reduced_at_zero_angle(self):
        cov = oracles.opo_covariance(0.5, 0.72)
        shot = quad.number_difference_std(2, 2, 0.0)
        squeezed = linear_std(2, 2, cov, 0.0)
        anti = linear_std(2, 2, cov, np.pi / 8)
        assert squeezed < shot < anti
        # ratio to shot noise reproduces the quadrature stds
        dx, dp = oracles.difference_quadrature_stds(cov)
        assert squeezed / shot == pytest.approx(dx, rel=1e-12)
        assert anti / shot == pytest.approx(dp, rel=1e-12)

    def test_quarter_angle_equals_zero_angle(self):
        rng = np.random.default_rng(9)
        cov = oracles.random_valid_covariance(rng)
        assert linear_std(1.3, 1.3, cov, np.pi / 4) == pytest.approx(
            linear_std(1.3, 1.3, cov, 0.0), rel=1e-12
        )
        assert quad.number_difference_std(1.3, 1.3, np.pi / 4) == pytest.approx(
            quad.number_difference_std(1.3, 1.3, 0.0), rel=1e-12
        )

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_swap_property(self, seed):
        # exchanging the X and P blocks swaps the roles of the two angles
        rng = np.random.default_rng(seed)
        cov = oracles.random_valid_covariance(rng)
        perm = np.array([1, 0, 3, 2])
        swapped = cov[np.ix_(perm, perm)]
        assert linear_std(1.0, 1.0, cov, np.pi / 8) == pytest.approx(
            linear_std(1.0, 1.0, swapped, 0.0), rel=1e-10
        )

    def test_generalized_formula_matches_poisson_statistics(self):
        # exact for coherent beams: Var(N_-) = |alpha|^2 + |beta|^2
        alpha, beta = 2.0, 1.0 + 0.5j
        got = quad.number_difference_std(alpha, beta, 0.0)
        assert got == pytest.approx(np.sqrt(abs(alpha) ** 2 + abs(beta) ** 2), rel=1e-12)

    @pytest.mark.parametrize("alpha,beta", [(2.0, 1.0 + 0.5j), (0.5, 1.5j), (1.8, 0.0)])
    def test_unbalanced_coherent_pairs_match_the_fock_engine(self, alpha, beta):
        # the linearization is exact on coherent inputs, balanced or not
        modes = (ModeLabel(Polarization.H, 0, Port.A), ModeLabel(Polarization.V, 0, Port.A))
        state = fock.make_coherent_pair(alpha, beta, 40, modes=modes)
        for theta in (0.0, np.pi / 16, np.pi / 8, 0.3, np.pi / 4):
            exact = fock.number_difference_stats(fock.apply_waveplate_polarizer(state, theta)).std
            assert quad.number_difference_std(alpha, beta, theta) == pytest.approx(exact, rel=1e-12)

    @pytest.mark.parametrize("alpha, r", [(1 + 1j, 0.3), (0.5 + 1j, 0.35), (1j, 0.4)])
    def test_displaced_squeezed_vacuum_matches_the_symmetric_splitter(self, alpha, r):
        # off the coherent states: the linearized variance plus the Gaussian
        # fourth-moment term is the exact variance of the optic the layer reads
        amplitudes, leakage = oracles.displaced_tmsv(alpha, alpha, r, cutoff=30)
        state = fock.MultimodeState((ModeLabel(Polarization.H, 0, Port.A),
                                     ModeLabel(Polarization.H, 0, Port.B)), 30, amplitudes)
        assert leakage < 1e-12
        for theta in (np.pi / 16, -0.3, 0.5):
            exact = fock.number_difference_stats(
                fock.apply_beam_splitter(state, mixing_angle=2.0 * theta)).variance
            linear, fourth = oracles.gaussian_number_difference(
                alpha, alpha, oracles.tmsv_covariance(r), theta)
            # the trace terms are the closed form of the TMSV
            assert fourth == pytest.approx(oracles.tmsv_fourth_moment(r, 2.0 * theta), rel=1e-12)
            assert linear + fourth == pytest.approx(exact, rel=1e-5)

    def test_the_splitter_is_the_plate_after_a_quarter_wave_on_v(self):
        # symmetric-i at 2 theta on (a, b) and the plate at theta on (a, i b)
        # give the same port statistics, bit for bit
        rng = np.random.default_rng(27)
        cutoff = 8
        n_a, n_b = np.divmod(np.arange((cutoff + 1) ** 2), cutoff + 1)
        quarter_wave = np.array([1, 1j, -1, -1j])[n_b % 4]
        plate_modes = (ModeLabel(Polarization.H, 0, Port.A), ModeLabel(Polarization.V, 0, Port.A))
        for _ in range(50):
            psi = rng.normal(size=n_a.size) + 1j * rng.normal(size=n_a.size)
            psi[n_a + n_b > cutoff] = 0.0
            psi /= np.linalg.norm(psi)
            theta = float(rng.uniform(-3.0, 3.0))
            splitter = fock.apply_beam_splitter(
                fock.MultimodeState((ModeLabel(Polarization.H, 0, Port.A),
                                     ModeLabel(Polarization.H, 0, Port.B)), cutoff, psi),
                mixing_angle=2.0 * theta)
            plate = fock.apply_waveplate_polarizer(
                fock.MultimodeState(plate_modes, cutoff, quarter_wave * psi), theta)
            np.testing.assert_array_equal(fock.port_stats(splitter), fock.port_stats(plate))
            assert fock.number_difference_stats(splitter) == fock.number_difference_stats(plate)


@pytest.mark.parametrize("make, message", [
    (lambda: quad.number_difference_std(np.nan, 1.0, 0.0), "mean_a must be finite, got (nan+0j)"),
    (lambda: quad.number_difference_std(1.0, complex(1.0, np.inf), 0.0),
     "mean_b must be finite, got (1+infj)"),
    (lambda: quad.number_difference_std(1.0, 1.0, np.nan), "theta must be finite, got nan"),
    (lambda: quad.number_difference_std(1.0, 1.0, -np.inf), "theta must be finite, got -inf"),
    (lambda: quad.number_difference_std(1.0, 1.0, 1e308),
     "theta = 1e+308 is too large: its mixing angle 2*theta overflows"),
], ids=["mean_a", "mean_b", "theta_nan", "theta_inf", "theta_doubles_past_the_float_range"])
def test_non_finite_input_is_refused_by_name(make, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match=re.escape(message)):
            make()


class TestCrossCheck:
    def test_zero_mean_field_degenerate_case(self):
        report = quad.cross_check_against_fock(0.0, cutoff=8)
        assert report.exact == (0.0, 0.0, 0.0)
        assert report.linearized == (0.0, 0.0, 0.0)
        assert report.max_relative_error == 0.0

    def test_agreement_at_vacuum_covariance(self):
        report = quad.cross_check_against_fock(2.0, cutoff=36)
        assert report.max_relative_error < 1e-9
        for value in report.exact:
            assert value == pytest.approx(np.sqrt(2.0) * 2.0, rel=1e-9)

    def test_convergence_with_brightness(self):
        # discrepancy shrinks (to the numerical floor) as the beams brighten
        floor = 1e-9
        errors = [
            max(quad.cross_check_against_fock(a, cutoff=c).max_relative_error, floor)
            for a, c in ((1.0, 20), (2.0, 36), (3.0, 56))
        ]
        assert errors[0] >= errors[1] >= errors[2]
        assert errors[2] < 0.05

    @pytest.mark.parametrize("alpha", [float("nan"), complex(1.0, float("nan")), float("inf")])
    def test_non_finite_amplitude_rejected_by_name(self, alpha):
        with pytest.raises(ValidationError, match="alpha_a must be finite"):
            quad.cross_check_against_fock(alpha, cutoff=8)

    def test_excessive_leakage_rejected(self):
        with pytest.raises(TruncationError), pytest.warns():
            quad.cross_check_against_fock(2.0, cutoff=16)  # Poisson(4) tail above 1e-8
