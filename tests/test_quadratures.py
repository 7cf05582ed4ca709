"""Quadrature-algebra tests: Heisenberg bound, angle map, exact-engine checks."""

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


def two_mode_squeezed_cov(r: float) -> np.ndarray:
    """Valid covariance with Var(X_a - X_b) = e^{-2r}, minimum uncertainty."""
    ch, sh = np.cosh(2 * r) / 2, np.sinh(2 * r) / 2
    cov = np.diag([ch, ch, ch, ch])
    cov[0, 2] = cov[2, 0] = sh  # X_a X_b correlated
    cov[1, 3] = cov[3, 1] = -sh  # P_a P_b anticorrelated
    return cov


class TestCovarianceValidity:
    def test_vacuum_is_valid(self):
        quad.validate_covariance(quad.vacuum_covariance())

    def test_asymmetric_matrix_rejected(self):
        cov = quad.vacuum_covariance().copy()
        cov[0, 1] = 0.3
        with pytest.raises(ValidationError):
            quad.validate_covariance(cov)

    def test_classically_correlated_x_without_p_penalty_is_invalid(self):
        # correlating X alone at vacuum diagonals violates the uncertainty bound
        cov = quad.vacuum_covariance().copy()
        cov[0, 2] = cov[2, 0] = 0.3
        with pytest.raises(ValidationError):
            quad.validate_covariance(cov)

    def test_below_vacuum_uncorrelated_is_invalid(self):
        with pytest.raises(ValidationError):
            quad.validate_covariance(np.eye(4) * 0.3)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_random_symplectic_covariances_valid(self, seed):
        rng = np.random.default_rng(seed)
        cov = oracles.random_valid_covariance(rng, noise_scale=0.2 if seed % 2 else 0.0)
        quad.validate_covariance(cov)


class TestDifferenceStds:
    def test_vacuum_gives_unity(self):
        stats = quad.quadrature_difference_stds(quad.QuadratureState(0, 0))
        assert stats.dx_minus == pytest.approx(1.0, abs=1e-12)
        assert stats.dp_minus == pytest.approx(1.0, abs=1e-12)
        assert stats.heisenberg_product == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("r", [0.2, 1.0, 2.5, 4.0])
    def test_perfect_correlation_limit(self, r):
        stats = quad.quadrature_difference_stds(quad.QuadratureState(1, 1, two_mode_squeezed_cov(r)))
        assert stats.dx_minus == pytest.approx(np.exp(-r), rel=1e-10)
        assert stats.dp_minus == pytest.approx(np.exp(r), rel=1e-10)
        # dX_minus -> 0 while the product stays at the bound

    def test_opo_bridge_matches_model(self):
        for u in (0.25, 1.0, 3.0):
            for xi in (0.3, 0.72, 1.0):
                cov = spectra.opo_quadrature_covariance(u, xi)
                stats = quad.quadrature_difference_stds(quad.QuadratureState(1, 1, cov))
                assert stats.dx_minus**2 == pytest.approx(
                    spectra.intensity_diff_spectrum(u, xi), rel=1e-12
                )
                assert stats.dp_minus**2 == pytest.approx(
                    spectra.phase_diff_spectrum(u, xi), rel=1e-12
                )

    def test_heisenberg_property_seeded_sweep(self):
        rng = np.random.default_rng(2024)
        for _ in range(300):
            cov = oracles.random_valid_covariance(rng, noise_scale=0.3 * rng.random())
            stats = quad.quadrature_difference_stds(quad.QuadratureState(1, 1, cov))
            assert stats.heisenberg_product >= 1.0 - 1e-9


class TestNumberDifferenceStd:
    def test_prefactor_pinned_by_coherent_statistics(self):
        # independent Poisson beams: exact Var(N_-) = 2 |alpha|^2
        alpha = 1.7
        got = quad.number_difference_std(quad.QuadratureState(alpha, alpha), 0.0)
        assert got == pytest.approx(np.sqrt(2.0) * alpha, rel=1e-12)

    def test_squeezed_input_reduced_at_zero_angle(self):
        cov = spectra.opo_quadrature_covariance(0.5, 0.72)
        state = quad.QuadratureState(2, 2, cov)
        shot = quad.number_difference_std(quad.QuadratureState(2, 2), 0.0)
        squeezed = quad.number_difference_std(state, 0.0)
        anti = quad.number_difference_std(state, np.pi / 8)
        assert squeezed < shot < anti
        # ratio to shot noise reproduces the quadrature stds
        stats = quad.quadrature_difference_stds(state)
        assert squeezed / shot == pytest.approx(stats.dx_minus, rel=1e-12)
        assert anti / shot == pytest.approx(stats.dp_minus, rel=1e-12)

    def test_quarter_angle_equals_zero_angle(self):
        rng = np.random.default_rng(9)
        cov = oracles.random_valid_covariance(rng)
        state = quad.QuadratureState(1.3, 1.3, cov)
        assert quad.number_difference_std(state, np.pi / 4) == pytest.approx(
            quad.number_difference_std(state, 0.0), rel=1e-12
        )

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_swap_property(self, seed):
        # exchanging the X and P blocks swaps the roles of the two angles
        rng = np.random.default_rng(seed)
        cov = oracles.random_valid_covariance(rng)
        perm = np.array([1, 0, 3, 2])
        swapped = cov[np.ix_(perm, perm)]
        state = quad.QuadratureState(1.0, 1.0, cov)
        state_swapped = quad.QuadratureState(1.0, 1.0, swapped)
        assert quad.number_difference_std(state, np.pi / 8) == pytest.approx(
            quad.number_difference_std(state_swapped, 0.0), rel=1e-10
        )

    def test_generalized_formula_matches_poisson_statistics(self):
        # exact for coherent beams: Var(N_-) = |alpha|^2 + |beta|^2
        alpha, beta = 2.0, 1.0 + 0.5j
        got = quad.number_difference_std(quad.QuadratureState(alpha, beta), 0.0)
        assert got == pytest.approx(np.sqrt(abs(alpha) ** 2 + abs(beta) ** 2), rel=1e-12)

    @pytest.mark.parametrize("alpha,beta", [(2.0, 1.0 + 0.5j), (0.5, 1.5j), (1.8, 0.0)])
    def test_unbalanced_coherent_pairs_match_the_fock_engine(self, alpha, beta):
        # the linearization is exact on coherent inputs, balanced or not
        modes = (ModeLabel(Polarization.H, 0, Port.A), ModeLabel(Polarization.V, 0, Port.A))
        state = fock.make_coherent_pair(alpha, beta, 40, modes=modes)
        linear = quad.QuadratureState(alpha, beta)
        for theta in (0.0, np.pi / 16, np.pi / 8, 0.3, np.pi / 4):
            exact = fock.number_difference_stats(fock.apply_waveplate_polarizer(state, theta)).std
            assert quad.number_difference_std(linear, theta) == pytest.approx(exact, rel=1e-12)


    @pytest.mark.parametrize("alpha, r", [(1 + 1j, 0.3), (0.5 + 1j, 0.35), (1j, 0.4)])
    def test_displaced_squeezed_vacuum_matches_the_symmetric_splitter(self, alpha, r):
        # off the coherent states: the linearized variance plus the Gaussian
        # fourth-moment term is the exact variance of the optic the layer reads
        amplitudes, leakage = oracles.displaced_tmsv(alpha, alpha, r, cutoff=30)
        state = fock.MultimodeState((ModeLabel(Polarization.H, 0, Port.A),
                                     ModeLabel(Polarization.H, 0, Port.B)), 30, amplitudes)
        assert leakage < 1e-12
        linear = quad.QuadratureState(alpha, alpha, oracles.tmsv_covariance(r))
        for theta in (np.pi / 16, -0.3, 0.5):
            exact = fock.number_difference_stats(
                fock.apply_beam_splitter(state, mixing_angle=2.0 * theta)).variance
            predicted = (quad.number_difference_std(linear, theta) ** 2
                         + oracles.tmsv_fourth_moment(r, 2.0 * theta))
            assert predicted == pytest.approx(exact, rel=1e-5)

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


def _covariance_with(entries):
    cov = quad.vacuum_covariance()
    for (i, j), value in entries.items():
        cov[i, j] = value
    return cov


@pytest.mark.parametrize("make, message", [
    (lambda: quad.QuadratureState(np.nan, 1.0), "mean_a must be finite, got (nan+0j)"),
    (lambda: quad.QuadratureState(1.0, complex(1.0, np.inf)), "mean_b must be finite, got (1+infj)"),
    (lambda: quad.QuadratureState(1.0, 1.0, _covariance_with({(2, 2): np.inf})),
     "covariance entry (2, 2) must be finite, got inf"),
    (lambda: quad.QuadratureState(1.0, 1.0, np.full((4, 4), np.inf)),
     "covariance entry (0, 0) must be finite, got inf"),
    (lambda: quad.QuadratureState(1.0, 1.0, _covariance_with({(1, 2): np.nan})),
     "covariance entry (1, 2) must be finite, got nan"),
    (lambda: quad.number_difference_std(quad.QuadratureState(1.0, 1.0), np.nan),
     "theta must be finite, got nan"),
    (lambda: quad.number_difference_std(quad.QuadratureState(1.0, 1.0), -np.inf),
     "theta must be finite, got -inf"),
    (lambda: quad.number_difference_std(quad.QuadratureState(1.0, 1.0), 1e308),
     "theta = 1e+308 is too large: its mixing angle 2*theta overflows"),
], ids=["mean_a", "mean_b", "one_inf_diagonal", "all_inf", "nan_entry", "theta_nan",
        "theta_inf", "theta_doubles_past_the_float_range"])
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
