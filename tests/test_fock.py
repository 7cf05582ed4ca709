"""Exact Fock-engine tests: interference dichotomies, scaling laws, unitarity."""

import re
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest

import oracles
from twinbeam import fock
from twinbeam.errors import CapacityError, TruncationWarning, ValidationError
from twinbeam.modes import ModeLabel, Polarization, Port

H, V = Polarization.H, Polarization.V


def composed_blocks(optic):
    """The complex sector blocks phase_out[j, n-j] * blocks[n, j, k] *
    phase_in[n-k] of the three factors ``pair_unitary`` returns, with unit
    phases on the identity beyond each sector's corner."""
    phase_in, blocks, phase_out = optic
    n, j = np.indices(phase_out.shape)
    inside = j <= n
    rows = np.where(inside, phase_out[j, n - j], 1.0)
    cols = np.where(inside, phase_in[n - j], 1.0)
    return rows[:, :, None] * blocks * cols[:, None, :]


def expm_oracle_error(blocks, theta, convention):
    """Largest deviation of the sector blocks from the expm oracle's sectors."""
    dim = len(blocks)
    reference = oracles.splitter_unitary_expm(dim, theta, convention)
    errors = []
    for n in range(dim):
        k = np.arange(n + 1)
        sector = np.ix_(k * dim + (n - k), k * dim + (n - k))
        errors.append(np.abs(blocks[n, : n + 1, : n + 1] - reference[sector]).max())
    return max(errors)


def one_hot(shape, value=1.0):
    """Zeros of ``shape`` with ``value`` in the first entry, if there is one."""
    amplitudes = np.zeros(shape, dtype=complex)
    amplitudes.flat[:1] = value
    return amplitudes


def distinguishable_pair(n_a=1, n_b=1, cutoff=2):
    modes = (ModeLabel(H, 0, Port.A), ModeLabel(H, 1, Port.B))
    return fock.make_fock([n_a, n_b], cutoff, modes=modes)


# ---------------------------------------------------------------------------
# Constructors
# ---------------------------------------------------------------------------


class TestMakeFock:
    def test_basis_state_amplitude(self):
        state = fock.make_fock([1, 1], cutoff=2)
        assert state.norm() == pytest.approx(1.0, abs=1e-15)
        probs = state.probabilities()
        assert probs[1 * 3 + 1] == 1.0
        assert probs.sum() == pytest.approx(1.0, abs=1e-15)

    def test_occupation_above_cutoff_rejected(self):
        with pytest.raises(CapacityError):
            fock.make_fock([3, 0], cutoff=2)

    def test_negative_occupation_rejected(self):
        with pytest.raises(ValidationError):
            fock.make_fock([-1, 0], cutoff=2)

    def test_index_space_size(self):
        state = fock.make_fock([2, 1, 0], cutoff=3)
        assert state.amplitudes.shape == ((3 + 1) ** 3,)

    def test_vectors_are_frozen_and_its_own_without_the_constructor_copy(self):
        with mock.patch.object(fock.MultimodeState, "__post_init__",
                               side_effect=AssertionError("constructor copy")):
            states = [fock.make_fock([1, 1], 2) for _ in range(2)]
        mixture = fock.make_twin_mode_mixture(np.diag([0.0, 1.0]), 2)
        others = [states[1].vectors, states[1].probabilities(), mixture.vectors]
        for array in (states[0].vectors, states[0].probabilities()):
            assert not array.flags.writeable
            assert not any(np.shares_memory(array, other) for other in others)
        np.testing.assert_array_equal(states[0].vectors, mixture.vectors)
        assert states[0].modes is states[1].modes  # the default labels are built once


class TestIntegerArguments:
    """Occupations and cutoffs are integers: a Python or numpy integer
    passes, anything else is refused by name before it is used."""

    @pytest.mark.parametrize("make, message", [
        pytest.param(lambda: fock.make_fock([1.7, 0], 2), "occupation must be an integer, got 1.7",
                     id="float-occupation"),
        pytest.param(lambda: fock.make_fock(["2", 0], 2), "occupation must be an integer, got '2'",
                     id="string-occupation"),
        pytest.param(lambda: fock.make_fock([float("nan"), 0], 2),
                     "occupation must be an integer, got nan", id="nan-occupation"),
        pytest.param(lambda: fock.make_fock([0, np.float64(1.0)], 2),
                     "occupation must be an integer, got np.float64(1.0)", id="numpy-float-occupation"),
        pytest.param(lambda: fock.make_fock([1, 0], 2.0), "cutoff must be an integer, got 2.0",
                     id="float-cutoff"),
        pytest.param(lambda: fock.make_coherent_pair(0.1, 0.1, 2.5),
                     "cutoff must be an integer, got 2.5", id="coherent-pair"),
        pytest.param(lambda: fock.make_twin_mode_mixture(np.eye(1), 2.5),
                     "cutoff must be an integer, got 2.5", id="twin-mixture"),
        pytest.param(lambda: fock.MultimodeState((ModeLabel(H, 0, Port.A),), 2.5, one_hot(4)),
                     "cutoff must be an integer, got 2.5", id="constructor"),
        pytest.param(lambda: fock.MultimodeState((ModeLabel(H, 0, Port.A),), "3", one_hot(4)),
                     "cutoff must be an integer, got '3'", id="constructor-string"),
    ])
    def test_a_value_that_is_not_an_integer_is_refused_by_name(self, make, message):
        with pytest.raises(ValidationError, match=re.escape(message)):
            make()

    def test_numpy_integers_pass(self):
        want = fock.make_fock([2, 1], 3)
        for occupations, cutoff in (([np.int64(2), np.int32(1)], 3), (np.array([2, 1]), np.int64(3))):
            got = fock.make_fock(occupations, cutoff)
            assert got.vectors.tobytes() == want.vectors.tobytes()
            assert got.cutoff == 3
        mixture = fock.make_twin_mode_mixture(np.eye(1), np.int16(2))
        assert mixture.vectors.tobytes() == fock.make_twin_mode_mixture(np.eye(1), 2).vectors.tobytes()
        coherent = fock.make_coherent_pair(0.1, 0.1, np.uint8(4))
        assert coherent.vectors.shape == (1, 25)
        state = fock.MultimodeState((ModeLabel(H, 0, Port.A),), np.int64(3), one_hot(4))
        assert state.dim == 4


class TestRefusals:
    """Refusals by name that no other test reaches."""

    @pytest.mark.parametrize("make, message", [
        pytest.param(lambda: fock.MultimodeState((ModeLabel(H, 0, Port.A),) * 2, 1, one_hot(4)),
                     "duplicate mode labels", id="duplicate-label"),
        pytest.param(lambda: fock.make_fock([0], 0), "cutoff must be >= 1", id="cutoff-0"),
        pytest.param(lambda: fock.make_fock([0, 0], 1, modes=[("H", 0, "a", 1), ("H", 0, "b")]),
                     "mode label ('H', 0, 'a', 1) is neither a ModeLabel nor a tuple of its fields",
                     id="long-tuple-label"),
        pytest.param(lambda: fock.make_fock([0] * 5, 1),
                     "explicit mode labels required for more than 4 modes", id="five-default-modes"),
        pytest.param(lambda: fock.make_fock([0, 0], 1, modes=[ModeLabel(H, 0, Port.A)]),
                     "one occupation per mode required", id="occupations-per-mode"),
        pytest.param(lambda: fock.make_twin_mode_mixture(np.ones((2, 3)), 2),
                     "weight matrix must be square, got shape (2, 3)", id="non-square-weights"),
        pytest.param(lambda: fock.apply_beam_splitter(fock.make_fock([1, 1], 2), convention="x"),
                     "unknown convention 'x'", id="convention"),
        pytest.param(lambda: fock.apply_beam_splitter(fock.make_fock([1, 1], 2), ("a", "a")),
                     "beam splitter needs two distinct ports", id="same-port-twice"),
    ])
    def test_refused_by_name(self, make, message):
        with pytest.raises(ValidationError, match=re.escape(message)):
            make()


class TestTwinModeMixture:
    @staticmethod
    def assert_single_vector(state, expected):
        """One vector, equal to ``expected`` up to a global phase."""
        assert state.vectors.shape == (1, 9)
        assert np.linalg.norm(state.vectors[0]) == pytest.approx(1.0, abs=1e-12)
        assert abs(np.vdot(expected, state.vectors[0])) == pytest.approx(1.0, abs=1e-12)

    def test_single_entry_is_pure_projector(self):
        weights = np.zeros((2, 2))
        weights[1, 1] = 1.0
        state = fock.make_twin_mode_mixture(weights, cutoff=2)
        # the support is |1,1><1,1|
        self.assert_single_vector(state, np.eye(9)[1 * 3 + 1])
        assert state.probabilities()[1 * 3 + 1] == pytest.approx(1.0, abs=1e-12)

    def test_uniform_coherences_make_rank_one_superposition(self):
        weights = np.full((2, 2), 0.5)
        state = fock.make_twin_mode_mixture(weights, cutoff=2)
        # pure (|0,0>+|1,1>)/sqrt(2)
        self.assert_single_vector(state, (np.eye(9)[0] + np.eye(9)[4]) / np.sqrt(2))

    @pytest.mark.parametrize("convention", [fock.SYMMETRIC_I, fock.ROTATION])
    @pytest.mark.parametrize("seed", range(8))
    def test_coherences_never_reach_the_counts(self, seed, convention):
        # the splitter conserves each pair's total, so w[n, p] with n != p
        # cannot change the joint counts
        rng = np.random.default_rng(seed)
        r = 2 + seed % 5
        rank = 1 + seed % r
        a = rng.normal(size=(r, rank)) + 1j * rng.normal(size=(r, rank))
        w = a @ a.conj().T / np.linalg.norm(a) ** 2  # positive semidefinite, unit trace
        state = fock.make_twin_mode_mixture(w, cutoff=2 * (r - 1))
        assert state.vectors.shape[0] == np.linalg.matrix_rank(w) == rank
        diagonal = fock.make_twin_mode_mixture(np.diag(np.diag(w)), cutoff=2 * (r - 1))
        joint = [fock.port_stats(fock.apply_beam_splitter(s, convention=convention))
                 for s in (state, diagonal)]
        assert np.abs(joint[0] - joint[1]).max() <= 1e-14

    def test_uniform_mixture_at_cutoff_60_stays_small(self):
        # the dense (D, D) form would need about 0.7 GB here
        n = np.arange(31)
        tracemalloc.start()
        try:
            state = fock.make_twin_mode_mixture(np.eye(31) / 31, cutoff=60)
            stats = fock.number_difference_stats(fock.apply_beam_splitter(state))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert state.vectors.shape == (31, 61 * 61)
        assert stats.variance == pytest.approx(np.mean(2 * n * (n + 1)), rel=1e-13)
        assert peak < 32e6

    def test_poisson_diagonal_has_zero_input_difference(self):
        lam = 0.8
        n = np.arange(4)
        weights = np.exp(-lam) * lam**n / np.array([1.0, 1.0, 2.0, 6.0])
        weights /= weights.sum()
        state = fock.make_twin_mode_mixture(np.diag(weights), cutoff=5)
        stats = fock.number_difference_stats(state, Port.A, Port.B)
        assert stats.variance == 0.0
        assert stats.distribution == {0: pytest.approx(1.0, abs=1e-12)}

    @pytest.mark.parametrize(
        "weights",
        [
            np.array([[0.5, 0.5], [0.2, 0.5]]),  # not Hermitian
            np.array([[0.7, 0.0], [0.0, 0.7]]),  # trace != 1
            np.array([[1.5, 0.0], [0.0, -0.5]]),  # negative eigenvalue
        ],
    )
    def test_invalid_weights_rejected(self, weights):
        with pytest.raises(ValidationError):
            fock.make_twin_mode_mixture(weights, cutoff=2)

    def test_dimension_above_cutoff_rejected(self):
        with pytest.raises(CapacityError):
            fock.make_twin_mode_mixture(np.eye(4) / 4.0, cutoff=2)


class TestCoherentPair:
    def test_vacuum(self):
        state = fock.make_coherent_pair(0.0, 0.0, cutoff=4)
        assert state.probabilities()[0] == pytest.approx(1.0, abs=1e-15)
        assert state.truncation_leakage == 0.0

    def test_leakage_matches_poisson_tail(self):
        state = fock.make_coherent_pair(1.0, 1.0, cutoff=16)
        tail = oracles.poisson_tail(1.0, 16)
        expected = 1.0 - (1.0 - tail) ** 2
        assert state.truncation_leakage < 1e-10
        assert state.truncation_leakage == pytest.approx(expected, abs=1e-13)

    def test_truncation_safety_precondition(self):
        with pytest.raises(ValidationError):
            fock.make_coherent_pair(2.0, 0.0, cutoff=15)  # |alpha|^2 = 4 > 15/4

    @pytest.mark.parametrize("alphas, name", [
        ((float("nan"), 0.5), "alpha_a"),
        ((0.5, complex(0.0, float("nan"))), "alpha_b"),
        ((float("inf"), 0.0), "alpha_a"),
        ((0.0, complex(float("-inf"), 1.0)), "alpha_b"),
    ])
    def test_non_finite_amplitude_rejected_by_name(self, alphas, name):
        with pytest.raises(ValidationError, match=f"{name} must be finite"):
            fock.make_coherent_pair(*alphas, cutoff=8)

    def test_large_leakage_warns(self):
        # |alpha|^2 = 3.24 <= 13/4 passes the floor but leaks well above 1e-8
        assert oracles.poisson_tail(3.24, 13) > 1e-8
        with pytest.warns(TruncationWarning):
            fock.make_coherent_pair(1.8, 0.0, cutoff=13)

    def test_opposite_phases_exit_one_port_rotation(self):
        state = fock.make_coherent_pair(1.0, -1.0, cutoff=16)
        out = fock.apply_beam_splitter(state, convention=fock.ROTATION)
        joint = fock.joint_port_distribution(out, tol=0.0)
        empty_c = sum(p for (nc, _), p in joint.items() if nc == 0)
        assert empty_c == pytest.approx(1.0, abs=1e-8)

    def test_quarter_phase_exits_one_port_symmetric(self):
        state = fock.make_coherent_pair(1.0, 1.0j, cutoff=16)
        out = fock.apply_beam_splitter(state, convention=fock.SYMMETRIC_I)
        joint = fock.joint_port_distribution(out, tol=0.0)
        empty_c = sum(p for (nc, _), p in joint.items() if nc == 0)
        assert empty_c == pytest.approx(1.0, abs=1e-8)


# ---------------------------------------------------------------------------
# Beam splitter physics
# ---------------------------------------------------------------------------


class TestBeamSplitter:
    def test_single_photon_splits_evenly(self):
        out = fock.apply_beam_splitter(fock.make_fock([1, 0], cutoff=1))
        joint = fock.joint_port_distribution(out)
        assert joint[(1, 0)] == pytest.approx(0.5, abs=1e-12)
        assert joint[(0, 1)] == pytest.approx(0.5, abs=1e-12)

    def test_two_photon_interference_degenerate(self):
        out = fock.apply_beam_splitter(fock.make_fock([1, 1], cutoff=2))
        assert fock.coincidence_probability(out) <= 1e-12
        stats = fock.number_difference_stats(out)
        assert stats.std == pytest.approx(2.0, abs=1e-12)
        assert stats.distribution[2] == pytest.approx(0.5, abs=1e-12)
        assert stats.distribution[-2] == pytest.approx(0.5, abs=1e-12)

    def test_two_photon_distinguishable_equiprobable(self):
        out = fock.apply_beam_splitter(distinguishable_pair())
        joint = fock.joint_port_distribution(out)
        # four scattering outcomes at 1/4 each; (1,1) arises twice
        assert joint[(2, 0)] == pytest.approx(0.25, abs=1e-12)
        assert joint[(0, 2)] == pytest.approx(0.25, abs=1e-12)
        assert joint[(1, 1)] == pytest.approx(0.5, abs=1e-12)
        assert fock.coincidence_probability(out) == pytest.approx(0.5, abs=1e-12)
        assert fock.number_difference_stats(out).std == pytest.approx(np.sqrt(2), abs=1e-12)

    @pytest.mark.parametrize("tag_a,tag_b", [(0, 1), (0, 2), (3, 1)])
    def test_distinguishability_dichotomy_unequal_tags(self, tag_a, tag_b):
        modes = (ModeLabel(H, tag_a, Port.A), ModeLabel(H, tag_b, Port.B))
        out = fock.apply_beam_splitter(fock.make_fock([1, 1], 2, modes=modes))
        assert fock.coincidence_probability(out) == pytest.approx(0.5, abs=1e-12)

    def test_distinguishability_dichotomy_equal_tags(self):
        modes = (ModeLabel(H, 5, Port.A), ModeLabel(H, 5, Port.B))
        out = fock.apply_beam_splitter(fock.make_fock([1, 1], 2, modes=modes))
        assert fock.coincidence_probability(out) <= 1e-12

    def test_classical_limit_matches_exact_binomial(self):
        for n in range(1, 9):
            out = fock.apply_beam_splitter(fock.make_fock([n, 0], cutoff=n))
            got = fock.number_difference_stats(out)
            want = oracles.exact_binomial_distribution(n)
            assert set(got.distribution) == set(want)
            for key, prob in want.items():
                assert got.distribution[key] == pytest.approx(prob, abs=1e-13)
            assert got.variance == pytest.approx(n, abs=1e-12)

    def test_twin_fock_variance_against_bruteforce(self):
        for n in range(1, 9):
            out = fock.apply_beam_splitter(fock.make_fock([n, n], cutoff=2 * n))
            variance = fock.number_difference_stats(out).variance
            assert variance == pytest.approx(oracles.twin_fock_output_variance(n), abs=1e-10)
            assert variance == pytest.approx(2 * n * (n + 1), rel=1e-9)

    def test_mixture_statistics_independence(self):
        # post-splitter variance equals the weighted average over twin Fock inputs
        rng = np.random.default_rng(11)
        for _ in range(5):
            weights = rng.random(4)
            weights /= weights.sum()
            state = fock.make_twin_mode_mixture(np.diag(weights), cutoff=6)
            variance = fock.number_difference_stats(fock.apply_beam_splitter(state)).variance
            expected = sum(w * 2 * k * (k + 1) for k, w in enumerate(weights))
            assert variance == pytest.approx(expected, rel=1e-10)

    def test_pair_overflow_raises(self):
        with pytest.raises(CapacityError):
            fock.apply_beam_splitter(fock.make_fock([2, 2], cutoff=2))

    def test_mixing_angle_zero_is_identity(self):
        state = fock.make_fock([2, 1], cutoff=3)
        out = fock.apply_beam_splitter(state, mixing_angle=0.0)
        assert fock.joint_port_distribution(out)[(2, 1)] == pytest.approx(1.0, abs=1e-12)

    def test_needs_modes_on_ports(self):
        state = fock.make_fock([1], cutoff=1, modes=(ModeLabel(H, 0, Port.C),))
        with pytest.raises(ValidationError):
            fock.apply_beam_splitter(state)

    @pytest.mark.parametrize("angle", [np.nan, np.inf, -np.inf])
    def test_non_finite_mixing_angle_rejected(self, angle):
        with pytest.raises(ValidationError, match=f"mixing_angle must be finite, got {angle}"):
            fock.apply_beam_splitter(fock.make_fock([1, 1], cutoff=2), mixing_angle=angle)

    @pytest.mark.parametrize("ports", [(Port.A, Port.C), (Port.C, Port.A),
                                       (Port.B, Port.D), (Port.D, Port.B)])
    def test_port_pair_on_one_output_rejected(self, ports, monkeypatch):
        state = fock.make_fock([1, 1], 2, modes=(ModeLabel(H, 0, ports[0]),
                                                  ModeLabel(H, 0, ports[1])))
        monkeypatch.setattr(fock, "_scatter", lambda *args: pytest.fail("scattered"))
        with pytest.raises(ValidationError, match="c and d stay c and d") as error:
            fock.apply_beam_splitter(state, port_pair=ports)
        message = str(error.value)
        assert f"ports {ports[0].value!r} and {ports[1].value!r}" in message

    @pytest.mark.parametrize("ports", [(Port.A, Port.D), (Port.B, Port.C), (Port.C, Port.D)])
    def test_port_pair_on_two_outputs_interferes(self, ports):
        state = fock.make_fock([1, 1], 2, modes=(ModeLabel(H, 0, ports[0]),
                                                  ModeLabel(H, 0, ports[1])))
        out = fock.apply_beam_splitter(state, port_pair=ports)
        assert {m.spatial_port for m in out.modes} == {Port.C, Port.D}
        assert fock.coincidence_probability(out) <= 1e-12

    @pytest.mark.parametrize("port_pair, message", [
        (("a", "b", "c"), "port_pair must be two ports, got ('a', 'b', 'c')"),
        (("a",), "port_pair must be two ports, got ('a',)"),
        (Port.A, "port_pair must be two ports, got <Port.A: 'a'>"),
        (7, "port_pair must be two ports, got 7"),
        (("x", "b"), "port_pair[0] must be one of 'a', 'b', 'c', 'd', got 'x'"),
        ((Port.A, None), "port_pair[1] must be one of 'a', 'b', 'c', 'd', got None"),
    ])
    def test_a_port_pair_that_is_not_two_ports_is_refused_by_name(self, port_pair, message,
                                                                  monkeypatch):
        # ("a", "b", "c") used to drop "c", ("a",) to raise IndexError
        monkeypatch.setattr(fock, "_scatter", lambda *args: pytest.fail("scattered"))
        with pytest.raises(ValidationError, match=re.escape(message)):
            fock.apply_beam_splitter(fock.make_fock([1, 1], 2), port_pair=port_pair)


class TestWaveplatePolarizer:
    def pair(self, n_h, n_v, cutoff, tag_v=0):
        modes = (ModeLabel(H, 0, Port.A), ModeLabel(V, tag_v, Port.A))
        return fock.make_fock([n_h, n_v], cutoff, modes=modes)

    def test_zero_angle_keeps_distribution(self):
        out = fock.apply_waveplate_polarizer(self.pair(2, 1, 3), 0.0)
        assert fock.joint_port_distribution(out)[(2, 1)] == pytest.approx(1.0, abs=1e-12)

    def test_eighth_wave_acts_as_balanced_splitter(self):
        out = fock.apply_waveplate_polarizer(self.pair(1, 1, 2), np.pi / 8)
        assert fock.coincidence_probability(out) <= 1e-12
        assert fock.number_difference_stats(out).std == pytest.approx(2.0, abs=1e-12)

    def test_quarter_angle_swaps_ports(self):
        out = fock.apply_waveplate_polarizer(self.pair(2, 1, 3), np.pi / 4)
        assert fock.joint_port_distribution(out)[(1, 2)] == pytest.approx(1.0, abs=1e-12)

    def test_tuple_labels_act_as_mode_labels(self):
        # tuple labels used to pass the constructor and fail the plate with
        # AttributeError: 'tuple' object has no attribute 'spatial_port'
        want = self.pair(2, 1, 3)
        given = fock.MultimodeState((("H", 0, "a"), ("V", 0, "a")), 3, want.vectors)
        assert given.modes == want.modes
        for theta in (np.pi / 8, 0.4):
            got = fock.port_stats(fock.apply_waveplate_polarizer(given, theta))
            assert got.tobytes() == fock.port_stats(
                fock.apply_waveplate_polarizer(want, theta)).tobytes(), theta

    @pytest.mark.parametrize("modes, name", [
        (("x", "y"), "'x'"),
        ((("H", 0, "a"), ("X", 0, "a")), "('X', 0, 'a')"),
        ((ModeLabel(H, 0, Port.A), 7), "7"),
    ])
    def test_other_labels_are_refused_by_name(self, modes, name):
        with pytest.raises(ValidationError, match=re.escape(f"mode label {name} is neither")):
            fock.MultimodeState(modes, 1, one_hot(4))

    def test_matches_beam_splitter_statistics(self):
        plate = fock.number_difference_stats(
            fock.apply_waveplate_polarizer(self.pair(2, 2, 4), np.pi / 8)
        )
        splitter = fock.number_difference_stats(
            fock.apply_beam_splitter(fock.make_fock([2, 2], cutoff=4))
        )
        for key in set(plate.distribution) | set(splitter.distribution):
            assert plate.distribution.get(key, 0.0) == pytest.approx(
                splitter.distribution.get(key, 0.0), abs=1e-12
            )

    def test_distinguishable_tags_do_not_interfere(self):
        out = fock.apply_waveplate_polarizer(self.pair(1, 1, 2, tag_v=1), np.pi / 8)
        assert fock.coincidence_probability(out) == pytest.approx(0.5, abs=1e-12)

    def test_requires_single_path(self):
        with pytest.raises(ValidationError):
            fock.apply_waveplate_polarizer(fock.make_fock([1, 1], cutoff=2), 0.1)

    @pytest.mark.parametrize("theta", [np.nan, np.inf, -np.inf])
    def test_non_finite_theta_rejected(self, theta):
        with pytest.raises(ValidationError, match=f"theta must be finite, got {theta}"):
            fock.apply_waveplate_polarizer(self.pair(1, 1, 2), theta)

    def test_theta_whose_double_overflows_is_refused_by_name(self):
        # 1e308 is finite, but cos(2e308) warned and the NaN matrix failed as not unitary
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match=re.escape(
                    "theta = 1e+308 is too large: its mixing angle 2*theta overflows")):
                fock.apply_waveplate_polarizer(self.pair(1, 1, 2), 1e308)

    def test_weight_above_the_cutoff_gets_only_the_phase_shifters(self):
        # coherent light leaves a leakage-level weight on H + V > cutoff,
        # which the real rotation cannot reach; the phases still act there
        cutoff, theta = 12, 1.2
        modes = (ModeLabel(H, 0, Port.A), ModeLabel(V, 0, Port.A))
        state = fock.make_coherent_pair(0.7 * np.exp(0.4j), 0.72 * np.exp(-1.9j), cutoff,
                                        modes=modes)
        out = fock.apply_waveplate_polarizer(state, theta)
        psi = state.amplitudes
        n_h, n_v = np.indices((cutoff + 1,) * 2).reshape(2, -1)
        outside = n_h + n_v > cutoff
        weight = float(np.sum(np.abs(psi[outside]) ** 2))
        assert 1e-12 < weight < fock.LEAKAGE_THRESHOLD
        assert out.truncation_leakage == pytest.approx(
            state.truncation_leakage + weight, rel=1e-12, abs=0.0)
        reference = oracles.splitter_unitary_expm(cutoff + 1, 2.0 * theta, fock.ROTATION) @ psi
        assert np.abs(out.amplitudes - reference)[~outside].max() <= 1e-12
        # the plate's map [[c, -s], [s, c]] is diag(1, p) R diag(q1, q2)
        c, s = np.cos(2.0 * theta), np.sin(2.0 * theta)
        q1, q2 = np.sign(c), np.sign(s)
        p = 1.0 / (q1 * q2)
        expected = psi * q1**n_h * q2**n_v * p**n_v
        np.testing.assert_array_equal(out.amplitudes[outside], expected[outside])


class TestDensityMatrix:
    """An optic maps each vector of an ensemble to its pure image, so the
    state sum_k |psi_k><psi_k| goes to the sum of the image projectors."""

    @staticmethod
    def random_pure(seed, cutoff, n_modes=2):
        # amplitudes over n_modes, zero where n_0 + n_1 exceeds the cutoff
        rng = np.random.default_rng(seed)
        occ = fock._occupations(cutoff + 1, n_modes)
        psi = rng.normal(size=occ.shape[1]) + 1j * rng.normal(size=occ.shape[1])
        psi[occ[0] + occ[1] > cutoff] = 0.0
        return psi / np.linalg.norm(psi)

    @classmethod
    def assert_maps_each_vector(cls, optic, modes, cutoff, seed):
        # 2 or 3 random pure vectors with weights that sum to 1
        weights = np.random.default_rng(seed).dirichlet(np.ones(2 + seed % 2))
        pures = [cls.random_pure(10 * seed + k, cutoff, len(modes)) for k in range(len(weights))]
        mixed = optic(fock.MultimodeState(
            modes, cutoff, np.stack([np.sqrt(p) * psi for p, psi in zip(weights, pures)])))
        images = [optic(fock.MultimodeState(modes, cutoff, psi)) for psi in pures]
        assert mixed.vectors.shape == (len(weights), images[0].basis_size)
        expected = np.zeros((images[0].basis_size,) * 2, dtype=complex)
        for row, p, image in zip(mixed.vectors, weights, images):
            assert mixed.modes == image.modes
            assert mixed.truncation_leakage == image.truncation_leakage
            assert np.abs(row - np.sqrt(p) * image.amplitudes).max() <= 1e-14
            expected += p * np.outer(image.amplitudes, image.amplitudes.conj())
        assert np.abs(mixed.amplitudes - expected).max() <= 1e-14

    @pytest.mark.parametrize("convention", [fock.SYMMETRIC_I, fock.ROTATION])
    @pytest.mark.parametrize("seed", range(3))
    def test_matched_pair(self, convention, seed):
        modes = (ModeLabel(H, 0, Port.A), ModeLabel(H, 0, Port.B))
        self.assert_maps_each_vector(
            lambda s: fock.apply_beam_splitter(s, mixing_angle=0.4, convention=convention),
            modes, 4, seed)

    @pytest.mark.parametrize("modes", [
        (ModeLabel(H, 0, Port.A), ModeLabel(H, 1, Port.B)),  # two vacuum partners
        (ModeLabel(H, 0, Port.A), ModeLabel(H, 0, Port.B), ModeLabel(V, 1, Port.A)),  # one
    ])
    @pytest.mark.parametrize("seed", range(3))
    def test_different_tags_pad_the_density_matrix_with_vacuum(self, modes, seed):
        self.assert_maps_each_vector(fock.apply_beam_splitter, modes, 3, seed)

    @pytest.mark.parametrize("seed", range(3))
    def test_waveplate_on_different_tags(self, seed):
        modes = (ModeLabel(H, 0, Port.A), ModeLabel(V, 1, Port.A))
        self.assert_maps_each_vector(lambda s: fock.apply_waveplate_polarizer(s, 0.3), modes, 3,
                                     seed)

    def test_two_dimensional_amplitudes_are_a_density_matrix(self):
        modes = (ModeLabel(H, 0, Port.A), ModeLabel(H, 0, Port.B))
        rho = np.diag([0.5, 0.0, 0.0, 0.0, 0.25, 0.0, 0.0, 0.0, 0.25]).astype(complex)
        rho[0, 4] = rho[4, 0] = 0.25
        # the dyadic ensemble 0.5(|00>+|11>), 0.5|00>, 0.5|22> is exactly rho
        vectors = np.zeros((3, 9), dtype=complex)
        vectors[0, [0, 4]] = vectors[1, 0] = vectors[2, 8] = 0.5
        state = fock.MultimodeState(modes, 2, vectors)
        np.testing.assert_array_equal(state.amplitudes, rho)
        assert state.norm() == 1.0
        np.testing.assert_array_equal(state.probabilities(), rho.diagonal().real)
        joint = fock.port_stats(state, Port.A, Port.B)
        assert joint[0, 0] == 0.5 and joint[1, 1] == 0.25 and joint[2, 2] == 0.25

    def test_constructor_copies_and_leaves_the_callers_array_alone(self):
        vectors = np.zeros((2, 9), dtype=complex)
        vectors[0, 0] = vectors[1, 4] = np.sqrt(0.5)
        state = fock.MultimodeState((ModeLabel(H, 0, Port.A), ModeLabel(H, 0, Port.B)), 2, vectors)
        assert vectors.flags.writeable
        assert not np.shares_memory(state.vectors, vectors)
        vectors[0, 0] = 0.0
        assert state.vectors[0, 0] == np.sqrt(0.5)

    @pytest.mark.parametrize("make", [
        lambda: fock.make_fock([3, 2], 5),
        lambda: fock.make_twin_mode_mixture(np.diag([0.25, 0.5, 0.25]), 4),
    ])
    def test_optic_output_is_frozen_with_its_probabilities(self, make):
        state = make()
        out = fock.apply_beam_splitter(state)
        assert not np.shares_memory(out.vectors, state.vectors)
        for array in (out.vectors, out.probabilities()):
            assert not array.flags.writeable
        assert out.probabilities() is out.probabilities()
        np.testing.assert_array_equal(out.probabilities(), (np.abs(out.vectors) ** 2).sum(axis=0))
        assert out.norm() == float(out.probabilities().sum())

    @pytest.mark.parametrize("amplitudes, message", [
        *(pytest.param(one_hot(shape), "amplitude shape", id=f"shape{i}")
          for i, shape in enumerate([(9, 3), (3, 3, 3, 3), (3, 3), (81,), (0, 9)])),
        pytest.param(one_hot(9, np.nan), "state norm nan", id="nan"),
    ])
    def test_other_amplitude_shapes_rejected(self, amplitudes, message):
        with pytest.raises(ValidationError, match=message):
            fock.MultimodeState((ModeLabel(H, 0, Port.A), ModeLabel(H, 0, Port.B)), 2, amplitudes)


# ---------------------------------------------------------------------------
# Invariants
# ---------------------------------------------------------------------------


class TestInvariants:
    @pytest.mark.parametrize("convention", [fock.SYMMETRIC_I, fock.ROTATION])
    @pytest.mark.parametrize("angle", [0.0, 0.3, np.pi / 4, 1.2])
    def test_unitarity_pure(self, convention, angle):
        # random pure state supported inside the pair capacity (n_a + n_b <= 3)
        rng = np.random.default_rng(5)
        dim = 4
        amps = np.zeros(dim * dim, dtype=complex)
        for n_a in range(dim):
            for n_b in range(dim - n_a):
                amps[n_a * dim + n_b] = rng.normal() + 1j * rng.normal()
        amps /= np.linalg.norm(amps)
        state = fock.MultimodeState(
            (ModeLabel(H, 0, Port.A), ModeLabel(H, 0, Port.B)), 3, amps
        )
        out = fock.apply_beam_splitter(state, mixing_angle=angle, convention=convention)
        assert abs(out.norm() - 1.0) <= 1e-12

    @pytest.mark.parametrize("convention", [fock.SYMMETRIC_I, fock.ROTATION])
    @pytest.mark.parametrize("angle", [0.3, np.pi / 4, 2.0, 4.0])
    def test_scattered_amplitudes_match_expm_oracle(self, convention, angle):
        # amplitudes, not only probabilities: the output phases must be right
        cutoff = 4
        psi = TestDensityMatrix.random_pure(7, cutoff)
        state = fock.MultimodeState((ModeLabel(H, 0, Port.A), ModeLabel(H, 0, Port.B)), cutoff, psi)
        out = fock.apply_beam_splitter(state, mixing_angle=angle, convention=convention)
        reference = oracles.splitter_unitary_expm(cutoff + 1, angle, convention) @ psi
        assert np.abs(out.amplitudes - reference).max() <= 1e-12

    def test_unitarity_density(self):
        weights = np.diag([0.3, 0.45, 0.25])
        state = fock.make_twin_mode_mixture(weights, cutoff=4)
        out = fock.apply_beam_splitter(state)
        assert abs(out.norm() - 1.0) <= 1e-12

    @staticmethod
    def coefficients(theta, convention):
        c, s = np.cos(theta), np.sin(theta)
        if convention == fock.SYMMETRIC_I:
            return complex(c), 1j * s, 1j * s, complex(c)
        return complex(c), complex(-s), complex(s), complex(c)

    @staticmethod
    def block_unitarity_error(blocks):
        eye = np.eye(blocks.shape[-1])
        return np.abs(blocks.conj().transpose(0, 2, 1) @ blocks - eye).max()

    def test_pair_unitary_matrix_is_unitary(self):
        for theta, convention in ((0.4, fock.SYMMETRIC_I), (1.1, fock.ROTATION)):
            blocks = composed_blocks(fock.pair_unitary(*self.coefficients(theta, convention), 9))
            assert blocks.shape == (9, 9, 9)
            assert self.block_unitarity_error(blocks) <= 1e-12

    def test_pair_unitary_blocks_unitary_at_cutoff_120(self):
        for convention in (fock.SYMMETRIC_I, fock.ROTATION):
            blocks = composed_blocks(
                fock.pair_unitary(*self.coefficients(fock.BALANCED_ANGLE, convention), 121))
            assert self.block_unitarity_error(blocks) <= 1e-13

    def test_pair_unitary_blocks_unitary_at_cutoff_200(self):
        for convention in (fock.SYMMETRIC_I, fock.ROTATION):
            blocks = composed_blocks(
                fock.pair_unitary(*self.coefficients(fock.BALANCED_ANGLE, convention), 201))
            assert self.block_unitarity_error(blocks) <= 1e-13

    @pytest.mark.parametrize("seed", range(24))
    def test_pair_unitary_general_u2_matches_binomial_oracle(self, seed):
        rng = np.random.default_rng(seed)
        q, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        assert abs(np.linalg.det(q) - 1.0) > 1e-3
        dim = 8
        blocks = composed_blocks(fock.pair_unitary(q[0, 0], q[0, 1], q[1, 0], q[1, 1], dim))
        assert self.block_unitarity_error(blocks) <= 1e-13
        for n in range(dim):
            reference = oracles.splitter_sector_binomial(q, n)
            err = np.abs(blocks[n, : n + 1, : n + 1] - reference).max()
            assert err <= 1e-12, (seed, n, err)

    def test_pair_unitary_matches_expm_oracle(self):
        dim = 6
        for theta in np.linspace(0.0, 2.0 * np.pi, 17):
            for convention in (fock.SYMMETRIC_I, fock.ROTATION):
                optic = fock.pair_unitary(*self.coefficients(theta, convention), dim)
                err = expm_oracle_error(composed_blocks(optic), theta, convention)
                assert err <= 1e-12, (theta, convention, err)

    @pytest.mark.parametrize("mode_map", [
        np.diag([1j, -1.0]),
        np.diag(np.exp([0.4j, -2.9j])),
        np.diag(np.exp([-1.3j, 2.2j])),
        np.array([[0.0, -1.0], [1j, 0.0]]),
        np.array([[0.0, np.exp(0.7j)], [np.exp(-2.5j), 0.0]]),
        np.array([[0.0, np.exp(3.0j)], [np.exp(1.9j), 0.0]]),
    ])
    def test_pair_unitary_diagonal_and_antidiagonal_maps(self, mode_map):
        # s = 0 or c = 0: the split takes its free phase from the other entry
        assert abs(np.linalg.det(mode_map) - 1.0) > 1e-3
        dim = 8
        blocks = composed_blocks(fock.pair_unitary(*mode_map.ravel(), dim))
        assert self.block_unitarity_error(blocks) <= 1e-13
        for n in range(dim):
            reference = oracles.splitter_sector_binomial(mode_map, n)
            err = np.abs(blocks[n, : n + 1, : n + 1] - reference).max()
            assert err <= 1e-12, (n, err)

    @pytest.mark.parametrize("mode_map", [
        (1.0, 0.0, 0.0, 2.0),  # a gain
        (0.6, 0.8, 0.8, 0.6),  # unit-norm rows that are not orthogonal
        (1.0, 1e-9, 0.0, 1.0),
        (np.nan, 0.0, 0.0, 1.0),
        (1.0, 0.0, np.nan, 1.0),
        (1.0, 0.0, 0.0, np.inf),
    ])
    def test_pair_unitary_rejects_a_map_that_is_not_unitary(self, mode_map):
        with pytest.raises(ValidationError, match="not unitary"):
            fock.pair_unitary(*mode_map, 4)

    @pytest.mark.parametrize("convention", [fock.SYMMETRIC_I, fock.ROTATION])
    @pytest.mark.parametrize("n", [20, 24, 28, 30, 40, 50])
    def test_twin_fock_variance_to_n_30(self, n, convention):
        out = fock.apply_beam_splitter(fock.make_fock([n, n], cutoff=2 * n), convention=convention)
        assert abs(out.norm() - 1.0) <= 1e-12
        variance = fock.number_difference_stats(out).variance
        assert variance == pytest.approx(2 * n * (n + 1), rel=1e-12)

    @pytest.mark.parametrize("convention", [fock.SYMMETRIC_I, fock.ROTATION])
    def test_twin_fock_ladder_to_n_60(self, convention):
        for n in range(1, 61):
            out = fock.apply_beam_splitter(fock.make_fock([n, n], cutoff=2 * n),
                                           convention=convention)
            assert abs(out.norm() - 1.0) <= 1e-14, n
            variance = fock.number_difference_stats(out).variance
            assert variance == pytest.approx(2 * n * (n + 1), rel=1e-14), n

    @pytest.mark.parametrize("n_a,n_b", [(1, 1), (2, 1), (3, 0), (2, 2)])
    def test_convention_invariance_fock_inputs(self, n_a, n_b):
        state = fock.make_fock([n_a, n_b], cutoff=n_a + n_b)
        dist = {}
        for convention in (fock.SYMMETRIC_I, fock.ROTATION):
            out = fock.apply_beam_splitter(state, convention=convention)
            dist[convention] = fock.number_difference_stats(out).distribution
        keys = set(dist[fock.SYMMETRIC_I]) | set(dist[fock.ROTATION])
        for key in keys:
            assert dist[fock.SYMMETRIC_I].get(key, 0.0) == pytest.approx(
                dist[fock.ROTATION].get(key, 0.0), abs=1e-12
            )

    def test_convention_invariance_twin_mixture(self):
        weights = np.array([[0.5, 0.5], [0.5, 0.5]])
        state = fock.make_twin_mode_mixture(weights, cutoff=2)
        results = [
            fock.number_difference_stats(
                fock.apply_beam_splitter(state, convention=conv)
            ).distribution
            for conv in (fock.SYMMETRIC_I, fock.ROTATION)
        ]
        for key in set(results[0]) | set(results[1]):
            assert results[0].get(key, 0.0) == pytest.approx(results[1].get(key, 0.0), abs=1e-12)

    def test_distribution_probabilities_sum_to_one(self):
        out = fock.apply_beam_splitter(fock.make_fock([3, 2], cutoff=5))
        stats = fock.number_difference_stats(out)
        assert sum(stats.distribution.values()) == pytest.approx(1.0, abs=1e-10)
        assert stats.variance >= 0.0

    def test_vacuum_has_no_coincidence(self):
        out = fock.apply_beam_splitter(fock.make_fock([0, 0], cutoff=1))
        assert fock.coincidence_probability(out) == 0.0


class TestRotationCache:
    """pair_unitary keeps the real blocks of the few rotations built last,
    each at the largest dim asked for; the other calls read slices of them."""

    coefficients = staticmethod(TestInvariants.coefficients)

    def test_small_dim_after_a_large_build_equals_a_fresh_build(self):
        sym = self.coefficients(0.7, fock.SYMMETRIC_I)
        fock.pair_unitary(*self.coefficients(0.2, fock.ROTATION), 5)  # another rotation
        fresh = fock.pair_unitary(*sym, 9)
        large = fock.pair_unitary(*sym, 61)
        sliced = fock.pair_unitary(*sym, 9)
        assert [f.shape for f in sliced] == [(9,), (9, 9, 9), (9, 9)]
        for got, want in zip(sliced, fresh):
            np.testing.assert_array_equal(got, want)
        assert np.shares_memory(sliced[1], large[1])
        # the other convention at the same angle reads the same real blocks
        rotation = fock.pair_unitary(*self.coefficients(0.7, fock.ROTATION), 9)
        assert np.shares_memory(rotation[1], large[1])

    def test_switching_angles_gives_each_angle_its_blocks(self):
        calls = [(0.3, fock.SYMMETRIC_I, 6), (1.1, fock.ROTATION, 6), (0.3, fock.ROTATION, 4),
                 (2.6, fock.SYMMETRIC_I, 5), (1.1, fock.SYMMETRIC_I, 6), (0.3, fock.SYMMETRIC_I, 6)]
        results = []
        for theta, convention, dim in calls:
            blocks = composed_blocks(fock.pair_unitary(*self.coefficients(theta, convention), dim))
            assert expm_oracle_error(blocks, theta, convention) <= 1e-12, (theta, convention, dim)
            results.append(blocks)
        np.testing.assert_array_equal(results[0], results[-1])

    def test_returned_factors_cannot_change_a_later_scatter(self):
        state = fock.make_fock([3, 3], 6)
        before = fock.apply_beam_splitter(state).amplitudes
        phase_in, blocks, phase_out = fock.pair_unitary(
            *self.coefficients(fock.BALANCED_ANGLE, fock.SYMMETRIC_I), 7)
        assert not blocks.flags.writeable
        with pytest.raises(ValueError):
            blocks[3, 0, 0] = 2.0
        with pytest.raises(ValueError):
            blocks.setflags(write=True)
        phase_in[...] = 0.0  # the phases are the caller's own arrays
        phase_out[...] = 0.0
        after = fock.apply_beam_splitter(state).amplitudes
        np.testing.assert_array_equal(after, before)

    def test_interleaved_angles_build_once_each_and_slice_as_a_fresh_build(self, monkeypatch):
        monkeypatch.setattr(fock, "_rotations", {})
        thetas = (0.0, np.pi / 16, np.pi / 8)  # the angles of one cross-check
        calls = []
        with mock.patch.object(fock, "_rotation_blocks", wraps=fock._rotation_blocks) as build:
            for _ in range(3):
                for theta in thetas:
                    for dim in (9, 5):
                        coefficients = self.coefficients(theta, fock.ROTATION)
                        calls.append((coefficients, dim, fock.pair_unitary(*coefficients, dim)[1]))
        assert build.call_count == len(thetas)
        for (alpha, beta, _, _), dim, blocks in calls:
            assert blocks.tobytes() == fock._rotation_blocks(abs(alpha), abs(beta), dim).tobytes()

    def test_the_oldest_rotation_is_evicted_past_the_kept_count(self, monkeypatch):
        monkeypatch.setattr(fock, "_rotations", {})
        thetas = [0.1 * (i + 1) for i in range(fock._ROTATIONS_KEPT + 1)]
        with mock.patch.object(fock, "_rotation_blocks", wraps=fock._rotation_blocks) as build:
            for theta in thetas + thetas[1:]:
                fock.pair_unitary(*self.coefficients(theta, fock.SYMMETRIC_I), 6)
            assert build.call_count == len(thetas)
            fock.pair_unitary(*self.coefficients(thetas[0], fock.SYMMETRIC_I), 6)
            assert build.call_count == len(thetas) + 1
        assert len(fock._rotations) == fock._ROTATIONS_KEPT

    def test_phases_are_built_once_per_phase_triple_over_a_ladder(self, monkeypatch):
        monkeypatch.setattr(fock, "_phases", {})
        ladder = (61, 3, 41, 9, 21, 5, 61, 17)  # the largest first
        with mock.patch.object(fock, "_powers", wraps=fock._powers) as build:
            for dim in ladder:
                for convention in (fock.SYMMETRIC_I, fock.ROTATION):
                    fock.pair_unitary(*self.coefficients(fock.BALANCED_ANGLE, convention), dim)
        # the two conventions at one angle have different phases
        assert build.call_count == len(fock._phases) == 2
        assert all(table.shape == (3, 61) for table in fock._phases.values())

    def test_a_growing_ladder_builds_only_while_it_grows(self, monkeypatch):
        monkeypatch.setattr(fock, "_phases", {})
        coefficients = self.coefficients(fock.BALANCED_ANGLE, fock.SYMMETRIC_I)
        ladder = (3, 5, 9, 61)
        with mock.patch.object(fock, "_powers", wraps=fock._powers) as build:
            for _ in range(3):
                for dim in ladder:
                    fock.pair_unitary(*coefficients, dim)
        assert build.call_count == len(ladder)

    @pytest.mark.parametrize("convention", [fock.SYMMETRIC_I, fock.ROTATION])
    @pytest.mark.parametrize("theta", [0.0, 0.9, np.pi / 2, 2.4])
    def test_small_dim_phases_after_a_large_build_equal_a_fresh_build(self, theta, convention,
                                                                      monkeypatch):
        coefficients = self.coefficients(theta, convention)
        monkeypatch.setattr(fock, "_phases", {})
        fresh = fock.pair_unitary(*coefficients, 7)
        monkeypatch.setattr(fock, "_phases", {})
        fock.pair_unitary(*coefficients, 61)
        sliced = fock.pair_unitary(*coefficients, 7)
        for got, want in ((sliced[0], fresh[0]), (sliced[2], fresh[2])):
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()
        again = fock.pair_unitary(*coefficients, 7)
        for table in fock._phases.values():
            assert not any(np.shares_memory(table, phases)
                           for phases in (sliced[0], sliced[2], again[0], again[2]))
        assert not np.shares_memory(sliced[0], again[0])

    def test_the_oldest_phases_are_evicted_past_the_kept_count(self, monkeypatch):
        # the mixing angles inside (0, pi/2) of one convention share their
        # phases, so the maps here are one rotation after a phase q on mode d
        c, s = np.cos(0.4), np.sin(0.4)
        phases = [np.exp(0.5j * (i + 1)) for i in range(fock._PHASES_KEPT + 1)]
        monkeypatch.setattr(fock, "_phases", {})
        with mock.patch.object(fock, "_powers", wraps=fock._powers) as build:
            for q in phases + phases[1:]:
                fock.pair_unitary(c, -s * q, s, c * q, 6)
            assert build.call_count == len(phases)
            fock.pair_unitary(c, -s * phases[0], s, c * phases[0], 6)
            assert build.call_count == len(phases) + 1
        assert len(fock._phases) == fock._PHASES_KEPT


class TestOccupiedSectors:
    """A scatter rotates only the range of sectors its state occupies, and
    equals the product over all sectors bit for bit."""

    ANGLES = (0.0, np.pi / 2, np.pi / 4, 0.3, -2.2)

    @staticmethod
    def states():
        yield "fock", fock.make_fock([3, 2], 7)
        yield "twin fock", fock.make_fock([4, 4], 8)
        yield "vacuum", fock.make_fock([0, 0], 1)
        for seed in range(3):
            yield f"pure2-{seed}", fock.MultimodeState(
                (ModeLabel(H, 0, Port.A), ModeLabel(H, 0, Port.B)), 5,
                TestDensityMatrix.random_pure(seed, 5))
            yield f"pure3-{seed}", fock.MultimodeState(
                (ModeLabel(H, 0, Port.A), ModeLabel(H, 0, Port.B), ModeLabel(V, 1, Port.A)), 3,
                TestDensityMatrix.random_pure(20 + seed, 3, n_modes=3))
        # a pure state on the sectors 2..4 of 0..6 only
        psi = TestDensityMatrix.random_pure(40, 6)
        total = fock._occupations(7, 2).sum(axis=0)
        psi[(total < 2) | (total > 4)] = 0.0
        yield "sectors 2-4", fock.MultimodeState(
            (ModeLabel(H, 0, Port.A), ModeLabel(H, 0, Port.B)), 6, psi / np.linalg.norm(psi))
        yield "coherent", fock.make_coherent_pair(0.9, -0.4j, 16)
        yield "twin mixture", fock.make_twin_mode_mixture(np.diag([0.2, 0.3, 0.5]), 4)
        rng = np.random.default_rng(3)
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        yield "coherent mixture", fock.make_twin_mode_mixture(a @ a.conj().T / np.linalg.norm(a) ** 2, 6)

    @pytest.mark.parametrize("convention", [fock.SYMMETRIC_I, fock.ROTATION])
    @pytest.mark.parametrize("angle", ANGLES)
    def test_scatter_equals_the_all_sector_product(self, convention, angle):
        for name, state in self.states():
            got = fock.apply_beam_splitter(state, mixing_angle=angle, convention=convention)
            with mock.patch.object(fock, "_contract_pair", oracles.contract_pair_all_sectors):
                want = fock.apply_beam_splitter(state, mixing_angle=angle, convention=convention)
            assert got.modes == want.modes, name
            assert np.array_equal(got.vectors, want.vectors), name
            assert fock.port_stats(got).tobytes() == fock.port_stats(want).tobytes(), name
            assert fock.number_difference_stats(got) == fock.number_difference_stats(want), name
            assert fock.coincidence_probability(got) == fock.coincidence_probability(want), name

    @pytest.mark.parametrize("convention", [fock.SYMMETRIC_I, fock.ROTATION])
    def test_waveplate_equals_the_all_sector_product(self, convention):
        state = fock.make_coherent_pair(0.7, 0.5j, 12, modes=((H, 0, Port.A), (V, 0, Port.A)))
        for theta in (0.0, np.pi / 8, np.pi / 4, 1.3):
            got = fock.apply_waveplate_polarizer(state, theta)
            with mock.patch.object(fock, "_contract_pair", oracles.contract_pair_all_sectors):
                want = fock.apply_waveplate_polarizer(state, theta)
            assert np.array_equal(got.vectors, want.vectors), theta
            assert fock.port_stats(got).tobytes() == fock.port_stats(want).tobytes(), theta

    @pytest.mark.parametrize("n_a, n_b", [(3, 3), (5, 0), (0, 2), (2, 5)])
    def test_a_fock_input_reads_only_its_own_sector(self, n_a, n_b):
        # every other block is NaN, so the output stays finite only if it is never read
        dim = n_a + n_b + 3
        optic = fock.pair_unitary(*TestInvariants.coefficients(0.6, fock.SYMMETRIC_I), dim)
        poisoned = np.full_like(optic[1], np.nan)
        poisoned[n_a + n_b] = optic[1][n_a + n_b]
        tensor = fock.make_fock([n_a, n_b], dim - 1).vectors.reshape(1, dim, dim)
        got = fock._contract_pair(tensor, 1, 2, optic[0], poisoned, optic[2])
        want = oracles.contract_pair_all_sectors(tensor, 1, 2, *optic)
        assert np.isfinite(got).all()
        assert np.array_equal(got, want)


class TestPairOverflow:
    """A scatter reads each pair's probability above the cutoff from its
    input before any work: it adds it to the leakage, or refuses it."""

    @staticmethod
    def coherent_pairs(modes, amplitudes, cutoff):
        """The product of coherent pairs (alpha, beta) on consecutive label
        pairs of ``modes``, with the pairs' leakages combined."""
        vector, kept = np.ones(1, dtype=complex), 1.0
        for alpha, beta in amplitudes:
            pair = fock.make_coherent_pair(alpha, beta, cutoff)
            vector = np.multiply.outer(vector, pair.amplitudes).ravel()
            kept *= 1.0 - pair.truncation_leakage
        return fock.MultimodeState(modes, cutoff, vector, truncation_leakage=1.0 - kept)

    @staticmethod
    def assert_leakage_matches_the_oracle(state, out, pairs):
        probabilities = (np.abs(state.vectors) ** 2).sum(axis=0)
        weights = oracles.pair_overflow_weights(probabilities, state.dim, state.n_modes, pairs)
        assert all(1e-12 < w < fock.LEAKAGE_THRESHOLD for w in weights)
        assert out.truncation_leakage == pytest.approx(
            state.truncation_leakage + sum(weights), rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("convention", [fock.SYMMETRIC_I, fock.ROTATION])
    @pytest.mark.parametrize("angle", [fock.BALANCED_ANGLE, 0.3, -2.2])
    def test_one_pair(self, convention, angle):
        state = self.coherent_pairs(
            (ModeLabel(H, 0, Port.A), ModeLabel(H, 0, Port.B)), [(0.7, 0.6j)], 10)
        out = fock.apply_beam_splitter(state, mixing_angle=angle, convention=convention)
        self.assert_leakage_matches_the_oracle(state, out, [(0, 1)])

    @pytest.mark.parametrize("convention", [fock.SYMMETRIC_I, fock.ROTATION])
    @pytest.mark.parametrize("angle", [fock.BALANCED_ANGLE, 0.3, -2.2])
    def test_two_pairs_on_two_tags(self, convention, angle):
        modes = (ModeLabel(H, 0, Port.A), ModeLabel(H, 0, Port.B),
                 ModeLabel(H, 1, Port.A), ModeLabel(H, 1, Port.B))
        state = self.coherent_pairs(modes, [(0.7, 0.6j), (-0.5, 0.8)], 10)
        out = fock.apply_beam_splitter(state, mixing_angle=angle, convention=convention)
        self.assert_leakage_matches_the_oracle(state, out, [(0, 1), (2, 3)])

    @pytest.mark.parametrize("theta", [np.pi / 8, 1.3])
    def test_waveplate_over_two_tags(self, theta):
        modes = (ModeLabel(H, 0, Port.A), ModeLabel(V, 0, Port.A),
                 ModeLabel(H, 1, Port.A), ModeLabel(V, 1, Port.A))
        state = self.coherent_pairs(modes, [(0.6j, 0.7), (0.8, -0.5)], 10)
        out = fock.apply_waveplate_polarizer(state, theta)
        self.assert_leakage_matches_the_oracle(state, out, [(0, 1), (2, 3)])

    def test_a_vacuum_partner_adds_no_leakage(self):
        state = fock.make_coherent_pair(0.7, 0.6j, 10, modes=((H, 0, Port.A), (V, 0, Port.A)))
        out = fock.apply_beam_splitter(state)
        assert out.truncation_leakage == state.truncation_leakage

    def test_a_refused_scatter_builds_no_rotation(self, monkeypatch):
        monkeypatch.setattr(fock, "_rotations", {})
        state = fock.make_fock([4, 4], cutoff=6)
        with pytest.raises(CapacityError, match="probability 1 above cutoff 6"):
            fock.apply_beam_splitter(state)
        assert fock._rotations == {}


class TestPortIndex:
    """port_stats reads one index kept per (dim, port of each mode, ports)."""

    @staticmethod
    def random_state(seed, ports, cutoff):
        rng = np.random.default_rng(seed)
        modes = tuple(ModeLabel(H, tag, port) for tag, port in enumerate(ports))
        size = (cutoff + 1) ** len(ports)
        psi = rng.normal(size=size) + 1j * rng.normal(size=size)
        return fock.MultimodeState(modes, cutoff, psi / np.linalg.norm(psi))

    @staticmethod
    def assert_matches_oracle(state, port_c, port_d):
        ports = [m.spatial_port for m in state.modes]
        want = oracles.port_joint_by_occupation(
            state.probabilities(), state.dim, ports, Port(port_c), Port(port_d))
        got = fock.port_stats(state, port_c, port_d)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("ports", [
        (Port.C, Port.D, Port.C),
        (Port.D, Port.C, Port.D),
        (Port.D, Port.D, Port.C, Port.C),
        (Port.C, Port.A, Port.D, Port.B),
        (Port.A, Port.C, Port.B),
        (Port.C, Port.C, Port.A),  # port d empty
        (Port.A, Port.B, Port.A),  # both empty
    ])
    def test_joint_matches_the_occupation_sum(self, ports):
        state = self.random_state(len(ports), ports, 2)
        for port_c, port_d in ((Port.C, Port.D), (Port.D, Port.C), ("c", "d"), (Port.A, Port.C)):
            self.assert_matches_oracle(state, port_c, port_d)

    @pytest.mark.parametrize("reader", [
        fock.port_stats, fock.number_difference_stats,
        fock.coincidence_probability, fock.joint_port_distribution,
    ], ids=lambda reader: reader.__name__)
    @pytest.mark.parametrize("ports, message", [
        (("c", "c"), "port_c and port_d must differ, got 'c' for both"),
        ((Port.D, "d"), "port_c and port_d must differ, got 'd' for both"),
        (("q", "d"), "port_c must be one of 'a', 'b', 'c', 'd', got 'q'"),
        ((Port.C, "x"), "port_d must be one of 'a', 'b', 'c', 'd', got 'x'"),
    ])
    def test_one_port_twice_or_a_non_port_is_refused_by_name(self, reader, ports, message):
        # the HOM output |2,0> + |0,2> read c against c as a coincidence of 0.5
        out = fock.apply_beam_splitter(fock.make_fock([1, 1], 2))
        with pytest.raises(ValidationError, match=re.escape(message)):
            reader(out, *ports)

    def test_layouts_of_one_dim_called_alternately(self):
        layouts = [(Port.C, Port.D, Port.C), (Port.D, Port.C, Port.C), (Port.C, Port.C, Port.D),
                   (Port.C, Port.D, Port.A, Port.D)]
        states = [self.random_state(seed, ports, 3) for seed, ports in enumerate(layouts)]
        for _ in range(2):
            for state in states:
                self.assert_matches_oracle(state, Port.C, Port.D)
                self.assert_matches_oracle(state, Port.D, Port.C)


class TestDifferenceLaw:
    """number_difference_stats reads its offsets, values and squares from an
    index kept per joint shape, and returns the law a comprehension over the
    histogram's numpy scalars gives, key for key and in order."""

    @staticmethod
    def reference(joint):
        size_c, size_d = joint.shape
        offset = np.arange(size_c)[:, None] - np.arange(size_d) + (size_d - 1)
        hist = np.bincount(offset.ravel(), weights=joint.ravel())
        values = np.arange(1 - size_d, size_c)
        mean = float(np.dot(hist, values))
        variance = float(np.dot(hist, values.astype(float) ** 2) - mean**2)
        distribution = {int(v): float(pr) for v, pr in zip(values, hist) if pr > 1e-12}
        return distribution, mean, max(variance, 0.0)

    @staticmethod
    def states():
        for seed in range(4):
            yield TestPortIndex.random_state(seed, (Port.C, Port.D), 2 + seed)
            yield TestPortIndex.random_state(seed, (Port.D, Port.C, Port.C, Port.D), 1 + seed % 3)
            yield TestPortIndex.random_state(seed, (Port.C, Port.A, Port.D, Port.D), 2)
        for n in (1, 3, 7):  # the odd differences of a twin Fock output are exactly empty
            yield fock.apply_beam_splitter(fock.make_fock([n, n], 2 * n))
            yield fock.apply_beam_splitter(fock.make_fock([n, 0], n), convention=fock.ROTATION)

    def test_law_equals_the_comprehension(self):
        for state in self.states():
            stats = fock.number_difference_stats(state)
            distribution, mean, variance = self.reference(fock.port_stats(state))
            assert list(stats.distribution.items()) == list(distribution.items())
            assert all(type(k) is int and type(v) is float for k, v in stats.distribution.items())
            assert (stats.mean, stats.variance) == (mean, variance)

    def test_index_is_kept_per_shape_and_read_only(self):
        index = fock._difference_index(3, 5)
        assert fock._difference_index(3, 5) is index
        offset, values, squares = index
        assert offset.tolist() == [c - d + 4 for c in range(3) for d in range(5)]
        assert values.tolist() == list(range(-4, 3))
        assert squares.tobytes() == (values.astype(float) ** 2).tobytes()
        assert not any(array.flags.writeable for array in index)


class TestBenchmarkHooks:
    """bench/tracing.py times the kernels by replacing the module globals
    ``fock.pair_unitary`` and ``fock.port_stats``, and reads the dim as the
    fifth positional argument of pair_unitary; the engine must call them
    that way."""

    def test_scatter_and_stats_call_the_kernels_through_module_globals(self, monkeypatch):
        calls = []

        def recorder(name, fn):
            def record(*args, **kwargs):
                calls.append((name, args, kwargs))
                return fn(*args, **kwargs)
            return record

        monkeypatch.setattr(fock, "pair_unitary", recorder("pair_unitary", fock.pair_unitary))
        monkeypatch.setattr(fock, "port_stats", recorder("port_stats", fock.port_stats))
        out = fock.apply_beam_splitter(fock.make_fock([2, 2], 4))
        assert [(name, len(args), kwargs) for name, args, kwargs in calls] == [
            ("pair_unitary", 5, {})]
        assert calls[0][1][4] == 5
        stats = fock.number_difference_stats(out)
        coincidence = fock.coincidence_probability(out)
        joint = fock.joint_port_distribution(out)
        assert [name for name, _, _ in calls[1:]] == ["port_stats"] * 3
        assert all(args[0] is out for _, args, _ in calls[1:])
        assert stats.variance == pytest.approx(12.0, rel=1e-12)
        assert coincidence == pytest.approx(sum(p for (c, d), p in joint.items() if c and d))


class TestScatterPlans:
    """Which modes pair up, which vacuum partners are padded in and how each
    mode is labelled after depend only on the mode layout, so each optic
    resolves them once per layout and a scatter reads the plan."""

    PLATE_MODES = (ModeLabel(H, 0, Port.A), ModeLabel(V, 0, Port.A))

    @staticmethod
    def clear_every_cache():
        for value in vars(fock).values():
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()
        fock._rotations.clear()
        fock._phases.clear()

    def test_each_layout_is_planned_once_over_a_ladder(self):
        self.clear_every_cache()
        ladder = (1, 2, 4, 7)
        for n in ladder:
            for convention in (fock.SYMMETRIC_I, fock.ROTATION):
                fock.apply_beam_splitter(fock.make_fock([n, n], 2 * n), convention=convention)
                fock.apply_beam_splitter(distinguishable_pair(n, n, 2 * n), convention=convention)
            fock.apply_waveplate_polarizer(
                fock.make_fock([n, n], 2 * n, modes=self.PLATE_MODES), np.pi / 8)
        splitter = fock._splitter_plan.cache_info()
        assert (splitter.misses, splitter.hits) == (2, 4 * len(ladder) - 2)
        plate = fock._plate_plan.cache_info()
        assert (plate.misses, plate.hits) == (1, len(ladder) - 1)
        # one overflow mask per dim: the distinguishable pairs meet vacuum
        # and cannot overflow, and the plate's pair sits where the splitter's does
        assert fock._overflow_mask.cache_info().misses == len(ladder)

    def test_a_refused_layout_raises_on_every_call_and_is_not_kept(self):
        self.clear_every_cache()
        on_c = fock.make_fock([1], 1, modes=(ModeLabel(H, 0, Port.C),))
        two_paths = fock.make_fock([1, 1], 2)
        for _ in range(3):
            with pytest.raises(ValidationError, match="no modes on ports 'a', 'b'"):
                fock.apply_beam_splitter(on_c)
            with pytest.raises(ValidationError, match="single spatial path"):
                fock.apply_waveplate_polarizer(two_paths, 0.3)
        assert fock._splitter_plan.cache_info().currsize == 0
        assert fock._plate_plan.cache_info().currsize == 0

    @pytest.mark.parametrize("occupations", [[1, 1, 0], [2, 2, 0]],
                             ids=["fits", "also_overflows"])
    def test_colliding_output_labels_are_refused_before_any_amplitude_work(self, occupations):
        # H0@a leaves by c onto the H0@c already there; the refusal comes
        # before the overflow check of the a, b pair and before any rotation
        self.clear_every_cache()
        modes = (ModeLabel(H, 0, Port.A), ModeLabel(H, 0, Port.B), ModeLabel(H, 0, Port.C))
        state = fock.make_fock(occupations, 2, modes=modes)
        for _ in range(2):
            with pytest.raises(ValidationError, match=re.escape(
                    "H0@a leaves by c onto H0@c, which another mode holds")):
                fock.apply_beam_splitter(state)
        assert fock._rotations == {}
        assert fock._splitter_plan.cache_info().currsize == 0

    def test_states_on_one_layout_share_one_plan_of_tuples(self):
        modes = (ModeLabel(H, 0, Port.A), ModeLabel(H, 1, Port.B), ModeLabel(V, 0, Port.A))
        one = fock.make_fock([1, 2, 0], 4, modes=modes)
        # equal labels, built apart, on another cutoff
        other = fock.make_fock([0, 1, 1], 2, modes=tuple(
            ModeLabel(m.polarization, m.frequency_tag, m.spatial_port) for m in modes))
        plan = fock._splitter_plan(one.modes, Port.A, Port.B)
        assert fock._splitter_plan(other.modes, Port.A, Port.B) is plan
        assert all(type(field) is tuple for field in plan)
        assert all(type(pair) is tuple for pair in plan.pairs + plan.present)
        # H0, H1 and V0 pair in key order against the vacuum partners H0@b, H1@a, V0@b
        assert plan.pairs == ((0, 3), (4, 1), (2, 5))
        assert plan.vacuum == (ModeLabel(H, 0, Port.B), ModeLabel(H, 1, Port.A),
                               ModeLabel(V, 0, Port.B))
        assert plan.present == ()
        assert fock.apply_beam_splitter(one).modes == plan.labels
        assert [str(m) for m in plan.labels] == ["H0@c", "H1@d", "V0@c", "H0@d", "H1@c", "V0@d"]

    @staticmethod
    def leaky_ensemble(modes, cutoff, seed):
        """Two random vectors on ``modes`` that keep their total photon number
        at or below the cutoff but for a weight of about 1e-12 above it."""
        rng = np.random.default_rng(seed)
        total = fock._occupations(cutoff + 1, len(modes)).sum(axis=0)
        vectors = rng.normal(size=(2, total.size)) + 1j * rng.normal(size=(2, total.size))
        vectors[:, total > cutoff] *= 1e-7
        return fock.MultimodeState(modes, cutoff, vectors / np.linalg.norm(vectors))

    def scatters(self):
        """(name, scatter); every layout but the first has a pair present
        in its input, which adds to the leakage."""
        yield "2 modes, distinguishable", lambda: fock.apply_beam_splitter(
            self.leaky_ensemble((ModeLabel(H, 0, Port.A), ModeLabel(H, 1, Port.B)), 3, 1),
            mixing_angle=0.3)
        yield "3 modes, one partner", lambda: fock.apply_beam_splitter(
            self.leaky_ensemble((ModeLabel(H, 0, Port.A), ModeLabel(H, 0, Port.B),
                                 ModeLabel(V, 0, Port.A)), 3, 2), convention=fock.ROTATION)
        yield "4 modes, two partners", lambda: fock.apply_beam_splitter(
            self.leaky_ensemble((ModeLabel(H, 0, Port.A), ModeLabel(H, 0, Port.B),
                                 ModeLabel(V, 1, Port.A), ModeLabel(H, 2, Port.B)), 2, 3))
        yield "plate, 3 modes", lambda: fock.apply_waveplate_polarizer(
            self.leaky_ensemble((ModeLabel(H, 0, Port.A), ModeLabel(V, 0, Port.A),
                                 ModeLabel(V, 1, Port.A)), 3, 4), 0.4)

    def test_a_scatter_after_every_cache_is_cleared_is_byte_identical(self):
        for name, scatter in self.scatters():
            warm = scatter()
            self.clear_every_cache()
            cold = scatter()
            assert (warm.truncation_leakage > 0.0) == (not name.startswith("2 modes")), name
            assert cold.vectors.tobytes() == warm.vectors.tobytes(), name
            assert cold.modes == warm.modes, name
            assert cold.truncation_leakage == warm.truncation_leakage, name
