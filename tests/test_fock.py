"""Exact Fock-engine tests: interference dichotomies, scaling laws, unitarity."""

import tracemalloc

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
    """pair_unitary keeps the real blocks of the last rotation at the largest
    dim asked for; the other calls read slices of them."""

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
