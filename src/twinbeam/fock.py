"""Exact simulation of beam-splitter scattering on truncated multimode Fock spaces.

States are immutable; every optic is a pure function returning a new state.
The per-mode cutoff is caller-supplied and photon-number conservation is
exploited: a pair of interfering modes must keep its total occupation at or
below the cutoff, otherwise the truncated unitary would not be the physical
one and a :class:`~twinbeam.errors.CapacityError` is raised.

Both optics are one operation, a 2x2 passive map scattering pairs of modes:
the beam splitter pairs the matching modes of its two input ports, and the
half-wave plate with polarizer pairs H with V of each frequency tag. A mixed
state is an ensemble of pure vectors, and an optic maps each of them alike.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import CapacityError, TruncationWarning, ValidationError
from .modes import ModeLabel, Polarization, Port

#: Mixing angle of a balanced (50/50) splitter.
BALANCED_ANGLE = np.pi / 4

#: Splitter conventions: reflection = i * transmission, or real orthogonal.
SYMMETRIC_I = "symmetric_i"
ROTATION = "rotation"

#: Leakage above this is surfaced to the caller as a TruncationWarning.
LEAKAGE_THRESHOLD = 1e-8

_NORM_TOL = 1e-8

_OUTPUT_PORT = {Port.A: Port.C, Port.B: Port.D, Port.C: Port.C, Port.D: Port.D}


@dataclass(frozen=True)
class MultimodeState:
    """A state over a truncated multimode occupation basis, stored as an
    ensemble of unnormalised pure vectors.

    The basis is flat C-order over the per-mode occupations in ``modes``
    order, ``D = (cutoff + 1) ** n_modes`` states. ``vectors`` is a (K, D)
    stack whose rows psi_k make up rho = sum_k |psi_k><psi_k| (the ensemble
    form of a mixed state, Nielsen & Chuang, section 2.4). A pure state has
    K = 1, and a (D,) array is read as that one vector.
    """

    modes: tuple[ModeLabel, ...]
    cutoff: int
    vectors: np.ndarray
    truncation_leakage: float = 0.0

    def __post_init__(self):
        modes = tuple(self.modes)
        if len(set(modes)) != len(modes):
            raise ValidationError(f"duplicate mode labels in {modes}")
        if self.cutoff < 1:
            raise ValidationError("cutoff must be >= 1")
        shape = np.shape(self.vectors)
        arr = np.array(self.vectors, dtype=np.complex128, ndmin=2)
        arr.setflags(write=False)
        object.__setattr__(self, "modes", modes)
        object.__setattr__(self, "vectors", arr)
        basis = self.dim ** len(modes)
        if len(shape) not in (1, 2) or arr.shape[1] != basis or not len(arr):
            raise ValidationError(
                f"amplitude shape {shape} is neither ({basis},) nor (K, {basis}) with K >= 1"
            )
        # written so that a NaN norm fails it
        if not abs(self.norm() - 1.0) <= _NORM_TOL:
            raise ValidationError(f"state norm {self.norm()!r} is not 1")

    @property
    def dim(self) -> int:
        return self.cutoff + 1

    @property
    def n_modes(self) -> int:
        return len(self.modes)

    @property
    def basis_size(self) -> int:
        return self.dim**self.n_modes

    @property
    def amplitudes(self) -> np.ndarray:
        """The (D,) vector of a pure state; for K > 1 the (D, D) density
        matrix sum_k psi_k psi_k^H, built on each call."""
        if len(self.vectors) == 1:
            return self.vectors[0]
        return self.vectors.T @ self.vectors.conj()

    def norm(self) -> float:
        return float(self.probabilities().sum())

    def probabilities(self) -> np.ndarray:
        """Occupation-basis probabilities, summed over the ensemble."""
        return (np.abs(self.vectors) ** 2).sum(axis=0)

    def ports(self) -> set[Port]:
        return {m.spatial_port for m in self.modes}


@dataclass(frozen=True)
class ScatterOutcome:
    """Distribution of the photon-number difference between two output ports."""

    distribution: dict[int, float]
    mean: float
    variance: float

    @property
    def std(self) -> float:
        return float(np.sqrt(max(self.variance, 0.0)))


@lru_cache(maxsize=16)
def _occupations(dim: int, n_modes: int) -> np.ndarray:
    occ = np.indices((dim,) * n_modes).reshape(n_modes, dim**n_modes)
    occ.setflags(write=False)
    return occ


def _mode_labels(modes, n: int) -> tuple[ModeLabel, ...]:
    """``modes`` as ModeLabels (tuples are unpacked into one), or by default
    equal polarization and frequency on ports a, b, ... for n modes."""
    if modes is None:
        if n > len(Port):
            raise ValidationError("explicit mode labels required for more than 4 modes")
        return tuple(ModeLabel(Polarization.H, 0, port) for port in list(Port)[:n])
    return tuple(m if isinstance(m, ModeLabel) else ModeLabel(*m) for m in modes)


# ---------------------------------------------------------------------------
# State constructors
# ---------------------------------------------------------------------------


def make_fock(occupations, cutoff: int, modes=None) -> MultimodeState:
    """Basis state with the given per-mode occupations.

    Default mode labels put the occupations on ports a, b, ... with equal
    polarization and frequency; pass explicit ``modes`` for anything else.
    """
    occupations = [int(n) for n in occupations]
    modes = _mode_labels(modes, len(occupations))
    if len(modes) != len(occupations):
        raise ValidationError("one occupation per mode required")
    for n in occupations:
        if n < 0:
            raise ValidationError(f"negative occupation {n}")
        if n > cutoff:
            raise CapacityError(f"occupation {n} exceeds cutoff {cutoff}")
    dim = cutoff + 1
    amps = np.zeros(dim ** len(modes), dtype=np.complex128)
    amps[np.ravel_multi_index(occupations, (dim,) * len(modes))] = 1.0
    return MultimodeState(modes, cutoff, amps)


def make_twin_mode_mixture(weights, cutoff: int) -> MultimodeState:
    """Two-mode mixture sum_np w[n,p] |n,n><p,p| on ports a and b.

    ``weights`` must be Hermitian, positive semidefinite, unit trace, with
    dimension at most cutoff + 1. The state holds one vector
    sqrt(lambda) sum_n v[n] |n,n> per eigenpair (lambda, v) of w above the
    rank tolerance of ``np.linalg.matrix_rank``.
    """
    w = np.asarray(weights, dtype=np.complex128)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise ValidationError(f"weight matrix must be square, got shape {w.shape}")
    r = w.shape[0]
    if r > cutoff + 1:
        raise CapacityError(f"weight dimension {r} exceeds cutoff + 1 = {cutoff + 1}")
    if not np.allclose(w, w.conj().T, atol=1e-10):
        raise ValidationError("weight matrix is not Hermitian")
    if abs(np.trace(w).real - 1.0) > 1e-10:
        raise ValidationError(f"weight matrix trace {np.trace(w)} is not 1")
    eigenvalues, eigenvectors = np.linalg.eigh(w)
    if eigenvalues[0] < -1e-10:
        raise ValidationError("weight matrix is not positive semidefinite")

    kept = eigenvalues > eigenvalues[-1] * r * np.finfo(float).eps
    dim = cutoff + 1
    vectors = np.zeros((int(kept.sum()), dim * dim), dtype=np.complex128)
    vectors[:, np.arange(r) * (dim + 1)] = (eigenvectors[:, kept] * np.sqrt(eigenvalues[kept])).T
    return MultimodeState(_mode_labels(None, 2), cutoff, vectors)


def _coherent_column(alpha: complex, cutoff: int) -> tuple[np.ndarray, float]:
    dim = cutoff + 1
    if alpha == 0:
        column = np.zeros(dim, dtype=np.complex128)
        column[0] = 1.0
        return column, 0.0
    n = np.arange(dim)
    log_fact = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1, dim)))))
    log_mag = -abs(alpha) ** 2 / 2.0 + n * np.log(abs(alpha)) - 0.5 * log_fact
    column = np.exp(log_mag) * np.exp(1j * n * np.angle(alpha))
    kept = float(np.sum(np.abs(column) ** 2))
    leakage = max(0.0, 1.0 - kept)
    return column / np.sqrt(kept), leakage


def make_coherent_pair(alpha_a, alpha_b, cutoff: int, modes=None) -> MultimodeState:
    """Product of truncated, renormalized coherent states.

    Requires |alpha|^2 <= cutoff / 4 per mode (truncation safety floor); the
    combined leakage is stored on the state and a TruncationWarning is issued
    when it exceeds ``LEAKAGE_THRESHOLD``.
    """
    alpha_a, alpha_b = complex(alpha_a), complex(alpha_b)
    for alpha in (alpha_a, alpha_b):
        if abs(alpha) ** 2 > cutoff / 4.0:
            raise ValidationError(
                f"|alpha|^2 = {abs(alpha) ** 2:.3g} exceeds cutoff/4 = {cutoff / 4.0:.3g}"
            )
    col_a, leak_a = _coherent_column(alpha_a, cutoff)
    col_b, leak_b = _coherent_column(alpha_b, cutoff)
    leakage = 1.0 - (1.0 - leak_a) * (1.0 - leak_b)
    if leakage > LEAKAGE_THRESHOLD:
        warnings.warn(
            f"coherent-state truncation leakage {leakage:.3g} above {LEAKAGE_THRESHOLD}",
            TruncationWarning,
            stacklevel=2,
        )
    amps = np.outer(col_a, col_b).ravel()
    return MultimodeState(_mode_labels(modes, 2), cutoff, amps, truncation_leakage=leakage)


# ---------------------------------------------------------------------------
# Photon-number sectors of a two-mode passive optic
#
# The creation-operator map a+ -> alpha c+ + beta d+, b+ -> gamma c+ + delta d+
# conserves the pair's total photon number n, so its unitary U is block
# diagonal: sector n carries the n-photon representation of the 2x2 mode
# matrix M = [[alpha, beta], [gamma, delta]] on the basis |j, n-j>. Sector n
# follows from sector n-1 through the one-photon identity
#   n |k, n-k> = sqrt(k) a+ |k-1, n-k> + sqrt(n-k) b+ |k, n-k-1>,
# pushed through U (U a+ U^dag = alpha c+ + beta d+, likewise b+):
#   n B_n[j, k] = sqrt(k)   (alpha sqrt(j) B[j-1, k-1] + beta  sqrt(n-j) B[j, k-1])
#               + sqrt(n-k) (gamma sqrt(j) B[j-1, k]   + delta sqrt(n-j) B[j, k])
# with B = B_{n-1}. This is Risbo's recursion for the Wigner d-functions
# (Risbo, J. Geodesy 70, 383 (1996)) in creation operators. It is stable
# because it averages over both indices; the two-term column recursion
# U|k, m> = (alpha c+ + beta d+) U|k-1, m> / sqrt(k) cancels like the
# alternating binomial sums (unitarity off by 6e-9 at cutoff 60, 79 at 120).
# Sectors with n above the cutoff cannot be represented exactly under the
# truncation; their real blocks are left as the identity and callers must
# keep state support out of them.
#
# Every unitary M is phase shifters around a real rotation (Reck et al., PRL
# 73, 58 (1994)): M = diag(1, p) R diag(q1, q2) with R = [[c, -s], [s, c]],
# c = |alpha| and s = |beta|, that is alpha = c q1, beta = -s q2,
# gamma = p s q1 and delta = p c q2. In U|k, n-k> the phase p rides on each of
# the n-k photons of b, and q1, q2 on each photon leaving by c, d, so
#   B_n(M)[j, k] = q1^j q2^(n-j) d_n[j, k] p^(n-k)
# with d_n the real block of R. The recursion therefore runs once per (c, s)
# in real arithmetic, and both splitter conventions at one angle share it.
# The phases are single-mode phase shifters, exact on every occupation, so a
# scatter applies them per mode and only R goes through the sectors.
# ---------------------------------------------------------------------------

_UNITARY_TOL = 1e-12

#: (c, s, blocks): the read-only real blocks of the last rotation built, at
#: the largest dim asked for since; block n does not depend on dim, so a
#: smaller dim is the leading slice. Both splitter conventions at one angle
#: give bit-identical (c, s) and share it. A call reads the tuple once, so
#: the (c, s) it compares always belong to the blocks it returns.
_rotation = (None, None, np.ones((0, 0, 0)))


def _rotation_blocks(c: float, s: float, dim: int) -> np.ndarray:
    """Real sector blocks d_n of R = [[c, -s], [s, c]] by the recursion above,
    stacked to shape (dim, dim, dim) with the identity as padding."""
    # Term (u, v) of the recursion reads B[j - 1 + u, k - 1 + v] with weight
    # R[v, u] * sqrt|j - u n| * sqrt|k - v n|; root[dim - 1 + i] = sqrt|i|,
    # so sector n's weights are one strided view of this C-ordered array.
    coefficients = np.array([[c, s], [-s, c]], dtype=np.float64)
    root = np.sqrt(np.abs(np.arange(1 - dim, dim)))
    weights = np.multiply.outer(coefficients, np.multiply.outer(root, root))
    wr, wc, wx, wy = weights.strides
    blocks = np.zeros((dim, dim, dim))
    # the diagonals of all blocks: ones beyond each sector's corner
    blocks.reshape(dim, dim * dim)[:, :: dim + 1] = 1.0 - np.tri(dim)
    blocks[0, 0, 0] = 1.0
    # Block n - 1 with a zero border; its four (n+1) x (n+1) windows are the
    # four shifted terms.
    prev = np.zeros((dim + 1, dim + 1))
    prev[1, 1] = 1.0
    px, py = prev.strides
    terms = np.empty(4 * dim * dim)
    for n in range(1, dim):
        shape = (2, 2, n + 1, n + 1)
        window = np.ndarray(shape, np.float64, prev, 0, (px, py, px, py))
        weight = np.ndarray(shape, np.float64, weights, (dim - 1) * (wx + wy),
                            (wr - n * wx, wc - n * wy, wx, wy))
        block = blocks[n, : n + 1, : n + 1]
        np.multiply(weight, window, out=terms[: window.size].reshape(shape)).sum((0, 1), out=block)
        block /= n
        prev[1 : n + 2, 1 : n + 2] = block
    blocks.setflags(write=False)
    return blocks


def _powers(phases, dim: int) -> np.ndarray:
    """Row i holds phases[i] to the powers 0 ... dim-1, each rescaled to unit
    modulus."""
    powers = np.empty((len(phases), dim), dtype=np.complex128)
    powers[:, 0] = 1.0
    powers[:, 1:] = np.array(phases)[:, None]
    powers = np.cumprod(powers, axis=1)
    return powers / np.abs(powers)


def pair_unitary(alpha, beta, gamma, delta, dim) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A two-mode unitary optic as ``(phase_in, blocks, phase_out)``: the real
    rotation's read-only float64 sector blocks d_n, stacked (dim, dim, dim),
    between single-mode phase shifters, the (dim,) powers p^m on mode b and
    the (dim, dim) products q1^j q2^k on modes c, d.

    Block n of the optic, mapping |k, n-k> to |j, n-j>, is
    ``phase_out[j, n-j] * blocks[n, j, k] * phase_in[n-k]`` in the leading
    (n+1) x (n+1) corner; beyond it the blocks carry the identity. The real
    blocks of the last rotation are kept and shared by every later call with
    the same (c, s) and at most the same dim.

    Raises ValidationError when the 2x2 mode map is not unitary.
    """
    global _rotation
    alpha, beta, gamma, delta = (complex(x) for x in (alpha, beta, gamma, delta))
    # rows of unit norm and orthogonal; a sum, so that a NaN is not lost
    error = (abs(abs(alpha) ** 2 + abs(beta) ** 2 - 1.0)
             + abs(abs(gamma) ** 2 + abs(delta) ** 2 - 1.0)
             + abs(alpha * gamma.conjugate() + beta * delta.conjugate()))
    if not error <= _UNITARY_TOL:
        raise ValidationError(f"2x2 mode map [[{alpha}, {beta}], [{gamma}, {delta}]] is not "
                              f"unitary: its rows are off orthonormal by {error:.3g}")
    c, s = abs(alpha), abs(beta)
    q1 = alpha / c if c else 1.0
    q2 = -beta / s if s else 1.0
    det = alpha * delta - beta * gamma
    p = det / abs(det) / (q1 * q2)

    cached_c, cached_s, blocks = _rotation
    if (c, s) != (cached_c, cached_s) or len(blocks) < dim:
        blocks = _rotation_blocks(c, s, dim)
        _rotation = (c, s, blocks)
    q1_powers, q2_powers, p_powers = _powers((q1, q2, p), dim)
    return p_powers, blocks[:dim, :dim, :dim], np.multiply.outer(q1_powers, q2_powers)


@lru_cache(maxsize=16)
def _sector_index(dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flat pair index k*dim + n-k and padded-stack slot n*dim + k of every
    |k, n-k> in the sectors n <= dim - 1, and the (dim, dim) mask of the
    occupations (n_a, n_b) whose total exceeds dim - 1."""
    n, k = np.tril_indices(dim)
    pair, slot = k * dim + (n - k), n * dim + k
    overflow = np.add.outer(np.arange(dim), np.arange(dim)) >= dim
    for index in (pair, slot, overflow):
        index.setflags(write=False)
    return pair, slot, overflow


def _contract_pair(tensor: np.ndarray, ax1: int, ax2: int, phase_in: np.ndarray,
                   blocks: np.ndarray, phase_out: np.ndarray) -> tuple[np.ndarray, float]:
    """Apply the optic ``pair_unitary`` returns to axes ax1, ax2, every other
    axis (the ensemble's among them) riding along; return the image and the
    weight on occupations whose pair total exceeds the cutoff.

    That weight cannot scatter exactly under the truncation; above the
    leakage threshold it raises CapacityError before any work is done. Only
    the real blocks act sector by sector, on a float64 view of the sector
    stack. The phases act per mode: p^m on each amplitude gathered into the
    stack and on the b axis of the output, q1^j q2^k on both of its axes.
    """
    dim = tensor.shape[ax1]
    pair, slot, overflow = _sector_index(dim)
    # the (dim, dim) mask spread over the pair's axes; it is symmetric, so
    # ax1 > ax2 reads it alike
    shape = [1] * (tensor.ndim - 1)
    shape[ax1 - 1] = shape[ax2 - 1] = dim
    outside = tensor[:, np.broadcast_to(overflow.reshape(shape), tensor.shape[1:])]
    weight = float(np.sum(np.abs(outside) ** 2))
    if weight > LEAKAGE_THRESHOLD:
        raise CapacityError(
            f"interfering pair carries probability {weight:.3g} above cutoff "
            f"{dim - 1}; rebuild the state with a larger cutoff"
        )
    moved = np.moveaxis(tensor, (ax1, ax2), (0, 1))
    stack = np.zeros((dim * dim, tensor.size // dim**2), dtype=np.complex128)
    # the amplitude at pair index k*dim + m has m photons in b
    stack[slot] = moved.reshape(dim * dim, -1)[pair] * phase_in[pair % dim, None]
    # each stack is reassigned, not kept under a new name, so it is freed once read
    stack = blocks @ stack.view(np.float64).reshape(dim, dim, -1)
    stack = stack.view(np.complex128).reshape(dim * dim, -1)[slot]
    # The output is made only now, so that it can take the memory the
    # rotation freed, and in C order, so that its reshape is a view.
    spread = (1,) * (tensor.ndim - 2)
    out = np.multiply(moved, phase_in.reshape(dim, *spread), order="C")
    out.reshape(dim * dim, -1)[pair] = stack
    out *= phase_out.reshape(dim, dim, *spread)
    return np.moveaxis(out, (0, 1), (ax1, ax2)), weight


# ---------------------------------------------------------------------------
# Optics
# ---------------------------------------------------------------------------


def _pair_coefficients(mixing_angle: float, convention: str) -> tuple:
    c, s = np.cos(mixing_angle), np.sin(mixing_angle)
    if convention == SYMMETRIC_I:
        return c, 1j * s, 1j * s, c
    if convention == ROTATION:
        return c, -s, s, c
    raise ValidationError(f"unknown convention {convention!r}")


def _scatter(state: MultimodeState, pairs, coefficients, moved) -> MultimodeState:
    """Scatter each (i, j) label pair of ``pairs`` through the two-mode optic
    with mode matrix ``coefficients``, then relabel every mode by ``moved``.

    A label absent from the state enters as vacuum, appended in pair order.
    The optic's phases and real blocks are built once and shared by all
    pairs; the vectors go through as one (K, dim, ..., dim) tensor, axis 0
    the ensemble. The weight each pair holds above the cutoff is added to
    the state's truncation leakage.
    """
    modes, dim = state.modes, state.dim
    tensor = state.vectors.reshape((-1,) + (dim,) * state.n_modes)
    for label in (label for pair in pairs for label in pair):
        if label not in modes:
            padded = np.zeros(tensor.shape + (dim,), dtype=np.complex128)
            padded[..., 0] = tensor
            tensor, modes = padded, modes + (label,)
    optic = pair_unitary(*coefficients, dim)
    leakage = state.truncation_leakage
    for label_i, label_j in pairs:
        i, j = modes.index(label_i), modes.index(label_j)
        tensor, weight = _contract_pair(tensor, i + 1, j + 1, *optic)
        leakage += weight
    return MultimodeState(tuple(map(moved, modes)), state.cutoff,
                          tensor.reshape(len(tensor), -1), leakage)


def apply_beam_splitter(
    state: MultimodeState,
    port_pair=(Port.A, Port.B),
    mixing_angle: float = BALANCED_ANGLE,
    convention: str = SYMMETRIC_I,
) -> MultimodeState:
    """Scatter the modes on the two input ports through a beam splitter.

    Modes interfere pairwise when their polarization and frequency tags
    match across the port pair; unmatched modes scatter against a vacuum
    partner added on the opposite port. Input ports a, b are relabeled to
    output ports c, d, while c and d stay c and d, so the two ports must land
    on different outputs: the pairs {a, c} and {b, d} are refused.
    """
    p, q = Port(port_pair[0]), Port(port_pair[1])
    if p == q:
        raise ValidationError("beam splitter needs two distinct ports")
    if _OUTPUT_PORT[p] == _OUTPUT_PORT[q]:
        raise ValidationError(
            f"ports {p.value!r} and {q.value!r} would both leave by output port "
            f"{_OUTPUT_PORT[p].value!r}: a and b become c and d, and c and d stay c and d"
        )
    keys = sorted({m.interference_key for m in state.modes if m.spatial_port in (p, q)}, key=str)
    if not keys:
        raise ValidationError(f"no modes on ports {p.value!r}, {q.value!r}")
    return _scatter(
        state,
        [(ModeLabel(*key, p), ModeLabel(*key, q)) for key in keys],
        _pair_coefficients(mixing_angle, convention),
        lambda m: m.moved_to(_OUTPUT_PORT[m.spatial_port]) if m.spatial_port in (p, q) else m,
    )


def apply_waveplate_polarizer(state: MultimodeState, theta: float) -> MultimodeState:
    """Half-wave plate at angle theta followed by a polarizing splitter.

    The plate rotates polarizations by 2*theta, so it is a splitter on the
    H/V pair of each frequency tag: theta = pi/8 is balanced and theta = pi/4
    swaps the ports. The polarizer then routes H to port c and V to port d.
    """
    ports = state.ports()
    if len(ports) != 1:
        raise ValidationError("waveplate input must sit on a single spatial path")
    (path,) = ports
    pairs = [(ModeLabel(Polarization.H, tag, path), ModeLabel(Polarization.V, tag, path))
             for tag in sorted({m.frequency_tag for m in state.modes})]
    return _scatter(
        state,
        pairs,
        _pair_coefficients(2.0 * theta, ROTATION),
        lambda m: m.moved_to(Port.C if m.polarization == Polarization.H else Port.D),
    )


# ---------------------------------------------------------------------------
# Measurement statistics
# ---------------------------------------------------------------------------


def port_stats(state: MultimodeState, port_c=Port.C, port_d=Port.D) -> np.ndarray:
    """Joint probability P[n_c, n_d] of the photon numbers in two ports.

    Photon numbers are summed over every mode on each port; one bincount
    over the occupation basis.
    """
    occ = _occupations(state.dim, state.n_modes)
    sel_c = np.array([m.spatial_port == Port(port_c) for m in state.modes])
    sel_d = np.array([m.spatial_port == Port(port_d) for m in state.modes])
    size_c = state.cutoff * int(sel_c.sum()) + 1
    size_d = state.cutoff * int(sel_d.sum()) + 1
    n_c, n_d = occ[sel_c].sum(axis=0), occ[sel_d].sum(axis=0)
    joint = np.bincount(n_c * size_d + n_d, weights=state.probabilities(),
                        minlength=size_c * size_d)
    return joint.reshape(size_c, size_d)


def number_difference_stats(
    state: MultimodeState, port_c=Port.C, port_d=Port.D
) -> ScatterOutcome:
    """Exact distribution, mean, and variance of n_c - n_d.

    Photon numbers are summed over every frequency tag within each port.
    """
    joint = port_stats(state, port_c, port_d)
    size_c, size_d = joint.shape
    offset = np.arange(size_c)[:, None] - np.arange(size_d) + (size_d - 1)
    hist = np.bincount(offset.ravel(), weights=joint.ravel())
    values = np.arange(1 - size_d, size_c)
    mean = float(np.dot(hist, values))
    variance = float(np.dot(hist, values.astype(float) ** 2) - mean**2)
    distribution = {int(v): float(pr) for v, pr in zip(values, hist) if pr > 1e-12}
    return ScatterOutcome(distribution, mean, max(variance, 0.0))


def coincidence_probability(state: MultimodeState, port_c=Port.C, port_d=Port.D) -> float:
    """Probability that both output ports hold at least one photon."""
    return float(port_stats(state, port_c, port_d)[1:, 1:].sum())


def joint_port_distribution(
    state: MultimodeState, port_c=Port.C, port_d=Port.D, tol: float = 1e-12
) -> dict[tuple[int, int], float]:
    """Joint probability of (n_c, n_d) photon counts, entries above tol."""
    joint = port_stats(state, port_c, port_d)
    return {(int(nc), int(nd)): float(joint[nc, nd]) for nc, nd in zip(*np.nonzero(joint > tol))}
