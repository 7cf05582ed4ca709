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

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import CapacityError, TruncationWarning, ValidationError
from .modes import ModeLabel, Polarization, Port, _integer, _member

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
        object.__setattr__(self, "modes", tuple(map(_mode_label, self.modes)))
        # a copy: a state never freezes or aliases an array its caller holds
        self._own(np.array(self.vectors, dtype=np.complex128, ndmin=2), np.shape(self.vectors))

    @classmethod
    def _adopt(cls, modes, cutoff: int, vectors: np.ndarray, truncation_leakage: float):
        """The state over ``vectors``, a fresh complex128 (K, D) array that
        no caller holds, taken without the constructor's copy."""
        state = object.__new__(cls)
        for name, value in (("modes", modes), ("cutoff", cutoff),
                            ("truncation_leakage", truncation_leakage)):
            object.__setattr__(state, name, value)
        state._own(vectors, vectors.shape)
        return state

    def _own(self, arr: np.ndarray, shape: tuple) -> None:
        """Check and freeze ``arr``, given in ``shape``, as this state's
        vectors, and keep its probabilities, which the norm check sums."""
        modes = tuple(self.modes)
        if len(set(modes)) != len(modes):
            raise ValidationError(f"duplicate mode labels in {modes}")
        if _integer(self.cutoff, "cutoff") < 1:
            raise ValidationError("cutoff must be >= 1")
        arr.setflags(write=False)
        object.__setattr__(self, "modes", modes)
        object.__setattr__(self, "vectors", arr)
        basis = self.dim ** len(modes)
        if len(shape) not in (1, 2) or arr.shape[1] != basis or not len(arr):
            raise ValidationError(
                f"amplitude shape {shape} is neither ({basis},) nor (K, {basis}) with K >= 1"
            )
        probabilities = (np.abs(arr) ** 2).sum(axis=0)
        probabilities.setflags(write=False)
        object.__setattr__(self, "_probabilities", probabilities)
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
        """Occupation-basis probabilities, summed over the ensemble: one
        read-only (D,) array, summed when the state is made."""
        return self._probabilities


@dataclass(frozen=True)
class ScatterOutcome:
    """Distribution of the photon-number difference between two output ports."""

    distribution: dict[int, float]
    mean: float
    variance: float

    @property
    def std(self) -> float:
        return float(np.sqrt(max(self.variance, 0.0)))


@lru_cache(maxsize=32)
def _occupations(dim: int, n_modes: int) -> np.ndarray:
    occ = np.indices((dim,) * n_modes).reshape(n_modes, dim**n_modes)
    occ.setflags(write=False)
    return occ


def _mode_label(m) -> ModeLabel:
    """``m`` as a ModeLabel; a tuple of its fields is unpacked into one."""
    reason = ""
    try:
        if isinstance(m, (ModeLabel, tuple)):
            return m if isinstance(m, ModeLabel) else ModeLabel(*m)
    except TypeError:
        pass
    except ValidationError as error:
        reason = f": {error}"
    raise ValidationError(
        f"mode label {m!r} is neither a ModeLabel nor a tuple of its fields{reason}")


@lru_cache(maxsize=len(Port) + 1)
def _default_labels(n: int) -> tuple[ModeLabel, ...]:
    return tuple(ModeLabel(Polarization.H, 0, port) for port in list(Port)[:n])


def _mode_labels(modes, n: int) -> tuple[ModeLabel, ...]:
    """``modes`` as ModeLabels, or by default equal polarization and
    frequency on ports a, b, ... for n modes."""
    if modes is None:
        if n > len(Port):
            raise ValidationError("explicit mode labels required for more than 4 modes")
        return _default_labels(n)
    return tuple(map(_mode_label, modes))


# ---------------------------------------------------------------------------
# State constructors
# ---------------------------------------------------------------------------


def make_fock(occupations, cutoff: int, modes=None) -> MultimodeState:
    """Basis state with the given per-mode occupations.

    Default mode labels put the occupations on ports a, b, ... with equal
    polarization and frequency; pass explicit ``modes`` for anything else.
    """
    cutoff = _integer(cutoff, "cutoff")
    occupations = [_integer(n, "occupation") for n in occupations]
    modes = _mode_labels(modes, len(occupations))
    if len(modes) != len(occupations):
        raise ValidationError("one occupation per mode required")
    if min(occupations, default=0) < 0:  # first: a caller may size the cutoff from their sum
        raise ValidationError(f"negative occupation {min(occupations)}")
    for n in occupations:
        if n > cutoff:
            raise CapacityError(f"occupation {n} exceeds cutoff {cutoff}")
    dim = cutoff + 1
    amps = np.zeros((1, dim ** len(modes)), dtype=np.complex128)
    amps[0, np.ravel_multi_index(occupations, (dim,) * len(modes))] = 1.0
    return MultimodeState._adopt(modes, cutoff, amps, 0.0)


def make_twin_mode_mixture(weights, cutoff: int) -> MultimodeState:
    """Two-mode mixture sum_np w[n,p] |n,n><p,p| on ports a and b.

    ``weights`` must be Hermitian, positive semidefinite, unit trace, with
    dimension at most cutoff + 1. The state holds one vector
    sqrt(lambda) sum_n v[n] |n,n> per eigenpair (lambda, v) of w above the
    rank tolerance of ``np.linalg.matrix_rank``.
    """
    cutoff = _integer(cutoff, "cutoff")
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

    Requires finite amplitudes with |alpha|^2 <= cutoff / 4 per mode
    (truncation safety floor); the combined leakage is stored on the state
    and a TruncationWarning is issued when it exceeds ``LEAKAGE_THRESHOLD``.
    """
    cutoff = _integer(cutoff, "cutoff")
    alpha_a, alpha_b = complex(alpha_a), complex(alpha_b)
    for name, alpha in (("alpha_a", alpha_a), ("alpha_b", alpha_b)):
        if not (math.isfinite(alpha.real) and math.isfinite(alpha.imag)):
            raise ValidationError(f"{name} must be finite, got {alpha}")
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
# truncation; their real blocks are left as the identity, and a scatter reads
# the pair's probability there from its input's kept probabilities before
# any work: the pairs of one scatter are disjoint, so no pair's rotation
# changes another pair's photon-number marginal.
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
# scatter applies them per mode and only R goes through the sectors, and of
# those only the contiguous range its state occupies: a Fock pair |n_a, n_b>
# sits in the one sector n_a + n_b, a coherent pair in all of them.
# ---------------------------------------------------------------------------

_UNITARY_TOL = 1e-12

#: (c, s) -> the read-only real blocks of that rotation, at the largest dim
#: asked for since; block n does not depend on dim, so a smaller dim is the
#: leading slice. Both splitter conventions at one angle give bit-identical
#: (c, s) and share an entry. The _ROTATIONS_KEPT newest builds are kept,
#: so a cycle over a few angles builds each once.
_rotations: dict[tuple[float, float], np.ndarray] = {}
_ROTATIONS_KEPT = 4

#: (q1, q2, p) -> the (3, dim) powers of those phases, kept the same way at
#: the largest dim asked for since: cumprod runs along each row in order, so
#: a smaller dim's powers are the leading columns bit for bit.
_phases: dict[tuple[complex, complex, complex], np.ndarray] = {}
_PHASES_KEPT = 4


def _largest(cache: dict, key, dim: int, build, kept: int) -> np.ndarray:
    """``cache[key]`` if its last axis covers ``dim``, else ``build(dim)``,
    stored as the newest entry; past ``kept`` entries the oldest is evicted."""
    table = cache.get(key)
    if table is None or table.shape[-1] < dim:
        table = build(dim)
        cache.pop(key, None)
        cache[key] = table
        if len(cache) > kept:
            cache.pop(next(iter(cache)), None)
    return table


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
    blocks of the last few rotations built are kept and shared by every later
    call with the same (c, s) and at most the same dim; the phase powers are
    kept likewise per (q1, q2, p), and each call gets its own copies.

    Raises ValidationError when the 2x2 mode map is not unitary.
    """
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

    blocks = _largest(_rotations, (c, s), dim, lambda d: _rotation_blocks(c, s, d),
                      _ROTATIONS_KEPT)
    phases = (q1, q2, p)
    powers = _largest(_phases, phases, dim, lambda d: _powers(phases, d), _PHASES_KEPT)[:, :dim]
    return (powers[2].copy(), blocks[:dim, :dim, :dim],
            np.multiply.outer(powers[0], powers[1]))


@lru_cache(maxsize=32)
def _sector_index(dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flat pair index k*dim + n-k, padded-stack slot n*dim + k and b
    occupation n-k of every |k, n-k> in the sectors n <= dim - 1."""
    n, k = np.tril_indices(dim)
    pair, slot = k * dim + (n - k), n * dim + k
    b = pair % dim
    for index in (pair, slot, b):
        index.setflags(write=False)
    return pair, slot, b


@lru_cache(maxsize=64)
def _axis_order(ndim: int, ax1: int, ax2: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The permutation that moves axes ax1, ax2 of an ndim array to the
    front, the rest following in order, and its inverse."""
    order = (ax1, ax2) + tuple(axis for axis in range(ndim) if axis not in (ax1, ax2))
    return order, tuple(sorted(range(ndim), key=order.__getitem__))


def _contract_pair(tensor: np.ndarray, ax1: int, ax2: int, phase_in: np.ndarray,
                   blocks: np.ndarray, phase_out: np.ndarray) -> np.ndarray:
    """Apply the optic ``pair_unitary`` returns to axes ax1, ax2, every other
    axis (the ensemble's among them) riding along, and return the image.

    Amplitudes whose pair total exceeds the cutoff pass unchanged; the
    caller has refused any weight there above the leakage threshold. Only
    the real blocks act sector by sector, on a float64 view of the sector
    stack, and only on the range of sectors that holds a non-zero amplitude:
    a Fock input occupies one sector, a coherent pair all of them. The
    phases act per mode: p^m on each amplitude gathered into the stack and
    on the b axis of the output, q1^j q2^k on both of its axes.
    """
    dim = tensor.shape[ax1]
    pair, slot, b = _sector_index(dim)
    order, inverse = _axis_order(tensor.ndim, ax1, ax2)
    moved = tensor.transpose(order)
    stack = np.zeros((dim * dim, tensor.size // dim**2), dtype=np.complex128)
    stack[slot] = moved.reshape(dim * dim, -1)[pair] * phase_in[b, None]
    stack = stack.view(np.float64).reshape(dim, dim, -1)
    # a state of unit norm holds a non-zero amplitude in some sector
    occupied = np.flatnonzero(stack.any(axis=(1, 2)))
    lo, hi = occupied[0], occupied[-1] + 1
    rotated = np.zeros_like(stack)
    np.matmul(blocks[lo:hi], stack[lo:hi], out=rotated[lo:hi])
    # each stack is dropped once read, so that the next can take its memory
    del stack
    stack = rotated.view(np.complex128).reshape(dim * dim, -1)[slot]
    del rotated
    # The output is made only now, so that it can take the memory the
    # rotation freed, and in C order, so that its reshape is a view.
    spread = (1,) * (tensor.ndim - 2)
    out = np.multiply(moved, phase_in.reshape(dim, *spread), order="C")
    out.reshape(dim * dim, -1)[pair] = stack
    out *= phase_out.reshape(dim, dim, *spread)
    return out.transpose(inverse)


# ---------------------------------------------------------------------------
# Optics
# ---------------------------------------------------------------------------


def _pair_coefficients(mixing_angle: float, convention: str) -> tuple:
    """(alpha, beta, gamma, delta): a+ -> alpha c+ + beta d+, b+ -> gamma c+ + delta d+."""
    c, s = np.cos(mixing_angle), np.sin(mixing_angle)
    if convention == SYMMETRIC_I:
        return c, 1j * s, 1j * s, c
    if convention == ROTATION:
        return c, -s, s, c
    raise ValidationError(f"unknown convention {convention!r}")


def _plate_mixing_angle(theta: float) -> float:
    """2*theta, the mixing angle of a half-wave plate at theta; a NaN or
    infinite theta, or one whose double overflows, is refused by name."""
    theta = float(theta)
    if not math.isfinite(theta):
        raise ValidationError(f"theta must be finite, got {theta}")
    if not math.isfinite(2.0 * theta):
        raise ValidationError(f"theta = {theta!r} is too large: its mixing angle 2*theta overflows")
    return 2.0 * theta


class _Plan(NamedTuple):
    """What a scatter reads of its state's mode layout, resolved once.

    ``pairs`` are the (i, j) positions of each interfering pair in the
    layout padded with the ``vacuum`` labels, which are appended in pair
    order; ``present`` are the pairs whose two labels are both in the input,
    in pair order, the only ones that can overflow; ``labels`` are the
    padded layout's output labels.
    """

    pairs: tuple[tuple[int, int], ...]
    vacuum: tuple[ModeLabel, ...]
    present: tuple[tuple[int, int], ...]
    labels: tuple[ModeLabel, ...]


def _plan(modes: tuple[ModeLabel, ...], label_pairs, moved) -> _Plan:
    """The plan that scatters each (i, j) label pair of ``label_pairs`` over
    the layout ``modes`` and relabels every mode by ``moved``. A label
    absent from the layout enters as a vacuum partner."""
    padded = modes
    for label in (label for pair in label_pairs for label in pair):
        if label not in padded:
            padded += (label,)
    pairs = tuple((padded.index(i), padded.index(j)) for i, j in label_pairs)
    n = len(modes)
    return _Plan(pairs, padded[n:], tuple((i, j) for i, j in pairs if i < n and j < n),
                 tuple(map(moved, padded)))


@lru_cache(maxsize=64)
def _splitter_plan(modes: tuple[ModeLabel, ...], p: Port, q: Port) -> _Plan:
    """The plan of a beam splitter on input ports p, q over ``modes``: the
    modes whose polarization and frequency tag match across the two ports
    pair up, in the order of their keys, and a and b leave by c and d."""
    keys = sorted({m.interference_key for m in modes if m.spatial_port in (p, q)}, key=str)
    if not keys:
        raise ValidationError(f"no modes on ports {p.value!r}, {q.value!r}")
    return _plan(
        modes,
        [(ModeLabel(*key, p), ModeLabel(*key, q)) for key in keys],
        lambda m: m.moved_to(_OUTPUT_PORT[m.spatial_port]) if m.spatial_port in (p, q) else m,
    )


@lru_cache(maxsize=32)
def _plate_plan(modes: tuple[ModeLabel, ...]) -> _Plan:
    """The plan of a wave plate and polarizer over ``modes``, all on one
    path: H pairs with V of each frequency tag in tag order, and H leaves by
    c, V by d."""
    ports = {m.spatial_port for m in modes}
    if len(ports) != 1:
        raise ValidationError("waveplate input must sit on a single spatial path")
    (path,) = ports
    return _plan(
        modes,
        [(ModeLabel(Polarization.H, tag, path), ModeLabel(Polarization.V, tag, path))
         for tag in sorted({m.frequency_tag for m in modes})],
        lambda m: m.moved_to(Port.C if m.polarization == Polarization.H else Port.D),
    )


@lru_cache(maxsize=64)
def _overflow_mask(dim: int, n_modes: int, i: int, j: int) -> np.ndarray:
    """The read-only mask of the basis states whose modes i, j hold more
    than dim - 1 photons together."""
    occ = _occupations(dim, n_modes)
    mask = occ[i] + occ[j] >= dim
    mask.setflags(write=False)
    return mask


def _scatter(state: MultimodeState, plan: _Plan, coefficients) -> MultimodeState:
    """Scatter each pair of ``plan`` through the two-mode optic with mode
    matrix ``coefficients``, and label the output by the plan.

    The probability each pair present in the input holds above the cutoff
    is read from the state's kept probabilities before any work: above the
    leakage threshold it raises CapacityError, otherwise it is added to the
    truncation leakage. The vacuum partners are padded in after that; their
    pairs cannot overflow. The optic's phases and real blocks are built once
    and shared by all pairs; the vectors go through as one
    (K, dim, ..., dim) tensor, axis 0 the ensemble.
    """
    dim, n_modes = state.dim, state.n_modes
    leakage = state.truncation_leakage
    for i, j in plan.present:
        weight = float(state.probabilities()[_overflow_mask(dim, n_modes, i, j)].sum())
        if weight > LEAKAGE_THRESHOLD:
            raise CapacityError(
                f"interfering pair carries probability {weight:.3g} above cutoff "
                f"{dim - 1}; rebuild the state with a larger cutoff"
            )
        leakage += weight
    tensor = state.vectors.reshape((-1,) + (dim,) * n_modes)
    if plan.vacuum:
        # a vacuum partner holds no photon: the input sits at its occupation 0
        pad = len(plan.vacuum)
        padded = np.zeros(tensor.shape + (dim,) * pad, dtype=np.complex128)
        padded[(Ellipsis,) + (0,) * pad] = tensor
        tensor = padded
    optic = pair_unitary(*coefficients, dim)
    for i, j in plan.pairs:
        tensor = _contract_pair(tensor, i + 1, j + 1, *optic)
    return MultimodeState._adopt(plan.labels, state.cutoff,
                                 tensor.reshape(len(tensor), -1), leakage)


def _port_pair(port_pair) -> tuple[Port, Port]:
    """``port_pair`` as exactly two ports; anything else is refused by name."""
    try:
        p, q = port_pair
    except (TypeError, ValueError):
        raise ValidationError(f"port_pair must be two ports, got {port_pair!r}") from None
    return _member(Port, p, "port_pair[0]"), _member(Port, q, "port_pair[1]")


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
    on different outputs: the pairs {a, c} and {b, d} are refused, and so
    is a NaN or infinite mixing angle. Which modes pair up, and how they
    are labelled after, is worked out once per mode layout and port pair.
    """
    if not math.isfinite(mixing_angle):
        raise ValidationError(f"mixing_angle must be finite, got {mixing_angle}")
    p, q = _port_pair(port_pair)
    if p == q:
        raise ValidationError("beam splitter needs two distinct ports")
    if _OUTPUT_PORT[p] == _OUTPUT_PORT[q]:
        raise ValidationError(
            f"ports {p.value!r} and {q.value!r} would both leave by output port "
            f"{_OUTPUT_PORT[p].value!r}: a and b become c and d, and c and d stay c and d"
        )
    plan = _splitter_plan(state.modes, p, q)
    return _scatter(state, plan, _pair_coefficients(mixing_angle, convention))


def apply_waveplate_polarizer(state: MultimodeState, theta: float) -> MultimodeState:
    """Half-wave plate at angle theta followed by a polarizing splitter.

    The plate rotates polarizations by 2*theta, so it is a splitter on the
    H/V pair of each frequency tag: theta = pi/8 is balanced and theta = pi/4
    swaps the ports. The polarizer then routes H to port c and V to port d.
    A NaN or infinite theta, or one whose double overflows, is refused.
    """
    mixing_angle = _plate_mixing_angle(theta)
    plan = _plate_plan(state.modes)
    return _scatter(state, plan, _pair_coefficients(mixing_angle, ROTATION))


# ---------------------------------------------------------------------------
# Measurement statistics
# ---------------------------------------------------------------------------


@lru_cache(maxsize=32)
def _port_index(dim: int, ports: tuple[Port, ...], port_c, port_d) -> tuple[np.ndarray, int, int]:
    """The flat index n_c * size_d + n_d of every occupation-basis state,
    for modes on ``ports`` and photon numbers summed per port, with the
    sizes cutoff * (modes on the port) + 1. Two equal ports, or a name that
    is not a port, are refused by name."""
    port_c, port_d = _member(Port, port_c, "port_c"), _member(Port, port_d, "port_d")
    if port_c == port_d:
        raise ValidationError(f"port_c and port_d must differ, got {port_c.value!r} for both")
    occ = _occupations(dim, len(ports))
    sel_c = np.array([port == port_c for port in ports], dtype=bool)
    sel_d = np.array([port == port_d for port in ports], dtype=bool)
    size_c = (dim - 1) * int(sel_c.sum()) + 1
    size_d = (dim - 1) * int(sel_d.sum()) + 1
    index = occ[sel_c].sum(axis=0) * size_d + occ[sel_d].sum(axis=0)
    index.setflags(write=False)
    return index, size_c, size_d


def port_stats(state: MultimodeState, port_c=Port.C, port_d=Port.D) -> np.ndarray:
    """Joint probability P[n_c, n_d] of the photon numbers in two ports.

    Photon numbers are summed over every mode on each port; one bincount of
    the state's probabilities over an index kept per basis layout.
    """
    index, size_c, size_d = _port_index(
        state.dim, tuple([m.spatial_port for m in state.modes]), port_c, port_d)
    joint = np.bincount(index, weights=state.probabilities(), minlength=size_c * size_d)
    return joint.reshape(size_c, size_d)


@lru_cache(maxsize=32)
def _difference_index(size_c: int, size_d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For a (size_c, size_d) joint law: the flat offset n_c - n_d + size_d - 1
    of each entry, and the differences each offset stands for and their
    squares."""
    offset = (np.arange(size_c)[:, None] - np.arange(size_d) + (size_d - 1)).ravel()
    values = np.arange(1 - size_d, size_c)
    squares = values.astype(float) ** 2
    for index in (offset, values, squares):
        index.setflags(write=False)
    return offset, values, squares


def number_difference_stats(
    state: MultimodeState, port_c=Port.C, port_d=Port.D
) -> ScatterOutcome:
    """Exact distribution, mean, and variance of n_c - n_d.

    Photon numbers are summed over every frequency tag within each port.
    """
    joint = port_stats(state, port_c, port_d)
    offset, values, squares = _difference_index(*joint.shape)
    hist = np.bincount(offset, weights=joint.ravel())
    mean = float(np.dot(hist, values))
    variance = float(np.dot(hist, squares) - mean**2)
    kept = hist > 1e-12
    distribution = dict(zip(values[kept].tolist(), hist[kept].tolist()))
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
