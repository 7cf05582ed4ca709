"""Linearized quadrature-fluctuation algebra for bright twin beams.

Conventions: X = (a + a+)/sqrt(2), P = i(a+ - a)/sqrt(2), so each vacuum
quadrature has variance 1/2 and the difference quadratures obey
dX_minus * dP_minus >= 1.

For bright beams of mean fields a and b, the number difference after a
wave plate at angle theta and a polarizing splitter has linearized standard
deviation

    dN_minus(theta) = KAPPA * sqrt(v' C v),

with v = cos(4 theta) w_n + sin(4 theta) w_j built from the mean fields
(theta = 0 reads the amplitude difference, theta = pi/8 the phase
difference). The prefactor KAPPA = sqrt(2) is fixed by demanding exact
agreement with the Fock engine on coherent inputs, balanced or not, where
the linearization is exact (see cross_check_against_fock).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import fock
from .errors import TruncationError, ValidationError
from .modes import ModeLabel, Polarization, Port

#: Convention constant relating dN_minus to mean field times quadrature std.
KAPPA = np.sqrt(2.0)

#: Symplectic form for the (X_a, P_a, X_b, P_b) ordering.
OMEGA = np.array(
    [
        [0.0, 1.0, 0.0, 0.0],
        [-1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
        [0.0, 0.0, -1.0, 0.0],
    ]
)

_X_MINUS = np.array([1.0, 0.0, -1.0, 0.0])
_P_MINUS = np.array([0.0, 1.0, 0.0, -1.0])

_VALIDITY_TOL = 1e-10


def vacuum_covariance() -> np.ndarray:
    return np.eye(4) * 0.5


def validate_covariance(cov: np.ndarray) -> np.ndarray:
    """Check symmetry and the quantum-validity condition C + (i/2) Omega >= 0."""
    cov = np.asarray(cov, dtype=float)
    if cov.shape != (4, 4):
        raise ValidationError(f"covariance must be 4x4, got {cov.shape}")
    if not np.allclose(cov, cov.T, atol=1e-10):
        raise ValidationError("covariance must be symmetric")
    eigs = np.linalg.eigvalsh(cov + 0.5j * OMEGA)
    if eigs.min() < -_VALIDITY_TOL:
        raise ValidationError(
            f"covariance violates the uncertainty relation (min eig {eigs.min():.3g})"
        )
    return cov


@dataclass(frozen=True)
class QuadratureState:
    """Mean fields plus the 4x4 covariance of (dX_a, dP_a, dX_b, dP_b)."""

    mean_a: complex
    mean_b: complex
    cov: np.ndarray = field(default_factory=vacuum_covariance)

    def __post_init__(self):
        cov = validate_covariance(self.cov)
        cov.setflags(write=False)
        object.__setattr__(self, "mean_a", complex(self.mean_a))
        object.__setattr__(self, "mean_b", complex(self.mean_b))
        object.__setattr__(self, "cov", cov)


@dataclass(frozen=True)
class DifferenceStats:
    """Standard deviations of the amplitude- and phase-difference quadratures."""

    dx_minus: float
    dp_minus: float

    @property
    def heisenberg_product(self) -> float:
        return self.dx_minus * self.dp_minus


def quadrature_difference_stds(state: QuadratureState) -> DifferenceStats:
    """dX_minus and dP_minus read from the covariance by quadratic form."""
    cov = state.cov
    var_x = float(_X_MINUS @ cov @ _X_MINUS)
    var_p = float(_P_MINUS @ cov @ _P_MINUS)
    return DifferenceStats(np.sqrt(max(var_x, 0.0)), np.sqrt(max(var_p, 0.0)))


def _direction_vectors(mean_a: complex, mean_b: complex) -> tuple[np.ndarray, np.ndarray]:
    # dN_minus couples to w_n, the interference term i(a+b - ab+) to w_j;
    # both enter as sqrt(2) * w . delta for linearized fluctuations.
    w_n = np.array([mean_a.real, mean_a.imag, -mean_b.real, -mean_b.imag])
    w_j = np.array([-mean_b.imag, mean_b.real, mean_a.imag, -mean_a.real])
    return w_n, w_j


def number_difference_std(state: QuadratureState, theta: float) -> float:
    """Linearized std of the output number difference after a plate at theta.

    theta = 0 leaves the beams unmixed (reads the amplitude difference),
    theta = pi/8 acts as a balanced splitter (reads the phase difference),
    and a general angle mixes them as cos(4 theta), sin(4 theta). The mean
    fields need not be balanced.
    """
    w_n, w_j = _direction_vectors(state.mean_a, state.mean_b)
    v = np.cos(4.0 * theta) * w_n + np.sin(4.0 * theta) * w_j
    return float(KAPPA * np.sqrt(max(v @ state.cov @ v, 0.0)))


# ---------------------------------------------------------------------------
# Cross-check against the exact Fock engine
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FockCrossCheck:
    """Per-angle comparison of linearized vs exact number-difference stds."""

    alpha: complex
    cutoff: int
    leakage: float
    thetas: tuple[float, ...]
    exact: tuple[float, ...]
    linearized: tuple[float, ...]
    relative_errors: tuple[float, ...]

    @property
    def max_relative_error(self) -> float:
        return max(self.relative_errors)


def cross_check_against_fock(
    alpha: complex,
    cutoff: int = 24,
    thetas=(0.0, np.pi / 16, np.pi / 8),
) -> FockCrossCheck:
    """Compare linearized dN_minus(theta) with the exact Fock statistics.

    Both sides hold the same state: the exact side scatters a coherent pair
    through the wave plate and polarizer, and the linearized side gives that
    pair vacuum fluctuations. Truncation leakage above 1e-8 invalidates the
    comparison.
    """
    alpha = complex(alpha)
    pair_modes = (
        ModeLabel(Polarization.H, 0, Port.A),
        ModeLabel(Polarization.V, 0, Port.A),
    )
    state = fock.make_coherent_pair(alpha, alpha, cutoff, modes=pair_modes)
    if state.truncation_leakage > fock.LEAKAGE_THRESHOLD:
        raise TruncationError(
            f"truncation leakage {state.truncation_leakage:.3g} too large for a "
            "meaningful comparison; increase the cutoff"
        )
    quad = QuadratureState(alpha, alpha)
    exact, linearized, errors = [], [], []
    for theta in thetas:
        scattered = fock.apply_waveplate_polarizer(state, theta)
        exact_std = fock.number_difference_stats(scattered).std
        linear_std = number_difference_std(quad, theta)
        scale = max(exact_std, linear_std)
        err = 0.0 if scale < 1e-15 else abs(exact_std - linear_std) / scale
        exact.append(exact_std)
        linearized.append(linear_std)
        errors.append(err)
    return FockCrossCheck(
        alpha, cutoff, state.truncation_leakage, tuple(thetas),
        tuple(exact), tuple(linearized), tuple(errors),
    )
