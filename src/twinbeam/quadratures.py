"""Linearized quadrature-fluctuation algebra for bright twin beams.

Conventions: X = (a + a+)/sqrt(2), P = i(a+ - a)/sqrt(2), so each vacuum
quadrature has variance 1/2 and the difference quadratures obey
dX_minus * dP_minus >= 1.

The number difference is read through the symmetric-i splitter at mixing
angle 2 theta, whose mode matrix comes from ``fock``. It has the number
statistics of the wave plate at theta and the polarizing splitter after V
is retarded by a quarter wave (b -> i b): in the Reck form of ``fock``'s
sector comment the two differ by p = i on b and a phase on output d.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import fock
from .errors import TruncationError, ValidationError

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
    """Check finite entries, symmetry and the quantum-validity condition
    C + (i/2) Omega >= 0."""
    cov = np.asarray(cov, dtype=float)
    if cov.shape != (4, 4):
        raise ValidationError(f"covariance must be 4x4, got {cov.shape}")
    if not np.isfinite(cov).all():
        i, j = np.argwhere(~np.isfinite(cov))[0]
        raise ValidationError(f"covariance entry ({i}, {j}) must be finite, got {cov[i, j]}")
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
        for name in ("mean_a", "mean_b"):
            mean = complex(getattr(self, name))
            if not np.isfinite(mean):
                raise ValidationError(f"{name} must be finite, got {mean}")
            object.__setattr__(self, name, mean)
        cov = validate_covariance(self.cov)
        cov.setflags(write=False)
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


def number_difference_std(state: QuadratureState, theta: float) -> float:
    """Linearized std of n_c - n_d after the symmetric-i splitter at mixing
    angle 2 theta (theta = 0 leaves the beams unmixed, pi/8 is balanced),
    refused as the plate refuses theta.

    With its mode matrix (alpha, beta, gamma, delta), the output means are
    c = alpha a + gamma b and d = beta a + delta b, and g, the gradient of
    |c|^2 - |d|^2, is (conj(alpha) c - conj(beta) d, conj(gamma) c - conj(delta) d).
    The std is sqrt(v' C v) with v = sqrt(2) (Re g_a, Im g_a, Re g_b, Im g_b),
    the sqrt(2) of X; exact on coherent inputs, balanced or not.
    """
    alpha, beta, gamma, delta = map(complex, fock._pair_coefficients(
        fock._plate_mixing_angle(theta), fock.SYMMETRIC_I))
    c = alpha * state.mean_a + gamma * state.mean_b
    d = beta * state.mean_a + delta * state.mean_b
    g = np.array([alpha.conjugate() * c - beta.conjugate() * d,
                  gamma.conjugate() * c - delta.conjugate() * d])
    v = np.sqrt(2.0) * g.view(np.float64)  # (Re g_a, Im g_a, Re g_b, Im g_b)
    return float(np.sqrt(max(v @ state.cov @ v, 0.0)))


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
    """Compare linearized dN_minus(theta) with the exact Fock statistics of
    the optic it computes: the exact side scatters a coherent pair on ports
    a, b through ``fock.apply_beam_splitter`` at mixing angle 2 theta in its
    default, symmetric-i convention; the linearized side gives that pair
    vacuum fluctuations. Truncation leakage above 1e-8 invalidates the
    comparison.
    """
    alpha = complex(alpha)
    state = fock.make_coherent_pair(alpha, alpha, cutoff)
    if state.truncation_leakage > fock.LEAKAGE_THRESHOLD:
        raise TruncationError(
            f"truncation leakage {state.truncation_leakage:.3g} too large for a "
            "meaningful comparison; increase the cutoff"
        )
    quad = QuadratureState(alpha, alpha)
    exact, linearized, errors = [], [], []
    for theta in thetas:
        scattered = fock.apply_beam_splitter(state, mixing_angle=fock._plate_mixing_angle(theta))
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
