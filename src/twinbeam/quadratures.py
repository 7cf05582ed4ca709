"""Linearized number-difference noise of bright coherent beams, cross-checked
against the exact Fock engine.

Conventions: X = (a + a+)/sqrt(2), P = i(a+ - a)/sqrt(2), so each vacuum
quadrature has variance 1/2.

The number difference is read through the symmetric-i splitter at mixing
angle 2 theta, whose mode matrix comes from ``fock``. It has the number
statistics of the wave plate at theta and the polarizing splitter after V
is retarded by a quarter wave (b -> i b): in the Reck form of ``fock``'s
sector comment the two differ by p = i on b and a phase on output d.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from . import fock
from .errors import TruncationError, ValidationError


def number_difference_std(mean_a: complex, mean_b: complex, theta: float) -> float:
    """Linearized std of n_c - n_d for mean fields ``mean_a``, ``mean_b``
    carrying vacuum fluctuations, after the symmetric-i splitter at mixing
    angle 2 theta (theta = 0 leaves the beams unmixed, pi/8 is balanced).
    A non-finite mean is refused by name, and theta as the plate refuses it.

    With its mode matrix (alpha, beta, gamma, delta), the output means are
    c = alpha a + gamma b and d = beta a + delta b, and g, the gradient of
    |c|^2 - |d|^2, is (conj(alpha) c - conj(beta) d, conj(gamma) c - conj(delta) d).
    The variance is v' v / 2, with v = sqrt(2) (Re g_a, Im g_a, Re g_b, Im g_b)
    read against the vacuum covariance I/2; exact on coherent inputs.
    """
    mean_a, mean_b = complex(mean_a), complex(mean_b)
    for name, mean in (("mean_a", mean_a), ("mean_b", mean_b)):
        if not cmath.isfinite(mean):
            raise ValidationError(f"{name} must be finite, got {mean}")
    alpha, beta, gamma, delta = map(complex, fock._pair_coefficients(
        fock._plate_mixing_angle(theta), fock.SYMMETRIC_I))
    c = alpha * mean_a + gamma * mean_b
    d = beta * mean_a + delta * mean_b
    g = np.array([alpha.conjugate() * c - beta.conjugate() * d,
                  gamma.conjugate() * c - delta.conjugate() * d])
    v = np.sqrt(2.0) * g.view(np.float64)  # (Re g_a, Im g_a, Re g_b, Im g_b)
    return float(np.sqrt(0.5 * v @ v))


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
    exact, linearized, errors = [], [], []
    for theta in thetas:
        scattered = fock.apply_beam_splitter(state, mixing_angle=fock._plate_mixing_angle(theta))
        exact_std = fock.number_difference_stats(scattered).std
        linear_std = number_difference_std(alpha, alpha, theta)
        scale = max(exact_std, linear_std)
        err = 0.0 if scale < 1e-15 else abs(exact_std - linear_std) / scale
        exact.append(exact_std)
        linearized.append(linear_std)
        errors.append(err)
    return FockCrossCheck(
        alpha, cutoff, state.truncation_leakage, tuple(thetas),
        tuple(exact), tuple(linearized), tuple(errors),
    )
