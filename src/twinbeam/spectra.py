"""Closed-form noise spectra of an above-threshold twin-beam source.

The intensity difference of the twin beams is squeezed inside the cavity
linewidth and the phase difference is antisqueezed there:

    S_intensity(u) = 1 - xi / (1 + u^2)
    S_phase(u)     = 1 + xi / u^2

in units of the total shot noise S0, with u = nu / delta the analysis
frequency normalized to the cold-cavity half width delta = (T + A) D / 2 pi
and xi = T / (T + A) the correlation coefficient (output coupling T, round
trip loss A, free spectral range D). Their product is a minimum-uncertainty
product plus an excess xi (1 - xi) / (u^2 (1 + u^2)) that vanishes for a
lossless cavity.

The u = 0 pole of the phase spectrum is signaled explicitly; the
ultra-low-frequency regime is outside this model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ValidationError

RELATIVE = "relative"
DBM = "dbm"


def _check_xi(xi):
    """Validate xi in [0, 1]; scalars come back as floats, arrays broadcast.

    A Python or numpy float is checked in floats, without the overhead of
    numpy calls on one number.
    """
    if isinstance(xi, (float, int)):
        if xi < 0.0 or xi > 1.0:
            raise ValidationError(f"correlation coefficient xi must be in [0, 1], got {xi}")
        return float(xi)
    arr = np.asarray(xi, dtype=float)
    if (arr < 0.0).any() or (arr > 1.0).any():
        raise ValidationError(f"correlation coefficient xi must be in [0, 1], got {xi}")
    return float(arr) if arr.ndim == 0 else arr


@dataclass(frozen=True)
class OpoParams:
    """Cavity quantities and shot-noise level of the twin-beam source."""

    transmissivity: float  # output-coupler intensity transmissivity T
    loss: float  # single-pass intensity loss A
    free_spectral_range_hz: float  # D
    s0_dbm: float  # total shot noise of both beams

    def __post_init__(self):
        if not 0.0 < self.transmissivity < 1.0:
            raise ValidationError(f"transmissivity must be in (0, 1), got {self.transmissivity}")
        if not 0.0 <= self.loss < 1.0:
            raise ValidationError(f"loss must be in [0, 1), got {self.loss}")
        if self.free_spectral_range_hz <= 0.0:
            raise ValidationError("free spectral range must be positive")

    @property
    def xi(self) -> float:
        """Correlation coefficient T / (T + A); 1 only for a lossless cavity."""
        return self.transmissivity / (self.transmissivity + self.loss)

    @property
    def delta_hz(self) -> float:
        """Cold-cavity FWHM (T + A) D / (2 pi)."""
        return (self.transmissivity + self.loss) * self.free_spectral_range_hz / (2.0 * np.pi)

    @classmethod
    def from_correlation(cls, xi: float, delta_hz: float, s0_dbm: float) -> "OpoParams":
        """Parameters with the given xi and delta (T + A normalized to 1)."""
        xi = _check_xi(xi)
        if xi == 0.0:
            raise ValidationError("xi = 0 does not define a cavity (T must be positive)")
        if delta_hz <= 0.0:
            raise ValidationError("delta must be positive")
        return cls(xi, 1.0 - xi, 2.0 * np.pi * delta_hz, s0_dbm)


@dataclass(frozen=True)
class SpectrumCurve:
    """Frequency samples with a mandatory unit tag (relative power or dBm)."""

    frequencies_hz: np.ndarray
    values: np.ndarray
    unit: str

    def __post_init__(self):
        freqs = np.atleast_1d(np.asarray(self.frequencies_hz, dtype=float))
        vals = np.atleast_1d(np.asarray(self.values, dtype=float))
        if freqs.shape != vals.shape:
            raise ValidationError("frequency and value arrays must match")
        if self.unit not in (RELATIVE, DBM):
            raise ValidationError(f"unit must be {RELATIVE!r} or {DBM!r}, got {self.unit!r}")
        freqs.setflags(write=False)
        vals.setflags(write=False)
        object.__setattr__(self, "frequencies_hz", freqs)
        object.__setattr__(self, "values", vals)

    def to_csv(self) -> str:
        return csv_table({"frequency_hz": self.frequencies_hz, "value": self.values,
                          "unit": self.unit})


#: Number formats of every table the toolkit writes.
FREQUENCY_FORMAT = ".10g"
VALUE_FORMAT = ".12g"


def csv_table(columns: dict, comments=(), trailer=()) -> str:
    """``# `` comment lines, the header, one row per sample, ``# `` trailer lines.

    The first column is written with FREQUENCY_FORMAT, the others with
    VALUE_FORMAT; a str column repeats on every row. All rows are formatted
    by one ``%`` operation on the row template repeated once per sample.
    """
    cells, numeric = [], []
    for i, values in enumerate(columns.values()):
        if isinstance(values, str):
            cells.append(values.replace("%", "%%"))
        else:
            cells.append("%" + (VALUE_FORMAT if i else FREQUENCY_FORMAT))
            numeric.append(np.asarray(values, dtype=float))
    row = ",".join(cells) + "\n"
    head = "".join(f"# {line}\n" for line in comments) + ",".join(columns) + "\n"
    tail = "".join(f"# {line}\n" for line in trailer)
    flat = tuple(np.column_stack(numeric).ravel().tolist())
    return head + (row * len(numeric[0])) % flat + tail


# ---------------------------------------------------------------------------
# Spectra in shot-noise units
# ---------------------------------------------------------------------------


def intensity_diff_spectrum(u, xi: float):
    """Intensity-difference noise 1 - xi / (1 + u^2), squeezed below shot noise.

    Evaluated as ((1 - xi) + u^2) / (1 + u^2), which does not cancel near
    xi = 1 at small u.
    """
    xi = _check_xi(xi)
    u = np.asarray(u, dtype=float)
    out = ((1.0 - xi) + u**2) / (1.0 + u**2)
    return float(out) if out.ndim == 0 else out


def phase_diff_spectrum(u, xi: float):
    """Phase-difference noise 1 + xi / u^2, antisqueezed; pole at u = 0."""
    xi = _check_xi(xi)
    u = np.asarray(u, dtype=float)
    if (u == 0.0).any():
        raise DomainError("phase-difference spectrum diverges at u = 0")
    out = 1.0 + xi / u**2
    return float(out) if out.ndim == 0 else out


def distinguishable_phase_spectrum(u):
    """Flat shot noise: each distinguishable beam interferes with vacuum only."""
    u = np.asarray(u, dtype=float)
    out = np.ones_like(u)
    return float(out) if out.ndim == 0 else out


def uncertainty_product(u, xi: float):
    """Product of the intensity- and phase-difference spectra.

    Algebraically 1 + xi (1 - xi) / (u^2 (1 + u^2)): unity for all u only
    at xi in {0, 1}; a lossless cavity output is a minimum uncertainty state.
    Built from that closed form, so it never rounds below 1.
    """
    return 1.0 + uncertainty_excess(u, xi)


def uncertainty_excess(u, xi: float):
    """Closed form of uncertainty_product - 1."""
    xi = _check_xi(xi)
    u = np.asarray(u, dtype=float)
    if np.any(u == 0.0):
        raise DomainError("uncertainty product diverges at u = 0")
    out = xi * (1.0 - xi) / (u**2 * (1.0 + u**2))
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# Unit conversions and physical-frequency evaluation
# ---------------------------------------------------------------------------


def relative_to_dbm(values, s0_dbm: float):
    values = np.asarray(values, dtype=float)
    if (values <= 0.0).any():
        raise DomainError("relative power must be positive for dBm conversion")
    out = s0_dbm + 10.0 * np.log10(values)
    return float(out) if out.ndim == 0 else out


_MODELS = {
    "intensity": lambda u, xi: intensity_diff_spectrum(u, xi),
    "phase": lambda u, xi: phase_diff_spectrum(u, xi),
    "flat": lambda u, xi: distinguishable_phase_spectrum(u),
}


def physical_frequency_curve(params: OpoParams, nu_hz, which: str = "intensity") -> SpectrumCurve:
    """Evaluate the chosen spectrum at physical frequencies, u = nu / delta."""
    if which not in _MODELS:
        raise ValidationError(f"which must be one of {sorted(_MODELS)}, got {which!r}")
    nu = np.atleast_1d(np.asarray(nu_hz, dtype=float))
    u = nu / params.delta_hz
    return SpectrumCurve(nu, np.asarray(_MODELS[which](u, params.xi), dtype=float), RELATIVE)


# ---------------------------------------------------------------------------
# Bridge to the quadrature picture
# ---------------------------------------------------------------------------


def opo_quadrature_covariance(u: float, xi: float) -> np.ndarray:
    """4x4 covariance of (dX_a, dP_a, dX_b, dP_b) matching the model at u.

    Built in the sum/difference basis: the difference quadratures carry the
    squeezed and antisqueezed spectra, the sum quadratures mirror them so
    that each pair saturates the same uncertainty product and the matrix is
    a valid quantum covariance for every u > 0.
    """
    s_x = intensity_diff_spectrum(u, xi)
    s_p = phase_diff_spectrum(u, xi)
    plus_minus = np.diag([s_p, s_x, s_x, s_p]) * 0.5  # (x+, p+, x-, p-)
    r = np.array(
        [
            [1.0, 0.0, 1.0, 0.0],
            [0.0, 1.0, 0.0, 1.0],
            [1.0, 0.0, -1.0, 0.0],
            [0.0, 1.0, 0.0, -1.0],
        ]
    ) / np.sqrt(2.0)
    return r @ plus_minus @ r.T
