"""Closed-form noise spectra of an above-threshold twin-beam source.

The intensity difference of the twin beams is squeezed inside the cavity
linewidth and the phase difference is antisqueezed there:

    S_intensity(u) = 1 - xi / (1 + u^2)
    S_phase(u)     = 1 + xi / u^2

in units of the total shot noise S0, with u = nu / delta the analysis
frequency normalized to the cold-cavity full width at half maximum (FWHM)
delta = (T + A) D / 2 pi, and xi = T / (T + A) the correlation coefficient
(output coupling T, round trip loss A, free spectral range D). Their
product is a minimum-uncertainty product plus an excess
xi (1 - xi) / (u^2 (1 + u^2)) that vanishes for a lossless cavity.

The u = 0 pole of the phase spectrum is signaled explicitly; the
ultra-low-frequency regime is outside this model. Past the float range of
u^2 each spectrum returns its limit, or raises DomainError where its true
value is too large for a float.
"""

from __future__ import annotations

import functools
import math
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
        if not 0.0 <= xi <= 1.0:
            raise ValidationError(f"correlation coefficient xi must be in [0, 1], got {xi}")
        return float(xi)
    arr = np.asarray(xi, dtype=float)
    if not ((0.0 <= arr) & (arr <= 1.0)).all():
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
        if not 0.0 < self.free_spectral_range_hz < math.inf:
            raise ValidationError("free spectral range must be positive and finite, "
                                  f"got {self.free_spectral_range_hz}")
        if not math.isfinite(self.s0_dbm):
            raise ValidationError(f"shot-noise level s0_dbm must be finite, got {self.s0_dbm}")

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
        """Parameters with the given xi and delta (T + A normalized to 1/2).

        T = xi / 2, A = (1 - xi) / 2 and D = 4 pi delta: exact power-of-two
        scalings of T = xi, A = 1 - xi, D = 2 pi delta, so ``xi`` and
        ``delta_hz`` read back bit for bit as with T + A = 1, and xi = 1 is
        the lossless cavity T = 1/2, A = 0. The smallest xi is 1e-323: half
        of 5e-324, the least subnormal, rounds to T = 0.
        """
        xi = _check_xi(xi)
        if not 0.5 * xi > 0.0:
            raise ValidationError(f"xi = {xi!r} does not define a cavity: T = xi/2 must be "
                                  f"positive, so xi must be at least 1e-323")
        if not 0.0 < delta_hz < math.inf:
            raise ValidationError(f"delta must be positive and finite, got {delta_hz}")
        return cls(0.5 * xi, 0.5 * (1.0 - xi), 4.0 * np.pi * delta_hz, s0_dbm)


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

#: Rows spelled per pass of csv_table; bounds its temporaries to a few
#: hundred kB whatever the table's length.
_BLOCK_ROWS = 4096


def csv_table(columns: dict, comments=(), trailer=()) -> str:
    """``# `` comment lines, the header, one row per sample, ``# `` trailer lines.

    The first column is written with FREQUENCY_FORMAT, the others with
    VALUE_FORMAT; a str column repeats on every row. Numeric columns must be
    one-dimensional and of one length, and there must be at least one
    (``ValueError`` otherwise). Every number is byte-identical to ``format``
    with its column's format. numpy spells most of them, one block of rows
    at a time (see :func:`_spell`), and ``format`` spells, one by one, the
    values that numpy cannot spell exactly.
    """
    template, cells = bytearray(), []
    for i, values in enumerate(columns.values()):
        if i:
            template += b","
        if isinstance(values, str):
            template += values.encode("utf-8", "surrogatepass")
            continue
        spec = VALUE_FORMAT if i else FREQUENCY_FORMAT
        precision = int(spec[1:-1])
        cell = slice(len(template), len(template) + 2 * precision + 6)
        cells.append((cell, spec, np.asarray(values, dtype=float)))
        template += b"-0" + b"0" * precision + b".000" + b"0" * precision
    template += b"\n"
    if not cells:
        raise ValueError("a table needs at least one numeric column")
    n = len(cells[0][2])
    if any(values.shape != (n,) for _, _, values in cells):
        raise ValueError("numeric columns must be one-dimensional and of one length")

    head = "".join(f"# {line}\n" for line in comments) + ",".join(columns) + "\n"
    tail = "".join(f"# {line}\n" for line in trailer)
    parts = [head.encode("utf-8", "surrogatepass")]
    row = np.frombuffer(template, dtype=np.uint8)
    frame = np.empty((min(n, _BLOCK_ROWS), row.size), dtype=np.uint8)
    frame[...] = row
    keep = np.ones(frame.shape, dtype=bool)
    for start in range(0, n, _BLOCK_ROWS):
        stop = min(start + _BLOCK_ROWS, n)
        block, kept = frame[: stop - start], keep[: stop - start]
        formatted = [_spell(values[start:stop], spec, block[:, cell], kept[:, cell])
                     for cell, spec, values in cells]
        parts.append(block[kept].tobytes())
        for (cell, _, _), rows in zip(cells, formatted):
            block[rows, cell] = row[cell]  # format wrote over these cells' fixed bytes
    parts.append(tail.encode("utf-8", "surrogatepass"))
    body = b"".join(parts)
    del parts
    return body.decode("utf-8", "surrogatepass")


@functools.cache
def _quad_tables():
    """The four ASCII digits of each of 0..9999 as one uint32 whose bytes
    read them in order, and the trailing zeros of each (4 for 0)."""
    ascii_digits = np.empty((10, 10, 10, 10, 4), dtype=np.uint8)
    zeros = np.zeros((10, 10, 10, 10), dtype=np.intp)
    for i in range(4):
        ascii_digits[..., i] = np.arange(48, 58).reshape((10,) + (1,) * (3 - i))
        zeros[(...,) + (0,) * (i + 1)] += 1
    return ascii_digits.reshape(10_000, 4).view(np.uint32)[:, 0], zeros.ravel()


@functools.cache
def _cell_tables(precision: int):
    """10^(P-1-e) for e = -4 .. P - 1, each exact in float64, and one row
    per (sign, e + 4, index of the last non-zero digit) marking the bytes of
    a cell that ``format`` keeps."""
    scale = np.array([float(10 ** (precision + 3 - i)) for i in range(precision + 4)])
    neg = np.arange(2)[:, None, None, None]
    e = np.arange(-4, precision)[None, :, None, None]
    last = np.arange(precision)[None, None, :, None]
    digit = np.arange(precision)[None, None, None, :]
    # in cell order: the sign, the 0, the first digit run, the dot, the three
    # zeros, the second digit run
    parts = [neg == 1, e < 0, (e >= 0) & (digit <= e), (e < 0) | (last > e),
             (e < 0) & (np.arange(3) >= e + 4), (digit > e) & (digit <= last)]
    shape = (2, precision + 4, precision)
    keep_rows = np.concatenate([np.broadcast_to(b, shape + b.shape[3:]) for b in parts], axis=3)
    return scale, keep_rows.reshape(-1, 2 * precision + 6)


def _spell(x, spec, frame, keep):
    """Write ``format(v, spec)`` for each v of x into one row of frame, mark
    its bytes in keep, and return the rows that ``format`` spelled.

    spec is ``.Pg`` with P <= 15, and a row of frame is a cell: a ``-``, a
    ``0``, P digits, ``.000`` and the P digits again. Take e = floor(log10|v|)
    in [-4, P - 1], where ``%g`` writes fixed notation, and m = |v| 10^(P-1-e)
    in float64. The power of ten is exact, so m is the exact product rounded
    once. Rounding is monotone and every half-integer below 10^P is a float,
    so m and the exact product lie on the same side of every half-way point:
    rint(m) is the P-digit integer ``format`` rounds to whenever
    10^(P-1) <= m, rint(m) < 10^P and m is not itself a half-integer. (An m
    rounded up to 10^(P-1) spells what ``format`` spells after rounding |v|
    up into the next decade.) Its digits fill both digit runs, and the bytes
    kept depend only on the sign, on e and on the last non-zero digit: the
    integer digits through e from the first run (the ``0`` for e < 0), a
    ``.``, the -e - 1 zeros for e < 0, and the fraction digits through the
    last non-zero one from the second run. Every other value (0, inf, NaN,
    exponent notation, a half-integer m, an m pushed out of
    [10^(P-1), 10^P) by a log10 off by one) is written by ``format`` over its
    row.
    """
    precision = int(spec[1:-1])
    scale, keep_rows = _cell_tables(precision)
    quad_ascii, quad_zeros = _quad_tables()
    lowest, top = float(10 ** (precision - 1)), float(10**precision)
    with np.errstate(divide="ignore", invalid="ignore"):
        ax = np.abs(x)
        # e + 4, clipped to [0, P + 3]; NaN gives 0
        e4 = np.fmin(np.fmax(np.log10(ax) + 4.0, 0.0), precision + 3.0).astype(np.intp)
        m = ax * scale[e4]
        digits = np.rint(m)
        ok = (m >= lowest) & (digits < top) & (np.abs(m - digits) != 0.5)
    formatted = np.flatnonzero(~ok)
    digits[formatted] = lowest

    groups = -(-precision // 4)
    quads = np.empty((x.size, groups), dtype=np.intp)
    for g in range(groups - 1, 0, -1):
        # floor(d / 10^4) is exact for an integer d < 2^53
        high = np.floor(digits / 1e4)
        quads[:, g] = digits - high * 1e4
        digits = high
    quads[:, 0] = digits
    ascii_digits = quad_ascii[quads].view(np.uint8)[:, 4 * groups - precision :]
    frame[:, 2 : precision + 2] = ascii_digits
    frame[:, precision + 6 :] = ascii_digits
    zeros = quad_zeros[quads[:, -1]]
    for g in range(groups - 2, -1, -1):
        rows = np.flatnonzero(zeros == 4 * (groups - 1 - g))
        zeros[rows] += quad_zeros[quads[rows, g]]
    index = e4 * precision + (precision - 1) - zeros
    index += (x < 0.0) * ((precision + 4) * precision)
    keep[...] = keep_rows.take(index, axis=0)

    if formatted.size:
        text = np.array([format(v, spec).encode() for v in x[formatted].tolist()],
                        dtype=f"S{frame.shape[1]}").view(np.uint8).reshape(formatted.size, -1)
        frame[formatted] = text
        keep[formatted] = text != 0
    return formatted


# ---------------------------------------------------------------------------
# Spectra in shot-noise units
# ---------------------------------------------------------------------------


def _evaluate(what: str, direct, small, u, xi):
    """``direct(u, xi)``, a closed form that divides by u^2, except where
    |u| < 2^-511, the root of the least normal float, so that u^2 is
    subnormal or 0 and keeps only a few digits; there ``small(u, xi)``,
    which squares no u. DomainError names the pole u = 0, or the first u
    where the value exceeds the float range."""
    xi = _check_xi(xi)
    u = np.asarray(u, dtype=float)
    if (u == 0.0).any():
        raise DomainError(f"{what} diverges at u = 0")
    with np.errstate(all="ignore"):
        out = direct(u, xi)
        tiny = np.abs(u) < 2.0**-511
        if tiny.any():
            out = np.where(tiny, small(u, xi), out)
    if np.isinf(out).any():
        u_bad = float(np.broadcast_to(u, out.shape)[np.isinf(out)][0])
        raise DomainError(f"{what} exceeds the float range at u = {u_bad!r}")
    return float(out) if out.ndim == 0 else out


def intensity_diff_spectrum(u, xi: float):
    """Intensity-difference noise 1 - xi / (1 + u^2), squeezed below shot noise.

    Evaluated as ((1 - xi) + u^2) / (1 + u^2), which does not cancel near
    xi = 1 at small u and keeps a subnormal u^2 (the value at xi = 1), and
    as 1 - xi / (1 + u^2) = 1 where u^2 overflows.
    """
    u, xi = np.asarray(u, dtype=float), _check_xi(xi)
    with np.errstate(over="ignore", invalid="ignore"):
        square = u**2
        out = ((1.0 - xi) + square) / (1.0 + square)
    out = np.where(np.isinf(square), 1.0, out)  # inf / inf, where 1 - xi / inf is 1
    return float(out) if out.ndim == 0 else out


def phase_diff_spectrum(u, xi: float):
    """Phase-difference noise 1 + xi / u^2, antisqueezed; pole at u = 0.

    Evaluated as 1 + xi / u / u where u^2 is subnormal or underflows;
    DomainError where the value exceeds the float range.
    """
    return _evaluate("phase-difference spectrum", lambda u, xi: 1.0 + xi / u**2,
                     lambda u, xi: 1.0 + xi / u / u, u, xi)


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
    """Closed form of uncertainty_product - 1: 0 where u^2 (1 + u^2)
    overflows, xi (1 - xi) / u / u / (1 + u^2) where u^2 is subnormal or
    underflows, and DomainError where the value exceeds the float range."""
    return _evaluate("uncertainty product",
                     lambda u, xi: xi * (1.0 - xi) / (u**2 * (1.0 + u**2)),
                     lambda u, xi: xi * (1.0 - xi) / u / u / (1.0 + u**2), u, xi)


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
    # a u past the float range is inf, where each model takes its limit
    with np.errstate(over="ignore"):
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
