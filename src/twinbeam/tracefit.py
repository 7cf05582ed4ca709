"""Spectrum-analyzer trace handling and model fitting.

Ingests (frequency, power) traces in dBm, subtracts detection noise floors
in linear power, fits the intensity-difference model

    P(nu) = S0_dBm + 10 log10(1 - xi / (1 + (nu/delta)^2))

with S0 in closed form at every (xi, delta) and (xi, delta) by
deterministic, bounded damped least squares, and predicts the
phase-difference trace from the same three parameters with no extra freedom.

Trace CSV format: UTF-8, optional ``#`` comment lines carrying
``# rbw_hz=...`` and ``# label=...`` metadata, a ``frequency_hz,power_dbm``
header, then one sample per line with strictly increasing frequencies.
The lines before the body are read one by one. The body is read by one
``np.loadtxt`` call: numpy's C reader reads it from the file itself when
the file is plain ASCII text with ``\\n`` line ends, and any other source is
split into lines by ``str.splitlines`` first. Where that read fails its
checks, the body is walked line by line, so every parse error names its line.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import reduce
from operator import add
from pathlib import Path

import numpy as np

from . import spectra
from .errors import FitConvergenceError, TraceParseError, ValidationError
from .spectra import DBM, OpoParams, SpectrumCurve

#: Below this frequency the measured spectra are dominated by technical
#: noise (chiefly pump intensity noise); default fits start above it.
TECHNICAL_NOISE_CUTOFF_HZ = 2.0e6

#: Electro-optic modulation leaves a spur near 3.9 MHz; default fits skip
#: a 200 kHz band around it.
MODULATION_SPUR_BAND_HZ = (3.8e6, 4.0e6)

#: The CLI's default frequency grid (start, stop, step in Hz): 317 points.
DEFAULT_GRID_HZ = (0.5e6, 10.0e6, 30e3)

#: Most points a grid may hold: about 100 times a 95 001-point measured trace.
MAX_GRID_POINTS = 10_000_000

#: Damped least-squares iterations before a fit gives up (FitConvergenceError).
MAX_ITERATIONS = 200
#: Relative SSE reduction, achieved by a step or predicted for the next, that ends a fit.
CONVERGENCE_TOL = 1e-12

_HEADER = "frequency_hz,power_dbm"
#: The ASCII line breaks of ``str.splitlines`` that a split at ``\n`` misses;
#: a file read as text has its ``\r`` and ``\r\n`` made into ``\n`` already.
_OTHER_ASCII_BREAKS = "\x0b\x0c\x1c\x1d\x1e"
#: File name endings that numpy's file opener decompresses.
_COMPRESSED = (".gz", ".bz2", ".xz", ".lzma")
_N_PARAMS = 3
_XI_MIN = 1e-9
_LAMBDA0 = 1e-3
_LAMBDA_FACTOR = 10.0
_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)
_MAX = float(np.finfo(float).max)

_LOG10_SCALE = 10.0 / np.log(10.0)


@dataclass(frozen=True, eq=False)
class SpectrumTrace:
    """Ordered (frequency, power) samples with resolution-bandwidth metadata."""

    frequencies_hz: np.ndarray
    powers_dbm: np.ndarray
    rbw_hz: float = 0.0
    label: str = ""

    def __post_init__(self):
        freqs = np.atleast_1d(np.asarray(self.frequencies_hz, dtype=float))
        powers = np.atleast_1d(np.asarray(self.powers_dbm, dtype=float))
        if freqs.shape != powers.shape or freqs.ndim != 1:
            raise ValidationError("frequency and power arrays must be 1-d and equal length")
        if not (np.isfinite(freqs).all() and np.isfinite(powers).all()):
            raise ValidationError("frequencies and powers must be finite")
        if not 0.0 <= self.rbw_hz < math.inf:
            raise ValidationError(f"rbw_hz must be finite and non-negative, got {self.rbw_hz}")
        if self.label and self.label.splitlines() != [self.label]:
            raise ValidationError(f"label must be one line, got {self.label!r}")
        try:
            self.label.encode("utf-8")
        except UnicodeEncodeError:
            raise ValidationError(f"label is not UTF-8 text: {self.label!r}") from None
        if freqs.size >= 2 and np.any(np.diff(freqs) <= 0.0):
            bad = int(np.nonzero(np.diff(freqs) <= 0.0)[0][0])
            raise ValidationError(
                f"frequencies must be strictly increasing (violated after sample {bad})"
            )
        freqs.setflags(write=False)
        powers.setflags(write=False)
        object.__setattr__(self, "frequencies_hz", freqs)
        object.__setattr__(self, "powers_dbm", powers)

    def __len__(self) -> int:
        return int(self.frequencies_hz.size)

    def span_hz(self) -> tuple[float, float]:
        return float(self.frequencies_hz[0]), float(self.frequencies_hz[-1])

    def powers_mw(self) -> np.ndarray:
        return 10.0 ** (self.powers_dbm / 10.0)


@dataclass(frozen=True)
class FitConfig:
    """Windowing, exclusions, floor, start and weight space of the spectrum fit."""

    fit_window_hz: tuple[float, float] | None = None
    exclusions_hz: tuple[tuple[float, float], ...] = ()
    noise_floor: SpectrumTrace | None = None
    initial_guess: tuple[float, float, float] | None = None  # (s0_dbm, xi, delta_hz); s0 unused
    weight_space: str = "db"  # "db" or "linear"

    def __post_init__(self):
        if self.weight_space not in ("db", "linear"):
            raise ValidationError(f"weight_space must be 'db' or 'linear', got {self.weight_space!r}")
        for lo, hi in self.exclusions_hz:
            if not lo < hi:
                raise ValidationError(f"exclusion band ({lo}, {hi}) is empty")
        if self.fit_window_hz is not None and not self.fit_window_hz[0] < self.fit_window_hz[1]:
            raise ValidationError(f"fit window {self.fit_window_hz} is empty")
        if self.initial_guess is not None:
            if not all(map(math.isfinite, self.initial_guess)):
                raise ValidationError(f"initial guess must be finite, got {self.initial_guess}")
            xi = self.initial_guess[1]
            if not 0.0 < xi <= 1.0:
                raise ValidationError(f"xi guess must be in (0, 1], got {xi}")

    @classmethod
    def standard(cls, **overrides) -> "FitConfig":
        """Default windowing for measured traces: skip the technical-noise
        region below 2 MHz and the modulation spur band."""
        base = dict(
            fit_window_hz=(TECHNICAL_NOISE_CUTOFF_HZ, np.inf),
            exclusions_hz=(MODULATION_SPUR_BAND_HZ,),
        )
        base.update(overrides)
        return cls(**base)


@dataclass(frozen=True, eq=False)
class FitResult:
    """Recovered model parameters and residual statistics."""

    s0_dbm: float
    xi: float
    delta_hz: float
    covariance: np.ndarray
    rms_residual_db: float
    points_used: int
    iterations: int
    xi_at_boundary: bool = False

    def __post_init__(self):
        cov = np.asarray(self.covariance, dtype=float)
        cov.setflags(write=False)
        object.__setattr__(self, "covariance", cov)

    def to_dict(self) -> dict:
        return {
            "s0_dbm": float(self.s0_dbm),
            "xi": float(self.xi),
            "delta_hz": float(self.delta_hz),
            "rms_residual_db": float(self.rms_residual_db),
            "points_used": int(self.points_used),
        }

    def to_key_value(self) -> str:
        lines = [f"{key}={value:.10g}" if isinstance(value, float) else f"{key}={value}"
                 for key, value in self.to_dict().items()]
        return "\n".join(lines) + "\n"

    def record(self, report: SqueezingReport) -> dict:
        """The ``fit.json`` mapping of this fit and its squeezing ``report``."""
        record = self.to_dict()
        record["squeezing_raw_db"] = report.raw_db
        record["squeezing_corrected_db"] = report.corrected_db
        record["squeezing_bandwidth_hz"] = report.bandwidth_hz
        with np.errstate(invalid="ignore"):  # a near-singular fit can leave a negative variance
            stderrs = np.sqrt(self.covariance.diagonal())
        for name, stderr in zip(("s0_dbm", "xi", "delta_hz"), stderrs):
            record[f"{name}_stderr"] = float(stderr) if np.isfinite(stderr) else None
        record["iterations"] = self.iterations
        record["xi_at_boundary"] = bool(self.xi_at_boundary)
        return record


@dataclass(frozen=True)
class SqueezingReport:
    """Squeezing levels inferred from a fitted intensity-difference trace:
    ``raw_db`` is None at complete correlation (xi >= 1 - 1e-12), and
    ``corrected_db`` without a floor or with one at or above the squeezed level."""

    raw_db: float | None
    corrected_db: float | None
    bandwidth_hz: float


# ---------------------------------------------------------------------------
# Trace I/O
# ---------------------------------------------------------------------------


def trace_to_csv(trace: SpectrumTrace) -> str:
    comments = [f"rbw_hz={trace.rbw_hz:{spectra.FREQUENCY_FORMAT}}"] if trace.rbw_hz else []
    if trace.label:
        comments.append(f"label={trace.label}")
    return spectra.csv_table(
        {"frequency_hz": trace.frequencies_hz, "power_dbm": trace.powers_dbm}, comments
    )


def load_trace(source) -> SpectrumTrace:
    """Parse a trace from a stream or a file.

    A ``source`` with a ``read`` method is a stream of the CSV text or of
    its UTF-8 bytes; any other is a file path (``str`` or path-like), as
    with ``open``. A file is read once as text, which gives the lines before
    the body and decides how the body is read; where that text allows,
    numpy reads the file a second time for the body (see :func:`_parse`).
    Malformed rows are rejected with their line number; frequencies must be
    strictly increasing.
    """
    if hasattr(source, "read"):
        text = source.read()
        if isinstance(text, bytes):
            text = text.decode("utf-8")
        return SpectrumTrace(*_parse(text))
    path = Path(source)
    return SpectrumTrace(*_parse(path.read_text(encoding="utf-8"), path))


def _metadata(line: str, lineno: int, rbw_hz: float, label: str) -> tuple[float, str]:
    """``(rbw_hz, label)`` after the ``#`` line ``line``.

    The label is the rest of the line after ``label=``, trailing whitespace
    included, so every label a :class:`SpectrumTrace` holds reads back as written.
    """
    meta = line.lstrip().lstrip("#").lstrip()
    if meta.startswith("rbw_hz="):
        try:
            value = float(meta.split("=", 1)[1])
            if 0.0 <= value < math.inf:  # what SpectrumTrace accepts
                return value, label
        except ValueError:
            pass
        raise TraceParseError(f"bad rbw_hz value {meta.rstrip()!r}", lineno)
    if meta.startswith("label="):
        return rbw_hz, meta.split("=", 1)[1]
    return rbw_hz, label


def _head(lines) -> tuple[int, float, str]:
    """``(header line number, rbw_hz, label)`` from the ``#`` lines and the
    header, read one by one from the iterator ``lines``, which is left at
    the first body line."""
    rbw_hz, label = 0.0, ""
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped:
            continue
        if not stripped.startswith("#"):
            if [c.strip().lower() for c in stripped.split(",")] != _HEADER.split(","):
                raise TraceParseError(f"expected header {_HEADER!r}, got {stripped!r}", lineno)
            return lineno, rbw_hz, label
        rbw_hz, label = _metadata(line, lineno, rbw_hz, label)
    raise TraceParseError(f"missing {_HEADER!r} header", 1)


def _newline_split(text: str):
    """The lines of ``text`` split at ``\\n`` alone, one at a time: those of
    ``text.splitlines()`` when no other line break occurs in it."""
    start = 0
    while start < len(text):
        end = text.find("\n", start)
        if end < 0:
            end = len(text)
        yield text[start:end]
        start = end + 1


def _reads_file_as_lines(text: str, path: Path) -> bool:
    """Whether ``np.loadtxt`` reading the file ``path``, whose text is
    ``text``, sees the lines that ``str.splitlines`` sees in ``text``: a
    regular file, not named as compressed, of ASCII text with no line break
    but ``\\n``. Both read the file with universal newlines."""
    return (text.isascii() and not any(c in text for c in _OTHER_ASCII_BREAKS)
            and not path.name.endswith(_COMPRESSED) and path.is_file())


def _parse(text: str, path: Path | None = None):
    """``(freqs, powers, rbw_hz, label)`` of a trace whose text is ``text``.

    The ``#`` lines and the header are walked one by one. The body goes to
    one ``np.loadtxt`` call that skips the lines before it: on the file
    ``path`` itself, read by numpy's C reader, when
    :func:`_reads_file_as_lines` allows it, and on the list
    ``text.splitlines()`` otherwise. The body is walked line by line by
    :func:`_walk` when that call raises, when its arrays are not two finite
    columns with increasing frequencies, when the body is blank (``loadtxt``
    warns) or when the text holds a ``\\x1f``.
    """
    direct = path is not None and _reads_file_as_lines(text, path)
    lines = _newline_split(text) if direct else text.splitlines()
    rest = iter(lines)
    lineno, rbw_hz, label = _head(rest)
    if "\x1f" not in text and any(map(str.strip, rest)):
        try:
            data = np.loadtxt(path if direct else lines, delimiter=",", comments=None,
                              ndmin=2, skiprows=lineno, encoding="utf-8")
        except ValueError:
            pass
        else:
            if (data.shape[1] == 2 and np.isfinite(data).all()
                    and (np.diff(data[:, 0]) > 0.0).all()):
                freqs, powers = data.T.copy()
                return freqs, powers, rbw_hz, label
    body = (text.splitlines() if direct else lines)[lineno:]
    return _walk(body, lineno, rbw_hz, label)


def _walk(body: list[str], offset: int, rbw_hz: float, label: str):
    """``_parse``'s result from a line-by-line walk of the body lines after
    line ``offset``: the only source of TraceParseError past the header."""
    freqs: list[float] = []
    powers: list[float] = []
    for lineno, line in enumerate(body, start=offset + 1):
        stripped = line.strip()
        if not stripped:
            continue
        if stripped.startswith("#"):
            rbw_hz, label = _metadata(line, lineno, rbw_hz, label)
            continue
        parts = stripped.split(",")
        if len(parts) != 2:
            raise TraceParseError(f"expected 2 fields, got {len(parts)}", lineno)
        try:
            f, p = float(parts[0]), float(parts[1])
        except ValueError:
            raise TraceParseError(f"non-numeric field in {stripped!r}", lineno) from None
        if not (np.isfinite(f) and np.isfinite(p)):
            raise TraceParseError(f"non-finite sample {stripped!r}", lineno)
        if freqs and f <= freqs[-1]:
            raise TraceParseError(
                f"frequency {f:g} does not increase past {freqs[-1]:g}", lineno
            )
        freqs.append(f)
        powers.append(p)
    if not freqs:
        raise TraceParseError("no data rows", 1)
    return np.array(freqs), np.array(powers), rbw_hz, label


# ---------------------------------------------------------------------------
# Noise-floor subtraction (linear power)
# ---------------------------------------------------------------------------


def subtract_noise_floor(
    trace: SpectrumTrace, floor: SpectrumTrace
) -> tuple[SpectrumTrace, np.ndarray]:
    """Pointwise linear-power subtraction of the detection floor.

    The floor is interpolated linearly in linear power and must cover the
    trace span. Points where the floor meets or exceeds the signal are
    dropped; their frequencies are returned alongside the corrected trace.
    """
    lo, hi = floor.span_hz()
    t_lo, t_hi = trace.span_hz()
    if t_lo < lo or t_hi > hi:
        raise ValidationError(
            f"floor span ({lo:g}, {hi:g}) Hz does not cover trace span ({t_lo:g}, {t_hi:g}) Hz"
        )
    floor_mw = np.interp(trace.frequencies_hz, floor.frequencies_hz, floor.powers_mw())
    corrected_mw = trace.powers_mw() - floor_mw
    keep = corrected_mw > 0.0
    dropped = trace.frequencies_hz[~keep]
    if not keep.any():
        raise ValidationError("noise floor at or above the signal everywhere; nothing left")
    out = SpectrumTrace(
        trace.frequencies_hz[keep],
        10.0 * np.log10(corrected_mw[keep]),
        trace.rbw_hz,
        trace.label,
    )
    return out, dropped


# ---------------------------------------------------------------------------
# Model, Jacobian, and the damped least-squares loop
# ---------------------------------------------------------------------------


def _model(nu2, params, y, y_sum, linear):
    """The model in the fit's weight space at its optimal S0 for the data
    ``y``, that S0, and the factors r^2, a, m that its Jacobian shares.
    ``y_sum`` is sum(y), which the dB closed form reads: a fit forms it once.

    With r = nu/delta, a = 1 + r^2, m = (1 - xi) + r^2 and g = m/a the dB
    model is S0 + h with h = 10 log10 g, and the linear one 10^(S0/10) g.
    S0 enters as an offset in dB and as a scale in linear power, so for
    the given (xi, delta) it has a closed form (Golub & Pereyra 1973):
    (sum y - sum h)/n in dB and 10 log10(<y, g>/<g, g>) in linear power.
    The S0 entry of ``params`` is not read. Forming 1 - xi before adding
    r^2 keeps g free of the cancellation in 1 - xi/a as xi -> 1.
    """
    _, xi, delta = params
    r2 = nu2 * (1.0 / (delta * delta))
    a = 1.0 + r2
    m = (1.0 - xi) + r2
    f = m / a
    if linear:
        scale = float(y @ f) / float(f @ f)
        f *= scale
        return f, 10.0 * math.log10(scale), r2, a, m
    np.log10(f, out=f)
    f *= 10.0
    s0 = (y_sum - float(np.add.reduce(f))) / f.size
    f += s0
    return f, s0, r2, a, m


def _jacobian(params, f, r2, a, m, linear, jac):
    """Write the (3, n) rows of df/d(S0, xi, delta) into ``jac`` from
    :func:`_model`'s factors: 1, -(10/ln 10)/m, and the xi row times
    2 xi r^2/(delta a). In linear power each row is scaled by f ln(10)/10."""
    _, xi, delta = params
    jac[0] = 1.0
    np.divide(-_LOG10_SCALE, m, out=jac[1])
    np.multiply(r2, 2.0 * xi / delta, out=jac[2])
    jac[2] /= a
    jac[2] *= jac[1]
    if linear:
        jac *= f * (1.0 / _LOG10_SCALE)


def _damped_step(gram, free, lam):
    """(dxi, ddelta, predicted SSE reduction) of the damped step for the
    ``free`` parameters, or None where a pivot is not positive (the
    residual no longer sees a parameter). ``gram`` is the Gram matrix of
    the rows (J; r) with S0 at its closed form.

    S0 is eliminated by the Schur complement of its pivot: A = J_p^T J_p
    and b = J_p^T r for the xi and delta rows J_p of J with the S0 row
    projected out (Kaufman 1975). b keeps the S0 term, because J_S0^T r
    is the closed form's rounding residue. x solves (A + lam diag A) x = b
    over the free parameters and is 0 for a held one, so the reduction
    2 x^T b - x^T A x that the linearised model predicts equals
    x^T b + lam sum_i A_ii x_i^2 (Moré 1978), the form returned: its terms
    do not cancel. Elimination in Python floats."""
    (a00, a01, a02, b0), (_, a11, a12, b1), (_, _, a22, b2) = gram[:_N_PARAMS]
    if not a00 > 0.0:
        return None
    t1, t2 = a01 / a00, a02 / a00
    a11, a12, a22 = a11 - t1 * a01, a12 - t1 * a02, a22 - t2 * a02
    b1, b2 = b1 - t1 * b0, b2 - t2 * b0
    if 1 not in free:  # xi's row and column become the identity's, its right-hand side 0
        a11, a12, b1 = 1.0, 0.0, 0.0
    damp = 1.0 + lam
    d1 = a11 * damp
    if not d1 > 0.0:
        return None
    l21 = a12 / d1
    d2 = a22 * damp - l21 * a12
    if not d2 > 0.0:
        return None
    x2 = (b2 - l21 * b1) / d2
    x1 = (b1 - a12 * x2) / d1
    return x1, x2, x1 * (b1 + lam * a11 * x1) + x2 * (b2 + lam * a22 * x2)


def _clamp_params(params, delta_floor):
    s0, xi, delta = params
    return s0, min(max(xi, _XI_MIN), 1.0), max(abs(delta), delta_floor)


def usable_mask(trace: SpectrumTrace, config: FitConfig) -> np.ndarray:
    """Boolean mask of points inside the fit window and outside exclusions."""
    nu = trace.frequencies_hz
    if config.fit_window_hz is None:
        mask = np.ones(nu.size, dtype=bool)
    else:
        lo, hi = config.fit_window_hz
        mask = (nu >= lo) & (nu <= hi)
    for b_lo, b_hi in config.exclusions_hz:
        mask &= ~((nu >= b_lo) & (nu <= b_hi))
    return mask


def _initial_guess(nu, y_db):
    """Starting (S0, xi, delta) read off a trace with increasing frequencies."""
    tail = np.sort(y_db[-max(1, nu.size // 4):])
    half = tail.size // 2
    s0 = float(tail[half]) if tail.size % 2 else (float(tail[half - 1]) + float(tail[half])) / 2.0
    first = y_db[:3].tolist()
    low = reduce(add, first) / len(first)  # left to right like np.mean; sum() compensates on 3.12+
    try:
        depth = 1.0 - 10.0 ** ((low - s0) / 10.0)
    except OverflowError:  # over 3080 dB above S0, a power ratio past the float range
        depth = -math.inf
    xi = min(max(depth, 0.05), 0.995)
    with np.errstate(over="ignore"):  # such a point's ratio is inf, as depth takes it
        rel = 10.0 ** ((y_db - s0) / 10.0)
    half_level = 1.0 - depth / 2.0
    above = np.nonzero(rel >= half_level)[0]
    if above.size and above[0] > 0:
        i = above[0]
        frac = (half_level - rel[i - 1]) / max(rel[i] - rel[i - 1], 1e-30)
        delta = float(nu[i - 1] + frac * (nu[i] - nu[i - 1]))
    else:
        delta = float(nu[0] + (nu[-1] - nu[0]) / 3.0)
    return s0, xi, max(delta, 1e-6 * float(nu[-1]))


def fit_intensity_spectrum(trace: SpectrumTrace, config: FitConfig | None = None) -> FitResult:
    """Bounded least-squares fit of (S0, xi, delta) to an intensity-difference trace.

    Variable projection: every model evaluation puts S0 at its closed-form
    optimum for the (xi, delta) in hand (:func:`_model`), and damped least
    squares (Marquardt) with a fixed initial damping and multiplicative
    schedule steps (xi, delta) alone (:func:`_damped_step`); fully
    deterministic for a given trace and config. The S0 entry of
    config.initial_guess is not used. Residuals are taken in dB with
    uniform weights by default (config.weight_space switches to linear
    power). Each candidate step costs one model evaluation; the Jacobian
    is rebuilt only after a step is accepted.

    The fit converges when an accepted step improves the SSE by at most
    CONVERGENCE_TOL (1e-12) times the SSE, or when the reduction the
    linearised model predicts for the next damped step (Moré 1978) is at
    most the larger of CONVERGENCE_TOL times the SSE and the SSE's rounding floor
    n (eps max|y_dB|)^2 (in linear power scaled by (max y ln(10)/10)^2).
    That last candidate is evaluated once and kept only if the SSE does
    not rise: below the floor a rise is rounding, and retrying it at higher
    damping would only cost model passes. The covariance is
    inv(J^T J) SSE/(n - 3) from the full (S0, xi, delta) Jacobian at the
    result, NaN where J^T J is singular.

    Bounds: xi in [1e-9, 1] and delta at least 1e-9 of the highest fitted
    frequency; candidates are clamped into them. Where xi sits on 1 and
    J^T r points out of it, a step that moved xi would only be clamped
    back, so xi is held and only delta steps. Where xi sits on 1e-9 and
    J^T r points below it, the fit ends there: the model then depends on
    delta only through xi, and S0 is already at its optimum.

    Raises FitConvergenceError with the last iterate when MAX_ITERATIONS
    (200) run out or when no damped step lowers the SSE, and ValidationError when
    a power in the window, or the sum of their squares, is past the float
    range in linear power, and, in either weight space, when n (2 max|y_dB|)^2
    is past it: a dB residual can reach twice the largest |power|.
    """
    config = config or FitConfig()
    work = trace
    if config.noise_floor is not None:
        work, _ = subtract_noise_floor(work, config.noise_floor)
    if len(work) < 8:
        raise ValidationError(f"need at least 8 trace points, got {len(work)}")
    mask = usable_mask(work, config)
    nu = work.frequencies_hz[mask]
    y_db = work.powers_dbm[mask]
    if nu.size < 3 * _N_PARAMS:
        raise ValidationError(
            f"only {nu.size} usable points after windowing; need at least {3 * _N_PARAMS}"
        )
    peak_db = float(np.abs(y_db).max())
    if not peak_db < math.sqrt(_MAX / nu.size) / 2.0:  # a dB residual can reach 2 peak_db
        raise ValidationError(f"power {y_db[np.abs(y_db).argmax()]:g} dBm is past what the "
                              "fit's sums of squares can hold in a float")

    delta_floor = 1e-9 * float(nu[-1])
    guess = _initial_guess(nu, y_db) if config.initial_guess is None else config.initial_guess
    params = _clamp_params(map(float, guess), delta_floor)

    nu2 = nu * nu
    linear = config.weight_space == "linear"
    y = y_db
    if linear:
        with np.errstate(over="ignore"):
            y = 10.0 ** (y_db / 10.0)
            power_sq = float(y @ y)
        if not _TINY <= power_sq < math.inf:  # the fit's sums of squares would leave it
            raise ValidationError(f"power {y_db.max():g} dBm is past what linear power can "
                                  "hold in a float; fit it in dB")
    # the SSE's rounding floor: n residuals of the dB data's rounding eps |y_db|,
    # carried into linear power by dy/dy_db = y ln(10)/10
    slope = float(y.max()) / _LOG10_SCALE if linear else 1.0
    sse_floor = nu.size * (_EPS * peak_db * slope) ** 2
    y_sum = float(np.add.reduce(y))
    f, s0, *factors = _model(nu2, params, y, y_sum, linear)
    params = (s0, *params[1:])
    res = y - f
    sse = float(res @ res)
    rows = np.empty((_N_PARAMS + 1, nu.size))  # (J; r): one Gram product per accepted step
    lam = _LAMBDA0
    accepted = True  # the normal equations are rebuilt only where params moved
    converged = False
    iterations = 0
    for iterations in range(1, MAX_ITERATIONS + 1):
        if accepted:
            _jacobian(params, f, *factors, linear, rows[:_N_PARAMS])
            rows[_N_PARAMS] = res
            normal = rows @ rows.T
            gram = normal.tolist()
            grad_xi = gram[1][_N_PARAMS]
            if params[1] <= _XI_MIN and grad_xi < 0.0:
                # S0 is at its optimum and nothing else may move; J is at the result
                accepted, converged = False, True
                break
            free = (2,) if params[1] >= 1.0 and grad_xi > 0.0 else (1, 2)
        step = _damped_step(gram, free, lam)
        accepted = final = False
        if step is not None:
            dxi, ddelta, predicted = step
            final = predicted <= max(CONVERGENCE_TOL * sse, sse_floor)
            candidate = _clamp_params((params[0], params[1] + dxi, params[2] + ddelta),
                                      delta_floor)
            cand_f, cand_s0, *cand_factors = _model(nu2, candidate, y, y_sum, linear)
            cand_res = y - cand_f
            cand_sse = float(cand_res @ cand_res)
            accepted = cand_sse <= sse
        if accepted:
            improvement = sse - cand_sse
            params = (cand_s0, *candidate[1:])
            f, factors, res, sse = cand_f, cand_factors, cand_res, cand_sse
            lam = max(lam / _LAMBDA_FACTOR, 1e-15)
            converged = final or improvement <= CONVERGENCE_TOL * max(sse, 1e-30)
        elif final:
            converged = True
        else:
            lam = lam * _LAMBDA_FACTOR
            if lam > 1e15:
                break
        if converged:
            break
    if not converged:
        reason = "no damped step lowers the SSE" if lam > 1e15 else "no convergence"
        raise FitConvergenceError(
            f"{reason} after {iterations} iterations (sse {sse:.6g}, "
            f"last params {list(params)})",
            last_params=tuple(params),
            iterations=iterations,
        )

    xi_at_boundary = params[1] >= 1.0 - 1e-12 or params[1] <= _XI_MIN * (1 + 1e-9)
    if xi_at_boundary:
        warnings.warn("fitted xi pinned at its boundary", stacklevel=2)
    if accepted:  # the last Gram product was taken before the step
        jac = rows[:_N_PARAMS]
        _jacobian(params, f, *factors, linear, jac)
        normal = jac @ jac.T
    try:
        cov = np.linalg.inv(normal[:_N_PARAMS, :_N_PARAMS]) * (sse / (nu.size - _N_PARAMS))
    except np.linalg.LinAlgError:
        cov = np.full((3, 3), np.nan)
    if linear:
        _, a, m = factors
        db_res = y_db - (10.0 * np.log10(m / a) + params[0])
        db_sse = float(db_res @ db_res)
    else:
        db_sse = sse
    return FitResult(
        s0_dbm=float(params[0]),
        xi=float(params[1]),
        delta_hz=float(params[2]),
        covariance=cov,
        rms_residual_db=math.sqrt(db_sse / nu.size),
        points_used=int(nu.size),
        iterations=iterations,
        xi_at_boundary=xi_at_boundary,
    )


# ---------------------------------------------------------------------------
# Prediction and reporting
# ---------------------------------------------------------------------------


def predict_phase_spectrum(fit: FitResult, nu_hz) -> SpectrumCurve:
    """Phase-difference curve in dBm from the fitted parameters alone."""
    if not (0.0 < fit.xi <= 1.0 and 0.0 < fit.delta_hz < math.inf and math.isfinite(fit.s0_dbm)):
        raise ValidationError("fit does not hold valid (xi, delta) for prediction")
    nu = np.atleast_1d(np.asarray(nu_hz, dtype=float))
    rel = spectra.phase_diff_spectrum(nu / fit.delta_hz, fit.xi)
    return SpectrumCurve(nu, spectra.relative_to_dbm(rel, fit.s0_dbm), DBM)


def report_squeezing(
    trace: SpectrumTrace, fit: FitResult, floor: SpectrumTrace | None = None
) -> SqueezingReport:
    """Squeezing extrapolated to dc from the fitted correlation coefficient.

    The detection-corrected value subtracts the floor (linear power, level
    taken as the mean floor power over the trace span) from the squeezed
    level while leaving the shot-noise reference untouched. Below complete
    correlation, a floor with no sample in the trace span is refused.
    ``raw_db`` is None at complete correlation (xi >= 1 - 1e-12), and
    ``corrected_db`` without a floor or with one at or above the squeezed level.
    """
    if fit.xi >= 1.0 - 1e-12:
        return SqueezingReport(raw_db=None, corrected_db=None, bandwidth_hz=fit.delta_hz)
    rel_dc = 1.0 - fit.xi
    corrected_db = None
    if floor is not None:
        lo, hi = trace.span_hz()
        sel = (floor.frequencies_hz >= lo) & (floor.frequencies_hz <= hi)
        if not sel.any():
            raise ValidationError(f"noise floor has no sample in the trace span ({lo:g}, {hi:g}) Hz")
        floor_dbm = 10.0 * np.log10(float(np.mean(floor.powers_mw()[sel])))
        net = rel_dc - 10.0 ** ((floor_dbm - fit.s0_dbm) / 10.0)
        if net > 0.0:
            corrected_db = float(10.0 * np.log10(net))
    return SqueezingReport(float(10.0 * np.log10(rel_dc)), corrected_db, fit.delta_hz)


# ---------------------------------------------------------------------------
# Synthetic traces
# ---------------------------------------------------------------------------


def grid_hz(start_hz: float, stop_hz: float, step_hz: float) -> np.ndarray:
    """Inclusive arithmetic grid; the stop point is kept when it lands on it."""
    if not (-math.inf < start_hz < stop_hz < math.inf and 0.0 < step_hz < math.inf):
        raise ValidationError("grid requires finite start < stop and a finite positive step, "
                              f"got {start_hz}, {stop_hz}, {step_hz}")
    intervals = (stop_hz - start_hz) / step_hz + 1e-9  # sized before any allocation
    if not intervals < MAX_GRID_POINTS:  # also where it is inf
        raise ValidationError(f"grid of {intervals + 1:.3g} points exceeds {MAX_GRID_POINTS}")
    return start_hz + step_hz * np.arange(int(np.floor(intervals)) + 1)


def synth_trace(
    params: OpoParams,
    which: str,
    nu_hz,
    noise_db: float = 0.0,
    seed: int = 0,
    rbw_hz: float = 30e3,
    label: str = "",
) -> SpectrumTrace:
    """Deterministic synthetic trace of the chosen model at the frequencies
    ``nu_hz``, plus Gaussian dB noise.

    A (start_hz, stop_hz, step_hz) grid is :func:`grid_hz`'s to build; the
    phase model requires strictly positive frequencies. ``noise_db`` must be
    finite and non-negative and ``seed`` non-negative, with or without noise.
    """
    if not 0.0 <= noise_db < math.inf:
        raise ValidationError(f"noise_db must be non-negative and finite, got {noise_db}")
    if seed < 0:
        raise ValidationError(f"seed must be non-negative, got {seed}")
    nu = np.atleast_1d(np.asarray(nu_hz, dtype=float))
    curve = spectra.physical_frequency_curve(params, nu, which)
    values = spectra.relative_to_dbm(curve.values, params.s0_dbm)
    if noise_db > 0.0:
        rng = np.random.default_rng(seed)
        values = values + rng.normal(0.0, noise_db, size=nu.size)
    if not label:
        label = f"synthetic {which}"
    return SpectrumTrace(nu, values, rbw_hz, label)
