"""Spectrum-analyzer trace handling and model fitting.

Ingests (frequency, power) traces in dBm, subtracts detection noise floors
in linear power, fits the intensity-difference model

    P(nu) = S0_dBm + 10 log10(1 - xi / (1 + (nu/delta)^2))

by deterministic damped least squares, and predicts the phase-difference
trace from the same three parameters with no extra freedom.

Trace CSV format: UTF-8, optional ``#`` comment lines carrying
``# rbw_hz=...`` and ``# label=...`` metadata, a ``frequency_hz,power_dbm``
header, then one sample per line with strictly increasing frequencies.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
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

#: Default synthetic and CLI frequency grid (start, stop, step in Hz): 317 points.
DEFAULT_GRID_HZ = (0.5e6, 10.0e6, 30e3)

_HEADER = "frequency_hz,power_dbm"
_N_PARAMS = 3
_XI_MIN = 1e-9
_LAMBDA0 = 1e-3
_LAMBDA_FACTOR = 10.0

_LOG10_SCALE = 10.0 / np.log(10.0)


@dataclass(frozen=True)
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
    """Windowing, exclusions, and iteration controls for the spectrum fit."""

    fit_window_hz: tuple[float, float] | None = None
    exclusions_hz: tuple[tuple[float, float], ...] = ()
    noise_floor: SpectrumTrace | None = None
    initial_guess: tuple[float, float, float] | None = None  # (s0_dbm, xi, delta_hz)
    max_iterations: int = 200
    convergence_tol: float = 1e-12
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


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class SqueezingReport:
    """Squeezing levels inferred from a fitted intensity-difference trace."""

    raw_db: float | None
    corrected_db: float | None
    bandwidth_hz: float
    dc_level_dbm: float | None
    floor_rel_s0: float | None
    complete_correlation: bool
    note: str = ""


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


def save_trace(trace: SpectrumTrace, path) -> None:
    Path(path).write_text(trace_to_csv(trace), encoding="utf-8")


def load_trace(source) -> SpectrumTrace:
    """Parse a trace from a path, byte stream, or text.

    A ``Path`` is always a file. A ``str`` is CSV text when it contains a
    newline or starts with ``#`` or with the header, and a file name
    otherwise. Malformed rows are rejected with their line number;
    frequencies must be strictly increasing.
    """
    if isinstance(source, str) and "\n" not in source:
        if not source.lstrip().lower().startswith(("#", _HEADER)):
            source = Path(source)
    if isinstance(source, Path):
        text = source.read_text(encoding="utf-8")
    elif isinstance(source, bytes):
        text = source.decode("utf-8")
    elif hasattr(source, "read"):
        raw = source.read()
        text = raw.decode("utf-8") if isinstance(raw, bytes) else raw
    else:
        text = str(source)

    rbw_hz, label = 0.0, ""
    freqs: list[float] = []
    powers: list[float] = []
    header_seen = False
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped:
            continue
        if stripped.startswith("#"):
            meta = stripped.lstrip("#").strip()
            if meta.startswith("rbw_hz="):
                try:
                    rbw_hz = float(meta.split("=", 1)[1])
                except ValueError:
                    raise TraceParseError(f"bad rbw_hz value {meta!r}", lineno) from None
            elif meta.startswith("label="):
                label = meta.split("=", 1)[1]
            continue
        if not header_seen:
            columns = [c.strip().lower() for c in stripped.split(",")]
            if columns != _HEADER.split(","):
                raise TraceParseError(f"expected header {_HEADER!r}, got {stripped!r}", lineno)
            header_seen = True
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
    if not header_seen:
        raise TraceParseError(f"missing {_HEADER!r} header", 1)
    if not freqs:
        raise TraceParseError("no data rows", 1)
    return SpectrumTrace(np.array(freqs), np.array(powers), rbw_hz, label)


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


def model_dbm(nu_hz, s0_dbm: float, xi: float, delta_hz: float):
    return s0_dbm + 10.0 * np.log10(spectra.intensity_diff_spectrum(np.asarray(nu_hz) / delta_hz, xi))


def _model_and_jacobian(nu, params):
    s0, xi, delta = params
    r2 = (nu / delta) ** 2
    g = 1.0 - xi / (1.0 + r2)
    f = s0 + 10.0 * np.log10(g)
    jac = np.empty((nu.size, 3))
    jac[:, 0] = 1.0
    jac[:, 1] = -_LOG10_SCALE / (g * (1.0 + r2))
    jac[:, 2] = -_LOG10_SCALE * 2.0 * xi * r2 / (g * delta * (1.0 + r2) ** 2)
    return f, jac


def _residual_and_jacobian(nu, y_db, params, weight_space):
    f_db, jac_db = _model_and_jacobian(nu, params)
    if weight_space == "db":
        return y_db - f_db, jac_db
    y_lin = 10.0 ** (y_db / 10.0)
    f_lin = 10.0 ** (f_db / 10.0)
    jac_lin = jac_db * (f_lin / _LOG10_SCALE)[:, None]
    return y_lin - f_lin, jac_lin


def _clamp_params(params, delta_floor):
    s0, xi, delta = params
    return np.array([s0, min(max(xi, _XI_MIN), 1.0), max(abs(delta), delta_floor)])


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
    order = np.argsort(nu)
    nu, y_db = nu[order], y_db[order]
    top = max(1, nu.size // 4)
    s0 = float(np.median(y_db[-top:]))
    low = float(np.mean(y_db[: min(3, nu.size)]))
    depth = 1.0 - 10.0 ** ((low - s0) / 10.0)
    xi = float(np.clip(depth, 0.05, 0.995))
    rel = 10.0 ** ((y_db - s0) / 10.0)
    half_level = 1.0 - depth / 2.0
    above = np.nonzero(rel >= half_level)[0]
    if above.size and above[0] > 0:
        i = above[0]
        frac = (half_level - rel[i - 1]) / max(rel[i] - rel[i - 1], 1e-30)
        delta = float(nu[i - 1] + frac * (nu[i] - nu[i - 1]))
    else:
        delta = float(nu[0] + (nu[-1] - nu[0]) / 3.0)
    return np.array([s0, xi, max(delta, 1e-6 * nu[-1])])


def fit_intensity_spectrum(trace: SpectrumTrace, config: FitConfig | None = None) -> FitResult:
    """Least-squares fit of (S0, xi, delta) to an intensity-difference trace.

    Damped least squares with a fixed initial damping and multiplicative
    schedule; fully deterministic for a given trace and config. Residuals
    are taken in dB with uniform weights by default (config.weight_space
    switches to linear power). Raises FitConvergenceError with the last
    iterate when max_iterations is exhausted.
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

    delta_floor = 1e-9 * float(nu[-1])
    if config.initial_guess is not None:
        params = _clamp_params(np.asarray(config.initial_guess, dtype=float), delta_floor)
    else:
        params = _clamp_params(_initial_guess(nu, y_db), delta_floor)

    res, jac = _residual_and_jacobian(nu, y_db, params, config.weight_space)
    sse = float(res @ res)
    lam = _LAMBDA0
    converged = False
    iterations = 0
    for iterations in range(1, config.max_iterations + 1):
        jtj = jac.T @ jac
        jtr = jac.T @ res
        step = np.linalg.solve(jtj + lam * np.diag(np.diagonal(jtj)), jtr)
        candidate = _clamp_params(params + step, delta_floor)
        cand_res, cand_jac = _residual_and_jacobian(nu, y_db, candidate, config.weight_space)
        cand_sse = float(cand_res @ cand_res)
        if cand_sse <= sse:
            improvement = sse - cand_sse
            params, res, jac, sse = candidate, cand_res, cand_jac, cand_sse
            lam = max(lam / _LAMBDA_FACTOR, 1e-15)
            if improvement <= config.convergence_tol * max(sse, 1e-30) or sse < 1e-28:
                converged = True
                break
        else:
            lam = lam * _LAMBDA_FACTOR
            if lam > 1e15:
                break
    if not converged and iterations >= config.max_iterations:
        raise FitConvergenceError(
            f"no convergence after {iterations} iterations (sse {sse:.6g}, "
            f"last params {params.tolist()})",
            last_params=tuple(params),
            iterations=iterations,
        )

    xi_at_boundary = params[1] >= 1.0 - 1e-12 or params[1] <= _XI_MIN * (1 + 1e-9)
    if xi_at_boundary:
        warnings.warn("fitted xi pinned at its boundary", stacklevel=2)
    dof = max(nu.size - _N_PARAMS, 1)
    db_res, _ = _residual_and_jacobian(nu, y_db, params, "db")
    jtj = jac.T @ jac
    try:
        cov = np.linalg.inv(jtj) * (sse / dof)
    except np.linalg.LinAlgError:
        cov = np.full((3, 3), np.nan)
    return FitResult(
        s0_dbm=float(params[0]),
        xi=float(params[1]),
        delta_hz=float(params[2]),
        covariance=cov,
        rms_residual_db=float(np.sqrt(np.mean(db_res**2))),
        points_used=int(nu.size),
        iterations=iterations,
        xi_at_boundary=xi_at_boundary,
    )


# ---------------------------------------------------------------------------
# Prediction and reporting
# ---------------------------------------------------------------------------


def predict_phase_spectrum(fit: FitResult, nu_hz) -> SpectrumCurve:
    """Phase-difference curve in dBm from the fitted parameters alone."""
    if not 0.0 < fit.xi <= 1.0 or fit.delta_hz <= 0.0:
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
    level while leaving the shot-noise reference untouched.
    """
    if fit.xi >= 1.0 - 1e-12:
        return SqueezingReport(
            raw_db=None, corrected_db=None, bandwidth_hz=fit.delta_hz,
            dc_level_dbm=None, floor_rel_s0=None, complete_correlation=True,
            note="complete correlation at dc",
        )
    rel_dc = 1.0 - fit.xi
    raw_db = 10.0 * np.log10(rel_dc)
    dc_level_dbm = fit.s0_dbm + raw_db
    corrected_db = None
    floor_rel = None
    note = ""
    if floor is not None:
        lo, hi = trace.span_hz()
        sel = (floor.frequencies_hz >= lo) & (floor.frequencies_hz <= hi)
        floor_mw = floor.powers_mw()[sel] if sel.any() else floor.powers_mw()
        floor_dbm = 10.0 * np.log10(float(np.mean(floor_mw)))
        floor_rel = 10.0 ** ((floor_dbm - fit.s0_dbm) / 10.0)
        net = rel_dc - floor_rel
        if net <= 0.0:
            note = "squeezed level at or below the detection floor"
        else:
            corrected_db = 10.0 * np.log10(net)
    return SqueezingReport(
        raw_db=float(raw_db),
        corrected_db=None if corrected_db is None else float(corrected_db),
        bandwidth_hz=fit.delta_hz,
        dc_level_dbm=float(dc_level_dbm),
        floor_rel_s0=None if floor_rel is None else float(floor_rel),
        complete_correlation=False,
        note=note,
    )


# ---------------------------------------------------------------------------
# Synthetic traces
# ---------------------------------------------------------------------------


def grid_hz(start_hz: float, stop_hz: float, step_hz: float) -> np.ndarray:
    """Inclusive arithmetic grid; the stop point is kept when it lands on it."""
    if step_hz <= 0.0 or stop_hz <= start_hz:
        raise ValidationError("grid requires stop > start and a positive step")
    count = int(np.floor((stop_hz - start_hz) / step_hz + 1e-9)) + 1
    return start_hz + step_hz * np.arange(count)


def synth_trace(
    params: OpoParams,
    which: str = "intensity",
    grid=DEFAULT_GRID_HZ,
    noise_db: float = 0.0,
    seed: int = 0,
    rbw_hz: float = 30e3,
    label: str = "",
) -> SpectrumTrace:
    """Deterministic synthetic trace of the chosen model plus Gaussian dB noise.

    ``grid`` is either a (start_hz, stop_hz, step_hz) triple or an explicit
    frequency array; the phase model requires strictly positive frequencies.
    """
    if not noise_db >= 0.0:
        raise ValidationError(f"noise_db must be non-negative, got {noise_db}")
    if isinstance(grid, tuple) and len(grid) == 3:
        nu = grid_hz(*grid)
    else:
        nu = np.atleast_1d(np.asarray(grid, dtype=float))
    curve = spectra.physical_frequency_curve(params, nu, which)
    values = spectra.relative_to_dbm(curve.values, params.s0_dbm)
    if noise_db > 0.0:
        rng = np.random.default_rng(seed)
        values = values + rng.normal(0.0, noise_db, size=nu.size)
    if not label:
        label = f"synthetic {which}"
    return SpectrumTrace(nu, values, rbw_hz, label)
