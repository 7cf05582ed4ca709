"""Command-line front end.

Subcommands:
  hom          two-photon interference demo: distribution, dN_minus, coincidence
  limits       dN_minus scaling table for |N,0> and |N,N> inputs
  spectra      model noise curves on a frequency grid (CSV)
  fit          fit an intensity-difference trace, predict the phase trace
  uncertainty  uncertainty-product table over normalized frequency
  synth        generate a synthetic trace CSV

Physical defaults are written once, in code (see DEFAULTS). A --config file
of ``key = value`` lines overrides them key by key; explicit flags win over
the file.

Exit codes: 0 success, 2 usage error, 3 file or parse error,
4 validation or domain error, 5 fit convergence failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

# One OpenBLAS thread unless the caller sets it: no command computes on a
# second one, and starting its pool is most of the cost of importing numpy.
# It must be set before numpy loads.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402

from . import fock, spectra, tracefit  # noqa: E402
from .errors import FitConvergenceError, TraceParseError, TwinbeamError, ValidationError  # noqa: E402
from .modes import ModeLabel, Polarization, Port  # noqa: E402

EXIT_OK = 0
EXIT_PARSE = 3
EXIT_VALIDATION = 4
EXIT_CONVERGENCE = 5


def _numbers(sep: str, count: int | None, what: str):
    """Parser of ``count`` floats (any number when None) joined by ``sep``."""

    def parse(text: str) -> tuple[float, ...]:
        try:
            values = tuple(float(part) for part in text.split(sep))
        except ValueError:
            values = None
        if values is None or (count is not None and len(values) != count):
            raise argparse.ArgumentTypeError(f"expected {what}, got {text!r}")
        return values

    return parse


_band = _numbers(":", 2, "LO:HI in Hz")
_grid = _numbers(",", 3, "START,STOP,STEP in Hz")


def _bands(text: str) -> tuple[tuple[float, float], ...]:
    """``LO:HI;LO:HI`` exclusion bands in Hz; an empty value means none."""
    return tuple(_band(chunk) for chunk in text.split(";")) if text else ()


# ---------------------------------------------------------------------------
# Config: code defaults overlaid by "namespace.key = value" lines, '#' comments
# ---------------------------------------------------------------------------

_FIT = tracefit.FitConfig.standard()

#: Largest ``limits --n-max``.
MAX_N = 10

#: Largest ``hom`` pair total n_a + n_b, which is its cutoff.
MAX_HOM_PHOTONS = 60

#: key -> (default, parser of the file's text value)
DEFAULTS = {
    "trace_fit.fit_window_hz": (_FIT.fit_window_hz, _numbers(",", 2, "LOW,HIGH in Hz")),
    "trace_fit.exclusions_hz": (_FIT.exclusions_hz, _bands),
    "trace_fit.weight_space": (_FIT.weight_space, str),
    "cli.grid_hz": (tracefit.DEFAULT_GRID_HZ, _grid),
}


def load_config(path=None) -> dict:
    """DEFAULTS overlaid key by key by the file at ``path``; a malformed line,
    an unknown key or an unparsable value raises TraceParseError."""
    config = {key: default for key, (default, _) in DEFAULTS.items()}
    if path is None:
        return config
    text = Path(path).read_text(encoding="utf-8")
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise TraceParseError(f"config line is not 'key = value': {stripped!r}", lineno)
        key, value = (part.strip() for part in stripped.split("=", 1))
        if key not in DEFAULTS:
            raise TraceParseError(f"unknown config key {key!r}", lineno)
        try:
            config[key] = DEFAULTS[key][1](value)
        except (ValueError, argparse.ArgumentTypeError) as exc:
            raise TraceParseError(f"bad value for {key}: {exc}", lineno) from None
    return config


def _emit(text: str, output: str | None) -> None:
    if output:
        Path(output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_hom(args, config) -> int:
    # the pair never holds more than n_a + n_b photons, so no larger cutoff changes the answer
    cutoff = max(args.n_a + args.n_b, 1)
    # a negative count is left to make_fock, which names it
    if min(args.n_a, args.n_b) >= 0 and cutoff > MAX_HOM_PHOTONS:
        raise ValidationError(
            f"n_a + n_b = {cutoff} outside the documented range 0..{MAX_HOM_PHOTONS}")
    # the beams are H and V of one path; a distinguishable V moves to frequency tag 1
    modes = (ModeLabel(Polarization.H, 0, Port.A),
             ModeLabel(Polarization.V, 1 if args.distinguishable else 0, Port.A))
    state = fock.make_fock([args.n_a, args.n_b], cutoff, modes=modes)
    out = fock.apply_waveplate_polarizer(state, args.theta)
    stats = fock.number_difference_stats(out)
    coincidence = fock.coincidence_probability(out)
    distribution = sorted(stats.distribution.items())
    report = {
        "n_a": args.n_a,
        "n_b": args.n_b,
        "distinguishable": bool(args.distinguishable),
        "theta": args.theta,
        "distribution": {str(k): v for k, v in distribution},
        "dn_minus": stats.std,
        "coincidence_probability": coincidence,
        "truncation_leakage": out.truncation_leakage,
    }
    if args.format == "structured":
        _emit(json.dumps(report, indent=2) + "\n", args.output)
    else:
        n_minus, probability = zip(*distribution)
        value = spectra.VALUE_FORMAT
        trailer = (f"dn_minus={stats.std:{value}}", f"coincidence={coincidence:{value}}")
        _emit(spectra.csv_table({"n_minus": n_minus, "probability": probability},
                                trailer=trailer), args.output)
    return EXIT_OK


def cmd_limits(args, config) -> int:
    if not 0 <= args.n_max <= MAX_N:
        raise ValidationError(f"n_max {args.n_max} outside the documented range 0..{MAX_N}")
    n = np.arange(args.n_max + 1)
    classical, twin = [0.0], [0.0]
    for k in range(1, args.n_max + 1):
        classical.append(fock.number_difference_stats(
            fock.apply_beam_splitter(fock.make_fock([k, 0], cutoff=k))
        ).std)
        twin.append(fock.number_difference_stats(
            fock.apply_beam_splitter(fock.make_fock([k, k], cutoff=2 * k))
        ).std)
    columns = {"n": n, "dn_minus_single": classical, "dn_minus_twin": twin,
               "sqrt_n_reference": np.sqrt(n), "n_reference": n}
    _emit(spectra.csv_table(columns), args.output)
    return EXIT_OK


def _grid_from_args(args, config) -> np.ndarray:
    if args.f_start is not None or args.f_stop is not None or args.f_step is not None:
        if None in (args.f_start, args.f_stop, args.f_step):
            raise ValidationError("--f-start, --f-stop, --f-step must be given together")
        return tracefit.grid_hz(args.f_start, args.f_stop, args.f_step)
    return tracefit.grid_hz(*config["cli.grid_hz"])


def _params_from_args(args) -> spectra.OpoParams:
    if args.transmissivity is not None or args.loss is not None:
        if None in (args.transmissivity, args.loss, args.fsr_hz):
            raise ValidationError("--t, --a and --d must be given together")
        return spectra.OpoParams(args.transmissivity, args.loss, args.fsr_hz, args.s0_dbm)
    if args.xi is None or args.delta_hz is None:
        raise ValidationError("give either (--xi, --delta-hz) or (--t, --a, --d)")
    return spectra.OpoParams.from_correlation(args.xi, args.delta_hz, args.s0_dbm)


def cmd_spectra(args, config) -> int:
    params = _params_from_args(args)
    nu = _grid_from_args(args, config)
    which = ["intensity", "phase"] if args.which == "both" else [args.which]
    columns = {"frequency_hz": nu}
    for name in which:
        curve = spectra.physical_frequency_curve(params, nu, name)
        columns[f"{name}_dbm"] = spectra.relative_to_dbm(curve.values, params.s0_dbm)
    columns["shot_noise_dbm"] = np.full(nu.size, params.s0_dbm)
    _emit(spectra.csv_table(columns), args.output)
    return EXIT_OK


def _fit_config_from(args, config) -> tracefit.FitConfig:
    f_min, f_max = config["trace_fit.fit_window_hz"]
    return tracefit.FitConfig(
        fit_window_hz=(f_min if args.f_min is None else args.f_min,
                       f_max if args.f_max is None else args.f_max),
        exclusions_hz=tuple(args.exclude) if args.exclude else config["trace_fit.exclusions_hz"],
        initial_guess=args.guess,
        weight_space=args.weight_space or config["trace_fit.weight_space"],
    )


def cmd_fit(args, config) -> int:
    trace = tracefit.load_trace(Path(args.trace))
    floor = tracefit.load_trace(Path(args.floor)) if args.floor else None
    fit_config = _fit_config_from(args, config)
    result = tracefit.fit_intensity_spectrum(trace, fit_config)
    report = tracefit.report_squeezing(trace, result, floor)

    if args.phase_grid:
        nu = tracefit.grid_hz(*args.phase_grid)
    else:
        nu = trace.frequencies_hz[trace.frequencies_hz > 0.0]
    phase_curve = tracefit.predict_phase_spectrum(result, nu)

    prefix = Path(args.output_prefix)
    prefix.parent.mkdir(parents=True, exist_ok=True)
    Path(f"{prefix}.fit.txt").write_text(result.to_key_value(), encoding="utf-8")
    Path(f"{prefix}.fit.json").write_text(json.dumps(result.record(report), indent=2) + "\n",
                                          encoding="utf-8")
    Path(f"{prefix}.phase_prediction.csv").write_text(phase_curve.to_csv(), encoding="utf-8")

    lines = [
        f"s0_dbm={result.s0_dbm:.6g}",
        f"xi={result.xi:.6g}",
        f"delta_hz={result.delta_hz:.6g}",
        f"rms_residual_db={result.rms_residual_db:.6g}",
        f"points_used={result.points_used}",
        f"squeezing_raw_db={report.raw_db if report.raw_db is not None else 'complete correlation at dc'}",
    ]
    if report.corrected_db is not None:
        lines.append(f"squeezing_corrected_db={report.corrected_db:.6g}")
    sys.stdout.write("\n".join(str(s) for s in lines) + "\n")
    return EXIT_OK


def cmd_uncertainty(args, config) -> int:
    u = np.array(args.u_grid) if args.u_grid else np.linspace(0.1, 5.0, 50)
    if not (np.isfinite(u) & (u > 0.0)).all():
        raise ValidationError("normalized frequencies must be positive and finite")
    s_x = spectra.intensity_diff_spectrum(u, args.xi)
    s_p = spectra.phase_diff_spectrum(u, args.xi)
    columns = {"u": u, "s_intensity": s_x, "s_phase": s_p,
               "product": spectra.uncertainty_product(u, args.xi),
               "excess_over_1": spectra.uncertainty_excess(u, args.xi)}
    _emit(spectra.csv_table(columns), args.output)
    return EXIT_OK


def cmd_synth(args, config) -> int:
    params = _params_from_args(args)
    nu = _grid_from_args(args, config)
    trace = tracefit.synth_trace(params, args.which, nu, noise_db=args.noise_db,
                                 seed=args.seed, rbw_hz=args.rbw_hz, label=args.label)
    _emit(tracefit.trace_to_csv(trace), args.output)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser wiring
# ---------------------------------------------------------------------------


def _add_model_params(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--xi", type=float, help="correlation coefficient in (0, 1]")
    parser.add_argument("--delta-hz", type=float, help="cavity FWHM in Hz")
    parser.add_argument("--s0-dbm", type=float, required=True, help="shot-noise level in dBm")
    parser.add_argument("--t", dest="transmissivity", type=float, help="output-coupler transmissivity")
    parser.add_argument("--a", dest="loss", type=float, help="single-pass intensity loss")
    parser.add_argument("--d", dest="fsr_hz", type=float, help="free spectral range in Hz")


def _add_grid(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--f-start", type=float, help="grid start (Hz)")
    parser.add_argument("--f-stop", type=float, help="grid stop (Hz)")
    parser.add_argument("--f-step", type=float, help="grid step (Hz)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="twinbeam", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--config", help="file of 'key = value' lines overriding the defaults")
    sub = parser.add_subparsers(dest="command", required=True)

    p_hom = sub.add_parser("hom", help="two-photon interference demo")
    p_hom.add_argument("--n-a", type=int, default=1)
    p_hom.add_argument("--n-b", type=int, default=1)
    p_hom.add_argument("--distinguishable", action="store_true",
                       help="give the second beam a different frequency tag")
    p_hom.add_argument("--theta", type=float, default=np.pi / 8,
                       help="wave-plate angle in radians (pi/8 acts as a balanced splitter)")
    p_hom.add_argument("--format", choices=("csv", "structured"), default="structured")
    p_hom.add_argument("--output")
    p_hom.set_defaults(func=cmd_hom)

    p_lim = sub.add_parser("limits", help="scaling table for |N,0> and |N,N> inputs")
    p_lim.add_argument("--n-max", type=int, default=8)
    p_lim.add_argument("--output")
    p_lim.set_defaults(func=cmd_limits)

    p_spec = sub.add_parser("spectra", help="model curves on a frequency grid")
    _add_model_params(p_spec)
    _add_grid(p_spec)
    p_spec.add_argument("--which", choices=("intensity", "phase", "flat", "both"), default="both")
    p_spec.add_argument("--output")
    p_spec.set_defaults(func=cmd_spectra)

    p_fit = sub.add_parser("fit", help="fit a trace and predict the phase spectrum")
    p_fit.add_argument("--trace", required=True, help="intensity-difference trace CSV")
    p_fit.add_argument("--floor", help="detection noise-floor trace CSV; it feeds only the "
                       "detection-corrected squeezing, (S0, xi, delta) are fitted to the raw trace")
    p_fit.add_argument("--f-min", type=float, help="fit window lower edge (Hz)")
    p_fit.add_argument("--f-max", type=float, help="fit window upper edge (Hz)")
    p_fit.add_argument("--exclude", action="append", metavar="LO:HI", type=_band,
                       help="exclusion band in Hz, repeatable")
    p_fit.add_argument("--guess", type=_numbers(",", 3, "s0_dbm,xi,delta_hz"),
                       help="initial guess s0_dbm,xi,delta_hz; s0_dbm is not used, since "
                            "S0 is solved in closed form at every (xi, delta)")
    p_fit.add_argument("--weight-space", choices=("db", "linear"))
    p_fit.add_argument("--phase-grid", metavar="START,STOP,STEP", type=_grid,
                       help="grid for the predicted phase curve (Hz)")
    p_fit.add_argument("--output-prefix", default="twinbeam_fit")
    p_fit.set_defaults(func=cmd_fit)

    p_unc = sub.add_parser("uncertainty", help="uncertainty-product table")
    p_unc.add_argument("--xi", type=float, required=True)
    p_unc.add_argument("--u-grid", type=_numbers(",", None, "comma-separated numbers"),
                       help="comma-separated normalized frequencies")
    p_unc.add_argument("--output")
    p_unc.set_defaults(func=cmd_uncertainty)

    p_syn = sub.add_parser("synth", help="generate a synthetic trace CSV")
    _add_model_params(p_syn)
    _add_grid(p_syn)
    p_syn.add_argument("--which", choices=("intensity", "phase", "flat"), default="intensity")
    p_syn.add_argument("--noise-db", type=float, default=0.0)
    p_syn.add_argument("--seed", type=int, default=0)
    p_syn.add_argument("--rbw-hz", type=float, default=30e3)
    p_syn.add_argument("--label", default="")
    p_syn.add_argument("--output")
    p_syn.set_defaults(func=cmd_synth)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = load_config(args.config)
        return args.func(args, config)
    except (TraceParseError, OSError, UnicodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except FitConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE
    except TwinbeamError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
