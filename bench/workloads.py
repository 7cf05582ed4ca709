"""The five workloads: seeded inputs, one fixed cycle of operations each,
and a warm-up call of every entry point on its smallest input.

Inputs come from this file's own numpy code, never from
``twinbeam.synth_trace``. Every operation calls the program through a
module attribute (``fock.apply_beam_splitter``, ``cli.main``, ...), so the
wrappers that ``tracing.py`` installs on those names see the call.

Seeds change the drawn parameters and the order of a cycle, never its
make-up: every run of a workload attempts whole cycles of the same
operations, and the operations that fail today fail on inputs that do not
depend on the seed.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks
from twinbeam import cli, fock, quadratures, tracefit
from twinbeam.modes import ModeLabel, Polarization, Port

#: The CLI's default grid (defaults.cfg ``cli.grid_hz``): 317 points.
DEFAULT_GRID_HZ = (0.5e6, 10.0e6, 30e3)

#: Parameter ranges of the seeded traces. The fitted xi stays at least ten
#: standard errors inside (0, 1) here, so no seed puts the optimum on the
#: xi = 1 boundary where the fit stalls; that fault has its own fixed input.
XI_RANGE = (0.3, 0.85)
DELTA_RANGE_HZ = (2.5e6, 4.5e6)
S0_RANGE_DBM = (-85.0, -70.0)
FLOOR_BELOW_S0_DB = (10.0, 16.0)


@dataclass
class Op:
    """One operation: ``run`` is timed, ``check`` runs outside the timing.

    ``fault`` names the program fault that makes the operation fail today;
    such failures are expected and counted, any other makes the run wrong.
    """

    kind: str
    run: Callable[[], object]
    check: Callable[[object], None]
    fault: str = ""


def grid(start, stop, step) -> np.ndarray:
    count = int(math.floor((stop - start) / step + 1e-9)) + 1
    return start + step * np.arange(count)


def draw_model(rng) -> tuple[float, float, float]:
    """(s0_dbm, xi, delta_hz)."""
    return (float(rng.uniform(*S0_RANGE_DBM)), float(rng.uniform(*XI_RANGE)),
            float(rng.uniform(*DELTA_RANGE_HZ)))


def model_flags(params) -> list[str]:
    s0, xi, delta = params
    return ["--xi", repr(xi), "--delta-hz", repr(delta), "--s0-dbm", repr(s0)]


def noisy_trace(rng, nu, params, noise_db, floor: bool):
    """Intensity-difference trace in dBm, optionally over a detection floor
    (added in linear power), with Gaussian dB noise. Returns (y, floor_db)."""
    s0, xi, delta = params
    mw = checks.dbm_to_mw(checks.intensity_dbm(nu, s0, xi, delta))
    floor_db = None
    if floor:
        floor_db = s0 - rng.uniform(*FLOOR_BELOW_S0_DB) + (
            rng.normal(0.0, 0.05, nu.size) if noise_db else np.zeros(nu.size))
        mw = mw + checks.dbm_to_mw(floor_db)
    y = 10.0 * np.log10(mw)
    if noise_db:
        y = y + rng.normal(0.0, noise_db, nu.size)
    return y, floor_db


def write_trace(path: Path, nu, p_dbm) -> np.ndarray:
    """Write a trace CSV and return the powers as the program will read them."""
    np.savetxt(path, np.column_stack([nu, p_dbm]), fmt=("%.10g", "%.12g"), delimiter=",",
               header="frequency_hz,power_dbm", comments="")
    return np.loadtxt(path, delimiter=",", skiprows=1)[:, 1]


# ---------------------------------------------------------------------------
# CLI invocations
# ---------------------------------------------------------------------------


@dataclass
class CliResult:
    returncode: int
    stdout: str
    maxrss_kb: int = 0


def cli_in_process(argv) -> CliResult:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return CliResult(rc, buf.getvalue())


def cli_subprocess(argv, workdir: Path, env: dict) -> CliResult:
    """``python -m twinbeam.cli`` in a fresh interpreter; the child's peak
    RSS comes from wait4, so set-up probes do not leak into it."""
    out_path = workdir / "cli.stdout"
    with open(out_path, "w+b") as out:
        proc = subprocess.Popen([sys.executable, "-m", "twinbeam.cli", *argv],
                                stdout=out, stderr=subprocess.DEVNULL, cwd=workdir, env=env)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        proc.returncode = os.waitstatus_to_exitcode(status)
    return CliResult(proc.returncode, out_path.read_text(encoding="utf-8"), usage.ru_maxrss)


def require_ok(result: CliResult) -> None:
    checks.require(result.returncode == 0, f"exit code {result.returncode}")


def check_fit_outputs(prefix: Path, ref: checks.FitReference, nu_trace, floor_mean_mw=None):
    payload = json.loads(Path(f"{prefix}.fit.json").read_text(encoding="utf-8"))
    params = (payload["s0_dbm"], payload["xi"], payload["delta_hz"])
    checks.check_fit(params, ref)
    checks.check_phase_csv(f"{prefix}.phase_prediction.csv", nu_trace, params)
    checks.check_squeezing(payload["squeezing_raw_db"], payload["squeezing_corrected_db"],
                           payload["squeezing_bandwidth_hz"], params, floor_mean_mw)


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


class CliCold:
    """A fresh ``python -m twinbeam.cli`` per operation (in-process under
    tracing): interpreter start, import, config and argparse dominate."""

    name = "cli_cold"
    UNCERTAINTY_XI = 1.0
    UNCERTAINTY_U = (1e-4, 1e-3, 0.125, 1.0)

    def __init__(self, seed: int, workdir: Path, in_process: bool, env: dict):
        rng = np.random.default_rng(seed)
        self.workdir = workdir
        if in_process:
            self.call = cli_in_process
        else:
            self.call = lambda argv: cli_subprocess(argv, workdir, env)
        self.nu_default = grid(*DEFAULT_GRID_HZ)
        self.spectra_params = draw_model(rng)
        self.synth_params = draw_model(rng)
        fit_params = draw_model(rng)
        self.nu_fit = grid(0.5e6, 10e6, 3e3)
        y, _ = noisy_trace(rng, self.nu_fit, fit_params, 0.05, floor=False)
        self.trace_path = workdir / "fit_trace.csv"
        y_read = write_trace(self.trace_path, self.nu_fit, y)
        self.fit_ref = checks.reference_fit(self.nu_fit, y_read, "db", fit_params)
        self.order = rng.permutation(7)

    def cycle(self) -> list[Op]:
        u_grid = ",".join(repr(u) for u in self.UNCERTAINTY_U)
        prefix = self.workdir / "fit_out"
        ops = [
            Op("hom", lambda: self.call(["hom"]),
               lambda r: (require_ok(r), checks.check_hom_json(r.stdout, False))),
            Op("hom_distinguishable", lambda: self.call(["hom", "--distinguishable"]),
               lambda r: (require_ok(r), checks.check_hom_json(r.stdout, True))),
            Op("limits", lambda: self.call(["limits", "--n-max", "10"]),
               lambda r: (require_ok(r), checks.check_limits_csv(r.stdout, 10))),
            Op("spectra", lambda: self.call(["spectra", *model_flags(self.spectra_params)]),
               lambda r: (require_ok(r), checks.check_spectra_csv(
                   r.stdout, self.nu_default, *self.spectra_params))),
            Op("synth", lambda: self.call(["synth", *model_flags(self.synth_params)]),
               lambda r: (require_ok(r), checks.check_model_csv(
                   r.stdout, self.nu_default, *self.synth_params))),
            Op("uncertainty",
               lambda: self.call(["uncertainty", "--xi", repr(self.UNCERTAINTY_XI),
                                  "--u-grid", u_grid]),
               lambda r: (require_ok(r), checks.check_uncertainty_csv(
                   r.stdout, self.UNCERTAINTY_U, self.UNCERTAINTY_XI)),
               fault="spectra.intensity_diff_spectrum cancels at small u: product < 1 at xi = 1"),
            Op("fit", lambda: self.call(["fit", "--trace", str(self.trace_path),
                                         "--output-prefix", str(prefix)]),
               lambda r: (require_ok(r), check_fit_outputs(prefix, self.fit_ref, self.nu_fit))),
        ]
        return [ops[i] for i in self.order]

    @staticmethod
    def warm_up(workdir: Path) -> Callable[[], None]:
        nu = grid(2.1e6, 3.5e6, 50e3)
        trace = workdir / "warm_trace.csv"
        write_trace(trace, nu, checks.intensity_dbm(nu, -80.0, 0.5, 3e6))
        small = ["--f-start", "1e6", "--f-stop", "2e6", "--f-step", "0.5e6"]
        argvs = [
            ["hom", "--output", str(workdir / "warm_hom.json")],
            ["hom", "--distinguishable", "--output", str(workdir / "warm_hom.json")],
            ["limits", "--n-max", "1", "--output", str(workdir / "warm_limits.csv")],
            ["spectra", *model_flags((-80.0, 0.5, 3e6)), *small,
             "--output", str(workdir / "warm_spectra.csv")],
            ["synth", *model_flags((-80.0, 0.5, 3e6)), *small,
             "--output", str(workdir / "warm_synth.csv")],
            ["uncertainty", "--xi", "0.5", "--u-grid", "1", "--output",
             str(workdir / "warm_unc.csv")],
            ["fit", "--trace", str(trace), "--output-prefix", str(workdir / "warm_fit")],
        ]
        return lambda: [cli_in_process(argv) for argv in argvs]


class TraceFiles:
    """``fit --trace --floor`` and ``synth --output`` on ~1e5-point files,
    in-process and warm: per-line parsing and CSV writing dominate."""

    name = "trace_files"
    STEP_HZ = 100.0  # 0.5-10 MHz: 95 001 points
    NOISE_DB = 0.05

    def __init__(self, seed: int, workdir: Path, in_process: bool, env: dict):
        rng = np.random.default_rng(seed)
        self.workdir = workdir
        self.nu = grid(0.5e6, 10e6, self.STEP_HZ)
        params = draw_model(rng)
        y, floor_db = noisy_trace(rng, self.nu, params, self.NOISE_DB, floor=True)
        self.trace_path, self.floor_path = workdir / "trace.csv", workdir / "floor.csv"
        y_read = write_trace(self.trace_path, self.nu, y)
        floor_read = write_trace(self.floor_path, self.nu, floor_db)
        self.floor_mean_mw = float(np.mean(checks.dbm_to_mw(floor_read)))
        # The CLI uses --floor for the corrected squeezing only; it fits the
        # raw trace.
        self.fit_ref = checks.reference_fit(self.nu, y_read, "db", params)
        self.synth_params = draw_model(rng)
        self.synth_seed = int(rng.integers(2**31))

    def cycle(self) -> list[Op]:
        prefix = self.workdir / "fit_out"
        synth_path = self.workdir / "synth.csv"
        fit = Op("fit", lambda: cli_in_process(
                     ["fit", "--trace", str(self.trace_path), "--floor", str(self.floor_path),
                      "--output-prefix", str(prefix)]),
                 lambda r: (require_ok(r), check_fit_outputs(
                     prefix, self.fit_ref, self.nu, self.floor_mean_mw)))
        synth = Op("synth", lambda: cli_in_process(
                       ["synth", *model_flags(self.synth_params), "--noise-db", repr(self.NOISE_DB),
                        "--seed", str(self.synth_seed), "--f-start", "0.5e6", "--f-stop", "10e6",
                        "--f-step", repr(self.STEP_HZ), "--output", str(synth_path)]),
                   lambda r: (require_ok(r), checks.check_noisy_model_csv(
                       synth_path.read_text(encoding="utf-8"), self.nu, *self.synth_params,
                       self.NOISE_DB)))
        # Two fits per synth: the median then always lands on a fit.
        return [fit, synth, fit]

    @staticmethod
    def warm_up(workdir: Path) -> Callable[[], None]:
        nu = grid(2.1e6, 3.5e6, 50e3)
        trace, floor = workdir / "warm_trace.csv", workdir / "warm_floor.csv"
        write_trace(trace, nu, checks.intensity_dbm(nu, -80.0, 0.5, 3e6) + 0.01)
        write_trace(floor, nu, np.full(nu.size, -95.0))
        fit = ["fit", "--trace", str(trace), "--floor", str(floor),
               "--output-prefix", str(workdir / "warm_fit")]
        synth = ["synth", *model_flags((-80.0, 0.5, 3e6)), "--f-start", "1e6", "--f-stop", "2e6",
                 "--f-step", "0.5e6", "--noise-db", "0.05", "--output",
                 str(workdir / "warm_synth.csv")]
        return lambda: (cli_in_process(fit), cli_in_process(synth))


class FitBatch:
    """In-memory fits of a few hundred to a few thousand points, then the
    phase prediction and the squeezing report: no file I/O at all."""

    name = "fit_batch"
    STEPS_HZ = (30e3, 10e3, 3e3)
    # (noise_db, weight_space): noise-free traces only in dB space, see README.
    NOISE_SPACES = ((0.0, "db"), (0.02, "db"), (0.02, "linear"), (0.05, "db"), (0.05, "linear"))
    # ``twinbeam synth --xi 0.9026 --delta-hz 1.9e6 --s0-dbm -80 --noise-db 0.2
    # --seed 129``: the bounded optimum sits on xi = 1 and the fit stalls.
    STALL = dict(params=(-80.0, 0.9026, 1.9e6), noise_db=0.2, seed=129)

    DRAWS = 3  # traces per combination; more draws average out iteration counts

    def __init__(self, seed: int, workdir: Path, in_process: bool, env: dict):
        rng = np.random.default_rng(seed)
        self.cases = []
        for step in self.STEPS_HZ:
            nu = grid(0.5e6, 10e6, step)
            for (noise, space), with_floor, _ in itertools.product(
                    self.NOISE_SPACES, (False, True), range(self.DRAWS)):
                params = draw_model(rng)
                y, floor_db = noisy_trace(rng, nu, params, noise, with_floor)
                kind = f"{nu.size}pt_{noise}dB_{space}{'_floor' if with_floor else ''}"
                self.cases.append(self._case(kind, nu, y, params, space, floor_db, noise == 0.0))
        self.order = rng.permutation(len(self.cases) + 1)
        s0, xi, delta = self.STALL["params"]
        nu = grid(*DEFAULT_GRID_HZ)
        y = checks.intensity_dbm(nu, s0, xi, delta) + np.random.default_rng(
            self.STALL["seed"]).normal(0.0, self.STALL["noise_db"], nu.size)
        self.stall = self._case("xi_boundary_stall", nu, y, (s0, xi, delta), "db", None, False)

    @staticmethod
    def _case(kind, nu, y, params, space, floor_db, noise_free):
        floor = None if floor_db is None else tracefit.SpectrumTrace(nu, floor_db)
        return dict(
            kind=kind, trace=tracefit.SpectrumTrace(nu, y), floor=floor,
            config=tracefit.FitConfig.standard(weight_space=space, noise_floor=floor),
            ref=checks.reference_fit(nu, y, space, params, noise_free=noise_free,
                                     floor=None if floor_db is None else (nu, floor_db)),
            floor_mean_mw=None if floor_db is None else float(np.mean(checks.dbm_to_mw(floor_db))),
        )

    @staticmethod
    def fit_and_report(case):
        result = tracefit.fit_intensity_spectrum(case["trace"], case["config"])
        nu = case["trace"].frequencies_hz
        curve = tracefit.predict_phase_spectrum(result, nu[nu > 0.0])
        return result, curve, tracefit.report_squeezing(case["trace"], result, case["floor"])

    @staticmethod
    def check(case, out):
        result, curve, report = out
        params = (result.s0_dbm, result.xi, result.delta_hz)
        checks.check_fit(params, case["ref"])
        nu = case["trace"].frequencies_hz
        checks.check_phase_curve(curve.frequencies_hz, curve.values, nu[nu > 0.0], params)
        checks.check_squeezing(report.raw_db, report.corrected_db, report.bandwidth_hz, params,
                               case["floor_mean_mw"])

    def cycle(self) -> list[Op]:
        ops = [Op(c["kind"], lambda c=c: self.fit_and_report(c),
                  lambda out, c=c: self.check(c, out))
               for c in self.cases]
        ops.append(Op(self.stall["kind"], lambda: self.fit_and_report(self.stall),
                      lambda out: self.check(self.stall, out),
                      fault="tracefit.fit_intensity_spectrum stalls when the optimum sits on "
                            "xi = 1 (FitConvergenceError after 200 iterations)"))
        return [ops[i] for i in self.order]

    @staticmethod
    def warm_up(workdir: Path) -> Callable[[], None]:
        nu = grid(2.1e6, 3.5e6, 50e3)
        trace = tracefit.SpectrumTrace(nu, checks.intensity_dbm(nu, -80.0, 0.5, 3e6) + 0.01)
        floor = tracefit.SpectrumTrace(nu, np.full(nu.size, -95.0))
        cases = [dict(trace=trace, floor=f, config=tracefit.FitConfig.standard(
                     weight_space=space, noise_floor=f))
                 for space in ("db", "linear") for f in (None, floor)]
        return lambda: [FitBatch.fit_and_report(c) for c in cases]


def _split_and_read(state, convention):
    out = fock.apply_beam_splitter(state, convention=convention)
    return out, fock.number_difference_stats(out), fock.coincidence_probability(out)


class FockTwin:
    """|N,N> (cutoff 2N) and |N,0> (cutoff N) through the balanced splitter
    in both conventions, N up to 30: the dense pair unitary dominates."""

    name = "fock_twin"
    # N = 22 is left out: its |N,N> norm error (1.2e-11 to 1.5e-11) sits on
    # the 1e-11 tolerance, so whether it fails says nothing steady.
    LADDER = (1, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 24, 26, 28, 30)
    FAULT_FROM_N = 24

    def __init__(self, seed: int, workdir: Path, in_process: bool, env: dict):
        self.order = np.random.default_rng(seed).permutation(3 * len(self.LADDER))

    @staticmethod
    def _twin_check(n, out):
        state, stats, coincidence = out
        checks.check_state_norm(state.amplitudes)
        checks.check_twin_fock(n, stats.distribution, stats.variance, coincidence)

    @staticmethod
    def _single_check(n, out):
        state, stats, coincidence = out
        checks.check_state_norm(state.amplitudes)
        checks.check_single_port_fock(n, stats.distribution, stats.variance, coincidence)

    def cycle(self) -> list[Op]:
        """|N,N> in both conventions, |N,0> in one, alternating along the
        ladder: 45 operations, an odd count, so the median latency always
        falls inside one kind's samples rather than between two kinds."""
        convs = (fock.SYMMETRIC_I, fock.ROTATION)
        ops = []
        for i, n in enumerate(self.LADDER):
            fault = ("kernels.pair_unitary loses unitarity: |N,N> norm off by > 1e-11"
                     if n >= self.FAULT_FROM_N else "")
            for conv in convs:
                ops.append(Op(f"twin_{n}_{conv}",
                              lambda n=n, c=conv: _split_and_read(fock.make_fock([n, n], 2 * n), c),
                              lambda out, n=n: self._twin_check(n, out), fault))
            ops.append(Op(f"single_{n}_{convs[i % 2]}",
                          lambda n=n, c=convs[i % 2]: _split_and_read(fock.make_fock([n, 0], n), c),
                          lambda out, n=n: self._single_check(n, out)))
        return [ops[i] for i in self.order]

    @staticmethod
    def warm_up(workdir: Path) -> Callable[[], None]:
        return lambda: [_split_and_read(fock.make_fock(occ, cutoff), conv)
                        for occ, cutoff in (([1, 1], 2), ([1, 0], 1))
                        for conv in (fock.SYMMETRIC_I, fock.ROTATION)]


class FockMultimode:
    """Small-cutoff scenarios: HOM with 1-3 photons per port (4-mode states
    when the tags differ), joint port laws, the linearized cross-check on
    coherent pairs, and twin-mode density matrices."""

    name = "fock_multimode"
    PHOTONS = (1, 2, 3)
    JOINT = ((1, 1, False), (2, 3, False), (2, 2, True))
    CROSS_CHECK_CUTOFF = 16
    MIXTURE_CUTOFF = 8  # twin sectors n <= 4

    def __init__(self, seed: int, workdir: Path, in_process: bool, env: dict):
        rng = np.random.default_rng(seed)
        convs = (fock.SYMMETRIC_I, fock.ROTATION)
        self.hom = [(na, nb, dist, convs[rng.integers(2)])
                    for na in self.PHOTONS for nb in self.PHOTONS for dist in (False, True)]
        self.joint = [(na, nb, dist, convs[rng.integers(2)]) for na, nb, dist in self.JOINT]
        self.alphas = [complex(r * np.exp(1j * phi)) for r, phi in
                       zip(rng.uniform(0.5, 1.0, 2), rng.uniform(0.0, 2 * np.pi, 2))]
        self.mixtures = [(rng.dirichlet(np.ones(self.MIXTURE_CUTOFF // 2 + 1)), convs[i])
                         for i in range(2)]
        self.oracle = {(na, nb, dist, conv): (checks.distinguishable_joint(na, nb) if dist
                                              else checks.pair_joint(na, nb, conv))
                       for na, nb, dist, conv in self.hom + self.joint}
        self.order = rng.permutation(len(self.hom) + len(self.joint) + 4)

    @staticmethod
    def fock_input(na, nb, dist):
        modes = (ModeLabel(Polarization.H, 0, Port.A), ModeLabel(Polarization.H, int(dist), Port.B))
        return fock.make_fock([na, nb], na + nb, modes=modes)

    def _hom_check(self, key, out):
        state, stats, coincidence = out
        joint = self.oracle[key]
        law = checks.difference_law(joint)
        checks.check_state_norm(state.amplitudes)
        checks.check_distribution(stats.distribution, law)
        mean, var = checks.moments(law)
        checks.require_close("mean", stats.mean, mean, checks.FOCK_TOL)
        checks.require_close("Var", stats.variance, var, checks.FOCK_TOL * max(var, 1.0))
        checks.require_close("coincidence", coincidence, checks.coincidence_of(joint),
                             checks.FOCK_TOL)

    def _cross_check(self, alpha, res):
        tail = checks.poisson_tail(2.0 * abs(alpha) ** 2, self.CROSS_CHECK_CUTOFF)
        checks.check_coherent_cross_check(alpha, res.exact, res.linearized,
                                          max(res.leakage, tail), res.cutoff)

    def _mixture(self, weights, conv):
        rho = fock.make_twin_mode_mixture(np.diag(weights), self.MIXTURE_CUTOFF)
        return _split_and_read(rho, conv)

    @staticmethod
    def _mixture_check(weights, out):
        state, stats, coincidence = out
        checks.check_state_norm(state.amplitudes)
        checks.check_twin_mixture(weights, stats.variance, stats.mean, coincidence)

    def cycle(self) -> list[Op]:
        ops = []
        for key in self.hom:
            na, nb, dist, conv = key
            ops.append(Op(f"hom_{na}{nb}_{'dist' if dist else 'indist'}",
                          lambda k=key: _split_and_read(self.fock_input(*k[:3]), k[3]),
                          lambda out, k=key: self._hom_check(k, out)))
        for key in self.joint:
            na, nb, dist, conv = key
            ops.append(Op(f"joint_{na}{nb}_{'dist' if dist else 'indist'}",
                          lambda k=key: fock.joint_port_distribution(fock.apply_beam_splitter(
                              self.fock_input(*k[:3]), convention=k[3])),
                          lambda out, k=key: checks.check_distribution(out, self.oracle[k])))
        for alpha in self.alphas:
            ops.append(Op("cross_check",
                          lambda a=alpha: quadratures.cross_check_against_fock(
                              a, cutoff=self.CROSS_CHECK_CUTOFF),
                          lambda res, a=alpha: self._cross_check(a, res)))
        for weights, conv in self.mixtures:
            ops.append(Op("twin_mixture", lambda w=weights, c=conv: self._mixture(w, c),
                          lambda out, w=weights: self._mixture_check(w, out)))
        return [ops[i] for i in self.order]

    @staticmethod
    def warm_up(workdir: Path) -> Callable[[], None]:
        def calls():
            for dist in (False, True):
                state = FockMultimode.fock_input(1, 1, dist)
                _split_and_read(state, fock.SYMMETRIC_I)
                fock.joint_port_distribution(fock.apply_beam_splitter(state))
            quadratures.cross_check_against_fock(0.1, cutoff=6)
            _split_and_read(fock.make_twin_mode_mixture(np.diag([0.5, 0.5]), 2), fock.ROTATION)
        return calls


WORKLOADS = {w.name: w for w in (CliCold, TraceFiles, FitBatch, FockTwin, FockMultimode)}
