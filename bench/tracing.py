"""Spans around calls into the program's layers, for the traced run.

Each wrapper sits on the name through which callers reach a function:
``fock.pair_unitary`` is the global that ``fock`` itself calls,
``tracefit.load_trace`` the attribute that ``cli`` calls. Spans are kept in
memory as ``[name, op, parent, start, end, info]`` and reduced to per-layer
metrics when the run ends. A span's self time is its duration minus that of
its direct children.
"""

from __future__ import annotations

import importlib
import statistics
import time

# (module, attribute, span name, info(args, kwargs, result, exc) -> number)
TARGETS = (
    ("twinbeam.cli", "main", "cli.main", None),
    ("twinbeam.cli", "load_config", "cli.load_config", None),
    ("twinbeam.tracefit", "load_trace", "tracefit.load_trace",
     lambda a, k, r, e: 0 if r is None else len(r)),
    ("twinbeam.tracefit", "trace_to_csv", "tracefit.trace_to_csv",
     lambda a, k, r, e: 0 if r is None else len(r)),
    ("twinbeam.spectra", "SpectrumCurve.to_csv", "spectra.curve_to_csv",
     lambda a, k, r, e: 0 if r is None else len(r)),
    ("twinbeam.tracefit", "fit_intensity_spectrum", "tracefit.fit",
     lambda a, k, r, e: r.iterations if r is not None else (getattr(e, "iterations", 0) or 0)),
    ("twinbeam.tracefit", "subtract_noise_floor", "tracefit.subtract_noise_floor", None),
    ("twinbeam.tracefit", "predict_phase_spectrum", "tracefit.predict_phase", None),
    ("twinbeam.tracefit", "report_squeezing", "tracefit.report_squeezing", None),
    ("twinbeam.tracefit", "synth_trace", "tracefit.synth_trace", None),
    ("twinbeam.spectra", "physical_frequency_curve", "spectra.physical_frequency_curve", None),
    ("twinbeam.fock", "pair_unitary", "kernels.pair_unitary",
     lambda a, k, r, e: a[4] if len(a) > 4 else k["dim"]),
    ("twinbeam.fock", "port_stats", "kernels.port_stats", None),
    ("twinbeam.fock", "apply_beam_splitter", "fock.apply_beam_splitter",
     lambda a, k, r, e: 0 if r is None else r.amplitudes.size),
    ("twinbeam.fock", "apply_waveplate_polarizer", "fock.apply_waveplate_polarizer",
     lambda a, k, r, e: 0 if r is None else r.amplitudes.size),
    ("twinbeam.fock", "number_difference_stats", "fock.number_difference_stats",
     lambda a, k, r, e: id(a[0] if a else k["state"])),
    ("twinbeam.fock", "coincidence_probability", "fock.coincidence_probability",
     lambda a, k, r, e: id(a[0] if a else k["state"])),
    ("twinbeam.fock", "joint_port_distribution", "fock.joint_port_distribution", None),
    ("twinbeam.fock", "make_fock", "fock.state_build", None),
    ("twinbeam.fock", "make_twin_mode_mixture", "fock.state_build", None),
    ("twinbeam.fock", "make_coherent_pair", "fock.state_build", None),
    ("twinbeam.quadratures", "cross_check_against_fock", "quadratures.cross_check", None),
)

#: name -> (unit, better); the per_layer list of BENCHMARK.json.
LAYER_METRICS = {
    "cli.import_ms": ("ms", "lower"),
    "cli.numpy_import_ms": ("ms", "lower"),
    "cli.main_ms": ("ms", "lower"),
    "cli.load_config_ms": ("ms", "lower"),
    "tracefit.load_trace_ms": ("ms", "lower"),
    "tracefit.load_trace_rows_per_s": ("rows/s", "higher"),
    "tracefit.trace_to_csv_ms": ("ms", "lower"),
    "tracefit.trace_to_csv_mb_per_s": ("MB/s", "higher"),
    "spectra.curve_to_csv_ms": ("ms", "lower"),
    "spectra.curve_to_csv_mb_per_s": ("MB/s", "higher"),
    "tracefit.fit_ms": ("ms", "lower"),
    "tracefit.fit_iterations": ("count", "lower"),
    "tracefit.fit_ms_per_iteration": ("ms", "lower"),
    "tracefit.subtract_noise_floor_ms": ("ms", "lower"),
    "tracefit.predict_phase_ms": ("ms", "lower"),
    "tracefit.report_squeezing_ms": ("ms", "lower"),
    "tracefit.synth_trace_ms": ("ms", "lower"),
    "spectra.physical_frequency_curve_ms": ("ms", "lower"),
    "kernels.pair_unitary_ms": ("ms", "lower"),
    "kernels.pair_unitary_calls": ("count", "lower"),
    "kernels.pair_unitary_mb": ("MB", "lower"),
    "kernels.pair_unitary_max_mb": ("MB", "lower"),
    "kernels.port_stats_ms": ("ms", "lower"),
    "kernels.port_stats_calls_per_state": ("ratio", "lower"),
    "fock.apply_beam_splitter_self_ms": ("ms", "lower"),
    "fock.apply_waveplate_polarizer_self_ms": ("ms", "lower"),
    "fock.number_difference_stats_self_ms": ("ms", "lower"),
    "fock.coincidence_probability_self_ms": ("ms", "lower"),
    "fock.joint_port_distribution_ms": ("ms", "lower"),
    "fock.state_build_ms": ("ms", "lower"),
    "fock.amplitudes_per_s": ("amplitudes/s", "higher"),
    "quadratures.cross_check_self_ms": ("ms", "lower"),
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self.op = -1

    def wrap(self, name, fn, info=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            rec = [name, self.op, stack[-1] if stack else -1, 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(rec)
            result = exc = None
            rec[3] = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as error:
                exc = error
                raise
            finally:
                rec[4] = clock()
                stack.pop()
                if info is not None:
                    rec[5] = info(args, kwargs, result, exc)

        traced.__wrapped__ = fn
        return traced

    def run_op(self, kind: str, fn):
        """Run one operation under a root span named ``op:<kind>``."""
        self.op += 1
        return self.wrap(f"op:{kind}", fn)()

    def install(self) -> None:
        for module_name, attr, name, info in TARGETS:
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, leaf)
            self._saved.append((owner, leaf, original))
            setattr(owner, leaf, self.wrap(name, original, info))

    def uninstall(self) -> None:
        while self._saved:
            owner, leaf, original = self._saved.pop()
            setattr(owner, leaf, original)

    # -- reduction ----------------------------------------------------------

    def self_times(self) -> list[float]:
        own = [end - start for _, _, _, start, end, _ in self.spans]
        for _, _, parent, start, end, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def layer_metrics(self, n_ops: int, probes: list[dict]) -> dict[str, float]:
        own = self.self_times()
        by_name: dict[str, list[tuple[float, float, object, int]]] = {}
        for (name, op, _, start, end, info), self_s in zip(self.spans, own):
            by_name.setdefault(name, []).append((end - start, self_s, info, op))

        def rows(*names):
            return [row for n in names for row in by_name.get(n, ())]

        def mean_ms(*names, self_time=False):
            r = rows(*names)
            return 1e3 * statistics.fmean(x[1] if self_time else x[0] for x in r) if r else 0.0

        def rate(name, scale=1.0):
            r = rows(name)
            busy = sum(x[0] for x in r)
            return scale * sum(x[2] for x in r) / busy if busy > 0 else 0.0

        fits = rows("tracefit.fit")
        fit_iters = sum(x[2] for x in fits)
        unitaries = [16.0 * x[2] ** 4 / 1e6 for x in rows("kernels.pair_unitary")]
        states = {(x[3], x[2]) for x in rows("fock.number_difference_stats",
                                              "fock.coincidence_probability")}
        splits = rows("fock.apply_beam_splitter", "fock.apply_waveplate_polarizer")
        split_busy = sum(x[0] for x in splits)
        return {
            "cli.import_ms": 1e3 * statistics.median(p["import_s"] for p in probes),
            "cli.numpy_import_ms": 1e3 * statistics.median(p["numpy_import_s"] for p in probes),
            "cli.main_ms": mean_ms("cli.main"),
            "cli.load_config_ms": mean_ms("cli.load_config"),
            "tracefit.load_trace_ms": mean_ms("tracefit.load_trace"),
            "tracefit.load_trace_rows_per_s": rate("tracefit.load_trace"),
            "tracefit.trace_to_csv_ms": mean_ms("tracefit.trace_to_csv"),
            "tracefit.trace_to_csv_mb_per_s": rate("tracefit.trace_to_csv", 1e-6),
            "spectra.curve_to_csv_ms": mean_ms("spectra.curve_to_csv"),
            "spectra.curve_to_csv_mb_per_s": rate("spectra.curve_to_csv", 1e-6),
            "tracefit.fit_ms": mean_ms("tracefit.fit"),
            "tracefit.fit_iterations": fit_iters / len(fits) if fits else 0.0,
            "tracefit.fit_ms_per_iteration":
                1e3 * sum(x[0] for x in fits) / fit_iters if fit_iters else 0.0,
            "tracefit.subtract_noise_floor_ms": mean_ms("tracefit.subtract_noise_floor"),
            "tracefit.predict_phase_ms": mean_ms("tracefit.predict_phase"),
            "tracefit.report_squeezing_ms": mean_ms("tracefit.report_squeezing"),
            "tracefit.synth_trace_ms": mean_ms("tracefit.synth_trace"),
            "spectra.physical_frequency_curve_ms": mean_ms("spectra.physical_frequency_curve"),
            "kernels.pair_unitary_ms": mean_ms("kernels.pair_unitary"),
            "kernels.pair_unitary_calls": len(unitaries) / n_ops,
            "kernels.pair_unitary_mb": statistics.fmean(unitaries) if unitaries else 0.0,
            "kernels.pair_unitary_max_mb": max(unitaries, default=0.0),
            "kernels.port_stats_ms": mean_ms("kernels.port_stats"),
            "kernels.port_stats_calls_per_state":
                len(rows("kernels.port_stats")) / len(states) if states else 0.0,
            "fock.apply_beam_splitter_self_ms": mean_ms("fock.apply_beam_splitter", self_time=True),
            "fock.apply_waveplate_polarizer_self_ms":
                mean_ms("fock.apply_waveplate_polarizer", self_time=True),
            "fock.number_difference_stats_self_ms":
                mean_ms("fock.number_difference_stats", self_time=True),
            "fock.coincidence_probability_self_ms":
                mean_ms("fock.coincidence_probability", self_time=True),
            "fock.joint_port_distribution_ms": mean_ms("fock.joint_port_distribution"),
            "fock.state_build_ms": mean_ms("fock.state_build"),
            "fock.amplitudes_per_s": sum(x[2] for x in splits) / split_busy if split_busy else 0.0,
            "quadratures.cross_check_self_ms": mean_ms("quadratures.cross_check", self_time=True),
        }

    def breakdown(self) -> dict[str, dict]:
        """For each operation kind, the operation with the median traced
        latency and the self times of the layers along its calls."""
        own = self.self_times()
        roots = {}
        for index, (name, op, parent, start, end, _) in enumerate(self.spans):
            if parent < 0 and name.startswith("op:"):
                roots.setdefault(name[3:], []).append((end - start, op, index))
        layers_of: dict[int, dict[str, float]] = {}
        for (name, op, parent, *_), self_s in zip(self.spans, own):
            if parent >= 0:
                layer = layers_of.setdefault(op, {})
                layer[name] = layer.get(name, 0.0) + 1e3 * self_s
        out = {}
        for kind, ops in roots.items():
            ops.sort()
            latency, op, index = ops[(len(ops) - 1) // 2]
            out[kind] = {
                "traced_ms": 1e3 * latency,
                "root_self_ms": 1e3 * own[index],
                "layers_self_ms": layers_of.get(op, {}),
            }
        return out
