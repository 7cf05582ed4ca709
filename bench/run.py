"""Benchmark of twinbeam: five workloads, end-to-end metrics from an
untraced run and per-layer metrics from a traced one.

    python3 bench/run.py --workload fit_batch --seed 1 --seconds 15 --trace 0

Run from the root of a twinbeam checkout; the package is imported from
``src/``. Progress goes to stderr; the last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``. A dump
with per-kind latencies (and, traced, spans and a per-operation breakdown)
is written under ``bench/out/``. See bench/README.md.
"""

import os

# One BLAS thread, set before numpy loads, here and in every child process.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"

#: Fresh interpreters per run that time import plus warm-up; setup_s is
#: their median.
SETUP_PROBES = 5

#: name -> (unit, better); the end_to_end list of BENCHMARK.json.
E2E_METRICS = {
    "setup_s": ("s", "lower"),
    "ops_per_s": ("ops/s", "higher"),
    "op_p50_ms": ("ms", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}


def probe(workload: str, workdir: Path, env: dict) -> dict:
    done = subprocess.run([sys.executable, str(BENCH / "probe.py"), workload, str(workdir)],
                          env=env, capture_output=True, text=True, timeout=120)
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_cycles(cycle, seconds: float, tracer, checks) -> list[dict]:
    """Whole cycles until ``seconds`` of wall time have passed. Each
    operation is timed alone; its check runs between operations."""
    records = []
    deadline = time.perf_counter() + seconds
    while True:
        for op in cycle:
            error = None
            start = time.perf_counter()
            try:
                out = op.run() if tracer is None else tracer.run_op(op.kind, op.run)
            except Exception as exc:  # an operation that raises counts as failed
                out, error = None, exc
            latency = time.perf_counter() - start
            if error is None:
                try:
                    op.check(out)
                except checks.CheckFailed as exc:
                    error = exc
            records.append(dict(kind=op.kind, latency=latency, fault=op.fault,
                                error=None if error is None else f"{type(error).__name__}: {error}",
                                maxrss_kb=getattr(out, "maxrss_kb", 0)))
        if time.perf_counter() >= deadline:
            return records


def per_kind_p50_ms(records) -> dict[str, float]:
    kinds: dict[str, list[float]] = {}
    for r in records:
        kinds.setdefault(r["kind"], []).append(r["latency"])
    return {k: 1e3 * statistics.median(v) for k, v in sorted(kinds.items())}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "twinbeam" / "cli.py").is_file():
        print(f"error: no twinbeam sources at {SRC}; run from a twinbeam checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH", "")) if p))

    import checks
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    warnings.simplefilter("ignore")  # the fit warns when xi sits on its boundary
    kind = workloads.WORKLOADS[args.workload]
    traced = bool(args.trace)
    workdir = BENCH / "_run" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        probes = [probe(args.workload, workdir / f"probe{i}", env) for i in range(SETUP_PROBES)]
        work = kind(args.seed, workdir, traced, env)
        if traced or kind is not workloads.CliCold:
            kind.warm_up(workdir)()
        tracer = tracing.Tracer() if traced else None
        if tracer:
            tracer.install()
        try:
            records = run_cycles(work.cycle(), args.seconds, tracer, checks)
        finally:
            if tracer:
                tracer.uninstall()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = [r for r in records if r["error"]]
    wrong = [r for r in failed if not r["fault"]]
    first_failures: dict[str, dict] = {}
    for r in failed:
        first_failures.setdefault(r["kind"], r)
    for r in first_failures.values():
        print(f"{'WRONG' if not r['fault'] else 'failed (known fault)'} {r['kind']}: "
              f"{r['error']}", file=sys.stderr)

    dump = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "per_kind_p50_ms": per_kind_p50_ms(records)}
    if traced:
        values = tracer.layer_metrics(len(records), probes)
        units = tracing.LAYER_METRICS
        dump["breakdown"] = tracer.breakdown()
        dump["spans"] = tracer.spans
    else:
        latencies = [r["latency"] for r in records]
        if kind is workloads.CliCold:
            peak_kb = max(r["maxrss_kb"] for r in records)
        else:
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        values = {
            "setup_s": statistics.median(p["import_s"] + p["warm_up_s"] for p in probes),
            "ops_per_s": len(records) / sum(latencies),
            "op_p50_ms": 1e3 * statistics.median(latencies),
            "peak_rss_mb": peak_kb / 1024.0,
        }
        units = E2E_METRICS
    out_dir = BENCH / "out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(dump, default=str) + "\n", encoding="utf-8")

    print(json.dumps({
        "correct": not wrong,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {name: {"value": values[name], "unit": units[name][0]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
