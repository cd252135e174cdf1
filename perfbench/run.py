"""Benchmark of bmcouple: four closed-loop batch Monte Carlo workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload ensemble --seed 1 --seconds 10 --trace 0

The script imports bmcouple from the checkout's ``src`` directory, sets the
workload up several times (``setup_s`` is the median), then runs whole passes
of the workload (at least one; another only while it can end within
``--seconds``) and checks every output.  The end-to-end times are scaled: a
pass's wall time is rescaled by a calibration kernel timed about twice a
second during the pass, so that it reads as seconds on the reference host and
does not follow the drift of a shared host's speed (see meter.py).  The raw
times are printed beside them.  With ``--trace 1`` it follows the untraced
passes with one traced pass and reports per-layer metrics instead of
end-to-end ones.
The last line of standard output is the JSON result; the full report and
the spans are written under ``.perfbench-out`` in the checkout.
"""

from __future__ import annotations

import os

# The library parallelises with its own thread pool; keep BLAS from adding
# threads of its own, so the process runs at most two compute threads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import contextlib
import ctypes
import gzip
import hashlib
import importlib
import json
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import types
from dataclasses import dataclass, field
from pathlib import Path

import numpy

import layers
import meter as metering
import tracer as tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"
SETUP_REPEATS = 9
MODULES = ("couplings", "drivers", "spaces", "simulate", "verify", "acceptance", "cli", "errors")


class SourceMissing(RuntimeError):
    pass


@dataclass
class Tally:
    """Paths attempted and lost, over every pass of a run."""

    attempted: int = 0
    failed: int = 0
    faults: list = field(default_factory=list)  # calls that raised a bmcouple error
    problems: list = field(default_factory=list)  # outputs that failed a check


@dataclass
class PassResult:
    wall_s: float  # raw
    scaled_s: float
    path_steps: int
    calls: dict  # label -> (raw seconds, scaled seconds, path-steps completed)


def import_bmcouple() -> types.SimpleNamespace:
    """Fresh import of bmcouple from this checkout's sources."""
    for name in [n for n in sys.modules if n == "bmcouple" or n.startswith("bmcouple.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    pkg = importlib.import_module("bmcouple")
    if SRC.resolve() not in Path(pkg.__file__).resolve().parents:
        raise SourceMissing(f"bmcouple imported from {pkg.__file__}, not from {SRC}")
    bm = types.SimpleNamespace(**{m: importlib.import_module(f"bmcouple.{m}") for m in MODULES})
    bm.faults = tuple(
        v
        for v in vars(bm.errors).values()
        if isinstance(v, type) and issubclass(v, Exception) and v.__module__ == bm.errors.__name__
    )
    return bm


def trim_heap() -> None:
    """Give the allocator's free memory back to the system (glibc only).

    Run between calls, so that each call starts from the memory live at that
    point: otherwise peak RSS depends on which malloc arenas the earlier
    calls' pool threads happened to leave free memory in, and lands on one
    of several values 15% apart.
    """
    trim = getattr(ctypes.CDLL(None), "malloc_trim", None)
    if trim is not None:
        trim.argtypes = [ctypes.c_size_t]
        trim.restype = ctypes.c_int
        trim(0)


def run_pass(bm, calls, tally: Tally, pass_index: int, tracer=None, meter=None) -> PassResult:
    """Run every call once, in order; only the calls themselves are timed.

    With a meter the calls are timed raw and scaled by the calibrations the
    meter takes around and inside them; without one, both figures are the
    raw wall time.
    """
    wall = 0.0
    steps = 0
    per_call = {}
    pass_cals = len(meter.calibrations) if meter else 0
    for call in calls:
        tally.attempted += call.n_paths
        block = tracer.span("call." + call.label) if tracer else contextlib.nullcontext()
        fault = None
        if meter:
            call_cals = len(meter.calibrations)
            meter.begin()
        start = time.perf_counter()
        try:
            with block:
                out = call.run()
        except bm.faults as exc:
            fault = exc
        finally:
            elapsed = time.perf_counter() - start
            elapsed_scaled = elapsed
            if meter:
                elapsed = meter.end()
                elapsed_scaled = metering.scale(elapsed, meter.calibrations[call_cals:], meter.threads)
        wall += elapsed
        done = 0
        if fault is not None:
            tally.failed += call.n_paths
            tally.faults.append(
                {"pass": pass_index, "row": call.label, "error": type(fault).__name__,
                 "paths_lost": call.n_paths, "message": str(fault)}
            )
        elif problems := call.check(out):
            tally.failed += call.n_paths
            tally.problems.append({"pass": pass_index, "row": call.label, "problems": problems})
        else:
            done = call.path_steps(out)
        steps += done
        out = None  # so that trim_heap can free it
        trim_heap()
        per_call[call.label] = (elapsed, elapsed_scaled, done)
    scaled = metering.scale(wall, meter.calibrations[pass_cals:], meter.threads) if meter else wall
    return PassResult(wall, scaled, steps, per_call)


def environment(seed: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": git_commit(),
        "src_sha256": source_digest(),
        "seed": seed,
        "machine": platform.machine(),
    }


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git (None outside a repository)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "bmcouple").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def declared_metrics() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {kind: {m["name"]: m["unit"] for m in spec[kind]} for kind in ("end_to_end", "per_layer")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "bmcouple" / "__init__.py").is_file():
        print(f"perfbench: no bmcouple package under {SRC}", file=sys.stderr)
        return 2
    declared = declared_metrics()
    OUT_DIR.mkdir(exist_ok=True)
    tmp_dir = tempfile.mkdtemp(dir=OUT_DIR)
    try:
        return _run(args, declared, tmp_dir)
    except SourceMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(tmp_dir, ignore_errors=True)


def _run(args, declared, tmp_dir) -> int:
    workload = workloads.WORKLOADS[args.workload]
    calibrate = metering.Calibration(1)
    setup_times = []
    setup_cals = [calibrate()]
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        bm = import_bmcouple()
        calls = workload.build(bm, args.seed, tmp_dir)
        setup_times.append(time.perf_counter() - start)
        setup_cals.append(calibrate())
    setup_s = metering.scale(statistics.median(setup_times), setup_cals, 1)

    tally = Tally()
    passes = []
    meter = metering.Meter(workload.threads)
    start = time.perf_counter()
    with meter.checkpoints_at(workload.checkpoint_sites(bm)):
        while True:
            pass_start = time.perf_counter()
            passes.append(run_pass(bm, calls, tally, len(passes), meter=meter))
            if len(passes) == 1:
                # Later passes reuse memory the first one left to the allocator,
                # so the peak of one pass is what the workload itself needs.
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            now = time.perf_counter()
            if 2 * now - pass_start - start > args.seconds:  # the next pass would end too late
                break
    wall_s = statistics.median(p.scaled_s for p in passes)
    steps_per_s = statistics.median(p.path_steps / p.scaled_s for p in passes)

    env = environment(args.seed)
    report = {
        "workload": args.workload,
        "environment": env,
        "passes": [
            {"wall_s": p.wall_s, "scaled_s": p.scaled_s, "path_steps": p.path_steps, "calls": p.calls}
            for p in passes
        ],
        "setup_s_samples": setup_times,
        "setup_calibrations_s": setup_cals,
        "calibrations_s": meter.calibrations,
    }
    if args.trace:
        metrics, unit_of = trace_metrics(bm, calls, tally, passes, report, args), declared["per_layer"]
    else:
        metrics = {
            "setup_s": setup_s,
            "wall_s": wall_s,
            "path_steps_per_s": steps_per_s,
            "peak_rss_mb": peak_rss_mb,
        }
        unit_of = declared["end_to_end"]
    if metrics.keys() != unit_of.keys():
        raise RuntimeError(f"metrics {sorted(metrics.keys() ^ unit_of.keys())} differ from BENCHMARK.json")

    fail_frac = tally.failed / tally.attempted
    report.update(attempted=tally.attempted, failed=tally.failed, fail_frac=fail_frac,
                  faults=tally.faults, problems=tally.problems, metrics=metrics)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"report-{tag}.json").write_text(json.dumps(report, indent=1, default=str) + "\n")

    print(f"environment {json.dumps(env)}")
    for p_index, p in enumerate(passes):
        for label, (seconds, scaled, steps) in p.calls.items():
            print(f"pass {p_index} {label:40s} {seconds:9.3f} s raw {scaled:9.3f} s scaled {steps:12d} path-steps")
    print(f"{'raw wall_s':40s} {statistics.median(p.wall_s for p in passes):.6g} s")
    print(f"{'raw setup_s':40s} {statistics.median(setup_times):.6g} s")
    print(f"{'calibration':40s} {statistics.fmean(meter.calibrations):.6g} s mean of {len(meter.calibrations)}")
    for fault in tally.faults:
        print(f"fault pass {fault['pass']} {fault['row']}: {fault['error']}, {fault['paths_lost']} paths lost")
    for problem in tally.problems:
        print(f"FAILED CHECK pass {problem['pass']} {problem['row']}: {'; '.join(problem['problems'])}")
    print(f"{'fail_frac':40s} {fail_frac:.6g} ratio ({tally.failed} of {tally.attempted} paths)")
    for name, value in metrics.items():
        print(f"{name:40s} {value:.6g} {unit_of[name]}")
    result = {
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit_of[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def trace_metrics(bm, calls, tally, passes, report, args) -> dict:
    """One traced pass after the untraced ones; per-layer metrics and overhead."""
    untraced_wall = statistics.median(p.wall_s for p in passes)
    metrics = {}
    for row in workloads.ENSEMBLE_ROWS:
        label = workloads.ensemble_label(row[0], row[2])
        rates = [p.calls[label][2] / p.calls[label][1] for p in passes if label in p.calls]
        metrics[f"run_paths.{label}.path_steps_per_s"] = statistics.median(rates) if rates else 0.0
    tracer = tracing.Tracer()
    report["unpatched"] = layers.install(tracer)
    try:
        traced = run_pass(bm, calls, tally, len(passes), tracer)
    finally:
        tracer.uninstall()
    metrics.update(layers.layer_metrics(tracer.spans))
    metrics["trace.untraced_wall_s"] = untraced_wall
    metrics["trace.traced_wall_s"] = traced.wall_s
    metrics["trace.overhead_s"] = traced.wall_s - untraced_wall
    metrics["trace.spans"] = len(tracer.spans)
    report["traced_pass"] = {"wall_s": traced.wall_s, "calls": traced.calls}
    tag = f"{args.workload}-seed{args.seed}"
    with gzip.open(OUT_DIR / f"spans-{tag}.json.gz", "wt", compresslevel=1) as handle:
        json.dump({"fields": list(tracing.Span._fields), "spans": tracer.spans}, handle)
    return metrics


if __name__ == "__main__":
    sys.exit(main())
