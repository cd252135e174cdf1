"""Which bmcouple entry points the traced run times, and the per-layer metrics
derived from their spans.

Every ``..._s`` metric of a function is its self time (the span minus its
traced children), except ``simulate.run_paths_s``, which is inclusive.  Self
times add up over threads, so on the 2-thread workloads a layer's seconds
can exceed the wall time of the pass.
"""

from __future__ import annotations

import math
from collections import defaultdict

import numpy as np

from tracer import Tracer, no_counts, self_times

DRIVER_FUNCTIONS = ("stroock_step", "kendall_compose", "geodesic_walk_step")
SPACE_METHODS = (
    "distance",
    "metric_norm",
    "exp_tangent",
    "log_map",
    "parallel_transport",
    "frame_with_first",
    "reference_frame",
)
# Strategies the workloads run; broken-marginal is a negative control only.
STRATEGY_IDS = (
    "translation",
    "mirror-s2",
    "extrinsic-contract-s2",
    "extrinsic-expand-s2",
    "fixed-s2",
    "rotation",
    "so3-flow",
    "independent",
)

STEP = "couplings.step"
PATCHED_STEP = "couplings.patched_step"
MOVE = "couplings.move."
RUN_PATHS = "simulate.run_paths"
RUN_CHUNK = "simulate.run_chunk"


def batch_rows(array) -> int:
    """Number of points in a (..., ambient) array."""
    shape = getattr(array, "shape", None)
    return 1 if shape is None else math.prod(shape[:-1])


def _counts(rows=None, normals=None, other=None):
    """Counter built from functions of (args, kwargs, result)."""

    def counter(args, kwargs, result):
        return (
            rows(args, kwargs, result) if rows else 0,
            normals(args, kwargs, result) if normals else 0,
            other(args, kwargs, result) if other else 0,
        )

    return counter


def _step_normals(args, kwargs, result):
    noise = args[2]
    aux = noise.auxiliary
    return np.size(noise.primary) + (0 if aux is None else np.size(aux))


def _move_normals(args, kwargs, result):
    gp, ga = args[3], args[4]
    return np.size(gp) + (0 if ga is None else np.size(ga))


def _regime_switches(args, kwargs, result):
    return 0 if result is None else int(np.count_nonzero(result.regime != args[1].regime))


def strategy_classes(couplings) -> list[type]:
    """Coupling classes that define their own ``move``."""
    return [
        cls
        for cls in vars(couplings).values()
        if isinstance(cls, type) and issubclass(cls, couplings.CouplingStrategy) and "move" in cls.__dict__
    ]


def install(tracer: Tracer) -> list[str]:
    """Patch every traced entry point; returns the names that were not found."""
    from bmcouple import cli, couplings, drivers, simulate, spaces, verify

    missing = []

    def function(module, attr, name, counter=no_counts):
        fn = getattr(module, attr, None)
        if fn is None or tracer.patch_function(fn, name, counter) == 0:
            missing.append(f"{module.__name__}.{attr}")

    def method(cls, attr, name, counter=no_counts):
        if attr in cls.__dict__:
            tracer.patch_method(cls, attr, name, counter)
        else:
            missing.append(f"{cls.__name__}.{attr}")

    drawn = _counts(normals=lambda a, k, r: 0 if r is None else r.size)
    method(drivers.NoiseStream, "standard_normal", "drivers.noise", drawn)
    first_rows = {"stroock_step": 0, "kendall_compose": 2, "geodesic_walk_step": 1}
    for attr in DRIVER_FUNCTIONS:
        pos = first_rows[attr]
        function(drivers, attr, f"drivers.{attr}", _counts(rows=lambda a, k, r, pos=pos: batch_rows(a[pos])))
    for attr in SPACE_METHODS:
        method(spaces.ModelSpace, attr, f"spaces.{attr}", _counts(rows=lambda a, k, r: batch_rows(a[1])))

    move_counts = _counts(rows=lambda a, k, r: len(a[3]), normals=_move_normals)
    for cls in strategy_classes(couplings):
        method(cls, "move", lambda args: MOVE + args[0].strategy_id, move_counts)
    step_rows = lambda a, k, r: len(a[1].x)  # noqa: E731
    method(couplings.CouplingStrategy, "step", STEP, _counts(rows=step_rows, normals=_step_normals))
    method(
        couplings.PatchedCoupling,
        "step",
        PATCHED_STEP,
        _counts(rows=step_rows, normals=_step_normals, other=_regime_switches),
    )

    function(simulate, "run_paths", RUN_PATHS, _counts(rows=lambda a, k, r: k.get("n_paths", 0)))
    # Private, but it is the unit of work each pool thread runs: thread use
    # and the stepping loop's own time are measured on it.
    function(simulate, "_run_chunk", RUN_CHUNK, _counts(rows=lambda a, k, r: len(a[6])))
    method(
        simulate.TrajectoryRecord,
        "to_csv",
        "simulate.to_csv",
        _counts(other=lambda a, k, r: a[0].rho.size),
    )
    for attr in ("validate_law", "distance_law_check", "max_principle_demo"):
        function(verify, attr, f"verify.{attr}")
    function(cli, "main", "cli.main")
    return missing


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer metrics from the spans of one traced pass."""
    selfs = self_times(spans)
    by_id = {s.sid: s for s in spans}
    calls = defaultdict(int)
    own = defaultdict(float)
    rows = defaultdict(int)
    normals = defaultdict(int)
    other = defaultdict(int)
    handed = path_steps = 0
    chunk_time = chunk_capacity = 0.0
    chunks_of = defaultdict(int)
    for s in spans:
        calls[s.name] += 1
        own[s.name] += selfs[s.sid]
        rows[s.name] += s.rows
        normals[s.name] += s.normals
        other[s.name] += s.other
        if s.name == RUN_CHUNK:
            chunk_time += s.end - s.start
            chunks_of[s.parent] += 1
        # The outermost coupling call of a path-step: a step, or a move the
        # caller makes directly (the stopped loop of the max-principle demo).
        if s.name in (STEP, PATCHED_STEP) or (
            s.name.startswith(MOVE) and by_id.get(s.parent, s).name not in (STEP, PATCHED_STEP)
        ):
            handed += s.normals
            path_steps += s.rows
    run_paths_s = 0.0
    for s in spans:
        if s.name == RUN_PATHS:
            run_paths_s += s.end - s.start
            chunk_capacity += (s.end - s.start) * max(1, chunks_of[s.sid])

    def ratio(num, den):
        return num / den if den else 0.0

    move_names = [n for n in calls if n.startswith(MOVE)]
    drawn = normals["drivers.noise"]
    out = {
        "drivers.noise_s": own["drivers.noise"],
        "drivers.normals_drawn": drawn,
        "drivers.normals_per_s": ratio(drawn, own["drivers.noise"]),
        "drivers.noise_used_frac": ratio(handed, drawn),
    }
    for attr in DRIVER_FUNCTIONS:
        out[f"drivers.{attr}_s"] = own[f"drivers.{attr}"]
        out[f"drivers.{attr}_calls"] = calls[f"drivers.{attr}"]
    for attr in SPACE_METHODS:
        out[f"spaces.{attr}_s"] = own[f"spaces.{attr}"]
        out[f"spaces.{attr}_calls"] = calls[f"spaces.{attr}"]
    out["spaces.rows_per_call"] = ratio(
        sum(rows[f"spaces.{a}"] for a in SPACE_METHODS), sum(calls[f"spaces.{a}"] for a in SPACE_METHODS)
    )
    for sid in STRATEGY_IDS:
        out[f"couplings.move_self_s.{sid}"] = own[MOVE + sid]
    move_calls = sum(calls[n] for n in move_names)
    out["couplings.move_calls"] = move_calls
    out["couplings.rows_per_move"] = ratio(sum(rows[n] for n in move_names), move_calls)
    out["couplings.path_steps"] = path_steps
    out["couplings.step_self_s"] = own[STEP]
    out["couplings.patched_step_s"] = own[PATCHED_STEP]
    out["couplings.regime_switches"] = other[PATCHED_STEP]
    out["simulate.run_paths_s"] = run_paths_s
    out["simulate.loop_self_s"] = own[RUN_PATHS] + own[RUN_CHUNK]
    out["simulate.thread_busy_frac"] = ratio(chunk_time, chunk_capacity)
    out["simulate.to_csv_s"] = own["simulate.to_csv"]
    out["simulate.csv_rows"] = other["simulate.to_csv"]
    out["simulate.csv_rows_per_s"] = ratio(other["simulate.to_csv"], own["simulate.to_csv"])
    out["verify.validate_law_s"] = own["verify.validate_law"]
    out["verify.distance_law_check_self_s"] = own["verify.distance_law_check"]
    out["verify.max_principle_demo_self_s"] = own["verify.max_principle_demo"]
    out["cli.main_self_s"] = own["cli.main"]
    return out
