"""The benchmark's four closed-loop workloads.

A workload function turns the benchmark seed into a list of calls.  Each call
runs one entry point of the library (the timed part) and then checks its
output (untimed).  Calls run one after another: the next starts only when the
previous one has returned.  Every call looks its entry point up on the module
at call time, so the traced run sees the tracer's wrappers.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import shutil
import tempfile
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from layers import strategy_classes

LAW_TOL = 0.02  # the verify tolerance on sup_t |ensemble mean - law|


@dataclass
class Call:
    label: str
    n_paths: int  # paths the call attempts; all count as failed if it raises or fails a check
    run: Callable[[], object]
    check: Callable[[object], list[str]]  # one message per failed check
    path_steps: Callable[[object], int]  # path-steps a successful call completed


def _law_error(law, record) -> float:
    observed = record.rho if law.observable == "geodesic" else record.chord
    return float(np.max(np.abs(np.mean(observed, axis=1) - law.evaluate(record.times))))


# -- ensemble ------------------------------------------------------------------

ENSEMBLE_PATHS = 4096
ENSEMBLE_H = 2e-3
ENSEMBLE_STRIDE = 25
ENSEMBLE_THREADS = 2
CONTRACT_PATHS = 128

# (row id, strategy, space, strategy params, patch eps, rho0, horizon, law)
ENSEMBLE_ROWS = (
    ("fixed-s2", "fixed-s2", "sphere:2", {}, None, 1.0, 0.5, "fixed"),
    ("rotation-k0", "rotation", "sphere:2", {"k": 0.0}, None, 1.0, 0.5, "exponential-rate"),
    ("rotation-k2", "rotation", "sphere:3", {"k": 2.0}, None, 1.0, 0.5, "exponential-rate"),
    ("rotation-alpha-pi", "rotation", "hyperbolic:3", {"alpha_override": math.pi}, None, 1.0, 0.5, "perverse"),
    ("so3-flow", "so3-flow", "sphere:2", {}, None, 1.0, 0.5, "fixed"),
    ("extrinsic-contract-s2", "extrinsic-contract-s2", "sphere:2", {}, None, 1.0, 0.5, "chordal-contract"),
    ("extrinsic-expand-s2", "extrinsic-expand-s2", "sphere:2", {}, None, 1.0, 0.5, "chordal-expand"),
    ("mirror-s2", "mirror-s2", "sphere:2", {}, None, 1.0, 0.5, None),
    ("independent", "independent", "sphere:2", {}, None, 1.0, 0.5, None),
    ("translation", "translation", "flat:2", {}, None, 1.0, 0.5, "fixed"),
    # Expanding rate patched near the diagonal: every path starts inside the
    # patch (rho0 < eps/4) and switches to the coupled regime.
    ("rotation-patched", "rotation", "sphere:2", {"k": -1.0}, 0.2, 0.04, 0.5, None),
    # Feasible at rho0 but not along the whole law, so the run raises
    # InfeasibleRateError part way; its paths show up as failed.
    ("rotation-feasibility-edge", "rotation", "sphere:2", {"k": 1.046}, None, 1.0, 1.0, "exponential-rate"),
)


def ensemble_label(row_id: str, space_text: str) -> str:
    return f"{row_id}.{space_text.replace(':', '')}"


def _build_law(verify, kind, space, rho0, params, x0, y0):
    if kind is None:
        return None
    return {
        "fixed": lambda: verify.law_fixed(rho0),
        "exponential-rate": lambda: verify.law_exponential_rate(rho0, params["k"]),
        "perverse": lambda: verify.law_perverse(space, rho0),
        "chordal-contract": lambda: verify.law_chordal_contract(float(np.linalg.norm(y0 - x0))),
        "chordal-expand": lambda: verify.law_chordal_expand(float(np.linalg.norm(y0 + x0))),
    }[kind]()


def _same_bits(a, b) -> bool:
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def ensemble(bm, seed: int, tmp_dir: str) -> list[Call]:
    calls = []
    for row_id, strategy_id, space_text, params, eps, rho0, t_final, law_kind in ENSEMBLE_ROWS:
        space = bm.spaces.parse_space(space_text)
        strategy = bm.couplings.make_strategy(strategy_id, space, eps=eps, **params)
        x0, y0 = space.base_point(), space.point_at_distance(rho0)
        law = _build_law(bm.verify, law_kind, space, rho0, params, x0, y0)
        n_steps = round(t_final / ENSEMBLE_H)

        def run(strategy=strategy, x0=x0, y0=y0, t_final=t_final, n_paths=ENSEMBLE_PATHS, threads=ENSEMBLE_THREADS):
            return bm.simulate.run_paths(
                strategy,
                x0,
                y0,
                h=ENSEMBLE_H,
                t_final=t_final,
                n_paths=n_paths,
                seed=seed,
                record_stride=ENSEMBLE_STRIDE,
                snapshot_times=(t_final,),
                threads=threads,
            )

        contract_checked = []

        def check(record, run=run, space=space, law=law, contract_checked=contract_checked):
            problems = []
            if law is not None:
                err = _law_error(law, record)
                if not err < LAW_TOL:
                    problems.append(f"sup |mean - law| = {err:.4g} >= {LAW_TOL}")
            if not record.snapshots:
                problems.append("no end snapshot")
            for xs, ys in record.snapshots.values():
                for points in (xs, ys):
                    try:
                        space.check_point(points)
                    except bm.errors.DomainError as exc:
                        problems.append(f"snapshot point off the space: {exc}")
            if not contract_checked:
                contract_checked.append(True)
                problems += _seed_contract(bm, run, record)
            return problems

        calls.append(
            Call(
                label=ensemble_label(row_id, space_text),
                n_paths=ENSEMBLE_PATHS,
                run=run,
                check=check,
                path_steps=lambda record, n=n_steps: ENSEMBLE_PATHS * n,
            )
        )
    return calls


def _seed_contract(bm, run, record) -> list[str]:
    """The first paths run alone on one thread must match the batch bitwise."""
    try:
        alone = run(n_paths=CONTRACT_PATHS, threads=1)
    except bm.faults as exc:
        return [f"seed contract: {CONTRACT_PATHS} paths alone raised {type(exc).__name__}"]
    n = CONTRACT_PATHS
    same = all(_same_bits(getattr(alone, f), getattr(record, f)[:, :n]) for f in ("rho", "chord", "regime"))
    same = same and alone.snapshots.keys() == record.snapshots.keys()
    for key, (xs, ys) in alone.snapshots.items():
        bx, by = record.snapshots[key] if key in record.snapshots else (None, None)
        same = same and bx is not None and _same_bits(xs, bx[:n]) and _same_bits(ys, by[:n])
    return [] if same else [f"seed contract: first {n} paths differ from a {n}-path run at threads=1"]


# -- ladder ----------------------------------------------------------------------

# The committed distance-law suite: (strategy, law, horizon) per row, its step
# ladder and its batch size.  The check refuses a suite that ran anything else.
LADDER_ROWS = (
    ("extrinsic-contract-s2", "chordal-contract", 3.0),
    ("extrinsic-expand-s2", "chordal-expand", 1.0),
    ("fixed-s2", "fixed", 1.0),
    ("rotation", "fixed", 1.0),
    ("rotation", "sphere-synchronous", 3.0),
    ("rotation", "flat-perverse", 1.0),
    ("rotation", "hyperbolic-perverse", 1.0),
)
LADDER_H = (4e-3, 2e-3, 1e-3, 5e-4)
LADDER_PATHS = 200


def ladder(bm, seed: int, tmp_dir: str) -> list[Call]:
    # The suite runs at its committed defaults, seed included, as
    # `bmcouple verify distance-laws` does: its order-fit gate has no measured
    # false-alarm rate yet, so other seeds could fail a correct build.
    def check(suite):
        reports = suite["reports"]
        ran = [(r["strategy"], r["law"], tuple(r["h_ladder"]), r["n_paths"]) for r in reports]
        expected = [(s, law, LADDER_H, LADDER_PATHS) for s, law, _ in LADDER_ROWS]
        if ran != expected:
            return [f"suite ran {ran}, expected {expected}"]
        problems = [] if suite["pass"] else ["distance-law suite reports pass = false"]
        for r in reports:
            worst = max(r["sup_err"])
            if not worst < LAW_TOL:
                problems.append(f"{r['strategy']} vs {r['law']}: sup |mean - law| = {worst:.4g}")
        return problems

    steps = sum(LADDER_PATHS * round(t / h) for _, _, t in LADDER_ROWS for h in LADDER_H)
    return [
        Call(
            label="distance-law-suite",
            n_paths=LADDER_PATHS * len(LADDER_H) * len(LADDER_ROWS),
            run=lambda: bm.acceptance.distance_law_suite(),
            check=check,
            path_steps=lambda suite: steps,
        )
    ]


# -- stopped -------------------------------------------------------------------------

STOPPED_PATHS = 2000
STOPPED_ENSEMBLES = 3  # the demo stops one ensemble for the identity and one per gradient row


@contextlib.contextmanager
def counting_moves(classes):
    """Count the path rows handed to the ``move`` of every class given."""
    total = [0]
    originals = [(cls, cls.__dict__["move"]) for cls in classes]

    def counted(move):
        def wrapper(self, x, y, gp, *rest):
            total[0] += len(gp)
            return move(self, x, y, gp, *rest)

        return wrapper

    for cls, move in originals:
        cls.move = counted(move)
    try:
        yield total
    finally:
        for cls, move in originals:
            cls.move = move


def stopped(bm, seed: int, tmp_dir: str) -> list[Call]:
    # The demo runs at its committed seed: its martingale z-gate has no
    # measured false-alarm rate yet, and the stopping-time tail it draws sets
    # how long the loop runs.
    def run():
        with counting_moves(strategy_classes(bm.couplings)) as moved:
            report = bm.verify.max_principle_demo(0.8, 1, h=5e-4, n_paths=STOPPED_PATHS)
        return report, moved[0]

    return [
        Call(
            label="max-principle-demo",
            n_paths=STOPPED_PATHS * STOPPED_ENSEMBLES,
            run=run,
            check=lambda out: [] if out[0]["pass"] else [f"max-principle demo fails: z = {out[0]['martingale_z']:.3f}"],
            path_steps=lambda out: out[1],
        )
    ]


# -- cli-csv ----------------------------------------------------------------------------

CLI_PATHS = 1000
CLI_STEPS = 1000
CLI_THREADS = 2
CSV_HEADER = "t,rho,regime,path_id"


def _check_cli_output(out: str) -> list[str]:
    problems = []
    with open(os.path.join(out, "trajectories.csv")) as handle:
        header = handle.readline().rstrip("\n")
        values = np.loadtxt(handle, delimiter=",", ndmin=2)
    if header != CSV_HEADER:
        problems.append(f"csv header {header!r}")
    if values.shape != (CLI_PATHS * (CLI_STEPS + 1), 4):
        problems.append(f"csv holds {values.shape}, expected {CLI_PATHS * (CLI_STEPS + 1)} rows of 4")
    if not np.all(np.isfinite(values)):
        problems.append("csv holds non-finite values")
    with open(os.path.join(out, "summary.json")) as handle:
        sup_err = json.load(handle)["sup_err"]
    if not (len(sup_err) == 1 and sup_err[0] < LAW_TOL):
        problems.append(f"summary sup_err {sup_err}")
    return problems


def _digest(out: str) -> str:
    digest = hashlib.sha256()
    for name in ("trajectories.csv", "summary.json"):
        with open(os.path.join(out, name), "rb") as handle:
            digest.update(hashlib.file_digest(handle, "sha256").digest())
    return digest.hexdigest()


def cli_csv(bm, seed: int, tmp_dir: str) -> list[Call]:
    def run():
        out = tempfile.mkdtemp(dir=tmp_dir)
        argv = ["simulate", "--space", "sphere:2", "--strategy", "fixed-s2", "--rho0", "1.0"]
        argv += ["--h", "1e-3", "--T", "1", "--paths", str(CLI_PATHS), "--seed", str(seed)]
        argv += ["--threads", str(CLI_THREADS), "--law", "fixed", "--out", out]
        with contextlib.redirect_stdout(io.StringIO()):
            code = bm.cli.main(argv)
        return code, out

    verified = set()  # digests of outputs that passed the full check

    def check(result):
        # The same seed gives the same files, so an output identical to one
        # that passed the full check passes too; parsing the CSV again would
        # take as long as the run.
        code, out = result
        try:
            if code != 0:
                return [f"bmcouple simulate exited with {code}"]
            digest = _digest(out)
            if digest in verified:
                return []
            problems = _check_cli_output(out)
            if not problems:
                verified.add(digest)
            return problems
        except (OSError, KeyError, ValueError) as exc:
            return [f"unreadable output: {exc!r}"]
        finally:
            shutil.rmtree(out, ignore_errors=True)

    return [
        Call(
            label="simulate-fixed-s2.sphere2",
            n_paths=CLI_PATHS,
            run=run,
            check=check,
            path_steps=lambda result: CLI_PATHS * CLI_STEPS,
        )
    ]


class Workload(NamedTuple):
    build: Callable  # (bm, seed, tmp_dir) -> list[Call]
    threads: int  # threads that do most of the calls' work; the calibration runs on as many
    # bm -> (owner, attr) entry points the calls reach often, on the caller's
    # thread; the meter may calibrate at each (see meter.py).
    checkpoint_sites: Callable


WORKLOADS = {
    # Calls of about a second each: cuts between calls are enough.
    "ensemble": Workload(ensemble, ENSEMBLE_THREADS, lambda bm: []),
    # One call of half a minute; verify runs the suite's 28 ensembles one by one.
    "ladder": Workload(ladder, 1, lambda bm: [(bm.verify, "run_paths")]),
    # One long call; the stopped loop calls move once a step.
    "stopped": Workload(stopped, 1, lambda bm: [(cls, "move") for cls in strategy_classes(bm.couplings)]),
    # The simulation runs on two threads for about a third of the call, then
    # to_csv on the caller's thread for the rest.
    "cli-csv": Workload(cli_csv, 1, lambda bm: [(bm.simulate.TrajectoryRecord, "to_csv")]),
}
