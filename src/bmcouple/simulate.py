"""Path-ensemble simulation driver shared by the verification suites and the CLI.

Every path owns a counter-based noise stream keyed by (seed, path id), so the
same configuration reproduces the same trajectories bitwise regardless of how
paths are chunked over worker threads.
"""

from __future__ import annotations

import mmap
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .couplings import CouplingState, CouplingStrategy
from .drivers import NoiseStream, StepNoise, stream_keys
from .errors import DomainError

NOISE_WINDOW = 256  # max steps of noise pre-generated per path chunk
NOISE_BUDGET = 25_000_000  # max pre-generated doubles per chunk (~200 MB)
RECORD_BUDGET = 1 << 14  # max buffered doubles of recorded y - x per chunk (128 KB)
# a second thread pays for itself only on batches this large: the per-step
# numpy calls of smaller ones are too short to overlap under the interpreter lock
PATHS_PER_THREAD = 2048


@dataclass
class TrajectoryRecord:
    """Sampled output of a simulation run.

    ``rho`` and ``chord`` have shape (n_samples, n_paths); rho is derived
    from the chord |y - x| (``ModelSpace.chord_distance``) once per flush of
    the recorder.  ``regime`` flags use 0 for coupled and 1 for independent
    motion.  ``snapshots`` maps the step time ``idx * h`` nearest each
    requested time (not the requested time itself) to the full (X, Y)
    ensembles for marginal statistics.
    """

    times: np.ndarray
    rho: np.ndarray
    chord: np.ndarray
    regime: np.ndarray
    h: float
    snapshots: dict = field(default_factory=dict)

    @property
    def n_paths(self) -> int:
        return self.rho.shape[1]

    def to_csv(self, handle) -> None:
        """Write the long-format CSV to the open text file ``handle``.

        One parts list is reused for every path: the ``"t,"`` prefixes, built
        once, the repr of each rho (repr of Python floats round-trips the
        IEEE values) and a ``",regime,path_id"`` line end looked up from the
        row's regime fill it, and each path's chunk is written with one join.
        """
        handle.write("t,rho,regime,path_id\n")
        times = [f"{t!r}," for t in self.times.tolist()]
        parts = [""] * (3 * len(times))
        parts[0::3] = times
        for j in range(self.n_paths):
            ends = {0: f",0,{j}\n", 1: f",1,{j}\n"}
            parts[1::3] = map(repr, self.rho[:, j].tolist())
            parts[2::3] = map(ends.__getitem__, self.regime[:, j].tolist())
            handle.write("".join(parts))


def _chunk_ranges(n_paths: int, n_chunks: int):
    size = (n_paths + n_chunks - 1) // n_chunks
    return [(lo, min(lo + size, n_paths)) for lo in range(0, n_paths, size)]


def _take(state: CouplingState, rows) -> CouplingState:
    """The sub-ensemble of the given rows (cache values carry a path axis)."""
    cache = {key: value[rows] for key, value in state.cache.items()}
    return CouplingState(state.x[rows], state.y[rows], state.regime[rows], cache)


def _put(state: CouplingState, rows, part: CouplingState, sel=slice(None)) -> None:
    """Write the points and regimes of ``part``'s rows ``sel`` into ``state``
    at ``rows``: records and snapshots read nothing else."""
    state.x[rows] = part.x[sel]
    state.y[rows] = part.y[sel]
    state.regime[rows] = part.regime[sel]


def _crossing_fraction(f_old, f_new):
    return np.where(f_new < 0.0, f_old / np.maximum(f_old - f_new, 1e-300), 1.0)


def _stop_at_crossing(space, stop, old: CouplingState, new: CouplingState, f_old):
    """Mask of the paths that left the domain stop >= 0 during this step, and
    the stop values (of X, of Y) at its end; ``f_old`` holds those at its start.

    Both points of such a path move back to the linear sub-step crossing, at
    the earlier of the two crossing fractions, projected onto the space.
    """
    f_new = (stop(new.x), stop(new.y))
    crossed = (f_new[0] < 0.0) | (f_new[1] < 0.0)
    if crossed.any():
        hit = np.flatnonzero(crossed)
        theta = np.minimum(
            _crossing_fraction(f_old[0][hit], f_new[0][hit]),
            _crossing_fraction(f_old[1][hit], f_new[1][hit]),
        )[:, None]
        new.x[hit] = space.project_point(old.x[hit] + theta * (new.x[hit] - old.x[hit]))
        new.y[hit] = space.project_point(old.y[hit] + theta * (new.y[hit] - old.y[hit]))
    return crossed, f_new


def _run_chunk(strategy, x0, y0, h, n_steps, seed, path_ids, record_idx, snapshot_idx, stop=None):
    """Step the paths ``path_ids`` of one run (one worker thread's share).

    The chunk builds one ``NoiseStream`` and moves it from path to path: at
    a path's first window it is re-keyed to (seed, path id), and a path with
    a later window keeps the stream's state until that window.  So each path
    draws the stream it would draw alone, whatever the chunking.

    While every path runs, the chunk's state is stepped whole.  Once paths
    stop, a working state holds only the running rows, in order: a step
    that stops paths writes their stop pairs into the chunk's state and
    drops them from the working state with one gather.  The working rows are
    the next window's noise rows, and the working state is written back
    only at record and snapshot steps.  The stop function is called once
    per point and step; its values at a step's end serve the next step.
    """
    n = len(path_ids)
    state = strategy.initial_state(x0, y0, n)
    if stop is not None:
        f = (stop(state.x), stop(state.y))
        if (f[0] < 0.0).any() or (f[1] < 0.0).any():
            raise DomainError("start points must lie inside the stop domain")
    p_dim = strategy.primary_dim
    a_dim = strategy.aux_dim
    total = p_dim + a_dim
    keys = stream_keys(seed, path_ids)
    stream = NoiseStream(seed, path_ids[0])
    positions = [None] * n  # each path's stream state between its windows
    work, rows = state, np.arange(n)  # the running rows of the state, and their rows in it

    space = strategy.space
    n_rec = len(record_idx)
    rho = np.empty((n_rec, n))
    chord = np.empty((n_rec, n))
    regime = np.empty((n_rec, n), dtype=np.int8)
    snapshots = {}
    width = state.x.shape[-1]
    diffs = np.empty((max(1, min(RECORD_BUDGET // (n * width), n_rec)), n, width))
    rec_pos = flushed = 0

    def flush():
        nonlocal flushed
        if rec_pos > flushed:
            part = slice(flushed, rec_pos)
            chord[part] = space.metric_norm(diffs[: rec_pos - flushed])
            rho[part] = space.chord_distance(chord[part])
            flushed = rec_pos

    def due(step_index):
        return (rec_pos < n_rec and record_idx[rec_pos] == step_index) or step_index in snapshot_idx

    def record(step_index, st):
        nonlocal rec_pos
        if rec_pos < n_rec and record_idx[rec_pos] == step_index:
            np.subtract(st.y, st.x, out=diffs[rec_pos - flushed])
            regime[rec_pos] = st.regime
            rec_pos += 1
            if rec_pos - flushed == len(diffs):
                flush()
        if step_index in snapshot_idx:
            snapshots[step_index] = (st.x.copy(), st.y.copy())

    record(0, state)
    step = 0
    max_window = max(1, min(NOISE_WINDOW, NOISE_BUDGET // max(1, n * total), n_steps))
    # on pages of its own, given back to the system when the chunk ends: on the heap, a
    # later run's buffer could miss the hole this one left and add to the peak memory.
    # On Linux they are private, with the huge-page advice numpy gives large arrays.
    linux = hasattr(mmap, "MADV_HUGEPAGE")
    mem = mmap.mmap(-1, n * max_window * total * 8, **({"flags": mmap.MAP_PRIVATE} if linux else {}))
    if linux:
        mem.madvise(mmap.MADV_HUGEPAGE)
    buffer = np.frombuffer(mem).reshape(n, max_window, total)
    while step < n_steps and rows.size:
        # noise only for the paths still running at the window start, filled
        # in place into the front of the chunk's one buffer by the chunk's
        # one stream, moved from path to path
        window = min(max_window, n_steps - step)
        later = step + window < n_steps
        block = buffer[: rows.size, :window]
        for row, pid in enumerate(rows):
            if step == 0:
                stream.rekey(keys[pid])
            else:
                stream.state = positions[pid]
            stream.standard_normal(out=block[row])
            if later:
                positions[pid] = stream.state
        sel = None  # the block rows of the working rows, once paths stop in the window
        for i in range(window):
            drawn = block[:, i] if sel is None else block[sel, i]
            noise = StepNoise(primary=drawn[:, :p_dim], auxiliary=drawn[:, p_dim:] if a_dim else None)
            new = strategy.step(work, noise, h)
            ended = None
            if stop is not None:
                ended, f = _stop_at_crossing(space, stop, work, new, f)
            if work is state:
                state = new
            work = new
            step += 1
            if ended is not None and ended.any():
                hit, keep = np.flatnonzero(ended), np.flatnonzero(~ended)
                if work is not state:
                    _put(state, rows[hit], work, hit)
                work, rows, sel = _take(work, keep), rows[keep], keep if sel is None else sel[keep]
                f = (f[0][keep], f[1][keep])
            if work is not state and due(step):
                _put(state, rows, work)
            record(step, state)
            if not rows.size:
                break
        flush()
    # once every path has stopped, later samples repeat the stop points
    for index in range(step + 1, n_steps + 1):
        record(index, state)
    flush()
    return rho, chord, regime, snapshots


def run_paths(
    strategy: CouplingStrategy,
    x0,
    y0,
    *,
    h: float,
    t_final: float,
    n_paths: int,
    seed: int,
    record_stride: int = 1,
    snapshot_times=(),
    threads: int | None = None,
    stop=None,
) -> TrajectoryRecord:
    """Simulate n_paths independent trajectories of the coupled pair.

    Samples are recorded every ``record_stride`` steps (always including t=0
    and the final time); ``snapshot_times`` asks for full point ensembles at
    the nearest step times, which key ``snapshots``; a time whose nearest
    step is past the last one is rejected.  ``stop`` maps an (n, ambient)
    point array to one value per row, negative outside the domain: a path
    stops at the first step after which X or Y is outside, at the sub-step
    crossing, and keeps that pair in every later sample; it is never stepped
    again.  ``stop`` sees only the running rows, once per point and step, so
    it must treat each row alone.  Recorded steps
    keep y - x in a buffer of at most ``RECORD_BUDGET`` doubles, flushed when
    full and at the end of each noise window: one call measures its chords,
    and rho is derived from them.  The records do not depend on the budget.
    Path p draws the Philox stream keyed (seed, p); each worker thread builds
    one generator and re-keys it per path (``_run_chunk``), so the thread
    count sets only the speed.  By default it is one thread per
    ``PATHS_PER_THREAD`` paths, at least one and at most the CPU count.
    ``x0`` and ``y0`` are one point each, or one row per path.
    """
    if h <= 0.0 or t_final <= 0.0:
        raise DomainError("step size and horizon must be positive")
    if n_paths < 1:
        raise DomainError("need at least one path")
    if threads is None:
        threads = min(max(1, n_paths // PATHS_PER_THREAD), os.cpu_count() or 1)
    if record_stride < 1 or threads < 1:
        raise DomainError("record_stride and threads must be at least 1")
    n_steps = max(1, int(round(t_final / h)))
    if any(t < 0.0 or round(t / h) > n_steps for t in snapshot_times):
        raise DomainError("snapshot times must lie between 0 and the horizon")
    record_idx = sorted(set(range(0, n_steps + 1, record_stride)) | {n_steps})
    snapshot_idx = {int(round(t / h)) for t in snapshot_times}
    x0, y0 = np.asarray(x0, float), np.asarray(y0, float)
    if any(p.ndim > 1 and len(p) != n_paths for p in (x0, y0)):
        raise DomainError(f"expected one start point or {n_paths} rows of them")
    strategy.validate_run(x0, y0, np.arange(n_steps + 1) * h)

    jobs = []
    for lo, hi in _chunk_ranges(n_paths, threads):
        starts = [p if p.ndim == 1 else p[lo:hi] for p in (x0, y0)]
        jobs.append((strategy, *starts, h, n_steps, seed, range(lo, hi), record_idx, snapshot_idx, stop))
    if len(jobs) == 1:
        results = [_run_chunk(*job) for job in jobs]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(lambda job: _run_chunk(*job), jobs))

    rho = np.concatenate([r[0] for r in results], axis=1)
    chord = np.concatenate([r[1] for r in results], axis=1)
    regime = np.concatenate([r[2] for r in results], axis=1)
    snapshots = {}
    for idx in snapshot_idx:
        xs = np.concatenate([r[3][idx][0] for r in results], axis=0)
        ys = np.concatenate([r[3][idx][1] for r in results], axis=0)
        snapshots[idx * h] = (xs, ys)
    return TrajectoryRecord(
        times=np.asarray(record_idx, float) * h,
        rho=rho,
        chord=chord,
        regime=regime,
        h=h,
        snapshots=snapshots,
    )
