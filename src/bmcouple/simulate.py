"""Path-ensemble simulation driver shared by the verification suites and the CLI.

Every path owns a counter-based noise stream keyed by (seed, path id), so the
same configuration reproduces the same trajectories bitwise regardless of how
paths are chunked over worker threads.
"""

from __future__ import annotations

import contextlib
import heapq
import itertools
import math
import mmap
import numbers
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .couplings import CouplingState, CouplingStrategy
from .drivers import NoiseStream, StepNoise, stream_keys
from .errors import DomainError

NOISE_WINDOW = 256  # max steps of noise pre-generated per path chunk
NOISE_BUDGET = 25_000_000  # max pre-generated doubles per chunk (~200 MB)
RECORD_BUDGET = 1 << 14  # max buffered doubles of recorded y - x per chunk (128 KB)
# The crossover: the paths a chunk needs before it pays to step it at once
# with others, unless the strategy sets its own (``paths_per_thread``).  It
# sets the default thread count, and smaller chunks take turns to step while
# the others fill their noise.  Per-step numpy calls on small batches are too
# short to overlap under the interpreter lock; Philox fills release it.  On a
# 2-core host at 4096 paths, two threads stepping at once took 1.0-1.5x one
# thread's time on all but so3-flow, taking turns 0.8-1.3x; at 8192 paths at
# once 0.7-0.9x, level with turns or ahead, on all but translation (1.1-1.2x).
# More cores were not measured
PATHS_PER_THREAD = 4096


def _integral(value) -> bool:
    """An integer count or seed: numpy integers count, bools do not."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


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


class _Recorder:
    """The samples of one step size's rows ``part`` of a chunk's state.

    ``next`` is the next step it samples (inf once it has sampled every
    step).  A sample reads a state and the step size's rows in it: the
    chunk's state, or the working state while all of those rows run.
    Recorded steps keep y - x in a buffer of at most ``RECORD_BUDGET``
    doubles, flushed when full and at the end of each noise window: one call
    measures its chords, and rho is derived from them.
    """

    def __init__(self, space, part, record_idx, snapshot_idx, width):
        n, n_rec = part.stop - part.start, len(record_idx)
        self.space, self.part = space, part
        self.record_idx, self.snapshot_idx = record_idx, snapshot_idx
        # the steps it samples, merged lazily: a list of them would hold memory
        # of the chunk's thread through the run and raise the process's peak
        self._later = (k for k, _ in itertools.groupby(heapq.merge(record_idx, sorted(snapshot_idx))))
        self.next = next(self._later)
        self.rho = np.empty((n_rec, n))
        self.chord = np.empty((n_rec, n))
        self.regime = np.empty((n_rec, n), dtype=np.int8)
        self.snapshots = {}
        self.diffs = np.empty((max(1, min(RECORD_BUDGET // (n * width), n_rec)), n, width))
        self.pos = self.flushed = 0

    def record(self, state: CouplingState, part: slice) -> None:
        """Sample the rows ``part`` of ``state`` as the step ``next``."""
        step_index = self.next
        if self.pos < len(self.record_idx) and self.record_idx[self.pos] == step_index:
            np.subtract(state.y[part], state.x[part], out=self.diffs[self.pos - self.flushed])
            self.regime[self.pos] = state.regime[part]
            self.pos += 1
            if self.pos - self.flushed == len(self.diffs):
                self.flush()
        if step_index in self.snapshot_idx:
            self.snapshots[step_index] = (state.x[part].copy(), state.y[part].copy())
        self.next = next(self._later, math.inf)

    def flush(self) -> None:
        if self.pos > self.flushed:
            done = slice(self.flushed, self.pos)
            self.chord[done] = self.space.metric_norm(self.diffs[: self.pos - self.flushed])
            self.rho[done] = self.space.chord_distance(self.chord[done])
            self.flushed = self.pos


def _run_chunk(strategy, x0, y0, hs, n_steps, seeds, path_ids, record_idx, snapshot_idx, stop=None,
               turn=contextlib.nullcontext()):
    """Step the paths ``path_ids`` of one run (one worker thread's share) at
    each step size of ``hs``; ``n_steps``, ``seeds``, ``record_idx`` and
    ``snapshot_idx`` hold one entry per step size, and ``x0`` and ``y0`` are
    one start point, one per path or one set of them per step size.
    Returns each step size's (rho, chord, regime, snapshots).

    The chunk builds one ``NoiseStream`` and moves it from stream to
    stream: at a stream's first window it is re-keyed to (seed, path id),
    and a stream with a later window keeps its position, in one row of
    ``positions``, until that window.  So each stream is drawn as it would
    be alone, whatever the chunking.

    Each path gets one row per step size, row j n + p for path p at
    ``hs[j]``, and all rows step in lockstep by step index.  Row j n + p
    reads the stream (``seeds[j]``, p), and the rows on one stream read the
    same normals of it, drawn once, to the longest step count among them.
    With one step size, ``h`` stays a float and the rows are the paths; with
    more, moves get a (rows, 1) column of step sizes.  A window holds
    ``NOISE_WINDOW`` steps over the number of distinct seeds, so the noise
    block takes no more memory than with one seed.

    While every row runs, the chunk's state is stepped whole.  Once rows
    stop, or a step size takes its last step, a working state holds only
    the running rows, in order: such a step writes the leaving rows into
    the chunk's state and drops them from the working state with one
    gather.  ``sel`` maps the working rows to their streams' rows of the
    noise block, which holds the streams with a running row at the window
    start; with one step size it is None until rows stop, and the noise of
    a step is a view of the block.  A step size whose rows all run records from
    the working state; the working state is written back only at the record
    and snapshot steps of the others.  The stop function is called once per
    point and step; its values at a step's end serve the next step.

    ``turn`` is held while each window is stepped, and not while its noise
    is filled: the run's lock, where chunks take turns, or a null context.
    """
    n, m = len(path_ids), len(hs)
    # row j n + p starts from start set j, or from path p's own start or the one start
    starts = [np.broadcast_to(p, (m, n, p.shape[-1])).reshape(m * n, -1).copy() for p in (x0, y0)]
    state = strategy.initial_state(*starts, m * n)
    if stop is not None:
        f = (stop(state.x), stop(state.y))
        if (f[0] < 0.0).any() or (f[1] < 0.0).any():
            raise DomainError("start points must lie inside the stop domain")
    p_dim = strategy.primary_dim
    a_dim = strategy.aux_dim
    total = p_dim + a_dim
    # the streams of the distinct seeds: g n + p for path p on seed g
    distinct = list(dict.fromkeys(seeds))
    keys = np.concatenate([stream_keys(seed, path_ids) for seed in distinct])
    stream = NoiseStream(seeds[0], path_ids[0])
    work, rows = state, np.arange(m * n)  # the running rows of the state, and their rows in it
    n_max = max(n_steps)
    ends = set(n_steps) - {n_max}  # the steps after which a step size's rows leave
    if m == 1:
        h = hs[0]
    else:  # the rows' streams, the working rows' step sizes, and the steps after which they leave
        streams = np.repeat([distinct.index(seed) for seed in seeds], n) * n + np.tile(np.arange(n), m)
        h, last = np.repeat(np.asarray(hs, float), n)[:, None], np.repeat(n_steps, n)

    width = state.x.shape[-1]
    recorders = [
        _Recorder(strategy.space, slice(j * n, (j + 1) * n), *sizes, width)
        for j, sizes in enumerate(zip(record_idx, snapshot_idx))
    ]
    parts = [rec.part for rec in recorders]  # the rows of each in the working state, while all run
    for rec in recorders:
        rec.record(state, rec.part)
    due = min(rec.next for rec in recorders)  # the next step that any of them samples
    step = 0
    max_window = max(1, min(NOISE_WINDOW // len(distinct), NOISE_BUDGET // max(1, len(keys) * total), n_max))
    # on pages of its own, given back to the system when the chunk ends: on the heap, a
    # later run's buffer could miss the hole this one left and add to the peak memory.
    # On Linux they are private, with the huge-page advice numpy gives large arrays.
    linux = hasattr(mmap, "MADV_HUGEPAGE")
    mem = mmap.mmap(-1, len(keys) * max_window * total * 8, **({"flags": mmap.MAP_PRIVATE} if linux else {}))
    if linux:
        mem.madvise(mmap.MADV_HUGEPAGE)
    buffer = np.frombuffer(mem).reshape(len(keys), max_window, total)
    positions = np.empty((len(keys), NoiseStream.POSITION_WORDS), dtype=np.uint64)  # between windows
    while step < n_max and rows.size:
        # noise only for the streams with a running row at the window start,
        # filled in place into the front of the chunk's one buffer by the
        # chunk's one generator, moved from stream to stream
        window = min(max_window, n_max - step)
        later = step + window < n_max
        if m == 1:
            live, sel = rows, None
        else:
            live, sel = np.unique(streams[rows], return_inverse=True)
        block = buffer[: live.size, :window]
        for row, sid in enumerate(live):
            if step == 0:
                stream.rekey(keys[sid])
            else:
                stream.seek(keys[sid], positions[sid])
            stream.standard_normal(out=block[row])
            if later:
                stream.tell(positions[sid])
        with turn:
            for i in range(window):
                drawn = block[:, i] if sel is None else block[sel, i]
                noise = StepNoise(primary=drawn[:, :p_dim], auxiliary=drawn[:, p_dim:] if a_dim else None)
                new = strategy.step(work, noise, h)
                ended = None
                if stop is not None:
                    ended, f = _stop_at_crossing(strategy.space, stop, work, new, f)
                if work is state:
                    state = new
                work = new
                step += 1
                if step in ends:
                    ended = last == step if ended is None else ended | (last == step)
                if ended is not None and ended.any():
                    hit, keep = np.flatnonzero(ended), np.flatnonzero(~ended)
                    if work is not state:
                        _put(state, rows[hit], work, hit)
                    work, rows, sel = _take(work, keep), rows[keep], keep if sel is None else sel[keep]
                    if stop is not None:
                        f = (f[0][keep], f[1][keep])
                    if m == 1:
                        parts = [None]
                    else:
                        h, last = h[keep], last[keep]
                        bounds = np.searchsorted(rows, np.arange(m + 1) * n).tolist()
                        parts = [slice(lo, hi) if hi - lo == n else None for lo, hi in zip(bounds, bounds[1:])]
                if step == due:
                    if any(part is None and rec.next == step for rec, part in zip(recorders, parts)):
                        _put(state, rows, work)
                    for rec, part in zip(recorders, parts):
                        if rec.next == step:
                            rec.record(*((state, rec.part) if part is None else (work, part)))
                    due = min(rec.next for rec in recorders)
                if not rows.size:
                    break
        for rec in recorders:
            rec.flush()
    # once every row has stopped, later samples repeat the stop points
    for rec in recorders:
        while rec.next < math.inf:
            rec.record(state, rec.part)
        rec.flush()
    return [(rec.rho, rec.chord, rec.regime, rec.snapshots) for rec in recorders]


def _joined(arrays, axis: int) -> np.ndarray:
    """The chunks' arrays joined along ``axis``; a single chunk's array as it is."""
    return arrays[0] if len(arrays) == 1 else np.concatenate(arrays, axis=axis)


def run_paths(
    strategy: CouplingStrategy,
    x0,
    y0,
    *,
    h,
    t_final: float,
    n_paths: int,
    seed,
    record_stride: int = 1,
    snapshot_times=(),
    threads: int | None = None,
    stop=None,
):
    """Simulate n_paths independent trajectories of the coupled pair.

    ``h`` is one step size, for which the run returns one record, or a
    tuple of them, for which it returns a tuple of records, one per step
    size in order: each is bitwise the record of a run at that step size
    alone.  The step sizes run as one batch in lockstep, each path's noise
    drawn once for all of them (``_run_chunk``), and a step size's rows
    leave the batch after its last step like stopped rows.

    Samples are recorded every ``record_stride`` steps (always including t=0
    and the final time); ``snapshot_times`` asks for full point ensembles at
    the nearest step times, which key ``snapshots``; a time whose nearest
    step is past the last one is rejected.  ``stop`` maps an (n, ambient)
    point array to one value per row, negative outside the domain: a path
    stops at the first step after which X or Y is outside, at the sub-step
    crossing, and keeps that pair in every later sample; it is never stepped
    again.  ``stop`` sees only the running rows, once per point and step, so
    it must treat each row alone.  Recorded steps
    keep y - x in a buffer of at most ``RECORD_BUDGET`` doubles per step
    size, flushed when full and at the end of each noise window: one call
    measures its chords, and rho is derived from them.  The records do not
    depend on the budget.
    Path p draws the Philox stream keyed (seed, p); each worker thread builds
    one generator and moves it from stream to stream (``_run_chunk``), so
    the thread count sets only the speed.  By default it is one thread per
    crossover of paths (the strategy's ``paths_per_thread``, or
    ``PATHS_PER_THREAD``), at least one and at most the CPU count.  Chunks
    of fewer paths than the crossover take turns: each steps a noise window
    only while it holds the run's one lock, and fills its next window
    without it, so one chunk's Philox fills, which release the interpreter
    lock, overlap another's stepping.  Larger chunks step at once.
    ``x0`` and ``y0`` are one point each, one row per path, or, with a
    tuple ``h``, a (len(h), n_paths, ambient) array of start sets: set j
    starts the rows that step at ``h[j]``, so the record of each is bitwise
    that of its start set and step size run alone, and starts that share
    the streams of one seed share their draws.  ``seed`` is one integer or,
    with a tuple ``h``, a tuple of one per step size: the rows at ``h[j]``
    draw the streams (``seed[j]``, p), and the record of each is bitwise
    that of its run alone at its own seed.
    """
    hs = (h,) if np.ndim(h) == 0 else tuple(h)
    if not hs:
        raise DomainError("need at least one step size")
    if not np.isfinite([*hs, t_final, *snapshot_times]).all():
        raise DomainError("step sizes, horizon and snapshot times must be finite")
    if min(hs) <= 0.0 or t_final <= 0.0:
        raise DomainError("step size and horizon must be positive")
    if max(hs) > t_final:
        raise DomainError(f"step size {max(hs)} exceeds the horizon {t_final}")
    for name, count in (("n_paths", n_paths), ("record_stride", record_stride), ("threads", threads)):
        if count is not None and not _integral(count):
            raise DomainError(f"{name} must be an integer, got {count!r}")
    if n_paths < 1:
        raise DomainError("need at least one path")
    seeds = (seed,) * len(hs) if np.ndim(seed) == 0 else tuple(seed)
    if (np.ndim(seed) and np.ndim(h) == 0) or len(seeds) != len(hs):
        raise DomainError(f"need one seed, or with a tuple of {len(hs)} step sizes one per step size; got {seed!r}")
    if not all(map(_integral, seeds)):
        raise DomainError(f"seeds must be integers, got {seed!r}")
    crossover = strategy.paths_per_thread or PATHS_PER_THREAD
    if threads is None:
        threads = min(max(1, int(n_paths // crossover)), os.cpu_count() or 1)
    if record_stride < 1 or threads < 1:
        raise DomainError("record_stride and threads must be at least 1")
    n_steps = tuple(int(round(t_final / step)) for step in hs)
    if any(t < 0.0 or round(t / step) > n for t in snapshot_times for step, n in zip(hs, n_steps)):
        raise DomainError("snapshot times must lie between 0 and the horizon")
    record_idx = tuple(sorted(set(range(0, n + 1, record_stride)) | {n}) for n in n_steps)
    snapshot_idx = tuple({int(round(t / step)) for t in snapshot_times} for step in hs)
    x0, y0 = np.asarray(x0, float), np.asarray(y0, float)
    width = strategy.space.ambient_dim
    shapes = [(width,), (n_paths, width)] + ([(len(hs), n_paths, width)] if np.ndim(h) else [])
    if x0.shape not in shapes or y0.shape not in shapes:
        sets = f", {len(hs)} sets of them" if np.ndim(h) else ""
        raise DomainError(
            f"expected one start point of {width} coordinates, {n_paths} rows of them{sets};"
            f" got shapes {x0.shape} and {y0.shape}"
        )
    for j, (step, n) in enumerate(zip(hs, n_steps)):
        strategy.validate_run(*(p[j] if p.ndim == 3 else p for p in (x0, y0)), np.arange(n + 1) * step)

    chunks = _chunk_ranges(n_paths, threads)
    turn = threading.Lock() if chunks[0][1] < crossover else contextlib.nullcontext()
    jobs = []
    for lo, hi in chunks:
        starts = [p if p.ndim == 1 else p[..., lo:hi, :] for p in (x0, y0)]
        jobs.append((strategy, *starts, hs, n_steps, seeds, range(lo, hi), record_idx, snapshot_idx, stop, turn))
    if len(jobs) == 1:
        results = [_run_chunk(*job) for job in jobs]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(lambda job: _run_chunk(*job), jobs))

    records = []
    for j, (step, idx, snaps) in enumerate(zip(hs, record_idx, snapshot_idx)):
        parts = [r[j] for r in results]
        snapshots = {}
        for i in snaps:
            xs = _joined([p[3][i][0] for p in parts], 0)
            ys = _joined([p[3][i][1] for p in parts], 0)
            snapshots[i * step] = (xs, ys)
        records.append(
            TrajectoryRecord(
                times=np.asarray(idx, float) * step,
                rho=_joined([p[0] for p in parts], 1),
                chord=_joined([p[1] for p in parts], 1),
                regime=_joined([p[2] for p in parts], 1),
                h=step,
                snapshots=snapshots,
            )
        )
    return records[0] if np.ndim(h) == 0 else tuple(records)
