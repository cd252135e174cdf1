"""Path-ensemble simulation driver shared by the verification suites and the CLI.

Every path owns a counter-based noise stream keyed by (seed, path id), so the
same configuration reproduces the same trajectories bitwise regardless of how
paths are chunked over worker threads.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .couplings import CouplingState, CouplingStrategy
from .drivers import NoiseStream, StepNoise
from .errors import DomainError

NOISE_WINDOW = 256  # max steps of noise pre-generated per path chunk
NOISE_BUDGET = 25_000_000  # max pre-generated doubles per chunk (~200 MB)


@dataclass
class TrajectoryRecord:
    """Sampled output of a simulation run.

    ``rho`` and ``chord`` have shape (n_samples, n_paths); ``regime`` flags use
    0 for coupled and 1 for independent motion.  ``snapshots`` maps the step
    time ``idx * h`` nearest each requested time (not the requested time
    itself) to the full (X, Y) ensembles for marginal statistics.
    """

    times: np.ndarray
    rho: np.ndarray
    chord: np.ndarray
    regime: np.ndarray
    seed: int
    h: float
    strategy_id: str
    snapshots: dict = field(default_factory=dict)

    @property
    def n_paths(self) -> int:
        return self.rho.shape[1]

    def to_csv(self, handle) -> None:
        """Write the long-format CSV to the open text file ``handle``, one
        chunk per path; repr of Python floats round-trips the IEEE values."""
        handle.write("t,rho,regime,path_id\n")
        times = [f"{t!r}," for t in self.times.tolist()]
        for j in range(self.n_paths):
            rows = zip(times, self.rho[:, j].tolist(), self.regime[:, j].tolist())
            handle.write("".join([t + repr(r) + f",{g},{j}\n" for t, r, g in rows]))


def _chunk_ranges(n_paths: int, n_chunks: int):
    size = (n_paths + n_chunks - 1) // n_chunks
    return [(lo, min(lo + size, n_paths)) for lo in range(0, n_paths, size)]


def _take(state: CouplingState, rows) -> CouplingState:
    """The sub-ensemble of the given rows (cache values carry a path axis)."""
    cache = {key: value[rows] for key, value in state.cache.items()}
    return CouplingState(state.t, state.x[rows], state.y[rows], state.regime[rows], cache)


def _put(state: CouplingState, rows, part: CouplingState) -> None:
    """Write the sub-ensemble ``part`` back into ``state`` at ``rows``."""
    state.t = part.t
    state.x[rows] = part.x
    state.y[rows] = part.y
    state.regime[rows] = part.regime
    for key, value in part.cache.items():
        state.cache[key][rows] = value


def _crossing_fraction(f_old, f_new):
    return np.where(f_new < 0.0, f_old / np.maximum(f_old - f_new, 1e-300), 1.0)


def _stop_at_crossing(space, stop, old: CouplingState, new: CouplingState) -> np.ndarray:
    """Mask of the paths that left the domain stop >= 0 during this step.

    Both points of such a path move back to the linear sub-step crossing, at
    the earlier of the two crossing fractions, projected onto the space.
    """
    fx_old, fy_old = stop(old.x), stop(old.y)
    fx_new, fy_new = stop(new.x), stop(new.y)
    crossed = (fx_new < 0.0) | (fy_new < 0.0)
    if np.any(crossed):
        hit = np.flatnonzero(crossed)
        theta = np.minimum(
            _crossing_fraction(fx_old[hit], fx_new[hit]),
            _crossing_fraction(fy_old[hit], fy_new[hit]),
        )[:, None]
        new.x[hit] = space.project_point(old.x[hit] + theta * (new.x[hit] - old.x[hit]))
        new.y[hit] = space.project_point(old.y[hit] + theta * (new.y[hit] - old.y[hit]))
    return crossed


def _run_chunk(strategy, x0, y0, h, n_steps, seed, path_ids, record_idx, snapshot_idx, stop=None):
    n = len(path_ids)
    state = strategy.initial_state(x0, y0, n)
    if stop is not None and (np.any(stop(state.x) < 0.0) or np.any(stop(state.y) < 0.0)):
        raise DomainError("start points must lie inside the stop domain")
    p_dim = strategy.primary_dim
    a_dim = strategy.aux_dim
    total = p_dim + a_dim
    streams = [NoiseStream(seed, pid) for pid in path_ids]
    running = np.ones(n, dtype=bool)
    n_running = n

    n_rec = len(record_idx)
    rho = np.empty((n_rec, n))
    chord = np.empty((n_rec, n))
    regime = np.empty((n_rec, n), dtype=np.int8)
    snapshots = {}
    rec_pos = 0

    def record(step_index, st):
        nonlocal rec_pos
        if rec_pos < n_rec and record_idx[rec_pos] == step_index:
            rho[rec_pos] = strategy.space.distance(st.x, st.y)
            chord[rec_pos] = strategy.space.metric_norm(st.y - st.x)
            regime[rec_pos] = st.regime
            rec_pos += 1
        if step_index in snapshot_idx:
            snapshots[step_index] = (st.x.copy(), st.y.copy())

    record(0, state)
    step = 0
    max_window = max(1, min(NOISE_WINDOW, NOISE_BUDGET // max(1, n * total)))
    while step < n_steps and n_running:
        # noise only for the paths still running at the window start
        window = min(max_window, n_steps - step)
        live = np.flatnonzero(running)
        block = np.empty((live.size, window, total))
        for row, pid in enumerate(live):
            block[row] = streams[pid].standard_normal((window, total))
        for i in range(window):
            # step only the running rows; skip the gather while all run
            if n_running == n:
                sel, rows, sub = slice(None), live, state
            else:
                sel = np.flatnonzero(running[live])
                rows = live[sel]
                sub = _take(state, rows)
            noise = StepNoise(
                primary=block[sel, i, :p_dim],
                auxiliary=block[sel, i, p_dim:] if a_dim else None,
            )
            new = strategy.step(sub, noise, h)
            ended = None if stop is None else _stop_at_crossing(strategy.space, stop, sub, new)
            if sub is state:
                state = new
            else:
                _put(state, rows, new)
            step += 1
            record(step, state)
            if ended is not None and np.any(ended):
                running[rows[ended]] = False
                n_running -= int(np.count_nonzero(ended))
                if not n_running:
                    break
    # once every path has stopped, later samples repeat the stop points
    for index in range(step + 1, n_steps + 1):
        record(index, state)
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
    threads: int = 1,
    stop=None,
) -> TrajectoryRecord:
    """Simulate n_paths independent trajectories of the coupled pair.

    Samples are recorded every ``record_stride`` steps (always including t=0
    and the final time); ``snapshot_times`` asks for full point ensembles at
    the nearest step times, which key ``snapshots``; a time whose nearest
    step is past the last one is rejected.  ``stop`` maps an (n, ambient)
    point array to one value per row, negative outside the domain: a path
    stops at the first step after which X or Y is outside, at the sub-step
    crossing, and keeps that pair in every later sample.
    """
    if h <= 0.0 or t_final <= 0.0:
        raise DomainError("step size and horizon must be positive")
    if n_paths < 1:
        raise DomainError("need at least one path")
    if record_stride < 1 or threads < 1:
        raise DomainError("record_stride and threads must be at least 1")
    n_steps = max(1, int(round(t_final / h)))
    if any(t < 0.0 or round(t / h) > n_steps for t in snapshot_times):
        raise DomainError("snapshot times must lie between 0 and the horizon")
    record_idx = sorted(set(range(0, n_steps + 1, record_stride)) | {n_steps})
    snapshot_idx = {int(round(t / h)) for t in snapshot_times}
    strategy.validate_run(x0, y0, np.arange(n_steps + 1) * h)

    ranges = _chunk_ranges(n_paths, threads)
    jobs = [
        (strategy, x0, y0, h, n_steps, seed, range(lo, hi), record_idx, snapshot_idx, stop)
        for lo, hi in ranges
    ]
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
        seed=seed,
        h=h,
        strategy_id=strategy.strategy_id,
        snapshots=snapshots,
    )
