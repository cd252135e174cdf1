"""Path-ensemble simulation driver shared by the verification suites and the CLI.

Every path owns a counter-based noise stream keyed by (seed, path id), so the
same configuration reproduces the same trajectories bitwise regardless of how
paths are chunked over worker threads.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .couplings import CouplingStrategy
from .drivers import NoiseStream, StepNoise
from .errors import DomainError

NOISE_WINDOW = 4096  # max steps of noise pre-generated per path chunk
NOISE_BUDGET = 25_000_000  # max pre-generated doubles per chunk (~200 MB)


@dataclass
class TrajectoryRecord:
    """Sampled output of a simulation run.

    ``rho`` and ``chord`` have shape (n_samples, n_paths); ``regime`` flags use
    0 for coupled and 1 for independent motion.  ``snapshots`` maps requested
    times to the full (X, Y) ensembles for marginal statistics.
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


def _run_chunk(strategy, x0, y0, h, n_steps, seed, path_ids, record_idx, snapshot_idx):
    n = len(path_ids)
    state = strategy.initial_state(x0, y0, n)
    p_dim = strategy.primary_dim
    a_dim = strategy.aux_dim
    total = p_dim + a_dim
    streams = [NoiseStream(seed, pid) for pid in path_ids]

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
    while step < n_steps:
        window = min(max_window, n_steps - step)
        block = np.empty((n, window, total))
        for row, stream in enumerate(streams):
            block[row] = stream.standard_normal((window, total))
        for i in range(window):
            noise = StepNoise(
                primary=block[:, i, :p_dim],
                auxiliary=block[:, i, p_dim:] if a_dim else None,
            )
            state = strategy.step(state, noise, h)
            step += 1
            record(step, state)
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
) -> TrajectoryRecord:
    """Simulate n_paths independent trajectories of the coupled pair.

    Samples are recorded every ``record_stride`` steps (always including t=0
    and the final time); ``snapshot_times`` asks for full point ensembles at
    the nearest step times.
    """
    if h <= 0.0 or t_final <= 0.0:
        raise DomainError("step size and horizon must be positive")
    if n_paths < 1:
        raise DomainError("need at least one path")
    n_steps = max(1, int(round(t_final / h)))
    record_idx = sorted(set(range(0, n_steps + 1, record_stride)) | {n_steps})
    snapshot_idx = {min(n_steps, int(round(t / h))) for t in snapshot_times}

    ranges = _chunk_ranges(n_paths, max(1, threads))
    jobs = [
        (strategy, x0, y0, h, n_steps, seed, range(lo, hi), record_idx, snapshot_idx)
        for lo, hi in ranges
    ]
    if len(jobs) == 1 or threads <= 1:
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
