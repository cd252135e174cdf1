import inspect
import io

import numpy as np
import pytest

from bmcouple import simulate
from bmcouple.couplings import STRATEGIES, FixedDistanceS2, make_strategy
from bmcouple.drivers import NoiseStream, StepNoise
from bmcouple.errors import DomainError
from bmcouple.simulate import run_paths
from bmcouple.spaces import ModelSpace

S2 = ModelSpace.sphere(2)


def _run(threads=1, seed=42, record_stride=1):
    strategy = make_strategy("fixed-s2", S2)
    return run_paths(
        strategy,
        S2.base_point(),
        S2.point_at_distance(1.0),
        h=4e-3,
        t_final=0.2,
        n_paths=24,
        seed=seed,
        record_stride=record_stride,
        snapshot_times=(0.1,),
        threads=threads,
    )


def test_bitwise_reproducible():
    a, b = _run(), _run()
    assert np.array_equal(a.rho, b.rho)
    assert np.array_equal(a.chord, b.chord)
    assert np.array_equal(a.regime, b.regime)


def test_thread_count_does_not_change_results():
    a, b = _run(threads=1), _run(threads=3)
    assert np.array_equal(a.rho, b.rho)
    for t in a.snapshots:
        assert np.array_equal(a.snapshots[t][0], b.snapshots[t][0])
        assert np.array_equal(a.snapshots[t][1], b.snapshots[t][1])


def test_seed_changes_results():
    a, b = _run(seed=42), _run(seed=43)
    assert not np.array_equal(a.rho, b.rho)


def test_record_shapes_and_times():
    record = _run(record_stride=10)
    assert record.times[0] == 0.0
    assert record.times[-1] == 0.2
    assert record.rho.shape == (len(record.times), 24)
    assert record.regime.dtype == np.int8
    assert 0.1 in record.snapshots
    xs, ys = record.snapshots[0.1]
    assert xs.shape == (24, 3) and ys.shape == (24, 3)


def _csv_oracle(record) -> str:
    """The row-at-a-time CSV formatter the streaming writer must reproduce."""
    lines = ["t,rho,regime,path_id\n"]
    for j in range(record.n_paths):
        for i, t in enumerate(record.times):
            lines.append(f"{float(t)!r},{float(record.rho[i, j])!r},{int(record.regime[i, j])},{j}\n")
    return "".join(lines)


def _csv_file_bytes(record, path) -> bytes:
    with open(path, "w") as handle:
        record.to_csv(handle)
    return path.read_bytes()


def test_csv_format_roundtrip():
    record = _run(record_stride=25)
    buf = io.StringIO()
    record.to_csv(buf)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == "t,rho,regime,path_id"
    assert len(lines) == 1 + len(record.times) * record.n_paths
    t, rho, regime, pid = lines[1].split(",")
    assert float(t) == record.times[0]
    assert float(rho) == record.rho[0, 0]  # repr round-trips exactly
    assert regime == "0" and pid == "0"


def test_csv_matches_row_formatter_with_both_regimes(tmp_path):
    # starts inside the cut-locus zone (independent, regime 1) and re-couples
    strategy = make_strategy("fixed-s2", S2, eps=0.3)
    record = run_paths(strategy, S2.base_point(), S2.point_at_distance(np.pi - 0.25),
                       h=1e-2, t_final=0.5, n_paths=20, seed=5)
    assert np.any(record.regime == 1) and np.any(record.regime == 0)
    assert _csv_file_bytes(record, tmp_path / "t.csv") == _csv_oracle(record).encode()


def test_csv_matches_row_formatter_with_exponent_times(tmp_path):
    record = run_paths(make_strategy("fixed-s2", S2), S2.base_point(), S2.point_at_distance(1.0),
                       h=1e-5, t_final=2e-4, n_paths=3, seed=5)
    text = _csv_oracle(record)
    assert "\n1e-05," in text
    assert _csv_file_bytes(record, tmp_path / "t.csv") == text.encode()


def _one_path_record():
    return run_paths(make_strategy("fixed-s2", S2), S2.base_point(), S2.point_at_distance(1.0),
                     h=1e-2, t_final=0.3, n_paths=1, seed=3)


def _stopped_record():
    record = _cap_run("independent", 12, record_stride=1, t_final=0.2, snapshot_times=())
    # a stopped path repeats its stop pair, and so its distance, in every later sample
    assert 0 < np.count_nonzero(record.rho[-1] == record.rho[-2]) < 12
    return record


def _ragged_stride_record():
    # 50 steps sampled every 7: the last step is appended after step 49
    record = run_paths(make_strategy("fixed-s2", S2), S2.base_point(), S2.point_at_distance(1.0),
                       h=1e-2, t_final=0.5, n_paths=4, seed=6, record_stride=7)
    assert np.array_equal(np.round(record.times[-3:] / 1e-2), [42.0, 49.0, 50.0])
    return record


def _two_digit_ids_record():
    # patched fixed-s2 started inside the cut-locus zone: regime 1 on paths >= 10
    record = run_paths(make_strategy("fixed-s2", S2, eps=0.3), S2.base_point(), S2.point_at_distance(np.pi - 0.25),
                       h=1e-2, t_final=0.3, n_paths=14, seed=7)
    assert np.any(record.regime[:, 10:] == 1) and np.any(record.regime[:, 10:] == 0)
    return record


@pytest.mark.parametrize(
    "build", [_one_path_record, _stopped_record, _ragged_stride_record, _two_digit_ids_record]
)
def test_csv_corner_cases_match_row_formatter(build, tmp_path):
    record = build()
    assert _csv_file_bytes(record, tmp_path / "t.csv") == _csv_oracle(record).encode()


def test_long_noise_window_chunking():
    # runs longer than the pre-generated window must stay deterministic
    strategy = make_strategy("translation", ModelSpace.euclidean(2))
    flat = ModelSpace.euclidean(2)
    a = run_paths(strategy, flat.base_point(), flat.point_at_distance(1.0),
                  h=1e-4, t_final=1.0, n_paths=2, seed=8, record_stride=1000)
    b = run_paths(strategy, flat.base_point(), flat.point_at_distance(1.0),
                  h=1e-4, t_final=1.0, n_paths=2, seed=8, record_stride=1000)
    assert np.array_equal(a.rho, b.rho)
    assert a.rho.shape[0] == 11


# -- stop barrier ---------------------------------------------------------------------

CAP_LEVEL = float(np.cos(1.0))


def _cap_stop(p):
    return p[:, 2] - CAP_LEVEL


def _same_record(a, b) -> bool:
    same = all(np.array_equal(getattr(a, f), getattr(b, f)) for f in ("times", "rho", "chord", "regime"))
    same = same and a.snapshots.keys() == b.snapshots.keys()
    return same and all(
        np.array_equal(a.snapshots[t][0], b.snapshots[t][0]) and np.array_equal(a.snapshots[t][1], b.snapshots[t][1])
        for t in a.snapshots
    )


@pytest.mark.parametrize(
    "strategy_id, space, params, eps, rho0",
    [
        ("translation", ModelSpace.euclidean(2), {}, None, 1.0),
        ("mirror-s2", S2, {}, None, 1.0),
        ("so3-flow", S2, {}, None, 1.0),
        ("fixed-s2", S2, {}, None, 1.0),
        ("rotation", S2, {"k": -1.0}, 0.2, 0.04),
    ],
)
def test_unreached_barrier_changes_nothing(strategy_id, space, params, eps, rho0):
    strategy = make_strategy(strategy_id, space, eps=eps, **params)
    kwargs = dict(h=2e-3, t_final=0.6, n_paths=30, seed=4, record_stride=7, snapshot_times=(0.3, 0.6))
    x0, y0 = space.base_point(), space.point_at_distance(rho0)
    plain = run_paths(strategy, x0, y0, **kwargs)
    barred = run_paths(strategy, x0, y0, stop=lambda p: np.ones(len(p)), **kwargs)
    assert _same_record(plain, barred)


def _cap_run(strategy_id, n_paths, threads=1, **kwargs):
    # 400 steps: paths leave the cap in both noise windows, and some never do
    x0 = np.array([np.sin(0.2), 0.0, np.cos(0.2)])
    y0 = np.array([np.sin(0.4), 0.0, np.cos(0.4)])
    options = dict(h=2e-3, t_final=0.8, seed=9, record_stride=10, snapshot_times=(0.4, 0.8), stop=_cap_stop)
    options.update(kwargs)
    return run_paths(make_strategy(strategy_id, S2), x0, y0, n_paths=n_paths, threads=threads, **options)


@pytest.mark.parametrize("strategy_id", ["fixed-s2", "so3-flow"])
def test_stopped_runs_keep_the_seed_contract(strategy_id):
    one = _cap_run(strategy_id, 100)
    free = _cap_run(strategy_id, 100, stop=None)
    n_stopped = np.count_nonzero(np.any(one.snapshots[0.8][0] != free.snapshots[0.8][0], axis=1))
    assert 0 < n_stopped < 100
    assert _same_record(one, _cap_run(strategy_id, 100, threads=2))
    alone = _cap_run(strategy_id, 64)
    assert np.array_equal(alone.rho, one.rho[:, :64]) and np.array_equal(alone.regime, one.regime[:, :64])
    for t, (ax, ay) in alone.snapshots.items():
        assert np.array_equal(ax, one.snapshots[t][0][:64]) and np.array_equal(ay, one.snapshots[t][1][:64])


@pytest.mark.parametrize(
    "space, params, rho_x, rho_y",
    [
        # x starts 0.24 from the pole's antipode, so its rows switch between
        # the two reference poles during the run
        (S2, {"k": 0.0}, 2.9, 1.9),
        (ModelSpace.hyperbolic(3), {"alpha_override": np.pi}, 0.0, 1.0),
    ],
)
def test_rotation_runs_keep_the_seed_contract(space, params, rho_x, rho_y):
    strategy = make_strategy("rotation", space, **params)
    x0, y0 = space.point_at_distance(rho_x), space.point_at_distance(rho_y)

    def run(n_paths, threads=1):
        return run_paths(strategy, x0, y0, h=2e-3, t_final=0.4, n_paths=n_paths, seed=11,
                         record_stride=10, snapshot_times=(0.2, 0.4), threads=threads)

    one = run(100)
    if space.curvature == 1:
        x_end = one.snapshots[0.4][0]
        assert 0 < np.count_nonzero(1.0 + x_end[:, 0] < 0.1) < 100
    assert _same_record(one, run(100, threads=2))
    alone = run(64)
    assert np.array_equal(alone.rho, one.rho[:, :64]) and np.array_equal(alone.chord, one.chord[:, :64])
    for t, (ax, ay) in alone.snapshots.items():
        assert np.array_equal(ax, one.snapshots[t][0][:64]) and np.array_equal(ay, one.snapshots[t][1][:64])


@pytest.mark.parametrize(
    "strategy, start, t_final, stop",
    [
        # paths leave the cap in many short windows, so the live set shrinks
        # and the rows the buffer refills move up
        (make_strategy("independent", S2), (np.sin(0.2), np.sin(0.4)), 0.3, _cap_stop),
        (make_strategy("rotation", S2, k=-1.0, eps=0.2), (0.0, np.sin(0.04)), 0.6, None),
    ],
    ids=["stopped-independent", "patched-rotation"],
)
def test_noise_window_size_changes_nothing(monkeypatch, strategy, start, t_final, stop):
    # 150 and 300 steps end in a partial window at both window sizes
    x0, y0 = (np.array([s, 0.0, np.sqrt(1.0 - s * s)]) for s in start)

    def run():
        return run_paths(strategy, x0, y0, h=2e-3, t_final=t_final, n_paths=40, seed=12, record_stride=3,
                         snapshot_times=(0.15, t_final), stop=stop)

    default = run()
    monkeypatch.setattr(simulate, "NOISE_WINDOW", 7)
    assert _same_record(default, run())
    if stop is None:
        assert np.any(default.regime == 1) and np.any(default.regime == 0)
    else:
        assert 0 < np.count_nonzero(default.rho[-1] == default.rho[-2]) < 40


def _recorder_cases():
    # with 3 records a flush, each run's last flush is partial: 101, 301, 7
    # and 31 records, and the 300-step run's first window holds 257
    rotation = make_strategy("rotation", S2, k=-1.0, eps=0.2)
    x0, y0 = S2.base_point(), S2.point_at_distance(1.0)
    return {
        "stopped": lambda: _cap_run("independent", 12, record_stride=1, t_final=0.2, snapshot_times=(0.1,)),
        "patched-rotation": lambda: run_paths(rotation, x0, S2.point_at_distance(0.04), h=2e-3, t_final=0.6,
                                              n_paths=20, seed=13, snapshot_times=(0.3,)),
        "stride-7": lambda: run_paths(make_strategy("fixed-s2", S2), x0, y0, h=1e-2, t_final=0.4, n_paths=5,
                                      seed=14, record_stride=7, snapshot_times=(0.2, 0.4)),
        "one-path": lambda: run_paths(make_strategy("so3-flow", S2), x0, y0, h=1e-2, t_final=0.3, n_paths=1,
                                      seed=15, snapshot_times=(0.3,)),
    }


@pytest.mark.parametrize("per_flush", [1, 3])
@pytest.mark.parametrize("case", list(_recorder_cases()))
def test_record_budget_changes_nothing(monkeypatch, case, per_flush):
    """Records derived from chords measured one flush at a time, with flushes
    of 1 or 3 records that split the noise windows, equal the default's."""
    run = _recorder_cases()[case]
    default = run()
    if case == "stopped":
        assert 0 < np.count_nonzero(default.rho[-1] == default.rho[-2]) < default.n_paths
    if case == "patched-rotation":
        assert np.any(default.regime == 1) and np.any(default.regime == 0)
    monkeypatch.setattr(simulate, "RECORD_BUDGET", per_flush * default.n_paths * 3)
    sizes = []
    derive = ModelSpace.chord_distance

    def spy(space, chord):
        if np.ndim(chord) == 2:  # a flush: (records, paths)
            sizes.append(len(chord))
        return derive(space, chord)

    monkeypatch.setattr(ModelSpace, "chord_distance", spy)
    assert _same_record(default, run())
    assert sum(sizes) == len(default.times) and max(sizes) == per_flush
    assert per_flush == 1 or sizes[-1] < per_flush


@pytest.mark.parametrize("strategy_id", [*STRATEGIES, "patched"])
def test_steps_keep_no_view_of_the_noise(strategy_id):
    # the stepping loop refills one noise buffer in place, so nothing a step
    # returns may alias it
    space = ModelSpace.euclidean(2) if strategy_id == "translation" else S2
    if strategy_id == "patched":
        strategy = make_strategy("rotation", S2, k=-1.0, eps=0.2)
        rho0 = 0.3
    else:
        strategy = make_strategy(strategy_id, space, **({"k": 0.0} if strategy_id == "rotation" else {}))
        rho0 = 1.0
    p_dim, a_dim = strategy.primary_dim, strategy.aux_dim
    state = strategy.initial_state(space.base_point(), space.point_at_distance(rho0), 6)
    buffer = np.random.default_rng(1).standard_normal((6, 3, p_dim + a_dim))
    for i in range(3):
        noise = StepNoise(primary=buffer[:, i, :p_dim], auxiliary=buffer[:, i, p_dim:] if a_dim else None)
        state = strategy.step(state, noise, 1e-3)
        arrays = [state.x, state.y, state.regime, *state.cache.values()]
        assert not any(np.shares_memory(a, buffer) for a in arrays)


def test_move_sees_only_the_running_rows(monkeypatch):
    # A path stops at the first step that ends outside the cap, which the
    # unstopped run shows; after it, no move may see its row.  The stopped
    # benchmark counts the rows handed to move as path-steps.  Windows of 16
    # steps make paths stop inside windows and later windows start compacted.
    monkeypatch.setattr(simulate, "NOISE_WINDOW", 16)
    n, n_steps = 40, 400
    free = _cap_run("fixed-s2", n, record_stride=100, snapshot_times=np.arange(n_steps + 1) * 2e-3, stop=None)
    ends = [free.snapshots[t] for t in sorted(free.snapshots)]
    outside = np.array([(_cap_stop(xs) < 0.0) | (_cap_stop(ys) < 0.0) for xs, ys in ends])  # (step, path)
    stop_step = np.where(outside.any(axis=0), outside.argmax(axis=0), n_steps)
    assert 0 < np.count_nonzero(stop_step < n_steps) < n
    rows = []
    move = FixedDistanceS2.move
    counted = lambda self, x, y, gp, *rest: rows.append(len(gp)) or move(self, x, y, gp, *rest)  # noqa: E731
    monkeypatch.setattr(FixedDistanceS2, "move", counted)
    _cap_run("fixed-s2", n)
    assert rows == [np.count_nonzero(stop_step >= k) for k in range(1, n_steps + 1)]


def test_move_sees_no_row_after_its_step_size_ends(monkeypatch):
    # Two step sizes in one batch: path p's row at each step size leaves at
    # its first step that ends outside the cap (the unstopped runs alone
    # show which) or after the step size's last step, whichever comes first.
    monkeypatch.setattr(simulate, "NOISE_WINDOW", 16)
    n, hs = 40, (4e-3, 2e-3)
    expected = np.zeros(400, dtype=int)
    for h in hs:
        n_steps = round(0.8 / h)
        free = _cap_run("fixed-s2", n, h=h, record_stride=100, snapshot_times=np.arange(n_steps + 1) * h, stop=None)
        ends = [free.snapshots[t] for t in sorted(free.snapshots)]
        outside = np.array([(_cap_stop(xs) < 0.0) | (_cap_stop(ys) < 0.0) for xs, ys in ends])
        stop_step = np.where(outside.any(axis=0), outside.argmax(axis=0), n_steps)
        assert 0 < np.count_nonzero(stop_step < n_steps) < n
        expected[:n_steps] += [np.count_nonzero(stop_step >= k) for k in range(1, n_steps + 1)]
    rows = []
    move = FixedDistanceS2.move
    counted = lambda self, x, y, gp, *rest: rows.append(len(gp)) or move(self, x, y, gp, *rest)  # noqa: E731
    monkeypatch.setattr(FixedDistanceS2, "move", counted)
    _cap_run("fixed-s2", n, h=hs)
    assert rows == expected.tolist()


def _crossing(track, k):
    f_old, f_new = _cap_stop(track[k - 1 : k])[0], _cap_stop(track[k : k + 1])[0]
    return f_old / (f_old - f_new) if f_new < 0.0 else 1.0


def test_stopped_so3_flow_path_lies_on_its_bracketing_segment():
    # Each path's rows of the cache (its own rotation) must travel with it
    # through the gather.  Then its stop point, kept in the last snapshot, is
    # the renormalised linear crossing between the unstopped run's positions
    # at the two steps around the exit.
    h, n_steps, n = 2e-3, 400, 20
    free = _cap_run("so3-flow", n, record_stride=1, snapshot_times=np.arange(n_steps + 1) * h, stop=None)
    xs = np.stack([free.snapshots[t][0] for t in sorted(free.snapshots)])  # (step, path, 3)
    ys = np.stack([free.snapshots[t][1] for t in sorted(free.snapshots)])
    end_x, end_y = _cap_run("so3-flow", n).snapshots[0.8]
    n_stopped = 0
    for j in range(n):
        outside = np.flatnonzero((_cap_stop(xs[:, j]) < 0.0) | (_cap_stop(ys[:, j]) < 0.0))
        if outside.size == 0:
            assert np.array_equal(end_x[j], xs[-1, j]) and np.array_equal(end_y[j], ys[-1, j])
            continue
        n_stopped += 1
        k = outside[0]
        theta = min(_crossing(xs[:, j], k), _crossing(ys[:, j], k))
        for end, track in ((end_x[j], xs[:, j]), (end_y[j], ys[:, j])):
            point = track[k - 1] + theta * (track[k] - track[k - 1])
            assert np.allclose(end, point / np.linalg.norm(point), rtol=0.0, atol=1e-14)
    assert 0 < n_stopped < n


@pytest.mark.parametrize(
    "strategy",
    [make_strategy("fixed-s2", S2), make_strategy("rotation", S2, k=0.0), make_strategy("rotation", S2, k=-1.0, eps=0.2)],
    ids=["fixed-s2", "rotation", "patched-rotation"],
)
def test_start_at_no_finite_distance_is_rejected(strategy):
    # NaN coordinates pass the point check; the run must not write NaN records
    with pytest.raises(DomainError, match="finite distance"):
        run_paths(strategy, np.array([np.nan, 0.0, 0.0]), S2.point_at_distance(1.0), h=1e-2, t_final=0.05,
                  n_paths=2, seed=1)



def _bits(record) -> list:
    arrays = [record.times, record.rho, record.chord, record.regime]
    arrays += [points for t in sorted(record.snapshots) for points in record.snapshots[t]]
    return [a.tobytes() for a in arrays]


@pytest.mark.parametrize("strategy_id, params", [("fixed-s2", {}), ("rotation", {"k": 0.5})])
def test_per_path_starts_keep_the_seed_contract(strategy_id, params):
    """One start pair per path, at six distances: every chunk gets its own
    rows, so the records are the same bits on 1, 2 and 3 threads."""
    x0 = np.tile(S2.base_point(), (6, 1))
    y0 = np.stack([S2.point_at_distance(rho) for rho in np.linspace(0.6, 1.4, 6)])
    strategy = make_strategy(strategy_id, S2, **params)
    runs = [
        run_paths(strategy, x0, y0, h=4e-3, t_final=0.2, n_paths=6, seed=5, record_stride=5,
                  snapshot_times=(0.1, 0.2), threads=threads)
        for threads in (1, 2, 3)
    ]
    assert len(set(runs[0].rho[0])) == 6
    assert _bits(runs[0]) == _bits(runs[1]) == _bits(runs[2])


def test_one_path_chunks_keep_the_seed_contract():
    # 3 paths on 3 threads: every chunk steps a lone row, whose products by
    # a matrix numpy rounds otherwise than those of a batch (broken-marginal)
    for strategy_id in STRATEGIES:
        space = ModelSpace.euclidean(2) if strategy_id == "translation" else S2
        strategy = make_strategy(strategy_id, space, **({"k": 0.5} if strategy_id == "rotation" else {}))
        runs = [
            run_paths(strategy, space.base_point(), space.point_at_distance(1.0), h=4e-3, t_final=0.2, n_paths=3,
                      seed=5, record_stride=5, snapshot_times=(0.1,), threads=threads)
            for threads in (1, 3)
        ]
        assert _bits(runs[0]) == _bits(runs[1]), strategy_id


@pytest.mark.parametrize("rows", [5, 7])
def test_per_path_starts_of_another_row_count_are_rejected_before_any_step(monkeypatch, rows):
    monkeypatch.setattr(simulate, "_run_chunk", lambda *job: pytest.fail("a chunk ran"))
    y0 = np.stack([S2.point_at_distance(rho) for rho in np.linspace(0.6, 1.4, rows)])
    with pytest.raises(DomainError, match="6 rows"):
        run_paths(make_strategy("fixed-s2", S2), S2.base_point(), y0, h=4e-3, t_final=0.2, n_paths=6, seed=5)

def test_start_outside_the_stop_domain_is_rejected():
    with pytest.raises(DomainError):
        _cap_run("fixed-s2", 4, stop=lambda p: p[:, 2] - 0.99)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"record_stride": 0},
        {"record_stride": -3},
        {"snapshot_times": (-0.5,)},
        {"snapshot_times": (0.1, -1e-9)},
        {"threads": 0},
        {"threads": -2},
        {"snapshot_times": (0.1, 5.0)},
        {"h": ()},
        {"h": np.nan},
        {"h": (4e-3, np.inf)},
        {"t_final": np.inf},
        {"t_final": np.nan},
        {"snapshot_times": (0.1, np.nan)},
        {"h": 0.5},  # one step past the horizon
        {"h": (4e-3, 0.5)},
        {"h": (4e-3, 0.0)},
        # start points: 4 coordinates on the 2-sphere ran to the end under
        # independent and raised a bare ValueError part way in the others
        {"x0": np.append(S2.base_point(), 0.0)},
        {"y0": S2.point_at_distance(1.0)[:2]},
        {"x0": np.tile(np.append(S2.base_point(), 0.0), (4, 1))},
        {"x0": np.float64(1.0)},
        {"x0": np.tile(S2.base_point(), (2, 4, 1))},  # start sets need a tuple of step sizes
        {"x0": np.tile(S2.base_point(), (2, 2, 1)), "n_paths": 2},
        {"x0": np.tile(S2.base_point(), (3, 4, 1)), "h": (4e-3, 2e-3)},  # 3 sets for 2 step sizes
        {"y0": np.tile(S2.point_at_distance(1.0), (2, 3, 1)), "h": (4e-3, 2e-3)},  # 3 rows for 4 paths
        {"x0": np.tile(S2.base_point(), (1, 2, 4, 1)), "h": (4e-3, 2e-3)},
        # seeds: int() truncated 1.7 to 1 and ran True as 1
        {"seed": 1.7},
        {"seed": True},
        {"seed": np.float64(2.0)},
        {"seed": (1,)},  # a seed tuple needs a tuple of step sizes
        {"seed": (1, 2.5), "h": (4e-3, 2e-3)},
        {"seed": (1, np.True_), "h": (4e-3, 2e-3)},
        {"seed": (1, 2, 3), "h": (4e-3, 2e-3)},
        {"seed": (1,), "h": (4e-3, 2e-3)},
        # counts: range() raised a bare TypeError on 4.5, 1.5 and 2.5, and
        # True ran as 1
        {"n_paths": 4.5},
        {"n_paths": True},
        {"n_paths": np.float64(4.0)},
        {"threads": 1.5},
        {"threads": True},
        {"record_stride": 2.5},
        {"record_stride": np.True_},
    ],
)
def test_bad_sampling_arguments_are_rejected(monkeypatch, kwargs):
    monkeypatch.setattr(simulate, "_run_chunk", lambda *job: pytest.fail("a chunk ran"))
    monkeypatch.setattr(NoiseStream, "standard_normal", lambda *args, **kw: pytest.fail("noise was drawn"))
    args = dict(x0=S2.base_point(), y0=S2.point_at_distance(1.0), h=4e-3, t_final=0.2, n_paths=4, seed=1) | kwargs
    x0, y0 = args.pop("x0"), args.pop("y0")
    for strategy_id in ("independent", "fixed-s2", "so3-flow", "mirror-s2"):
        with pytest.raises(DomainError):
            run_paths(make_strategy(strategy_id, S2), x0, y0, **args)


# -- step-size tuples -------------------------------------------------------------------

TUPLE_HS = (2e-3, 5e-3, 1e-3)  # 50, 20 and 100 steps to t = 0.1, in no order


def _tuple_cases():
    flat = ModelSpace.euclidean(2)
    cases = {}
    for strategy_id in STRATEGIES:
        space = flat if strategy_id == "translation" else S2
        params = {"k": 0.5} if strategy_id == "rotation" else {}
        cases[strategy_id] = (make_strategy(strategy_id, space, **params), space, np.linspace(0.6, 1.4, 10))
    # starts on both sides of the diagonal patch: both regimes occur
    cases["patched-rotation"] = (make_strategy("rotation", S2, k=-1.0, eps=0.2), S2, np.linspace(0.03, 0.2, 10))
    return cases


def _band_stop(p):
    # both points start on the last coordinate's zero; some paths leave |p_last| < 0.4 by t = 0.1
    return 0.4 - np.abs(p[:, -1])


@pytest.mark.parametrize("chunks", [1, 2])
@pytest.mark.parametrize("case", list(_tuple_cases()))
def test_step_size_tuple_gives_each_step_size_its_record_alone(monkeypatch, case, chunks):
    strategy, space, rhos = _tuple_cases()[case]
    monkeypatch.setattr(simulate, "PATHS_PER_THREAD", 10 // chunks)
    y0 = np.stack([space.point_at_distance(rho) for rho in rhos])

    def run(h, stop=_band_stop):
        return run_paths(strategy, space.base_point(), y0, h=h, t_final=0.1, n_paths=10, seed=21, record_stride=3,
                         snapshot_times=(0.05, 0.1), stop=stop)

    together = run(TUPLE_HS)
    assert isinstance(together, tuple) and len(together) == len(TUPLE_HS)
    for h, record in zip(TUPLE_HS, together):
        alone = run(h)
        assert record.h == alone.h == h
        assert _bits(record) == _bits(alone)
        assert list(record.snapshots) == list(alone.snapshots)
    # at every step size the stop ends some paths and not others
    for record, free in zip(together, run(TUPLE_HS, stop=None)):
        assert 0 < np.count_nonzero(np.any(record.snapshots[0.1][0] != free.snapshots[0.1][0], axis=1)) < 10
    if case == "patched-rotation":
        assert all(np.any(record.regime == 1) and np.any(record.regime == 0) for record in together)


@pytest.mark.parametrize("stop", [None, _band_stop], ids=["free", "stopped"])
@pytest.mark.parametrize("chunks", [1, 2])
@pytest.mark.parametrize("hs", [(2e-3, 2e-3), (2e-3, 5e-3)], ids=["same-h", "other-h"])
@pytest.mark.parametrize("case", ["fixed-s2", "rotation", "patched-rotation", "translation"])
def test_start_sets_give_each_row_set_the_record_of_its_solo_run(monkeypatch, case, hs, chunks, stop):
    strategy, space, rhos = _tuple_cases()[case]
    monkeypatch.setattr(simulate, "PATHS_PER_THREAD", 10 // chunks)
    # windows of 7, 3 and 2 steps for 1, 2 and 3 seeds: each stream is
    # drawn in many windows, with others between them
    monkeypatch.setattr(simulate, "NOISE_WINDOW", 7)
    # set 0 starts every x at the pole; set 1 gives each path its own x, and
    # its y at the distances of set 0 in reverse order; set 2 starts from
    # the pole at the distances of set 0 rolled by five paths
    x0 = np.stack([np.tile(space.base_point(), (10, 1)), [space.point_at_distance(-0.02 * p) for p in range(10)],
                   np.tile(space.base_point(), (10, 1))])
    y0 = np.stack([[space.point_at_distance(rho) for rho in rhos], [space.point_at_distance(rho) for rho in rhos[::-1]],
                   [space.point_at_distance(rho) for rho in np.roll(rhos, 5)]])
    alone = {}

    def run(x, y, h, seed=23, stop=stop):
        return run_paths(strategy, x, y, h=h, t_final=0.1, n_paths=10, seed=seed, record_stride=3,
                         snapshot_times=(0.05, 0.1), stop=stop)

    # one seed for both sets; a seed each; and sets 0 and 2 on one seed, at
    # step sizes that differ in the other-h case, with set 1 on another
    for seed in (23, (23, 24), (24, 23, 24)):
        seeds = (seed, seed) if np.ndim(seed) == 0 else seed
        sets, steps = len(seeds), (*hs, hs[1])[: len(seeds)]
        together = run(x0[:sets], y0[:sets], steps, seed=seed)
        assert isinstance(together, tuple) and len(together) == sets
        for j, record in enumerate(together):
            if (j, seeds[j], steps[j]) not in alone:
                alone[j, seeds[j], steps[j]] = run(x0[j], y0[j], steps[j], seed=seeds[j])
            solo = alone[j, seeds[j], steps[j]]
            assert record.h == solo.h == steps[j]
            assert _bits(record) == _bits(solo)
            assert list(record.snapshots) == list(solo.snapshots)
    # sets on different seeds see different noise
    assert _bits(alone[0, 23, hs[0]]) != _bits(alone[0, 24, hs[0]])
    if stop is not None:  # the stop ends some paths of each set and not others
        for record, free in zip(together, run(x0, y0, (*hs, hs[1]), seed=seeds, stop=None)):
            assert 0 < np.count_nonzero(np.any(record.snapshots[0.1][0] != free.snapshots[0.1][0], axis=1)) < 10


def test_step_size_tuple_draws_the_normals_of_its_finest_step_alone(monkeypatch):
    monkeypatch.setattr(simulate, "NOISE_WINDOW", 16)
    drawn = []
    standard_normal = NoiseStream.standard_normal

    def counting(self, shape=None, out=None):
        values = standard_normal(self, shape, out)
        drawn.append(values.size)
        return values

    monkeypatch.setattr(NoiseStream, "standard_normal", counting)
    strategy = make_strategy("fixed-s2", S2)

    def normals(h, seed=2):
        drawn.clear()
        run_paths(strategy, S2.base_point(), S2.point_at_distance(1.0), h=h, t_final=0.1, n_paths=7, seed=seed)
        return sum(drawn)

    assert normals(TUPLE_HS) == normals(min(TUPLE_HS)) == 7 * 100 * (3 + 3)
    # with a seed per step size, each (seed, path) stream is drawn once, to
    # the longest step count on it: 100 steps on seed 2 and 40 on seed 5
    # (a whole number of the two-seed run's windows of 8 steps)
    hs, seeds = (2e-3, 2.5e-3, 1e-3), (2, 5, 2)
    assert normals(hs, seeds) == normals((2e-3, 1e-3), 2) + normals(2.5e-3, 5) == 7 * (100 + 40) * (3 + 3)
    assert normals(hs, (2, 2, 2)) == normals(hs, 2) == 7 * 100 * (3 + 3)


def test_seed_tuple_maps_no_larger_noise_buffer(monkeypatch):
    # the window shortens with the number of distinct seeds, so a chunk's
    # mapped noise buffer is no larger than the one-seed run's
    sizes = []
    mapped = simulate.mmap.mmap

    def recording(fileno, length, *args, **kwargs):
        sizes.append(length)
        return mapped(fileno, length, *args, **kwargs)

    monkeypatch.setattr(simulate.mmap, "mmap", recording)
    strategy = make_strategy("fixed-s2", S2)
    for seed in (2, (2, 3, 3), (3, 2, 3), (2, 3, 4)):
        run_paths(strategy, S2.base_point(), S2.point_at_distance(1.0), h=(1e-3, 1e-3, 1e-3), t_final=0.3,
                  n_paths=30, seed=seed)
    assert sizes[0] == 30 * simulate.NOISE_WINDOW * 6 * 8
    assert sizes[1:] == [30 * 2 * (simulate.NOISE_WINDOW // 2) * 6 * 8] * 2 + [30 * 3 * (simulate.NOISE_WINDOW // 3) * 6 * 8]
    assert max(sizes) == sizes[0]


def test_run_chunk_takes_its_path_ids_at_position_6(monkeypatch):
    # perfbench/layers.install counts the paths of a chunk as len(args[6])
    # of _run_chunk's call, a private contract this pins
    params = list(inspect.signature(simulate._run_chunk).parameters.values())
    assert [p.name for p in params[:7]] == ["strategy", "x0", "y0", "hs", "n_steps", "seeds", "path_ids"]
    assert all(p.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD for p in params[:7])
    counts = []
    run_chunk = simulate._run_chunk
    monkeypatch.setattr(simulate, "_run_chunk", lambda *args: counts.append(len(args[6])) or run_chunk(*args))
    run_paths(make_strategy("fixed-s2", S2), S2.base_point(), S2.point_at_distance(1.0), h=1e-2, t_final=0.1,
              n_paths=7, seed=1, threads=3)
    assert sorted(counts) == [1, 3, 3]


@pytest.mark.parametrize("threads", [1, 3])
def test_each_path_draws_its_own_stream_across_windows(monkeypatch, threads):
    """With h = 1 the translation coupling's X is the running sum of its
    draws, so every snapshot of path p shows the stream (seed, p), drawn on
    through windows of 3 steps by the chunk's one re-keyed generator."""
    monkeypatch.setattr(simulate, "NOISE_WINDOW", 3)
    flat = ModelSpace.euclidean(2)
    n_steps, seed = 10, -17
    record = run_paths(make_strategy("translation", flat), flat.base_point(), flat.point_at_distance(1.0), h=1.0,
                       t_final=n_steps, n_paths=7, seed=seed, snapshot_times=range(n_steps + 1), threads=threads)
    for p in range(7):
        key = np.array([seed % 2**64, p], dtype=np.uint64)
        draws = np.random.Generator(np.random.Philox(key=key)).standard_normal((n_steps, 2))
        walk = np.concatenate((np.zeros((1, 2)), np.cumsum(draws, axis=0)))
        assert np.array_equal(np.array([record.snapshots[float(k)][0][p] for k in range(n_steps + 1)]), walk)


def test_each_chunk_builds_one_generator(monkeypatch):
    builds = []
    philox = np.random.Philox

    def counting(*args, **kwargs):
        builds.append(1)
        return philox(*args, **kwargs)

    monkeypatch.setattr(np.random, "Philox", counting)
    flat = ModelSpace.euclidean(2)
    run_paths(make_strategy("translation", flat), flat.base_point(), flat.point_at_distance(1.0), h=0.1,
              t_final=0.3, n_paths=300, seed=3, threads=3)
    assert 1 <= len(builds) <= 3
