import io

import numpy as np
import pytest

from bmcouple.couplings import make_strategy
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
    ],
)
def test_bad_sampling_arguments_are_rejected(kwargs):
    args = dict(h=4e-3, t_final=0.2, n_paths=4, seed=1)
    with pytest.raises(DomainError):
        run_paths(make_strategy("fixed-s2", S2), S2.base_point(), S2.point_at_distance(1.0), **args, **kwargs)
