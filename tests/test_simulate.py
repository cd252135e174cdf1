import io

import numpy as np

from bmcouple.couplings import make_strategy
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
