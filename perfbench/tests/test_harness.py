"""Unit tests of the benchmark harness: self-time arithmetic, fault accounting,
the tracer's name-lookup patching and the calibrated meter.

Run from the root of the repository:  python3 -m pytest -q perfbench/tests
"""

import sys
import threading
import time
import tracemalloc
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
sys.path.insert(0, str(HERE.parent.parent / "src"))

import layers  # noqa: E402
import meter as metering  # noqa: E402
import run  # noqa: E402
from tracer import NO_PARENT, Span, Tracer, self_times  # noqa: E402
from workloads import Call  # noqa: E402


def test_self_time_of_nested_spans():
    spans = [
        Span(0, NO_PARENT, "outer", 1, 0.0, 10.0),
        Span(1, 0, "child", 1, 1.0, 4.0),
        Span(2, 1, "grandchild", 1, 2.0, 3.0),
        Span(3, 0, "child", 1, 5.0, 6.0),
    ]
    selfs = self_times(spans)
    assert selfs[0] == pytest.approx(6.0)  # grandchildren do not count against the outer span
    assert selfs[1] == pytest.approx(2.0)
    assert selfs[2] == pytest.approx(1.0)
    assert selfs[3] == pytest.approx(1.0)


def test_self_time_counts_overlapping_children_on_two_threads_once():
    spans = [
        Span(0, NO_PARENT, "run_paths", 1, 0.0, 10.0),
        Span(1, 0, "chunk", 2, 1.0, 6.0),
        Span(2, 0, "chunk", 3, 2.0, 8.0),
        Span(3, 1, "move", 2, 1.5, 5.5),
    ]
    selfs = self_times(spans)
    assert selfs[0] == pytest.approx(3.0)  # 10 minus the union [1, 8]
    assert selfs[1] == pytest.approx(1.0)
    assert selfs[2] == pytest.approx(6.0)


def test_pool_thread_spans_take_the_callers_open_span_as_parent():
    tracer = Tracer()
    work = tracer.wrap(lambda: time.sleep(0.02), "work")
    with tracer.span("outer"):
        threads = [threading.Thread(target=work) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=5.0)
    assert not any(t.is_alive() for t in threads)
    outer = next(s for s in tracer.spans if s.name == "outer")
    kids = [s for s in tracer.spans if s.name == "work"]
    assert len(kids) == 2 and all(s.parent == outer.sid for s in kids)
    assert {s.tid for s in kids}.isdisjoint({outer.tid})
    union = max(s.end for s in kids) - min(s.start for s in kids)
    assert self_times(tracer.spans)[outer.sid] == pytest.approx((outer.end - outer.start) - union)


class _Fault(ValueError):
    pass


def test_a_raising_call_counts_all_its_paths_as_failed():
    def boom():
        raise _Fault("rate infeasible")

    calls = [
        Call("ok", 10, lambda: 1, lambda out: [], lambda out: 100),
        Call("raises", 20, boom, lambda out: [], lambda out: 100),
        Call("wrong", 30, lambda: 2, lambda out: ["bad output"], lambda out: 100),
    ]
    bm = types.SimpleNamespace(faults=(_Fault,))
    tally = run.Tally()
    result = run.run_pass(bm, calls, tally, 0)
    assert (tally.attempted, tally.failed) == (60, 50)
    assert tally.faults == [
        {"pass": 0, "row": "raises", "error": "_Fault", "paths_lost": 20, "message": "rate infeasible"}
    ]
    assert tally.problems == [{"pass": 0, "row": "wrong", "problems": ["bad output"]}]
    assert result.path_steps == 100  # only the call that succeeded and passed its check
    assert set(result.calls) == {"ok", "raises", "wrong"}


def test_an_error_outside_bmcouple_propagates():
    def bug():
        raise ZeroDivisionError

    bm = types.SimpleNamespace(faults=(_Fault,))
    with pytest.raises(ZeroDivisionError):
        run.run_pass(bm, [Call("bug", 1, bug, lambda out: [], lambda out: 0)], run.Tally(), 0)


def test_patch_function_replaces_every_lookup_site():
    def fn():
        return 7

    home = types.ModuleType("home")
    user = types.ModuleType("user")
    home.fn = fn
    user.alias = fn
    user.other = len
    tracer = Tracer()
    assert tracer.patch_function(fn, "fn", modules=[home, user]) == 2
    assert home.fn is not fn and user.alias is not fn and user.other is len
    assert user.alias() == 7 and [s.name for s in tracer.spans] == ["fn"]
    tracer.uninstall()
    assert home.fn is fn and user.alias is fn


@pytest.fixture
def bm():
    return run.import_bmcouple()


def test_install_patches_names_where_bmcouple_looks_them_up(bm):
    couplings, drivers, simulate = bm.couplings, bm.drivers, bm.simulate
    originals = (drivers.stroock_step, couplings.kendall_compose, simulate.run_paths, bm.verify.run_paths)
    tracer = Tracer()
    assert layers.install(tracer) == []
    try:
        assert couplings.stroock_step is not originals[0]
        assert drivers.stroock_step is couplings.stroock_step
        assert couplings.kendall_compose is not originals[1]
        assert simulate.run_paths is not originals[2] and bm.verify.run_paths is simulate.run_paths
        space = bm.spaces.ModelSpace.sphere(2)
        strategy = couplings.make_strategy("fixed-s2", space)
        simulate.run_paths(
            strategy, space.base_point(), space.point_at_distance(1.0),
            h=1e-2, t_final=0.05, n_paths=6, seed=3, threads=2,
        )
    finally:
        tracer.uninstall()
    assert (drivers.stroock_step, couplings.kendall_compose, simulate.run_paths, bm.verify.run_paths) == originals

    by_id = {s.sid: s for s in tracer.spans}
    names = {s.name for s in tracer.spans}
    assert {"simulate.run_paths", "simulate.run_chunk", "couplings.step", "couplings.move.fixed-s2",
            "drivers.kendall_compose", "drivers.stroock_step", "drivers.noise", "spaces.distance"} <= names
    for s in tracer.spans:
        if s.name == "drivers.kendall_compose":
            assert by_id[s.parent].name == "couplings.move.fixed-s2"
        if s.name == "simulate.run_chunk":
            assert by_id[s.parent].name == "simulate.run_paths"

    m = layers.layer_metrics(tracer.spans)
    assert m["couplings.path_steps"] == 6 * 5
    assert m["drivers.normals_drawn"] == 6 * 5 * 6  # primary and auxiliary draws of fixed-s2
    assert m["drivers.noise_used_frac"] == 1.0
    assert m["drivers.kendall_compose_calls"] == 2 * 5  # two chunks of three paths
    assert m["couplings.rows_per_move"] == 3.0
    assert 0.0 < m["simulate.thread_busy_frac"] <= 1.0


def _fake_calibration(values):
    values = iter(values)
    return lambda repeats=metering.CAL_REPEATS: next(values)


def test_scaled_time_divides_by_the_mean_calibration_of_the_pass():
    ref = metering.REFERENCE_S[1]
    cals = [ref, 3 * ref, 2 * ref, 2 * ref]  # begin and end of each of two calls
    meter = metering.Meter(1, calibrate=_fake_calibration(cals))
    calls = [Call(name, 1, lambda: time.sleep(0.01), lambda out: [], lambda out: 1) for name in "ab"]
    result = run.run_pass(types.SimpleNamespace(faults=()), calls, run.Tally(), 0, meter=meter)
    assert meter.calibrations == cals
    assert result.scaled_s == pytest.approx(result.wall_s / 2.0)
    raw_a, scaled_a, _ = result.calls["a"]
    assert scaled_a == pytest.approx(raw_a / 2.0) and raw_a >= 0.01


def test_checkpoint_cuts_only_on_the_callers_thread_with_no_other_thread_alive(monkeypatch):
    monkeypatch.setattr(metering, "SEGMENT_S", 0.0)
    meter = metering.Meter(1, calibrate=lambda repeats=metering.CAL_REPEATS: 1.0)
    meter.checkpoint()  # no call open
    assert meter.calibrations == []
    meter.begin()
    meter.checkpoint()
    assert len(meter.calibrations) == 2
    other = threading.Thread(target=meter.checkpoint)
    other.start()
    other.join(timeout=5.0)
    assert len(meter.calibrations) == 2
    release = threading.Event()
    busy = threading.Thread(target=release.wait)
    busy.start()
    try:
        meter.checkpoint()
    finally:
        release.set()
        busy.join(timeout=5.0)
    assert len(meter.calibrations) == 2
    assert meter.end() >= 0.0 and len(meter.calibrations) == 3


def test_checkpoints_at_wraps_functions_and_methods_and_restores_them(monkeypatch):
    monkeypatch.setattr(metering, "SEGMENT_S", 0.0)

    def fn(x):
        return x + 1

    class Record:
        def to_csv(self):
            return "csv"

    module = types.ModuleType("module")
    module.fn = fn
    method = Record.__dict__["to_csv"]
    meter = metering.Meter(1, calibrate=lambda repeats=metering.CAL_REPEATS: 1.0)
    meter.begin()
    with meter.checkpoints_at([(module, "fn"), (Record, "to_csv")]):
        assert module.fn is not fn
        assert module.fn(1) == 2 and Record().to_csv() == "csv"
    assert len(meter.calibrations) == 3
    assert module.fn is fn and Record.__dict__["to_csv"] is method
    assert Record().to_csv() == "csv" and len(meter.calibrations) == 3


def test_calibration_allocates_nothing_once_built():
    walk = metering.Walk(metering.CAL_ROWS, 1)
    tracemalloc.start()
    try:
        walk.run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < metering.CAL_ROWS * 8  # less than one column of the walk
    assert all(metering.Calibration(threads)(repeats=2) > 0.0 for threads in (1, 2))


def test_a_long_segment_gets_a_longer_calibration():
    repeats = []
    meter = metering.Meter(1, calibrate=lambda n=metering.CAL_REPEATS: repeats.append(n) or 1.0)
    meter.begin()
    meter._start -= 2.5 * metering.CAL_SPAN_S  # as if the call had run that long
    meter.end()
    assert repeats == [metering.CAL_REPEATS, 3 * metering.CAL_REPEATS]
