"""Pinned trajectories: every strategy's short run, bit for bit.

Each case runs ``run_paths`` for 8 paths and 20 steps with ``record_stride=5``
and one snapshot.  It compares the last recorded distance row and the
snapshot points, written as ``float.hex``, and every recorded regime flag
against ``pinned_records.json``.
A kernel change that is meant to keep outputs bitwise must keep this test
passing; one that changes them at roundoff must say so and re-pin the cases
it moves, by label:

    PYTHONPATH=src python3 tests/test_pinned_records.py LABEL...

That rewrites (or adds) only the named cases and leaves every other line.
"""

import contextlib
import json
import math
import pathlib
import sys
from unittest import mock

import numpy as np
import pytest

from bmcouple import simulate
from bmcouple.couplings import STRATEGIES, make_strategy
from bmcouple.simulate import run_paths
from bmcouple.spaces import parse_space

PINNED = pathlib.Path(__file__).with_name("pinned_records.json")

# label: (space, strategy id, make_strategy keywords, start distance[, start
# point]).  Without a start point a case starts at the base point; with one,
# y starts at the start distance from it (``_start_pair``).
CASES = {
    "translation": ("flat:2", "translation", {}, 1.0),
    "mirror-s2": ("sphere:2", "mirror-s2", {}, 1.0),
    "extrinsic-contract-s2": ("sphere:2", "extrinsic-contract-s2", {}, 1.0),
    "extrinsic-expand-s2": ("sphere:2", "extrinsic-expand-s2", {}, 1.0),
    # x.y = cos 2.5 < -0.5: the first steps take the two-reflection rotation
    "extrinsic-contract-s2-far": ("sphere:2", "extrinsic-contract-s2", {}, 2.5),
    "fixed-s2": ("sphere:2", "fixed-s2", {}, 1.0),
    "rotation": ("sphere:2", "rotation", {"k": 0.5}, 1.0),
    "rotation-sphere3": ("sphere:3", "rotation", {"k": 1.0}, 1.0),
    "rotation-hyperbolic3": ("hyperbolic:3", "rotation", {"alpha_override": math.pi}, 1.0),
    "rotation-flat3": ("flat:3", "rotation", {"alpha_override": 0.5 * math.pi}, 1.0),
    "rotation-patched": ("sphere:2", "rotation", {"alpha_override": math.pi, "eps": 0.3}, math.pi - 0.4),
    # the fixed angles of the distance-law ladder; even dimensions drive a
    # fictitious direction
    "rotation-hyperbolic2-perverse": ("hyperbolic:2", "rotation", {"alpha_override": math.pi}, 1.0),
    "rotation-sphere2-synchronous": ("sphere:2", "rotation", {"alpha_override": 0.0}, 1.0),
    "rotation-flat2-perverse": ("flat:2", "rotation", {"alpha_override": math.pi}, 1.0),
    # x starts near -e_0, where the reference frame takes its second pole
    "rotation-second-pole": ("sphere:2", "rotation", {"k": 0.5}, 1.0, (-1.0, 0.08, 0.05)),
    # these start in the independent regime, so they pin the lone-particle move
    "fixed-s2-patched": ("sphere:2", "fixed-s2", {"eps": 0.3}, math.pi - 0.2),
    "extrinsic-contract-s2-patched": ("sphere:2", "extrinsic-contract-s2", {"eps": 0.3}, math.pi - 0.2),
    "extrinsic-expand-s2-patched": ("sphere:2", "extrinsic-expand-s2", {"eps": 0.3}, 0.05),
    "so3-flow": ("sphere:2", "so3-flow", {}, 1.0),
    "independent": ("sphere:2", "independent", {}, 1.0),
    "independent-hyperbolic2": ("hyperbolic:2", "independent", {}, 1.0),
    "broken-marginal": ("sphere:2", "broken-marginal", {}, 1.0),
    "fixed-s2-stopped": ("sphere:2", "fixed-s2", {}, 0.3),
}
# label: angular radius of a cap about the base point that stops the run.  In
# noise windows of 4 steps its paths stop at steps 3, 5, 5, 7, 10 and 12, and
# two never do, so rows stop inside windows and later windows start with fewer.
STOP_CAPS = {"fixed-s2-stopped": 0.9}


def _start_pair(space, rho0, start=None):
    """The base point and the point at ``rho0`` from it; or the start point,
    normalized onto the space, and the point at ``rho0`` from it toward the
    last ambient axis."""
    if start is None:
        return space.base_point(), space.point_at_distance(rho0)
    x0 = np.asarray(start, float)
    x0 /= np.linalg.norm(x0)
    toward = np.zeros_like(x0)
    toward[-1] = 1.0
    v = toward - (toward @ x0) * x0
    return x0, space.exp_map(x0, v / np.linalg.norm(v), rho0)


def _capture(label: str) -> dict:
    space_text, strategy_id, kwargs, rho0, *start = CASES[label]
    space = parse_space(space_text)
    stop, window = None, contextlib.nullcontext()
    if label in STOP_CAPS:
        level = math.cos(STOP_CAPS[label])
        stop, window = (lambda p: p[:, 0] - level), mock.patch.object(simulate, "NOISE_WINDOW", 4)
    with window:
        record = run_paths(
            make_strategy(strategy_id, space, **kwargs),
            *_start_pair(space, rho0, *start),
            h=0.05,
            t_final=1.0,
            n_paths=8,
            seed=2026,
            record_stride=5,
            snapshot_times=(0.5,),
            stop=stop,
        )
    assert len(record.times) == 5
    xs, ys = record.snapshots[0.5]
    hexes = lambda rows: [[float(v).hex() for v in row] for row in rows.tolist()]
    return {
        "rho": [float(v).hex() for v in record.rho[-1].tolist()],
        "x": hexes(xs),
        "y": hexes(ys),
        "regime": record.regime.tolist(),
    }


def test_every_strategy_is_pinned():
    assert set(STRATEGIES) <= {CASES[label][1] for label in CASES}
    assert any("eps" in CASES[label][2] for label in CASES)


def test_second_pole_case_uses_the_second_pole():
    """The reference frame switches its pole where 1 + x_0 < 0.1: the case
    starts there, and some of its x points are still there at the snapshot."""
    space_text, _, _, rho0, start = CASES["rotation-second-pole"]
    x0, y0 = _start_pair(parse_space(space_text), rho0, start)
    assert 1.0 + x0[0] < 0.1
    assert abs(np.arccos(x0 @ y0) - rho0) < 1e-12
    xs = np.array([[float.fromhex(v) for v in row] for row in json.loads(PINNED.read_text())["rotation-second-pole"]["x"]])
    assert 0 < np.count_nonzero(1.0 + xs[:, 0] < 0.1) < len(xs)


@pytest.mark.parametrize("label", sorted(CASES))
def test_record_is_pinned(label):
    expected = json.loads(PINNED.read_text())[label]
    assert _capture(label) == expected


if __name__ == "__main__":
    labels = sys.argv[1:]
    unknown = [label for label in labels if label not in CASES]
    if not labels or unknown:
        sys.exit(f"usage: {sys.argv[0]} LABEL...  (unknown: {unknown}; known: {', '.join(CASES)})")
    pinned = json.loads(PINNED.read_text())
    pinned.update((label, _capture(label)) for label in labels)
    # one line per case, so that a diff names the cases that moved
    PINNED.write_text("{\n" + ",\n".join(f"{json.dumps(c)}: {json.dumps(v)}" for c, v in pinned.items()) + "\n}\n")
