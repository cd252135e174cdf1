"""Pinned trajectories: every strategy's short run, bit for bit.

Each case runs ``run_paths`` for 8 paths and 20 steps with ``record_stride=5``
and one snapshot.  It compares the last recorded distance row and the
snapshot points, written as ``float.hex``, and every recorded regime flag
against ``pinned_records.json``.
A kernel change that is meant to keep outputs bitwise must keep this test
passing; one that changes them at roundoff must say so and re-pin with

    PYTHONPATH=src python3 tests/test_pinned_records.py
"""

import json
import math
import pathlib

import pytest

from bmcouple.couplings import STRATEGIES, make_strategy
from bmcouple.simulate import run_paths
from bmcouple.spaces import parse_space

PINNED = pathlib.Path(__file__).with_name("pinned_records.json")

# label: (space, strategy id, make_strategy keywords, start distance)
CASES = {
    "translation": ("flat:2", "translation", {}, 1.0),
    "mirror-s2": ("sphere:2", "mirror-s2", {}, 1.0),
    "extrinsic-contract-s2": ("sphere:2", "extrinsic-contract-s2", {}, 1.0),
    "extrinsic-expand-s2": ("sphere:2", "extrinsic-expand-s2", {}, 1.0),
    "fixed-s2": ("sphere:2", "fixed-s2", {}, 1.0),
    "rotation": ("sphere:2", "rotation", {"k": 0.5}, 1.0),
    "rotation-sphere3": ("sphere:3", "rotation", {"k": 1.0}, 1.0),
    "rotation-hyperbolic3": ("hyperbolic:3", "rotation", {"alpha_override": math.pi}, 1.0),
    "rotation-flat3": ("flat:3", "rotation", {"alpha_override": 0.5 * math.pi}, 1.0),
    "rotation-patched": ("sphere:2", "rotation", {"alpha_override": math.pi, "eps": 0.3}, math.pi - 0.4),
    # these start in the independent regime, so they pin the lone-particle move
    "fixed-s2-patched": ("sphere:2", "fixed-s2", {"eps": 0.3}, math.pi - 0.2),
    "extrinsic-contract-s2-patched": ("sphere:2", "extrinsic-contract-s2", {"eps": 0.3}, math.pi - 0.2),
    "extrinsic-expand-s2-patched": ("sphere:2", "extrinsic-expand-s2", {"eps": 0.3}, 0.05),
    "so3-flow": ("sphere:2", "so3-flow", {}, 1.0),
    "independent": ("sphere:2", "independent", {}, 1.0),
    "independent-hyperbolic2": ("hyperbolic:2", "independent", {}, 1.0),
    "broken-marginal": ("sphere:2", "broken-marginal", {}, 1.0),
}


def _capture(label: str) -> dict:
    space_text, strategy_id, kwargs, rho0 = CASES[label]
    space = parse_space(space_text)
    record = run_paths(
        make_strategy(strategy_id, space, **kwargs),
        space.base_point(),
        space.point_at_distance(rho0),
        h=0.05,
        t_final=1.0,
        n_paths=8,
        seed=2026,
        record_stride=5,
        snapshot_times=(0.5,),
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


@pytest.mark.parametrize("label", sorted(CASES))
def test_record_is_pinned(label):
    expected = json.loads(PINNED.read_text())[label]
    assert _capture(label) == expected


if __name__ == "__main__":
    # one line per case, so that a diff names the cases that moved
    PINNED.write_text("{\n" + ",\n".join(f"{json.dumps(c)}: {json.dumps(_capture(c))}" for c in CASES) + "\n}\n")
