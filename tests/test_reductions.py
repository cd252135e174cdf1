"""Guards on the stepping path: ``rowsum`` and ``rowdot`` in place of strided
last-axis reductions and ``einsum`` row dots in the kernels, on row-major and
coordinate-major (transposed) arrays alike, no ``clip`` or ``stack`` calls,
and no frame built on it."""

import ast
import pathlib

import numpy as np
import pytest

from bmcouple.spaces import rowdot, rowsum

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "bmcouple"


@pytest.mark.parametrize("length", range(1, 13))
@pytest.mark.parametrize("lead", [(), (1,), (7,), (200,), (2048,), (2, 200), (200, 3)])
def test_rowsum_is_numpys_reduction(lead, length):
    """Bit for bit on nonzero sums; a row of -0.0 entries is covered by
    ``test_rowsum_and_rowdot_of_transposed_rows_are_those_of_c_copies``."""
    rng = np.random.default_rng(length)
    for _ in range(20):
        p = rng.standard_normal(lead + (length,)) * np.exp(rng.uniform(-30.0, 30.0, lead + (length,)))
        got, want = rowsum(p), np.add.reduce(p, axis=-1)
        assert got.shape == want.shape
        assert np.array_equal(got, want)
        assert np.array_equal(np.sqrt(rowsum(p * p)), np.linalg.norm(p, axis=-1))


def _draw(rng, shape):
    return rng.standard_normal(shape) * np.exp(rng.uniform(-30.0, 30.0, shape))


def _transposed(a):
    """``a`` in coordinate-major memory: its last axis moved to the front,
    made contiguous and moved back, so each column is a contiguous row."""
    return np.moveaxis(np.ascontiguousarray(np.moveaxis(a, -1, 0)), 0, -1)


def _signed_zero_cases(n, width):
    """Rows of -0.0 products, rows of +-0.0 products and rows with one
    nonzero entry, as pairs (a, b) of shape (n, width)."""
    zeros = np.zeros((n, width))
    zeros[::2, 0] = 1.0
    return [(-zeros, np.ones((n, width))), (zeros[::-1].copy(), -np.ones((n, width))),
            (np.full((n, width), -0.0), np.full((n, width), -0.0))]


def _same_bits(got, want) -> bool:
    return np.shape(got) == np.shape(want) and np.array_equal(np.asarray(got).view(np.uint64),
                                                              np.asarray(want).view(np.uint64))


@pytest.mark.parametrize("width", range(1, 13))
@pytest.mark.parametrize("n", [1, 7, 255, 256, 2048])
def test_rowsum_and_rowdot_of_transposed_rows_are_those_of_c_copies(n, width):
    """On coordinate-major arrays, whose last axis has a stride of a whole
    row of memory, ``rowsum`` and ``rowdot`` give the bits of
    ``np.add.reduce`` and ``np.einsum`` on C-ordered copies: numpy's own
    reductions follow the memory layout, and on such arrays they add in
    other orders (einsum from 3 entries, add.reduce from 8)."""
    rng = np.random.default_rng(1000 * width + n)
    cases = [(_draw(rng, (n, width)), _draw(rng, (n, width))) for _ in range(5)]
    cases += _signed_zero_cases(n, width)
    stacked = (_draw(rng, (2, n, width)), _draw(rng, (n, width)))  # a stacked pair against one set of rows
    for a, b in cases + [stacked]:
        want_dot = np.einsum("...j,...j->...", np.ascontiguousarray(a), np.ascontiguousarray(b))
        want_sum = np.add.reduce(np.ascontiguousarray(a), axis=-1)
        for ta, tb in ((_transposed(a), _transposed(b)), (_transposed(a), b), (a, _transposed(b))):
            assert _same_bits(rowdot(ta, tb), want_dot)
            assert _same_bits(rowdot(tb, ta), np.einsum("...j,...j->...", np.ascontiguousarray(b),
                                                        np.ascontiguousarray(a)))
        # add.reduce sums a row of -0.0 to +0.0 from 2 entries, and rowsum,
        # which adds columns, to -0.0 on every layout; other bits agree
        got_sum = rowsum(_transposed(a))
        assert _same_bits(got_sum, rowsum(np.ascontiguousarray(a)))
        assert np.array_equal(got_sum, want_sum)
        assert _same_bits(got_sum[want_sum != 0.0], want_sum[want_sum != 0.0])


@pytest.mark.parametrize("width", range(1, 13))
def test_rowdot_is_einsum(width):
    """Bit for bit, signs of zero included, at scales e^+-30, on lead shapes,
    a (2, n, w) . (n, w) broadcast and column views of wider arrays, against
    einsum on C-ordered copies."""
    rng = np.random.default_rng(width)

    def draw(shape):
        return rng.standard_normal(shape) * np.exp(rng.uniform(-30.0, 30.0, shape))

    # rowdot adds columns itself from 256 to 1024 rows, by width
    leads = [(), (200,), (2, 200), (4096,), (2, 2048)]
    cases = [(draw(lead + (width,)), draw(lead + (width,))) for lead in leads]
    cases += [(draw((2, n, width)), draw((n, width))) for n in (200, 2048)]
    wide = draw((4096, 2 * width + 1))
    cases.append((wide[:, 1 : width + 1], wide[:, width + 1 :]))  # rows of unit stride
    cases.append((wide[:, ::2][:, :width], wide[:, 1::2][:, :width]))  # strided rows
    zeros = np.zeros((4096, width))
    zeros[::2, 0] = 1.0  # rows of -0.0 products, and mixed +-0 rows
    cases.append((-zeros, np.ones((4096, width))))
    cases.append((zeros[::-1], -np.ones((4096, width))))
    for a, b in cases:
        for _ in range(2):
            assert _same_bits(rowdot(a, b), np.einsum("...j,...j->...", np.ascontiguousarray(a), np.ascontiguousarray(b)))
            a, b = b, a


REDUCTIONS = {"np.sum", "np.add.reduce", "np.linalg.norm"}


def _last_axis_reductions(tree) -> list:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and ast.unparse(node.func) in REDUCTIONS:
            axes = [kw.value for kw in node.keywords if kw.arg == "axis"] + node.args[1:2]
            if any(ast.unparse(axis) == "-1" for axis in axes):
                found.append(f"line {node.lineno}: {ast.unparse(node)}")
    return found


def _stepping_path_trees() -> dict:
    """The stepping modules and the ``ModelSpace`` class; the module-level
    quadrature and ODE code in spaces.py is out of scope."""
    trees = {name: ast.parse((SRC / name).read_text()) for name in ("couplings.py", "drivers.py", "simulate.py")}
    spaces = ast.parse((SRC / "spaces.py").read_text())
    (model,) = [node for node in spaces.body if isinstance(node, ast.ClassDef) and node.name == "ModelSpace"]
    trees["spaces.ModelSpace"] = model
    return trees


def test_stepping_path_has_no_strided_last_axis_reductions():
    """The stepping path sums short last axes with ``rowsum``; the module-level
    quadrature in spaces.py keeps numpy's pairwise sums."""
    found = {name: _last_axis_reductions(tree) for name, tree in _stepping_path_trees().items()}
    assert found == {name: [] for name in found}


def test_guard_sees_each_spelling():
    code = "np.sum(a, axis=-1); np.add.reduce(a, -1, keepdims=True); np.linalg.norm(a, axis=-1); np.sum(a)"
    assert len(_last_axis_reductions(ast.parse(code))) == 3


def _einsum_calls(tree) -> list:
    return [
        f"line {node.lineno}: {ast.unparse(node.func)}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and (
            (isinstance(node.func, ast.Attribute) and node.func.attr == "einsum")
            or (isinstance(node.func, ast.Name) and node.func.id == "einsum")
        )
    ]


def test_stepping_path_has_no_einsum():
    """Row dots go through ``rowdot``, which adds in einsum's order without
    einsum on big batches and on coordinate-major rows: couplings.py and the
    other stepping modules call no einsum, and in spaces.py only ``rowdot``
    does."""
    found = {name: _einsum_calls(tree) for name, tree in _stepping_path_trees().items()}
    spaces = ast.parse((SRC / "spaces.py").read_text())
    found["spaces.py"] = [
        f"{node.name}: {call}"
        for node in spaces.body
        if isinstance(node, ast.FunctionDef) and node.name != "rowdot"
        for call in _einsum_calls(node)
    ]
    assert found == {name: [] for name in found}


def test_einsum_guard_sees_each_spelling():
    code = "np.einsum('ij,ij->i', a, b); numpy.einsum(s, a); einsum(s, a, b); np.einsum_path(s, a); rowdot(a, b)"
    assert len(_einsum_calls(ast.parse(code))) == 3


SLOW_CALLS = {"clip", "stack"}


def _slow_calls(tree) -> list:
    return [
        f"line {node.lineno}: {ast.unparse(node)}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr in SLOW_CALLS
    ]


def test_stepping_path_has_no_clip_or_stack():
    """Per call at 200 rows, ``np.minimum`` (with ``np.maximum``) and a
    concatenation of ``[None]`` views give the same bits as ``np.clip`` and
    ``np.stack`` in a third to a half of the time."""
    found = {name: _slow_calls(tree) for name, tree in _stepping_path_trees().items()}
    assert found == {name: [] for name in found}


def test_clip_and_stack_guard_sees_each_spelling():
    code = "np.clip(a, 0.0, 1.0); a.clip(-1.0, 1.0); np.stack((a, b)); numpy.stack([a, b], axis=1); np.minimum(a, 1.0)"
    assert len(_slow_calls(ast.parse(code))) == 4


FRAME_METHODS = {"reference_frame", "frame_with_first", "log_map", "parallel_transport"}


def _frame_calls(tree) -> list:
    return [
        f"line {node.lineno}: {ast.unparse(node.func)}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in FRAME_METHODS
    ]


def test_stepping_path_builds_no_frame():
    """The moves apply the reference frame in closed form
    (``ModelSpace.frame_apply``); the matrix frames, log map and transport are
    left to the tests."""
    names = ("couplings.py", "drivers.py", "simulate.py")
    found = {name: _frame_calls(ast.parse((SRC / name).read_text())) for name in names}
    assert found == {name: [] for name in found}


def _distance_calls(tree) -> list:
    return [
        f"line {node.lineno}: {ast.unparse(node)}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "distance"
    ]


def test_recording_measures_no_geodesic_distance():
    """``_run_chunk`` records y - x, measures the chords once a flush and
    derives rho from them (``ModelSpace.chord_distance``): no per-step
    distance comes back into the recorder."""
    assert _distance_calls(ast.parse((SRC / "simulate.py").read_text())) == []


def test_distance_guard_sees_each_spelling():
    code = "strategy.space.distance(st.x, st.y); space.distance(a, b); distance(a, b); space.chord_distance(c)"
    assert len(_distance_calls(ast.parse(code))) == 2
