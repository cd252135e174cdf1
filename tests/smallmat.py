"""Scalar 3x3 constructions of the 2-sphere couplings, kept as test oracles.

The library runs only batched versions in ``bmcouple.couplings``, where the
fixed-distance driver is a closed-form noise map that forms no matrix; these
one-pair versions are written independently (explicit outer products, one
pair at a time) so the tests can compare the two.
"""

from __future__ import annotations

import numpy as np

from bmcouple.errors import DegenerateInputError, DomainError

UNIT_TOL = 1e-12
PARALLEL_TOL = 1e-10


def _unit(x, name: str) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (3,):
        raise DomainError(f"{name} must be a vector in R^3, got shape {x.shape}")
    if abs(np.dot(x, x) - 1.0) > 2 * UNIT_TOL:
        raise DomainError(f"{name} must be a unit vector (|{name}| = {np.linalg.norm(x):.17g})")
    return x


def rodrigues_rotation(x, y) -> np.ndarray:
    """Rotation matrix taking the unit vector x to the unit vector y.

    The axis is x cross y (left unnormalized, which absorbs the sine of the
    rotation angle) and the angle is the angle between x and y.  The parallel
    and antiparallel cases return +I and -I respectively.  Near-antiparallel
    pairs are computed as the product of two reflections.
    """
    x = _unit(x, "x")
    y = _unit(y, "y")
    c = float(np.dot(x, y))
    if c >= 1.0 - UNIT_TOL:
        return np.eye(3)
    if c <= -1.0 + UNIT_TOL:
        return -np.eye(3)
    if c < -0.5:
        mid = x + y
        mid /= np.linalg.norm(mid)
        reflect_mid = np.eye(3) - 2.0 * np.outer(mid, mid)
        reflect_x = np.eye(3) - 2.0 * np.outer(x, x)
        return reflect_mid @ reflect_x
    cross = np.outer(y, x) - np.outer(x, y)
    u = np.cross(x, y)
    return c * np.eye(3) + cross + np.outer(u, u) / (1.0 + c)


def frame_align(x, y) -> np.ndarray:
    """Orthogonal matrix O with O e1 = x and O (c e1 + sqrt(1-c^2) e2) = y, c = x.y.

    The third column is (x cross y)/sqrt(1-c^2); of the two orthogonal
    completions this is the "+" choice.
    """
    x = _unit(x, "x")
    y = _unit(y, "y")
    c = float(np.dot(x, y))
    if abs(c) >= 1.0 - PARALLEL_TOL:
        raise DegenerateInputError(f"x and y are (near-)parallel: x.y = {c:.17g}")
    out = np.empty((3, 3))
    out[:, 0] = x
    col = y - c * x
    col -= np.dot(col, x) * x
    out[:, 1] = col / np.linalg.norm(col)
    out[:, 2] = np.cross(x, out[:, 1])
    return out


def fixed_distance_matrices(x, y) -> tuple[np.ndarray, np.ndarray]:
    """Matrices (J, K) composing the driver of Y so that |X - Y| stays constant.

    In the aligned basis where X = e1 and Y = c e1 + s e2 they are the
    minimal-norm blocks below; conjugating back by frame_align gives the pair.
    """
    o = frame_align(x, y)
    c = float(np.dot(x, y))
    s = np.sqrt(1.0 - c * c)
    jt = np.array([[0.0, -s, 0.0], [0.0, c, 0.0], [0.0, 0.0, c]])
    kt = np.array([[0.0, c, 0.0], [0.0, s, 0.0], [0.0, 0.0, s]])
    return o @ jt @ o.T, o @ kt @ o.T
