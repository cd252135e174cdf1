"""Matrix constructions of the couplings, kept as test oracles.

The library runs only closed-form noise maps in ``bmcouple.couplings``, which
form no matrix and no frame.  The 2-sphere constructions here are one-pair
versions written independently (explicit outer products, one pair at a time);
the rotation coupling's oracle builds the adapted frame and its parallel
transport literally, with the frame routines of ``bmcouple.spaces``.  The
tests compare the two.
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


def rotate_pairs_transposed(g, alpha) -> np.ndarray:
    """The transposed block rotation: component 0 is fixed and each pair
    (2i-1, 2i) of the rest turns by alpha, one row at a time."""
    out = np.array(g, dtype=float)
    for row, angle in zip(out, np.broadcast_to(alpha, out.shape[:1])):
        ca, sa = np.cos(angle), np.sin(angle)
        for i in range(1, out.shape[1] - 1, 2):
            a, b = row[i], row[i + 1]
            row[i], row[i + 1] = ca * a - sa * b, sa * a + ca * b
    return out


def rotation_noise_tangents(space, x, y, gp, alpha):
    """Tangent noise pair (xi at x, eta at y) of the rotation coupling, built on
    frames: the frame at x whose first vector points along the geodesic to y
    (``frame_with_first``) carries the noise, its parallel transport to y
    carries the noise rotated by alpha in the perpendicular 2-planes."""
    d = space.dim
    rho = space.distance(x, y)
    gdir = space.log_map(x, y) / rho[:, None]
    frame_x = space.frame_with_first(x, gdir)
    frame_y = space.parallel_transport(x[:, None, :], y[:, None, :], frame_x)
    rotated = rotate_pairs_transposed(gp, alpha)
    xi = np.einsum("nj,nja->na", gp[:, :d], frame_x)
    eta = np.einsum("nj,nja->na", rotated[:, :d], frame_y)
    return xi, eta
