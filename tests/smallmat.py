"""Matrix constructions of the couplings, kept as test oracles.

The library runs only closed-form noise maps in ``bmcouple.couplings``, which
form no matrix and no frame, and applies its reference frame in closed form
(``ModelSpace.frame_apply``).  The 2-sphere constructions here are one-pair
versions written independently (explicit outer products, one pair at a time).
The reference frame is built here as a matrix, by transporting the coordinate
frame at the pole, and the rotation coupling's oracle builds the adapted frame
and its parallel transport literally from it.  The tests compare the two.
It also holds the tests' random points and the exact one-step factors of the
two drivers, the oracles of their weak order.
"""

from __future__ import annotations

from math import gamma

import numpy as np

from bmcouple.drivers import StepNoise
from bmcouple.errors import DegenerateInputError, DomainError
from bmcouple.spaces import rowsum

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


def fixed_distance_move(x, y, gp, ga, h):
    """The fixed-distance move as a formula on C-ordered (n, 3) rows: the
    noise map J gp + K ga = c gp + s ga + lam x, then one projected Euler
    step of each particle.  Dots are einsum's and sums numpy's reduction on
    C-ordered rows, the operation order the library matches bitwise on any
    layout (``rowdot``, ``rowsum``), with no check and no in-place update."""
    x, y, gp, ga = (np.ascontiguousarray(a, dtype=float) for a in (x, y, gp, ga))

    def dot(a, b):
        return np.einsum("...j,...j->...", np.ascontiguousarray(a), np.ascontiguousarray(b))

    def step(p, noise):
        scaled = np.sqrt(h) * noise
        move = scaled - np.add.reduce(p * scaled, axis=-1)[:, None] * p
        out = p * (1.0 - h) + move
        return out / np.sqrt(np.add.reduce(out * out, axis=-1))[:, None]

    c = dot(x, y)
    e = y - c[:, None] * x
    e -= dot(e, x)[:, None] * x
    e /= np.sqrt(dot(e, e))[:, None]
    s = np.sqrt(1.0 - c * c)
    lam = c * (dot(e, ga) - dot(x, gp)) - s * (dot(e, gp) + dot(x, ga))
    w = c[:, None] * gp + s[:, None] * ga + lam[:, None] * x
    return step(x, gp), step(y, w)


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


def reference_frame(space, x) -> np.ndarray:
    """Deterministic orthonormal tangent frame at x, shape (..., d, ambient).

    Built by transporting the coordinate frame at the pole; on the sphere a
    second pole takes over near the antipode of the first.
    """
    x = np.asarray(x, float)
    batch = x.shape[:-1]
    if space.curvature == 0:
        eye = np.eye(space.dim)
        return np.broadcast_to(eye, batch + (space.dim, space.dim)).copy()
    frame = _transported_frame(space, x, pole_axis=0)
    if space.curvature == 1:
        near = 1.0 + x[..., 0] < 0.1
        if np.any(near):
            alt = _transported_frame(space, x, pole_axis=1)
            frame = np.where(near[..., None, None], alt, frame)
    return frame


def _transported_frame(space, x, pole_axis: int) -> np.ndarray:
    amb = space.ambient_dim
    pole = np.zeros(amb)
    pole[pole_axis] = 1.0
    axes = [j for j in range(amb) if j != pole_axis]
    w = np.zeros((space.dim, amb))
    for row, j in enumerate(axes):
        w[row, j] = 1.0
    x_exp = x[..., None, :]
    if space.curvature == 1:
        # the clamp only matters where the alternate pole takes over
        c = np.maximum(1.0 + x[..., pole_axis], 1e-3)[..., None]
        coef = rowsum(x_exp * w) / c
        return w - coef[..., None] * (pole + x_exp)
    ch = x[..., 0][..., None]
    coef = space.metric_dot(x_exp, w) / (1.0 + ch)
    return w + coef[..., None] * (pole + x_exp)


def frame_with_first(space, x, u) -> np.ndarray:
    """Orthonormal tangent frame at x whose first vector is the unit tangent u.

    The remaining vectors come from rotating the reference frame by the
    Householder map aligning its coefficient of u with the first slot, so
    the result is deterministic and batch-friendly.
    """
    x = np.asarray(x, float)
    u = np.asarray(u, float)
    base = reference_frame(space, x)
    coef = space.metric_dot(base, u[..., None, :])  # (..., d)
    d = space.dim
    e1 = np.zeros(d)
    e1[0] = 1.0
    wvec = e1 - coef
    wsq = rowsum(wvec * wvec)
    eye = np.broadcast_to(np.eye(d), coef.shape[:-1] + (d, d))
    house = eye - 2.0 * wvec[..., :, None] * wvec[..., None, :] / np.maximum(
        wsq, 1e-300
    )[..., None, None]
    house = np.where(wsq[..., None, None] > 1e-24, house, eye)
    # frame_j = sum_m house[m, j] * base_m ; row 0 reproduces u exactly up to fp
    frame = np.einsum("...mj,...ma->...ja", house, base)
    frame[..., 0, :] = u
    return frame


def geodesic_walk(space, x, noise, h: float) -> np.ndarray:
    """The geodesic random-walk step on the matrix frame: the exponential of
    sqrt(h) * sum_i noise_i frame_i."""
    frame = reference_frame(space, x)
    return space.exp_tangent(x, np.sqrt(h) * np.einsum("...j,...ja->...a", noise, frame))


def rotation_noise_tangents(space, x, y, gp, alpha):
    """Tangent noise pair (xi at x, eta at y) of the rotation coupling, built on
    frames: the frame at x whose first vector points along the geodesic to y
    (``frame_with_first``) carries the noise, its parallel transport to y
    carries the noise rotated by alpha in the perpendicular 2-planes."""
    d = space.dim
    rho = space.distance(x, y)
    gdir = space.log_map(x, y) / rho[:, None]
    frame_x = frame_with_first(space, x, gdir)
    frame_y = space.parallel_transport(x[:, None, :], y[:, None, :], frame_x)
    rotated = rotate_pairs_transposed(gp, alpha)
    xi = np.einsum("nj,nja->na", gp[:, :d], frame_x)
    eta = np.einsum("nj,nja->na", rotated[:, :d], frame_y)
    return xi, eta


def so3_exp(omega) -> np.ndarray:
    """Matrix exponential of the cross-product matrix of omega (axis-angle form)."""
    omega = np.asarray(omega, float)
    theta = float(np.linalg.norm(omega))
    if theta < 1e-154:
        return np.eye(3)
    axis = omega / theta
    hat = np.array(
        [
            [0.0, -axis[2], axis[1]],
            [axis[2], 0.0, -axis[0]],
            [-axis[1], axis[0], 0.0],
        ]
    )
    return np.eye(3) + np.sin(theta) * hat + (1.0 - np.cos(theta)) * (hat @ hat)


def reorthonormalize_rotation(z: np.ndarray) -> np.ndarray:
    """Project a near-rotation 3x3 matrix back onto SO(3) (Gram-Schmidt on rows)."""
    r0 = z[0] / np.linalg.norm(z[0])
    r1 = z[1] - np.dot(r0, z[1]) * r0
    r1 /= np.linalg.norm(r1)
    r2 = np.cross(r0, r1)
    return np.array([r0, r1, r2])


def so3_flow_step(z, noise, h: float) -> np.ndarray:
    """One step of the rotation-group random walk Z -> exp(sqrt(h) [noise]_x) Z.

    The unit generator scaling makes Z_t x a spherical Brownian motion with
    generator Laplacian/2 (linear functionals decay like exp(-t)).
    """
    if h <= 0.0:
        raise DomainError(f"step size must be positive, got {h}")
    z = np.asarray(z, float)
    if z.shape != (3, 3):
        raise DomainError(f"rotation state must be 3x3, got {z.shape}")
    rot = so3_exp(np.sqrt(h) * np.asarray(noise, float))
    return reorthonormalize_rotation(rot @ z)


def step_noise(stream, primary_dim: int, aux_dim: int = 0, n: int | None = None) -> StepNoise:
    """One step's draws from a NoiseStream: the primary block, then the
    auxiliary block if aux_dim > 0; n adds a leading path axis."""
    shape = (primary_dim,) if n is None else (n, primary_dim)
    primary = stream.standard_normal(shape)
    aux = None
    if aux_dim:
        aux_shape = (aux_dim,) if n is None else (n, aux_dim)
        aux = stream.standard_normal(aux_shape)
    return StepNoise(primary=primary, auxiliary=aux)


def random_point(space, rng) -> np.ndarray:
    """A random point of the space: normal coordinates on flat space, a
    normalized normal vector on the sphere, and the exponential of a normal
    tangent vector at the pole on the hyperboloid."""
    if space.curvature == 0:
        return rng.standard_normal(space.dim)
    if space.curvature == 1:
        g = rng.standard_normal(space.ambient_dim)
        return g / np.linalg.norm(g)
    v = np.zeros(space.ambient_dim)
    v[1:] = rng.standard_normal(space.dim)
    s = np.linalg.norm(v[1:])
    v /= max(s, 1e-300)
    return space._exp_unit(space.base_point(), v, np.asarray(s))


def stroock_linear_factor(h: float, n_nodes: int = 120) -> float:
    """Exact one-step multiplier of linear functionals under stroock_step.

    By rotational symmetry E[v . X_next | X] = factor(h) * (v . X); the factor
    is a one-dimensional Gaussian integral evaluated by Gauss-Laguerre
    quadrature, so weak-error decay can be measured without Monte Carlo.
    """
    nodes, weights = np.polynomial.laguerre.laggauss(n_nodes)
    # |P G|^2 with G standard 3-normal and P the tangent projector is chi^2_2,
    # i.e. 2T with T ~ Exp(1).
    vals = (1.0 - h) / np.sqrt((1.0 - h) ** 2 + 2.0 * h * nodes)
    return float(np.sum(weights * vals))


def walk_linear_factor(h: float, dim: int, n_nodes: int = 160) -> float:
    """Exact one-step multiplier of ambient-linear functionals under
    geodesic_walk_step on the sphere of dimension ``dim``: E cos(sqrt(h) |G|),
    G standard normal in R^dim.  Even dim: Gauss-Laguerre in T = |G|^2 / 2.
    Odd dim: Gauss-Hermite in r = |G|, whose weight r^(dim-1) e^(-r^2/2) is an
    even polynomial times a Gaussian (half the whole-line integral)."""
    if dim % 2:
        nodes, weights = np.polynomial.hermite_e.hermegauss(n_nodes)
        vals = np.cos(np.sqrt(h) * nodes) * nodes ** (dim - 1)
        return float(np.sum(weights * vals) / (2.0 ** (dim / 2.0) * gamma(dim / 2.0)))
    nodes, weights = np.polynomial.laguerre.laggauss(n_nodes)
    power = dim / 2.0 - 1.0
    vals = np.cos(np.sqrt(2.0 * h * nodes)) * nodes**power
    return float(np.sum(weights * vals) / gamma(dim / 2.0))
