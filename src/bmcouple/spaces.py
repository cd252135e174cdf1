"""Geometry of the three constant-curvature model spaces.

Euclidean space (curvature 0), the unit sphere (+1) and hyperbolic space (-1,
hyperboloid sheet in Minkowski coordinates with the first coordinate timelike
and positive).  All point/vector operations accept arrays with an arbitrary
number of leading batch axes; the last axis is the ambient coordinate axis.

General curvature is handled by distance/time rescaling at the caller, never
stored here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConjugatePointError, CutLocusError, DomainError

POINT_TOL = 1e-10
ANTIPODE_TOL = 1e-8


@dataclass(frozen=True)
class ModelSpace:
    """Which model space: curvature in {-1, 0, +1} and dimension d >= 2."""

    curvature: int
    dim: int

    def __post_init__(self):
        if self.curvature not in (-1, 0, 1):
            raise DomainError(f"curvature must be -1, 0 or +1, got {self.curvature}")
        if self.dim < 2:
            raise DomainError(f"dimension must be >= 2, got {self.dim}")

    @classmethod
    def euclidean(cls, dim: int) -> "ModelSpace":
        return cls(0, dim)

    @classmethod
    def sphere(cls, dim: int) -> "ModelSpace":
        return cls(1, dim)

    @classmethod
    def hyperbolic(cls, dim: int) -> "ModelSpace":
        return cls(-1, dim)

    @property
    def ambient_dim(self) -> int:
        return self.dim if self.curvature == 0 else self.dim + 1

    # -- metric helpers ----------------------------------------------------

    def metric_dot(self, u, v) -> np.ndarray:
        """Ambient inner product: Euclidean, except Minkowski for curvature -1."""
        u = np.asarray(u, float)
        v = np.asarray(v, float)
        prod = np.sum(u * v, axis=-1)
        if self.curvature == -1:
            prod -= 2.0 * u[..., 0] * v[..., 0]
        return prod

    def metric_norm(self, u) -> np.ndarray:
        sq = self.metric_dot(u, u)
        return np.sqrt(np.maximum(sq, 0.0))

    # -- constraint handling -----------------------------------------------

    def constraint_residual(self, x) -> np.ndarray:
        x = np.asarray(x, float)
        if self.curvature == 0:
            return np.zeros(x.shape[:-1])
        if self.curvature == 1:
            return np.abs(np.sum(x * x, axis=-1) - 1.0)
        sheet = np.where(x[..., 0] > 0.0, 0.0, np.inf)
        return np.abs(self.metric_dot(x, x) + 1.0) + sheet

    def check_point(self, x) -> None:
        resid = np.max(self.constraint_residual(x)) if np.asarray(x).size else 0.0
        if resid > POINT_TOL:
            raise DomainError(f"point constraint residual {resid:.3e} exceeds {POINT_TOL}")

    def project_point(self, x) -> np.ndarray:
        """Renormalize onto the model constraint (no-op for Euclidean space)."""
        x = np.asarray(x, float)
        if self.curvature == 0:
            return x
        if self.curvature == 1:
            return x / np.linalg.norm(x, axis=-1, keepdims=True)
        scale = np.sqrt(np.maximum(-self.metric_dot(x, x), 1e-300))
        return x / scale[..., None]

    def project_tangent(self, x, w) -> np.ndarray:
        x = np.asarray(x, float)
        w = np.asarray(w, float)
        if self.curvature == 0:
            return w
        coef = self.metric_dot(x, w)
        if self.curvature == 1:
            return w - coef[..., None] * x
        return w + coef[..., None] * x

    # -- geodesic operations -----------------------------------------------

    def distance(self, p, q) -> np.ndarray:
        p = np.asarray(p, float)
        q = np.asarray(q, float)
        diff = q - p
        if self.curvature == 0:
            return np.linalg.norm(diff, axis=-1)
        if self.curvature == 1:
            half = 0.5 * np.linalg.norm(diff, axis=-1)
            return 2.0 * np.arcsin(np.clip(half, 0.0, 1.0))
        half = 0.5 * self.metric_norm(diff)
        return 2.0 * np.arcsinh(half)

    def exp_map(self, x, v, s) -> np.ndarray:
        """Point at arc length s along the unit-speed geodesic leaving x with velocity v."""
        x = np.asarray(x, float)
        v = np.asarray(v, float)
        norms = self.metric_norm(v)
        if np.any(np.abs(norms - 1.0) > 1e-9):
            raise DomainError("geodesic velocity must be a unit tangent vector")
        return self._exp_unit(x, v, np.asarray(s, float))

    def _exp_unit(self, x, v, s) -> np.ndarray:
        s = s[..., None] if np.ndim(s) else s
        if self.curvature == 0:
            return x + s * v
        if self.curvature == 1:
            out = np.cos(s) * x + np.sin(s) * v
        else:
            out = np.cosh(s) * x + np.sinh(s) * v
        return self.project_point(out)

    def exp_tangent(self, x, u) -> np.ndarray:
        """Exponential of a general (possibly zero) tangent vector u at x."""
        x = np.asarray(x, float)
        u = np.asarray(u, float)
        if self.curvature == 0:
            return x + u
        s = self.metric_norm(u)
        safe = np.maximum(s, 1e-300)
        out = self._exp_unit(x, u / safe[..., None], s)
        return np.where(s[..., None] > 0.0, out, np.broadcast_to(x, out.shape))

    def log_map(self, p, q) -> np.ndarray:
        """Initial velocity, scaled by the distance, of the minimizing geodesic p -> q."""
        p = np.asarray(p, float)
        q = np.asarray(q, float)
        if self.curvature == 0:
            return q - p
        rho = self.distance(p, q)
        if self.curvature == 1:
            if np.any(rho > np.pi - ANTIPODE_TOL):
                raise CutLocusError("log map undefined at (numerically) antipodal points")
            raw = q - np.sum(p * q, axis=-1)[..., None] * p
        else:
            raw = q + self.metric_dot(p, q)[..., None] * p
        nrm = np.maximum(self.metric_norm(raw), 1e-300)
        out = raw * (rho / nrm)[..., None]
        return np.where(rho[..., None] > 0.0, out, np.zeros_like(out))

    def parallel_transport(self, p, q, w) -> np.ndarray:
        """Transport the tangent vector w from p to q along the minimizing geodesic."""
        p = np.asarray(p, float)
        q = np.asarray(q, float)
        w = np.asarray(w, float)
        if self.curvature == 0:
            return w.copy()
        if self.curvature == 1:
            c = np.sum(p * q, axis=-1)
            if np.any(c < -1.0 + 0.5 * ANTIPODE_TOL**2):
                raise CutLocusError("parallel transport undefined at antipodal points")
            coef = np.sum(q * w, axis=-1) / (1.0 + c)
            return w - coef[..., None] * (p + q)
        ch = -self.metric_dot(p, q)
        coef = self.metric_dot(q, w) / (1.0 + ch)
        return w + coef[..., None] * (p + q)

    def near_cut_locus(self, p, q, eps: float) -> np.ndarray:
        """True where q lies within eps of p's cut locus (sphere only; empty otherwise)."""
        if self.curvature == 1:
            return self.distance(p, q) > np.pi - eps
        return np.zeros(np.broadcast(np.asarray(p)[..., 0], np.asarray(q)[..., 0]).shape, bool)

    # -- canonical points and frames ----------------------------------------

    def base_point(self) -> np.ndarray:
        """Fixed pole: the origin (Euclidean) or the first ambient axis."""
        if self.curvature == 0:
            return np.zeros(self.dim)
        out = np.zeros(self.ambient_dim)
        out[0] = 1.0
        return out

    def point_at_distance(self, rho: float, axis: int = 1) -> np.ndarray:
        """Point at geodesic distance rho from the pole along a fixed axis."""
        x = self.base_point()
        if self.curvature == 0:
            y = np.zeros(self.dim)
            y[axis - 1] = rho
            return y
        v = np.zeros(self.ambient_dim)
        v[axis] = 1.0
        return self._exp_unit(x, v, np.asarray(float(rho)))

    def random_point(self, rng) -> np.ndarray:
        if self.curvature == 0:
            return rng.standard_normal(self.dim)
        if self.curvature == 1:
            g = rng.standard_normal(self.ambient_dim)
            return g / np.linalg.norm(g)
        v = np.zeros(self.ambient_dim)
        v[1:] = rng.standard_normal(self.dim)
        s = np.linalg.norm(v[1:])
        v /= max(s, 1e-300)
        return self._exp_unit(self.base_point(), v, np.asarray(s))

    def reference_frame(self, x) -> np.ndarray:
        """Deterministic orthonormal tangent frame at x, shape (..., d, ambient).

        Built by transporting the coordinate frame at the pole; on the sphere a
        second pole takes over near the antipode of the first.
        """
        x = np.asarray(x, float)
        batch = x.shape[:-1]
        if self.curvature == 0:
            eye = np.eye(self.dim)
            return np.broadcast_to(eye, batch + (self.dim, self.dim)).copy()
        frame = self._transported_frame(x, pole_axis=0)
        if self.curvature == 1:
            near = 1.0 + x[..., 0] < 0.1
            if np.any(near):
                alt = self._transported_frame(x, pole_axis=1)
                frame = np.where(near[..., None, None], alt, frame)
        return frame

    def _transported_frame(self, x, pole_axis: int) -> np.ndarray:
        amb = self.ambient_dim
        pole = np.zeros(amb)
        pole[pole_axis] = 1.0
        axes = [j for j in range(amb) if j != pole_axis]
        w = np.zeros((self.dim, amb))
        for row, j in enumerate(axes):
            w[row, j] = 1.0
        x_exp = x[..., None, :]
        if self.curvature == 1:
            # the clamp only matters where the alternate pole takes over
            c = np.maximum(1.0 + x[..., pole_axis], 1e-3)[..., None]
            coef = np.sum(x_exp * w, axis=-1) / c
            return w - coef[..., None] * (pole + x_exp)
        ch = x[..., 0][..., None]
        coef = self.metric_dot(x_exp, w) / (1.0 + ch)
        return w + coef[..., None] * (pole + x_exp)

    def frame_with_first(self, x, u) -> np.ndarray:
        """Orthonormal tangent frame at x whose first vector is the unit tangent u.

        The remaining vectors come from rotating the reference frame by the
        Householder map aligning its coefficient of u with the first slot, so
        the result is deterministic and batch-friendly.
        """
        x = np.asarray(x, float)
        u = np.asarray(u, float)
        base = self.reference_frame(x)
        coef = self.metric_dot(base, u[..., None, :])  # (..., d)
        d = self.dim
        e1 = np.zeros(d)
        e1[0] = 1.0
        wvec = e1 - coef
        wsq = np.sum(wvec * wvec, axis=-1)
        eye = np.broadcast_to(np.eye(d), coef.shape[:-1] + (d, d))
        house = eye - 2.0 * wvec[..., :, None] * wvec[..., None, :] / np.maximum(
            wsq, 1e-300
        )[..., None, None]
        house = np.where(wsq[..., None, None] > 1e-24, house, eye)
        # frame_j = sum_m house[m, j] * base_m ; row 0 reproduces u exactly up to fp
        frame = np.einsum("...mj,...ma->...ja", house, base)
        frame[..., 0, :] = u
        return frame


def parse_space(text: str) -> ModelSpace:
    """Parse 'sphere:2', 'flat:3', 'hyperbolic:2' style space descriptions."""
    name, _, dim_text = text.partition(":")
    kinds = {
        "sphere": 1,
        "flat": 0,
        "euclidean": 0,
        "hyperbolic": -1,
    }
    if name not in kinds or not dim_text:
        raise DomainError(f"cannot parse space description {text!r}")
    try:
        dim = int(dim_text)
    except ValueError as exc:
        raise DomainError(f"bad dimension in space description {text!r}") from exc
    return ModelSpace(kinds[name], dim)


# -- generalized trigonometry and Jacobi data --------------------------------


def gen_sin(curvature: int, rho) -> np.ndarray:
    """sin(rho), rho or sinh(rho) according to the curvature sign."""
    rho = np.asarray(rho, float)
    if curvature == 1:
        return np.sin(rho)
    if curvature == 0:
        return rho.copy() if rho.ndim else rho
    return np.sinh(rho)


def gen_cos(curvature: int, rho) -> np.ndarray:
    rho = np.asarray(rho, float)
    if curvature == 1:
        return np.cos(rho)
    if curvature == 0:
        return np.ones_like(rho) if rho.ndim else np.float64(1.0)
    return np.cosh(rho)


def _check_geodesic_length(curvature, rho) -> None:
    rho = np.asarray(rho, float)
    if np.any(rho <= 0.0):
        raise DomainError(f"geodesic length must be positive, got {np.min(rho)}")
    conjugate = (np.asarray(curvature) == 1) & (rho >= np.pi)
    if np.any(conjugate):
        raise ConjugatePointError(f"length {np.max(rho[conjugate])} reaches the first conjugate point at pi")


def jacobi_coefficients(curvature: int, rho: float, s) -> tuple[np.ndarray, np.ndarray]:
    """Scalar coefficients (w1, w2) of the perpendicular Jacobi field with
    boundary values 1 at s=0, 0 at s=rho (w1) and 0 at s=0, 1 at s=rho (w2)."""
    _check_geodesic_length(curvature, rho)
    s = np.asarray(s, float)
    if np.any(s < -1e-15) or np.any(s > rho + 1e-15):
        raise DomainError("parameter s must lie in [0, rho]")
    denom = gen_sin(curvature, rho)
    w1 = gen_sin(curvature, rho - s) / denom
    w2 = gen_sin(curvature, s) / denom
    return w1, w2


@dataclass(frozen=True)
class IndexFormValues:
    """Second-variation boundary data of the half-Jacobi fields along a geodesic.

    i11 and i22 are the index forms of the fields vanishing at one end with
    unit perpendicular value at the other; i12 is their cross pairing.  On
    model spaces i11 == i22.
    """

    i11: float
    i22: float
    i12: float
    rho: float


def index_form_closed(curvature: int, rho: float) -> IndexFormValues:
    """Closed-form index values: i11 = i22 = gc/gs and i12 = -1/gs."""
    _check_geodesic_length(curvature, rho)
    gs = float(gen_sin(curvature, rho))
    gc = float(gen_cos(curvature, rho))
    return IndexFormValues(i11=gc / gs, i22=gc / gs, i12=-1.0 / gs, rho=rho)


def _jacobi_scalar_basis(curvature, rho, n_steps: int):
    """RK4 solutions of w'' + r w = 0 on [0, rho]: the (w(0), w'(0)) = (1, 0)
    and (0, 1) solutions with their derivatives on a uniform grid.

    Curvature and rho broadcast to one batch shape, solved together; w and wd
    have shape (2, *batch, n_steps + 1), the first axis picking the solution.
    """
    if n_steps % 2:
        n_steps += 1
    rho = np.asarray(rho, float)
    neg_r = -np.asarray(curvature, float)
    shape = np.broadcast_shapes(neg_r.shape, rho.shape)
    h = np.broadcast_to(rho / n_steps, shape)
    half, sixth = 0.5 * h, h / 6.0
    # the state stacks (w, w') over (solution, *batch); the right-hand side
    # (w', -r w) is the state reversed along its first axis, times (1, -r)
    scale = np.stack(np.broadcast_arrays(np.ones(shape), neg_r))[:, None]
    traj = np.empty((n_steps + 1, 2, 2) + shape)
    traj[0] = np.eye(2).reshape((2, 2) + (1,) * len(shape))
    state = traj[0]
    for i in range(n_steps):
        k1 = state[::-1] * scale
        k2 = (state + half * k1)[::-1] * scale
        k3 = (state + half * k2)[::-1] * scale
        k4 = (state + h * k3)[::-1] * scale
        state = traj[i + 1] = state + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    w, wd = np.moveaxis(traj, 0, -1)
    return h, w.copy(), wd.copy()


def _simpson(values: np.ndarray, h):
    """Composite Simpson rule over the last axis; a float for one integrand."""
    n = values.shape[-1] - 1
    weights = np.ones(n + 1)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    out = np.sum(weights * values, axis=-1) * h / 3.0
    return float(out) if np.ndim(out) == 0 else out


def _boundary_solution(basis, boundary):
    """The field with boundary values (a, b) at s = 0 and s = rho, and its
    derivative, from a solved basis; a and b broadcast over its batch shape."""
    _, (u, v), (ud, vd) = basis
    a, b = (np.asarray(value, float)[..., None] for value in boundary)
    if np.any(np.abs(v[..., -1]) < 1e-14):
        raise ConjugatePointError("boundary value problem hits a conjugate point")
    beta = (b - a * u[..., -1:]) / v[..., -1:]
    return a * u + beta * v, a * ud + beta * vd


def index_form_quadrature(curvature, rho, boundary=(1.0, 0.0), n_steps: int = 4096):
    """Index form of the perpendicular Jacobi field with given scalar boundary values.

    Independent of the closed forms: the field is produced by Runge-Kutta
    integration of w'' + r w = 0 and the second-variation integral
    of (w'^2 - r w^2) is evaluated by composite Simpson quadrature.
    Curvature, rho and the boundary values broadcast: arrays of cases are
    solved in one batch, and scalars return a float.
    """
    _check_geodesic_length(curvature, rho)
    basis = _jacobi_scalar_basis(curvature, rho, n_steps)
    w, wd = _boundary_solution(basis, boundary)
    return _simpson(wd * wd - np.asarray(curvature)[..., None] * w * w, basis[0])


def _half_field_index_forms(curvature, rho, n_steps: int = 4096):
    """Quadrature index values (i11, i22, i12) of the two half-Jacobi fields,
    the counterparts of ``index_form_closed``, from one basis solve.
    Curvature and rho broadcast like ``index_form_quadrature``."""
    _check_geodesic_length(curvature, rho)
    basis = _jacobi_scalar_basis(curvature, rho, n_steps)
    (w1, w1d), (w2, w2d) = (_boundary_solution(basis, ends) for ends in ((1.0, 0.0), (0.0, 1.0)))
    r = np.asarray(curvature)[..., None]
    pairs = ((w1, w1d, w1, w1d), (w2, w2d, w2, w2d), (w1, w1d, w2, w2d))
    return tuple(_simpson(fd * gd - r * f * g, basis[0]) for f, fd, g, gd in pairs)


def index_form_cross_quadrature(curvature, rho, n_steps: int = 4096):
    """Quadrature value of the bilinear index pairing of the two half-Jacobi fields."""
    return _half_field_index_forms(curvature, rho, n_steps)[2]


def field_index_form(curvature: int, rho: float, w, wdot, n_steps: int = 4096) -> float:
    """Index form of an arbitrary perpendicular field w(s) E(s) given callables
    for the scalar coefficient and its derivative."""
    _check_geodesic_length(curvature, rho)
    if n_steps % 2:
        n_steps += 1
    s = np.linspace(0.0, rho, n_steps + 1)
    values = np.asarray(wdot(s), float) ** 2 - curvature * np.asarray(w(s), float) ** 2
    return _simpson(values, rho / n_steps)
