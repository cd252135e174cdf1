"""Geometry of the three constant-curvature model spaces.

Euclidean space (curvature 0), the unit sphere (+1) and hyperbolic space (-1,
hyperboloid sheet in Minkowski coordinates with the first coordinate timelike
and positive).  All point/vector operations accept arrays with an arbitrary
number of leading batch axes; the last axis is the ambient coordinate axis.
The frame and exponential kernels work on coordinate rows (ambient axis
first, ``_coords_first``); the (..., ambient) methods reach them through
transposed views, and callers holding coordinate rows pass their transposes.

General curvature is handled by distance/time rescaling at the caller, never
stored here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConjugatePointError, CutLocusError, DomainError

POINT_TOL = 1e-10
ANTIPODE_TOL = 1e-8


def rowsum(p) -> np.ndarray:
    """Sum over the last axis, == np.add.reduce of a C-ordered copy of p
    whatever p's layout, by adding its columns in order.

    From 2 to 7 entries that is the order of numpy's own reduction (it sums
    pairwise from 8), without the strided reduction loop that dominates on
    these short axes; on a transposed (coordinate-major) array each column
    is a contiguous row.  Only a row of -0.0 entries differs: it sums to
    -0.0 here and to +0.0 in numpy.  Other lengths go to numpy.
    """
    p = np.asarray(p)
    if not 2 <= p.shape[-1] <= 7:
        return np.add.reduce(p if p.strides[-1] == p.itemsize else np.ascontiguousarray(p), axis=-1)
    out = p[..., 0] + p[..., 1]
    for j in range(2, p.shape[-1]):
        out += p[..., j]
    return out


def rowdot(a, b) -> np.ndarray:
    """Dot products of two float64 arrays over their last axis, == (sign of
    zero included) np.einsum("...j,...j->...") of C-ordered copies of a and
    b, whatever their layout.  The lead axes broadcast.

    On unit-stride rows of 1 to 7 entries einsum adds the even entries of the
    product in order to +0.0, the odd ones in order to +0.0, then the two
    sums; on other layouts it adds in other orders.  This adds the columns
    in that order on rows that are not unit-stride (such as transposed
    coordinate rows), and where ``a`` has 2 to 4 entries in each of at least
    64 * 2^w rows (256, 512, 1024), where a few column adds beat einsum's
    per-call setup.  Other batches go to einsum, on C-ordered copies.
    """
    width = a.shape[-1]
    if (a.size < width * (64 << width) or not 2 <= width <= 4) and a.strides[-1] == b.strides[-1] == 8:
        return np.einsum("...j,...j->...", a, b)
    if not 1 <= width <= 7:
        return np.einsum("...j,...j->...", np.ascontiguousarray(a), np.ascontiguousarray(b))
    p = a * b
    # a sum from +0.0 differs from one from its first entry only at -0.0,
    # which the last add of +0.0 makes up for
    out = p[..., 0] + (p[..., 2 if width > 2 else 1] if width > 1 else 0.0)
    for j in range(4, width, 2):
        out += p[..., j]
    if width > 2:
        odd = p[..., 1] if width == 3 else p[..., 1] + p[..., 3]
        for j in range(5, width, 2):
            odd += p[..., j]
        out += odd
    out += 0.0
    return out


def _coords_first(a, ndim: int) -> np.ndarray:
    """A view of the (..., ambient) array ``a``, padded with leading axes to
    ``ndim`` axes, with its ambient axis first."""
    if a.ndim < ndim:
        a = a.reshape((1,) * (ndim - a.ndim) + a.shape)
    return a.T if ndim <= 2 else np.moveaxis(a, -1, 0)


def _coords_last(a) -> np.ndarray:
    """The inverse of ``_coords_first``: a view with the ambient axis last."""
    return a.T if a.ndim <= 2 else np.moveaxis(a, 0, -1)


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
        prod = rowsum(u * v)
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
            return np.abs(rowsum(x * x) - 1.0)
        sheet = np.where(x[..., 0] > 0.0, 0.0, np.inf)
        return np.abs(self.metric_dot(x, x) + 1.0) + sheet

    def check_point(self, x) -> None:
        if np.ndim(x) == 0 or np.shape(x)[-1] != self.ambient_dim:
            raise DomainError(f"points need {self.ambient_dim} coordinates, got shape {np.shape(x)}")
        resid = np.max(self.constraint_residual(x)) if np.asarray(x).size else 0.0
        if resid > POINT_TOL:
            raise DomainError(f"point constraint residual {resid:.3e} exceeds {POINT_TOL}")

    def project_point(self, x) -> np.ndarray:
        """Renormalize onto the model constraint (no-op for Euclidean space)."""
        x = np.asarray(x, float)
        if self.curvature == 0:
            return x
        return _coords_last(self._project_rows(_coords_first(x, x.ndim).copy()))

    def _project_rows(self, x) -> np.ndarray:
        """``project_point`` on a curved space, on coordinate rows, in place:
        x is rescaled and returned."""
        if self.curvature == 1:
            x /= np.sqrt(rowsum((x * x).T).T)
        else:
            x /= np.sqrt(np.maximum(-self.metric_dot(x.T, x.T).T, 1e-300))
        return x

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
        diff = np.asarray(q, float) - np.asarray(p, float)
        chord = self.metric_norm(diff) if self.curvature == -1 else np.sqrt(rowsum(diff * diff))
        return self.chord_distance(chord)

    def chord_distance(self, chord) -> np.ndarray:
        """Geodesic distance between points whose chord ``metric_norm(q - p)``
        is ``chord``: 2 arcsin(c/2) on the sphere, c on flat space and
        2 arcsinh(c/2) on the hyperboloid.  ``distance`` measures the chord
        with the same square root, so the two agree bitwise."""
        if self.curvature == 0:
            return chord
        half = 0.5 * chord
        if self.curvature == 1:
            return 2.0 * np.arcsin(np.minimum(half, 1.0))  # half >= 0: a square root
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
        if self.curvature == 0:
            return x + (s[..., None] if np.ndim(s) else s) * v
        ndim = max(x.ndim, v.ndim)
        x, v = _coords_first(x, ndim), _coords_first(v, ndim)
        v = np.array(np.broadcast_to(v, np.broadcast_shapes(x.shape, v.shape, np.shape(s))))
        return _coords_last(self._exp_unit_rows(x, v, s))

    def _exp_unit_rows(self, x, v, s) -> np.ndarray:
        """``_exp_unit`` on a curved space, on coordinate rows, formed in
        place of v (which must have the result's shape): fewer arrays alive."""
        cos, sin = (np.cos, np.sin) if self.curvature == 1 else (np.cosh, np.sinh)
        v *= sin(s)
        v += cos(s) * x
        return self._project_rows(v)

    def exp_tangent(self, x, u) -> np.ndarray:
        """Exponential of a general (possibly zero) tangent vector u at x."""
        x = np.asarray(x, float)
        u = np.asarray(u, float)
        if self.curvature == 0:
            return x + u
        return self._exp_length(x, u, self.metric_norm(u))

    def _exp_length(self, x, u, s) -> np.ndarray:
        """``exp_tangent(x, u)`` on a curved space, given s = metric_norm(u)."""
        ndim = max(x.ndim, u.ndim)
        x, u = _coords_first(x, ndim), _coords_first(u, ndim)
        out = self._exp_unit_rows(x, u / np.maximum(s, 1e-300), s)
        np.copyto(out, x, where=~(s > 0.0))
        return _coords_last(out)

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
            raw = q - rowsum(p * q)[..., None] * p
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
            c = rowsum(p * q)
            if np.any(c < -1.0 + 0.5 * ANTIPODE_TOL**2):
                raise CutLocusError("parallel transport undefined at antipodal points")
            coef = rowsum(q * w) / (1.0 + c)
            return w - coef[..., None] * (p + q)
        ch = -self.metric_dot(p, q)
        coef = self.metric_dot(q, w) / (1.0 + ch)
        return w + coef[..., None] * (p + q)

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

    def _frame_pole(self, x):
        """Pole data of the reference frame at the points x of a curved space,
        on coordinate rows: the pole weights (pf = 1 where the pole is e_1,
        qf = 1 - pf), e_p + x (contiguous rows) and -curvature / (1 + x_p)."""
        pf = (1.0 + x[0] < 0.1).astype(float) if self.curvature == 1 else np.zeros(x.shape[1:])
        qf = 1.0 - pf
        pole_x = x.copy()
        pole_x[0] += qf
        pole_x[1] += pf
        one_xp = pole_x[0] * qf + pole_x[1] * pf
        if self.curvature == 1:
            # with the pole chosen per row, 1 + x_p >= 0.1 already on points
            # of the sphere; the clamp keeps points off it finite
            one_xp = np.maximum(one_xp, 1e-3)
        return pf, qf, pole_x, -self.curvature / one_xp

    def _pole_frame_apply(self, pole, x, first, rest) -> np.ndarray:
        """sum_j v_j b_j at x from the pole data of x and the coefficients
        v = (first, *rest), on a curved space (see ``frame_apply``), on
        coordinate rows: x, the pole's e_p + x and rest hold one row per
        coordinate, over batch axes that broadcast with first's."""
        pf, qf, pole_x, sig_c = pole
        on_q = first * qf
        out = np.empty(x.shape[:1] + on_q.shape)
        out[0] = first * pf
        out[1] = on_q
        out[2:] = rest
        out += (sig_c * rowdot(out.T, x.T).T) * pole_x
        return out

    def frame_apply(self, x, v) -> np.ndarray:
        """sum_j v_j b_j(x) over the reference frame b at x, shape (..., ambient),
        in closed form: b is never built.  x and v broadcast over their
        leading axes; v holds d coefficients.

        b is the identity on flat space.  On the curved spaces it is the frame
        transported from the pole e_p, p = 0 except on the sphere near that
        pole's antipode (1 + x_0 < 0.1), where p = 1.  b_0 sits on ambient
        axis 1 - p and each b_j (j >= 1) on axis j + 1; with V the
        coefficients placed on those axes,

            sum_j v_j b_j = V + sigma (V.x) / (1 + x_p) (e_p + x),

        sigma = -1 on the sphere and +1 on the hyperboloid.
        """
        x = np.asarray(x, float)
        v = np.asarray(v, float)
        if self.curvature == 0:
            return np.broadcast_to(v, np.broadcast_shapes(x.shape, v.shape)).copy()
        ndim = max(x.ndim, v.ndim)
        x, v = _coords_first(x, ndim), _coords_first(v, ndim)
        return _coords_last(self._pole_frame_apply(self._frame_pole(x), x, v[0], v[1:]))

    def reference_frame(self, x) -> np.ndarray:
        """Deterministic orthonormal tangent frame at x, shape (..., d, ambient):
        the frame ``frame_apply`` applies."""
        return self.frame_apply(np.asarray(x, float)[..., None, :], np.eye(self.dim))

    def frame_with_first(self, x, u) -> np.ndarray:
        """Orthonormal tangent frame at x whose first vector is the unit tangent u.

        The remaining vectors come from rotating the reference frame by the
        Householder map aligning its coefficient of u with the first slot, so
        the result is deterministic and batch-friendly.
        """
        x = np.asarray(x, float)
        u = np.asarray(u, float)
        coef = self.metric_dot(self.reference_frame(x), u[..., None, :])  # (..., d)
        d = self.dim
        e1 = np.zeros(d)
        e1[0] = 1.0
        wvec = e1 - coef
        wsq = rowsum(wvec * wvec)
        eye = np.broadcast_to(np.eye(d), coef.shape[:-1] + (d, d))
        house = eye - 2.0 * wvec[..., :, None] * wvec[..., None, :] / np.maximum(
            wsq, 1e-300
        )[..., None, None]
        house = np.where(wsq[..., None, None] > 1e-24, house, eye)
        # the Householder matrix is symmetric: frame_j = sum_m house[j, m] b_m
        frame = self.frame_apply(x[..., None, :], house)
        frame[..., 0, :] = u  # row 0 reproduces u exactly up to fp
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


def field_index_form(curvature: int, rho: float, w, wdot, n_steps: int = 4096) -> float:
    """Index form of an arbitrary perpendicular field w(s) E(s) given callables
    for the scalar coefficient and its derivative."""
    _check_geodesic_length(curvature, rho)
    if n_steps % 2:
        n_steps += 1
    s = np.linspace(0.0, rho, n_steps + 1)
    values = np.asarray(wdot(s), float) ** 2 - curvature * np.asarray(w(s), float) ** 2
    return _simpson(values, rho / n_steps)
