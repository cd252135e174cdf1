"""Coupling strategies: advance a pair of Brownian particles one step at a time.

Every strategy exposes the same surface: ``initial_state`` validates the
starting configuration and ``step`` consumes one block of fresh noise.  States
are ensembles; the point arrays carry a leading path axis so Monte Carlo runs
stay inside numpy.  All strategies keep both coordinate processes exact
Brownian motions (weak order one in the step size); what differs is how the
second particle's noise is manufactured from the first's.

The rotation strategy realizes the frame-bundle construction at the level of
its projected one-step action: transport an adapted tangent frame along the
connecting geodesic and rotate the perpendicular noise components by a
distance-dependent angle.  The move applies that frame and its transport in
closed form to the noise (``_transport_rotate_noise``) and never builds them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .drivers import StepNoise, check_step_length, geodesic_walk_step, kendall_compose, stroock_step
from .errors import (
    CouplingConstraintError,
    CutLocusError,
    DegenerateInputError,
    DomainError,
    InfeasibleRateError,
)
from .spaces import ANTIPODE_TOL, ModelSpace, gen_cos, gen_sin, rowsum

COUPLED = 0
INDEPENDENT = 1

MEET_TOL = 1e-12


@dataclass
class CouplingState:
    """Ensemble state of a coupled pair: time, both point arrays (n, ambient),
    per-path regime flags and strategy-owned cache (rebuilt or carried as the
    strategy requires).  Every cache value is a writable array with a leading
    path axis: the stepping loop gathers and scatters the running paths' rows."""

    t: float
    x: np.ndarray
    y: np.ndarray
    regime: np.ndarray
    cache: dict = field(default_factory=dict)

    @property
    def n_paths(self) -> int:
        return self.x.shape[0]


def _ensemble(point, n_paths: int) -> np.ndarray:
    arr = np.asarray(point, float)
    if arr.ndim == 1:
        arr = np.broadcast_to(arr, (n_paths,) + arr.shape).copy()
    if arr.shape[0] != n_paths:
        raise DomainError(f"expected {n_paths} start points, got {arr.shape[0]}")
    return arr


class CouplingStrategy:
    """Common surface of all strategies."""

    strategy_id: str = ""
    expanding: bool = False  # drives the diagonal patching variant
    patchable: bool = True  # strategies with per-path carried caches opt out
    aux_dim: int = 0  # width of the second per-step draw; 0 draws none

    def __init__(self, space: ModelSpace):
        self.space = space

    # width of the first per-step standard-normal draw
    @property
    def primary_dim(self) -> int:
        return self.space.dim

    # width of the draw one particle needs to move on its own
    @property
    def indep_dim(self) -> int:
        return self.space.dim

    def _start_points(self, x0, y0, n_paths: int):
        x = _ensemble(x0, n_paths)
        y = _ensemble(y0, n_paths)
        self.space.check_point(x)
        self.space.check_point(y)
        return x, y

    def initial_state(self, x0, y0, n_paths: int = 1) -> CouplingState:
        x, y = self._start_points(x0, y0, n_paths)
        self.validate_start(x, y)
        regime = np.zeros(n_paths, dtype=np.int8)
        return CouplingState(t=0.0, x=x, y=y, regime=regime, cache=self.init_cache(x, y))

    def validate_start(self, x, y) -> None:
        pass

    def validate_run(self, x0, y0, times) -> None:
        """Reject, before any noise is drawn, a run the strategy cannot
        sustain up to the last of its step times."""

    def init_cache(self, x, y) -> dict:
        return {}

    def step(self, state: CouplingState, noise: StepNoise, h: float) -> CouplingState:
        gp = np.atleast_2d(noise.primary)
        ga = None if noise.auxiliary is None else np.atleast_2d(noise.auxiliary)
        x, y, cache = self.move(state.x, state.y, gp, ga, h, state.cache)
        return CouplingState(t=state.t + h, x=x, y=y, regime=state.regime.copy(), cache=cache)

    def move(self, x, y, gp, ga, h, cache):
        raise NotImplementedError

    def independent_move(self, x, g, h) -> np.ndarray:
        """Advance one particle alone (used by the patching regime machine)."""
        frame = self.space.reference_frame(x)
        return geodesic_walk_step(self.space, x, g[..., : self.space.dim], h, frame)


class Sphere2Strategy(CouplingStrategy):
    """A strategy on the 2-sphere in the extrinsic picture: its draws are
    ambient 3-vectors, and a lone particle moves by ``stroock_step``."""

    primary_dim = 3
    indep_dim = 3

    def __init__(self, space: ModelSpace):
        if space.curvature != 1 or space.dim != 2:
            raise DomainError(f"strategy {self.strategy_id!r} is defined on the 2-sphere only")
        super().__init__(space)

    def independent_move(self, x, g, h) -> np.ndarray:
        return stroock_step(x, g, h)


# -- Euclidean translation ------------------------------------------------------


class TranslationCoupling(CouplingStrategy):
    """Both particles receive the identical increment; the offset never changes.

    The offset is carried explicitly so the distance is preserved exactly in
    floating point, not just up to roundoff accumulation.
    """

    strategy_id = "translation"
    patchable = False

    def __init__(self, space: ModelSpace):
        if space.curvature != 0:
            raise DomainError("the translation coupling lives on Euclidean space")
        super().__init__(space)

    def init_cache(self, x, y) -> dict:
        return {"offset": x - y}

    def move(self, x, y, gp, ga, h, cache):
        x_new = x + np.sqrt(h) * gp
        return x_new, x_new - cache["offset"], cache


# -- trivially independent pair -------------------------------------------------


class IndependentCoupling(CouplingStrategy):
    """Two independent geodesic random walks (the trivial coupling)."""

    strategy_id = "independent"

    @property
    def aux_dim(self) -> int:
        return self.space.dim

    def move(self, x, y, gp, ga, h, cache):
        x_new = self.independent_move(x, gp, h)
        y_new = self.independent_move(y, ga, h)
        return x_new, y_new, cache


# -- mirror coupling on the 2-sphere ---------------------------------------------


class MirrorS2(Sphere2Strategy):
    """Reflect the driving noise across the perpendicular bisector plane.

    Meeting happens when the first particle hits the mirror plane (in the
    reflection picture the second particle is its mirror image, so the plane
    hitting time is the meeting time); the pair is glued at the step where the
    plane is crossed and moves together afterwards.  Gluing on a distance
    threshold instead would teleport the second particle by a noticeable
    amount and visibly distort its marginal law.
    """

    strategy_id = "mirror-s2"
    patchable = False

    def init_cache(self, x, y) -> dict:
        return {"glued": np.zeros(x.shape[0], dtype=bool)}

    def move(self, x, y, gp, ga, h, cache):
        glued = cache["glued"]
        x_new = stroock_step(x, gp, h)
        normal = x - y  # bisector plane through the origin with this normal
        unit = normal / np.maximum(_row_norms(normal), 1e-300)
        reflected = gp - 2.0 * rowsum(unit * gp)[:, None] * unit
        y_new = stroock_step(y, reflected, h)
        # before the move x . normal = 1 - x.y > 0; a sign change means the
        # mirror plane was crossed during this step
        crossed = rowsum(x_new * normal) < 0.0
        glued_new = glued | crossed
        y_new = np.where(glued_new[:, None], x_new, y_new)
        return x_new, y_new, {"glued": glued_new}


# -- extrinsic rotating couplings on the 2-sphere ---------------------------------


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise cross products of two (..., 3) arrays of one shape.  The
    component formula is numpy's own, so the result is bitwise numpy's, at a
    fraction of its per-call overhead on the small batches a step sees."""
    out = np.empty_like(a)
    out[..., 0] = a[..., 1] * b[..., 2] - a[..., 2] * b[..., 1]
    out[..., 1] = a[..., 2] * b[..., 0] - a[..., 0] * b[..., 2]
    out[..., 2] = a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]
    return out


def _rodrigues_apply(x: np.ndarray, y: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Apply the rotation taking each x row to its y row to the matching v row.

    The rotation turns about x cross y (left unnormalized, which absorbs the
    sine of the angle) by the angle between x and y.  Near-antiparallel pairs
    (x.y < -0.5) apply the same rotation as the product of two reflections,
    without the ill-conditioned 1/(1+c) term; (anti)parallel pairs get the
    +/-I limits.
    """
    c = rowsum(x * y)[..., None]
    xv = rowsum(x * v)[..., None]
    far = c < -0.5
    u = _cross(x, y)
    general = (
        c * v
        + xv * y
        - rowsum(y * v)[..., None] * x
        + rowsum(u * v)[..., None] / np.where(far, 1.0, 1.0 + c) * u
    )
    mid = x + y
    mid_norm = _row_norms(mid)
    mid /= np.where(mid_norm > 0.0, mid_norm, 1.0)
    w = v - 2.0 * xv * x
    reflected = w - 2.0 * rowsum(mid * w)[..., None] * mid
    out = np.where(far, reflected, general)
    out = np.where(c >= 1.0 - 1e-12, v, out)
    return np.where(c <= -1.0 + 1e-12, -v, out)


class ExtrinsicContractS2(Sphere2Strategy):
    """Feed the second particle the rotated increment of the first; the chordal
    distance then contracts like exp(-t/2) deterministically."""

    strategy_id = "extrinsic-contract-s2"

    def move(self, x, y, gp, ga, h, cache):
        x_new = stroock_step(x, gp, h)
        moved = y + _rodrigues_apply(x, y, x_new - x)
        y_new = moved / _row_norms(moved)
        return x_new, y_new, cache


class ExtrinsicExpandS2(Sphere2Strategy):
    """Mirror image of the contracting construction: subtract the increment
    rotated by the map aligning x with the antipode of y; the chordal distance
    then grows to the diameter."""

    strategy_id = "extrinsic-expand-s2"
    expanding = True

    def move(self, x, y, gp, ga, h, cache):
        x_new = stroock_step(x, gp, h)
        moved = y - _rodrigues_apply(x, -y, x_new - x)
        y_new = moved / _row_norms(moved)
        return x_new, y_new, cache


# -- fixed-distance coupling on the 2-sphere --------------------------------------


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot products of two (n, k) arrays (einsum is 2-4x faster than
    summing the product over the last axis at these shapes)."""
    return np.einsum("ij,ij->i", a, b)


def _aligned_direction(x: np.ndarray, y: np.ndarray):
    """Per-path c = x.y and the unit tangent e at x with y = c x + sqrt(1-c^2) e.

    e is y - c x, projected off x once more and normalized by its computed
    norm, so it stays a unit vector orthogonal to x to machine precision even
    for nearly parallel pairs.
    """
    c = _rowdot(x, y)
    if np.any(np.abs(c) >= 1.0 - 1e-10):
        raise DegenerateInputError("fixed-distance driver undefined at (anti)parallel points")
    e = y - c[:, None] * x
    e -= _rowdot(e, x)[:, None] * x
    e /= np.sqrt(_rowdot(e, e))[:, None]
    return c, e


def _fixed_distance_noise(x: np.ndarray, y: np.ndarray, gp: np.ndarray, ga: np.ndarray) -> np.ndarray:
    """Per-path driver increment J gp + K ga keeping |X - Y| constant.

    J and K are the minimal-norm blocks in the frame O = (x, e, f = x cross e)
    (the equations they solve are in acceptance.fixed_distance_residuals).
    Because e e' + f f' = I - x x', they are the multiples c I and s I of the
    identity plus a rank-one term along x, and the map needs neither f nor
    any 3x3 matrix:

        w = c gp + s ga + lam x,  lam = c (e.ga - x.gp) - s (e.gp + x.ga).

    J J' + K K' - I equals O O' - I, which vanishes exactly when x is a unit
    vector orthogonal to e; that is checked on every call.
    """
    c, e = _aligned_direction(x, y)
    s = np.sqrt(1.0 - c * c)
    resid = max(float(np.max(np.abs(_rowdot(x, x) - 1.0))), float(np.max(np.abs(_rowdot(x, e)))))
    if resid > 1e-10:
        raise CouplingConstraintError(f"J J' + K K' deviates from I by {resid:.3e}")
    lam = c * (_rowdot(e, ga) - _rowdot(x, gp)) - s * (_rowdot(e, gp) + _rowdot(x, ga))
    return kendall_compose(c, s, gp, ga) + lam[:, None] * x


class FixedDistanceS2(Sphere2Strategy):
    """Drive the second particle with J dB + K dC so the distance freezes."""

    strategy_id = "fixed-s2"
    aux_dim = 3

    def validate_start(self, x, y) -> None:
        _aligned_direction(x, y)

    def move(self, x, y, gp, ga, h, cache):
        w = _fixed_distance_noise(x, y, gp, ga)
        return stroock_step(x, gp, h), stroock_step(y, w, h), cache


# -- shared rotation-flow coupling -------------------------------------------------


def _row_norms(v: np.ndarray) -> np.ndarray:
    """Euclidean norms of the rows, keeping the last axis: bitwise
    np.linalg.norm(v, axis=-1, keepdims=True), without its reduction loop."""
    return np.sqrt(rowsum(v * v))[..., None]


def _batched_so3_exp(omega: np.ndarray) -> np.ndarray:
    """exp of each row's cross-product matrix by Rodrigues' formula
    cos(t) I + sin(t) [a]x + (1 - cos(t)) a a' with t = |omega|, a = omega / t;
    a zero row gives the identity."""
    theta = _row_norms(omega)
    axis = omega / np.maximum(theta, 1e-300)
    out = ((1.0 - np.cos(theta)) * axis)[:, :, None] * axis[:, None, :]
    flat = out.reshape(-1, 9)
    flat[:, ::4] += np.cos(theta)
    sin_axis = np.sin(theta) * axis
    # [a]x holds a_0, a_1, a_2 at (2, 1), (0, 2), (1, 0) and minus them at (1, 2), (2, 0), (0, 1)
    flat[:, [7, 2, 3]] += sin_axis
    flat[:, [5, 6, 1]] -= sin_axis
    return out


def _batched_reorthonormalize(z: np.ndarray) -> np.ndarray:
    """Project near-rotations back onto SO(3) by Gram-Schmidt on the rows."""
    out = np.empty_like(z)
    r0 = out[:, 0] = z[:, 0] / _row_norms(z[:, 0])
    r1 = z[:, 1] - rowsum(r0 * z[:, 1])[:, None] * r0
    r1 = out[:, 1] = r1 / _row_norms(r1)
    out[:, 2] = _cross(r0, r1)
    return out


class So3FlowCoupling(Sphere2Strategy):
    """Move both particles with one shared rotation-group random walk; the
    distance is exactly invariant because every step is an isometry."""

    strategy_id = "so3-flow"
    patchable = False

    def init_cache(self, x, y) -> dict:
        n = x.shape[0]
        return {
            "z": np.broadcast_to(np.eye(3), (n, 3, 3)).copy(),
            "x0": x.copy(),
            "y0": y.copy(),
        }

    def move(self, x, y, gp, ga, h, cache):
        rot = _batched_so3_exp(np.sqrt(h) * gp)
        z = _batched_reorthonormalize(rot @ cache["z"])
        x_new = (z @ cache["x0"][:, :, None])[:, :, 0]
        y_new = (z @ cache["y0"][:, :, None])[:, :, 0]
        return x_new, y_new, {"z": z, "x0": cache["x0"], "y0": cache["y0"]}


# -- intrinsic rotation coupling ----------------------------------------------------


def rotation_angle_cos(space: ModelSpace, k: float, rho) -> np.ndarray:
    """Cosine of the perpendicular rotation angle hitting distance drift -k rho / 2."""
    rho = np.asarray(rho, float)
    gs = gen_sin(space.curvature, rho)
    gc = gen_cos(space.curvature, rho)
    return gc + k * rho * gs / (2.0 * (space.dim - 1))


def feasible_rate_interval(space: ModelSpace, rho: float) -> tuple[float, float]:
    """Closed interval of rates k admitting a rotation coupling at distance rho."""
    if rho <= 0.0 or (space.curvature == 1 and rho >= np.pi):
        raise DomainError(f"distance {rho} outside the feasible range")
    gs = float(gen_sin(space.curvature, rho))
    gc = float(gen_cos(space.curvature, rho))
    scale = 2.0 * (space.dim - 1) / (rho * gs)
    return (-(1.0 + gc) * scale, (1.0 - gc) * scale)


def distance_drift(space: ModelSpace, alpha, rho) -> np.ndarray:
    """Deterministic distance drift (d-1)(gc(rho) - cos(alpha)) / gs(rho)."""
    rho = np.asarray(rho, float)
    gs = gen_sin(space.curvature, rho)
    gc = gen_cos(space.curvature, rho)
    return (space.dim - 1) * (gc - np.cos(alpha)) / gs


def _rotate_pairs_transposed(g: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    """Apply the transposed block rotation to the noise: the first component is
    fixed, consecutive pairs of the rest rotate by alpha (the drive dimension
    is odd, so the rest pair up)."""
    out = np.empty_like(g)
    out[:, 0] = g[:, 0]
    ca = np.cos(alpha)[:, None]
    sa = np.sin(alpha)[:, None]
    odd, even = g[:, 1::2], g[:, 2::2]
    out[:, 1::2] = ca * odd - sa * even
    out[:, 2::2] = sa * odd + ca * even
    return out


def _minkowski_rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise Minkowski products of two (n, ambient) arrays."""
    return _rowdot(a, b) - 2.0 * a[:, 0] * b[:, 0]


def _transport_rotate_noise(space: ModelSpace, x, y, rho, gp, alpha) -> np.ndarray:
    """Tangent noise of the rotation coupling in closed form, as one (2, n,
    ambient) array: xi at x, then eta at y.  It forms no frame.

    The adapted frame at x is the reference frame b turned by the Householder
    map H taking the coefficients coef_j = <b_j, u> of the unit tangent u
    toward y to e_1, so that frame_0 = u and, for frame coefficients v,

        sum_j v_j frame_j = v_0 u + sum_j v'_j b_j,
        v' = (0, v_1, ...) + kappa w,  w = e_1 - coef,
        kappa = 2 sum_{j>=1} coef_j v_j / |w|^2

    (kappa = 0 where |w|^2 <= 1e-24: u is b_0 already and H is the identity).
    b is the identity on flat space.  On the curved spaces it is the frame
    transported from the pole e_p, p = 0 except on the sphere near that
    pole's antipode (1 + x_0 < 0.1), where p = 1.  b_0 sits on ambient axis
    q = 1 - p, each b_j (j >= 1) on axis j + 1, and with V the coefficients
    placed on those axes

        sum_j v'_j b_j = V + sigma (V.x) / (1 + x_p) (e_p + x),

    sigma = -1 on the sphere and +1 on the hyperboloid.  Parallel transport
    to y fixes the perpendicular part and takes u to
    u + sigma sin(rho) / (1 + cos(rho)) (x + y) (hyperbolic sin and cos on
    the hyperboloid; u itself on flat space), so eta is the image of the
    rotated noise plus g_0 times that change.  Both images are formed in one
    stacked pass.
    """
    d, curv = space.dim, space.curvature
    n = x.shape[0]
    if curv == 0:
        u = (y - x) / np.maximum(rho, 1e-300)[:, None]
        coef = u
    else:
        dot = _rowdot if curv == 1 else _minkowski_rowdot
        raw = y + (-curv * dot(x, y))[:, None] * x
        u = raw / np.maximum(np.sqrt(np.maximum(dot(raw, raw), 0.0)), 1e-300)[:, None]
        # per-row pole as weights: pf = 1 where p = 1, qf = 1 where q = 1
        pf = (1.0 + x[:, 0] < 0.1).astype(float) if curv == 1 else np.zeros(n)
        qf = 1.0 - pf
        pole_x = x.copy()  # e_p + x
        pole_x[:, 0] += qf
        pole_x[:, 1] += pf
        one_xp = pole_x[:, 0] * qf + pole_x[:, 1] * pf
        if curv == 1:
            # reference_frame's clamp; with the pole chosen per row,
            # 1 + x_p >= 0.1 already on points of the sphere
            one_xp = np.maximum(one_xp, 1e-3)
        sig_c = -curv / one_xp
        along = sig_c * dot(pole_x, u)
        coef = np.empty((n, d))
        coef[:, 0] = pf * u[:, 0] + qf * u[:, 1] + along * (pf * x[:, 0] + qf * x[:, 1])
        coef[:, 1:] = u[:, 2:] + along[:, None] * x[:, 2:]
    w0 = 1.0 - coef[:, 0]
    w2 = w0 * w0 + _rowdot(coef[:, 1:], coef[:, 1:])
    two_w2 = np.where(w2 > 1e-24, 2.0 / np.maximum(w2, 1e-300), 0.0)

    v = np.stack((gp[:, :d], _rotate_pairs_transposed(gp, alpha)[:, :d]))
    kappa = np.einsum("knj,nj->kn", v[..., 1:], coef[:, 1:]) * two_w2
    tail = v[..., 1:] - kappa[..., None] * coef[:, 1:]
    if curv == 0:
        out = np.concatenate(((kappa * w0)[..., None], tail), axis=-1)
    else:
        out = np.empty((2, n, d + 1))
        out[..., 0] = kappa * (w0 * pf)
        out[..., 1] = kappa * (w0 * qf)
        out[..., 2:] = tail
        out += (sig_c * np.einsum("kna,na->kn", out, x))[..., None] * pole_x
    out += v[..., :1] * u
    if curv != 0:
        half = np.tan(0.5 * rho) if curv == 1 else np.tanh(0.5 * rho)
        out[1] += (-curv * half * gp[:, 0])[:, None] * (x + y)
    return out


class RotationCoupling(CouplingStrategy):
    """Transport-and-rotate coupling on any model space.

    The first particle walks with a tangent frame adapted to the connecting
    geodesic; the second receives the same noise after parallel transport and
    a rotation by alpha(rho) in the perpendicular 2-planes.  Even dimensions
    gain one fictitious driving dimension (frames of size d+1) so the
    perpendicular directions pair up.  The frames are applied in closed form
    on ambient vectors (``_transport_rotate_noise``), never built.

    With a rate parameter k the angle solves
    cos(alpha) = gc(rho) + k rho gs(rho) / (2(d-1)), which makes the distance
    exactly exp(-k t / 2) times its start; alpha_override forces a fixed angle
    instead (0 = synchronous, pi = perverse).
    """

    strategy_id = "rotation"

    def __init__(
        self,
        space: ModelSpace,
        k: Optional[float] = None,
        alpha_override: Optional[float] = None,
    ):
        super().__init__(space)
        if (k is None) == (alpha_override is None):
            raise DomainError("exactly one of k and alpha_override must be given")
        self.k = k
        self.alpha_override = alpha_override

    @property
    def expanding(self) -> bool:  # type: ignore[override]
        # Any non-synchronous angle repels near the diagonal; a fixed rate
        # expands exactly when it is negative.
        if self.alpha_override is not None:
            return float(np.cos(self.alpha_override)) < 1.0 - 1e-12
        return self.k is not None and self.k < 0.0

    @property
    def primary_dim(self) -> int:
        return self.space.dim if self.space.dim % 2 == 1 else self.space.dim + 1

    def validate_start(self, x, y) -> None:
        self._alpha(self._distance(x, y))

    def validate_run(self, x0, y0, times) -> None:
        # a rate fixes the law rho0 exp(-k t / 2); its angle must exist along it
        if self.k is not None:
            decay = np.exp(-0.5 * self.k * np.asarray(times, float))
            for rho0 in np.unique(self.space.distance(x0, y0)):
                self._alpha(rho0 * decay)

    def _alpha(self, rho: np.ndarray) -> np.ndarray:
        if self.alpha_override is not None:
            return np.full_like(np.asarray(rho, float), float(self.alpha_override))
        cos_alpha = rotation_angle_cos(self.space, self.k, rho)
        if np.any(np.abs(cos_alpha) > 1.0 + 1e-12):
            worst = float(np.max(np.abs(cos_alpha)))
            raise InfeasibleRateError(
                f"rate k={self.k} infeasible at distance "
                f"{float(np.asarray(rho).flat[int(np.argmax(np.abs(cos_alpha)))]):.6g}"
                f" (|cos alpha| = {worst:.6g} > 1)"
            )
        return np.arccos(np.clip(cos_alpha, -1.0, 1.0))

    def _distance(self, x, y) -> np.ndarray:
        """Distances of the pairs, which must neither meet nor be antipodal."""
        rho = self.space.distance(x, y)
        if np.any(rho < MEET_TOL):
            raise DegenerateInputError("rotation coupling undefined at coincident points")
        if self.space.curvature == 1 and np.any(rho > np.pi - ANTIPODE_TOL):
            raise CutLocusError("rotation coupling undefined at (numerically) antipodal points")
        return rho

    def noise_tangents(self, x, y, gp) -> np.ndarray:
        """Tangent noise pair induced by the driving draws, stacked as one
        (2, n, ambient) array: xi at x, then eta at y.

        The adapted frame at x is transported to y; the perpendicular
        components of the noise rotate by alpha(rho) on the way.
        """
        rho = self._distance(x, y)
        return _transport_rotate_noise(self.space, x, y, rho, gp, self._alpha(rho))

    def move(self, x, y, gp, ga, h, cache):
        tangents = np.sqrt(h) * self.noise_tangents(x, y, gp)
        check_step_length(self.space, tangents)
        moved = self.space.exp_tangent(np.stack((x, y)), tangents)
        return moved[0], moved[1], cache


# -- broken coupling (negative control) ---------------------------------------------


class BrokenMarginalS2(Sphere2Strategy):
    """Deliberately wrong coupling: the second particle reuses the first's noise
    through a non-orthogonal matrix, so its coordinate process is not a
    Brownian motion.  Exists only as a negative control for the marginal test,
    so it is never patched."""

    strategy_id = "broken-marginal"
    patchable = False
    _skew = np.array([[1.0, 1.5, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])

    def move(self, x, y, gp, ga, h, cache):
        return stroock_step(x, gp, h), stroock_step(y, gp @ self._skew.T, h), cache


# -- patching regime machine ----------------------------------------------------------


class PatchedCoupling(CouplingStrategy):
    """Run the inner coupling away from the degenerate sets, independent motion
    inside them.

    On the sphere the pair turns independent within eps of the cut locus
    (distance above pi - eps) and re-couples below pi - 2 eps.  For expanding
    (shy) inner couplings the diagonal is patched the same way: independent
    inside distance eps/4, re-coupled beyond eps/2.  Transitions are evaluated
    after each move.
    """

    def __init__(self, inner: CouplingStrategy, eps: float):
        super().__init__(inner.space)
        if inner.space.curvature != 1:
            raise DomainError("patching applies to the sphere (the only space with a cut locus)")
        if not inner.patchable:
            raise DomainError(f"strategy {inner.strategy_id!r} does not support patching")
        if not 0.0 < eps < np.pi / 4.0:
            raise DomainError(f"eps must lie in (0, pi/4), got {eps}")
        self.inner = inner
        self.eps = float(eps)
        self.diagonal = bool(inner.expanding)
        self.strategy_id = inner.strategy_id

    @property
    def primary_dim(self) -> int:
        return self.inner.primary_dim

    @property
    def aux_dim(self) -> int:
        return max(self.inner.aux_dim, self.inner.indep_dim)

    @property
    def indep_dim(self) -> int:
        return self.inner.indep_dim

    def _independent_zone(self, rho: np.ndarray) -> np.ndarray:
        zone = rho > np.pi - self.eps
        if self.diagonal:
            zone = zone | (rho < self.eps / 4.0)
        return zone

    def _coupled_zone(self, rho: np.ndarray) -> np.ndarray:
        zone = rho < np.pi - 2.0 * self.eps
        if self.diagonal:
            zone = zone & (rho > self.eps / 2.0)
        return zone

    def initial_state(self, x0, y0, n_paths: int = 1) -> CouplingState:
        x, y = self._start_points(x0, y0, n_paths)
        rho = self.space.distance(x, y)
        regime = np.where(self._independent_zone(rho), INDEPENDENT, COUPLED).astype(np.int8)
        if np.any(regime == COUPLED):
            sel = regime == COUPLED
            self.inner.validate_start(x[sel], y[sel])
        cache = self.inner.init_cache(x, y)
        return CouplingState(t=0.0, x=x, y=y, regime=regime, cache=cache)

    def step(self, state: CouplingState, noise: StepNoise, h: float) -> CouplingState:
        gp = np.atleast_2d(noise.primary)
        ga = None if noise.auxiliary is None else np.atleast_2d(noise.auxiliary)
        x_new = state.x.copy()
        y_new = state.y.copy()
        coupled = state.regime == COUPLED
        cache = state.cache
        if np.any(coupled):
            sub_ga = None if ga is None else ga[coupled]
            xc, yc, cache = self.inner.move(
                state.x[coupled], state.y[coupled], gp[coupled], sub_ga, h, cache
            )
            x_new[coupled] = xc
            y_new[coupled] = yc
        free = ~coupled
        if np.any(free):
            nd = self.inner.indep_dim
            x_new[free] = self.inner.independent_move(state.x[free], gp[free, :nd], h)
            y_new[free] = self.inner.independent_move(state.y[free], ga[free, :nd], h)
        rho = self.space.distance(x_new, y_new)
        regime = state.regime.copy()
        regime[coupled & self._independent_zone(rho)] = INDEPENDENT
        regime[free & self._coupled_zone(rho)] = COUPLED
        return CouplingState(t=state.t + h, x=x_new, y=y_new, regime=regime, cache=cache)


# -- registry -------------------------------------------------------------------------

STRATEGIES = {
    cls.strategy_id: cls
    for cls in (
        TranslationCoupling,
        MirrorS2,
        ExtrinsicContractS2,
        ExtrinsicExpandS2,
        FixedDistanceS2,
        RotationCoupling,
        So3FlowCoupling,
        IndependentCoupling,
        BrokenMarginalS2,
    )
}
STRATEGY_IDS = tuple(STRATEGIES)


def make_strategy(
    strategy_id: str,
    space: ModelSpace,
    k: Optional[float] = None,
    alpha_override: Optional[float] = None,
    eps: Optional[float] = None,
) -> CouplingStrategy:
    """Build a strategy from its stable id; eps switches on cut-locus patching."""
    if strategy_id not in STRATEGIES:
        raise DomainError(f"unknown strategy {strategy_id!r}; known: {', '.join(STRATEGY_IDS)}")
    cls = STRATEGIES[strategy_id]
    if cls is RotationCoupling:
        inner: CouplingStrategy = RotationCoupling(space, k=k, alpha_override=alpha_override)
    else:
        if k is not None or alpha_override is not None:
            raise DomainError(f"strategy {strategy_id!r} takes no k / alpha-override parameters")
        inner = cls(space)
    if eps is None:
        return inner
    return PatchedCoupling(inner, eps)
