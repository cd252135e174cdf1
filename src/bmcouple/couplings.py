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
closed form to the noise (``RotationCoupling.noise_tangents``) on coordinate
rows, and never builds them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .drivers import StepNoise, _exp_step, geodesic_walk_step, kendall_compose, stroock_step
from .errors import (
    CouplingConstraintError,
    CutLocusError,
    DegenerateInputError,
    DomainError,
    InfeasibleRateError,
)
from .spaces import ANTIPODE_TOL, ModelSpace, gen_cos, gen_sin, rowdot, rowsum

COUPLED = 0
INDEPENDENT = 1

MEET_TOL = 1e-12
# A rate is feasible at a distance where |cos alpha| <= 1 + FEASIBLE_COS_TOL:
# the slack takes the roundoff of cos alpha at the ends of the feasible interval.
FEASIBLE_COS_TOL = 1e-12


@dataclass
class CouplingState:
    """Ensemble state of a coupled pair: both point arrays (n, ambient),
    per-path regime flags and strategy-owned cache (rebuilt or carried as the
    strategy requires).  Every cache value is a writable array with a leading
    path axis: once paths stop, the stepping loop gathers the running paths'
    rows into a working state.  A step may return arrays of the state it was
    given, such as its regime flags, in the new state."""

    x: np.ndarray
    y: np.ndarray
    regime: np.ndarray
    cache: dict = field(default_factory=dict)


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
    paths_per_thread: float | None = None  # chunk size from which chunks step at once; None: simulate.PATHS_PER_THREAD

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
        return CouplingState(x=x, y=y, regime=regime, cache=self.init_cache(x, y))

    def validate_start(self, x, y) -> None:
        pass

    def validate_run(self, x0, y0, times) -> None:
        """Reject, before any noise is drawn, a run the strategy cannot
        sustain up to the last of its step times.  None can start from a pair
        at no finite distance: NaN coordinates pass ``check_point``."""
        if not np.isfinite(self.space.distance(x0, y0)).all():
            raise DomainError("start points must lie at a finite distance")

    def init_cache(self, x, y) -> dict:
        return {}

    def step(self, state: CouplingState, noise: StepNoise, h) -> CouplingState:
        """The state after one step; the noise blocks carry a leading path
        axis, and ``h`` is one step size or a (rows, 1) column of them, which
        every ``move`` broadcasts.  The regime never changes, so the new
        state shares its array."""
        x, y, cache = self.move(state.x, state.y, noise.primary, noise.auxiliary, h, state.cache)
        return CouplingState(x=x, y=y, regime=state.regime, cache=cache)

    def move(self, x, y, gp, ga, h, cache):
        raise NotImplementedError

    def independent_move(self, x, g, h) -> np.ndarray:
        """Advance one particle alone (used by the patching regime machine)."""
        return geodesic_walk_step(self.space, x, g[..., : self.space.dim], h)


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
    paths_per_thread = np.inf  # a second thread never paid, at 4096 to 10 000 paths

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
        np.copyto(y_new, x_new, where=glued_new[:, None])
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
    +/-I limits.  Each of these rare forms is computed only when some row
    takes it; every row gets the arithmetic of its own case whatever its
    batch.
    """
    c = rowsum(x * y)[..., None]
    xv = rowsum(x * v)[..., None]
    far = c < -0.5
    any_far = far.any()
    denom = 1.0 + c
    if any_far:
        np.copyto(denom, 1.0, where=far)
    u = _cross(x, y)
    out = c * v + xv * y - rowsum(y * v)[..., None] * x + rowsum(u * v)[..., None] / denom * u
    if any_far:
        mid = x + y
        mid_norm = _row_norms(mid)
        mid /= np.where(mid_norm > 0.0, mid_norm, 1.0)
        w = v - 2.0 * xv * x
        out = np.where(far, w - 2.0 * rowsum(mid * w)[..., None] * mid, out)
        np.copyto(out, -v, where=c <= -1.0 + 1e-12)  # antiparallel rows are far
    parallel = c >= 1.0 - 1e-12
    if parallel.any():
        np.copyto(out, v, where=parallel)
    return out


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


def _aligned_direction(x: np.ndarray, y: np.ndarray):
    """Per-path c = x.y and the unit tangent e at x with y = c x + sqrt(1-c^2) e,
    on coordinate rows: x, y and e hold one row per coordinate over n paths.

    e is y - c x, projected off x once more and normalized by its computed
    norm, so it stays a unit vector orthogonal to x to machine precision even
    for nearly parallel pairs.
    """
    c = rowdot(x.T, y.T)
    if (np.abs(c) >= 1.0 - 1e-10).any():
        raise DegenerateInputError("fixed-distance driver undefined at (anti)parallel points")
    e = y - c * x
    e -= rowdot(e.T, x.T) * x
    e /= np.sqrt(rowdot(e.T, e.T))
    return c, e


def _fixed_distance_noise(x: np.ndarray, y: np.ndarray, gp: np.ndarray, ga: np.ndarray) -> np.ndarray:
    """Per-path driver increment J gp + K ga keeping |X - Y| constant, on
    coordinate rows: each argument and the result hold one row per
    coordinate over n paths.  Row dots add in einsum's order (``rowdot``),
    so the result is bitwise that of the same map on (n, 3) rows.

    J and K are the minimal-norm blocks in the frame O = (x, e, f = x cross e)
    (the equations they solve are in acceptance.fixed_distance_residuals).
    Because e e' + f f' = I - x x', they are the multiples c I and s I of the
    identity plus a rank-one term along x, and the map needs neither f nor
    any 3x3 matrix:

        w = c gp + s ga + lam x,  lam = c (e.ga - x.gp) - s (e.gp + x.ga).

    J J' + K K' - I equals O O' - I, which vanishes exactly when x is a unit
    vector orthogonal to e.  e is orthogonal to x by construction (see
    ``_aligned_direction``); that x is a unit vector is checked on every call.
    """
    c, e = _aligned_direction(x, y)
    s = np.sqrt(1.0 - c * c)
    xt, et, gpt, gat = x.T, e.T, gp.T, ga.T
    resid = float(np.max(np.abs(rowdot(xt, xt) - 1.0)))
    if resid > 1e-10:
        raise CouplingConstraintError(f"J J' + K K' deviates from I by {resid:.3e}")
    lam = c * (rowdot(et, gat) - rowdot(xt, gpt)) - s * (rowdot(et, gpt) + rowdot(xt, gat))
    w = kendall_compose(c, s, gpt, gat)
    w += lam[:, None] * xt
    return w.T


class FixedDistanceS2(Sphere2Strategy):
    """Drive the second particle with J dB + K dC so the distance freezes.

    The move copies its points and draws into coordinate rows, one
    contiguous (3, n) array each, once per step, and both particles step on
    them; the new points are (n, 3) views of coordinate rows, so the next
    step copies only its draws."""

    strategy_id = "fixed-s2"
    aux_dim = 3

    def validate_start(self, x, y) -> None:
        _aligned_direction(x.T, y.T)

    def move(self, x, y, gp, ga, h, cache):
        rows = np.ascontiguousarray
        x, y, gp, ga = rows(x.T), rows(y.T), rows(gp.T), rows(ga.T)
        w = _fixed_distance_noise(x, y, gp, ga)
        return stroock_step(x.T, gp.T, h), stroock_step(y.T, w.T, h), cache


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
    # two threads on a 2-core host: stepping at once they ran 0.80-0.82x one's time at 3072 paths
    paths_per_thread = 1536

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


def _drift(curvature: int, dim: int, cos_alpha, rho):
    """(d-1)(gc(rho) - cos_alpha) / gs(rho), with the ufuncs applied to rho
    itself: a float stays a numpy scalar, an array broadcasts with cos_alpha."""
    if curvature == 1:
        gs, gc = np.sin(rho), np.cos(rho)
    elif curvature == 0:
        gs, gc = rho, 1.0
    else:
        gs, gc = np.sinh(rho), np.cosh(rho)
    return (dim - 1) * (gc - cos_alpha) / gs


def distance_drift(space: ModelSpace, alpha, rho) -> np.ndarray:
    """Deterministic distance drift (d-1)(gc(rho) - cos(alpha)) / gs(rho)."""
    return _drift(space.curvature, space.dim, np.cos(alpha), np.asarray(rho, float))


def scalar_distance_drift(space: ModelSpace, alpha) -> Callable[[float], float]:
    """rho -> float(distance_drift(space, alpha, rho)) on a float rho, with
    cos(alpha) taken once: the right-hand side an ODE oracle steps."""
    curvature, dim, cos_alpha = space.curvature, space.dim, float(np.cos(alpha))
    return lambda rho: float(_drift(curvature, dim, cos_alpha, rho))


class RotationCoupling(CouplingStrategy):
    """Transport-and-rotate coupling on any model space.

    The first particle walks with a tangent frame adapted to the connecting
    geodesic; the second receives the same noise after parallel transport and
    a rotation by alpha(rho) in the perpendicular 2-planes.  Even dimensions
    gain one fictitious driving dimension (frames of size d+1) so the
    perpendicular directions pair up.  The frames are applied in closed form
    on ambient vectors (``noise_tangents``), never built.  The move copies
    its points and noise into coordinate rows, one contiguous row per
    ambient coordinate, once per step.

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
        if not np.isfinite(alpha_override if k is None else k):
            raise DomainError(f"k and alpha_override must be finite, got k={k}, alpha_override={alpha_override}")
        self.k = k
        self.alpha_override = alpha_override
        fixed = alpha_override is not None  # its cosine and sine are taken once
        self._fixed_turn = (np.cos(float(alpha_override)), np.sin(float(alpha_override))) if fixed else None

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
        super().validate_run(x0, y0, times)
        # a rate fixes the law rho0 exp(-k t / 2); its angle must exist along it
        if self.k is not None:
            decay = np.exp(-0.5 * self.k * np.asarray(times, float))
            for rho0 in np.unique(self.space.distance(x0, y0)):
                self._alpha(rho0 * decay)

    def _alpha(self, rho: np.ndarray) -> np.ndarray:
        if self.alpha_override is not None:
            return np.full_like(np.asarray(rho, float), float(self.alpha_override))
        cos_alpha = rotation_angle_cos(self.space, self.k, rho)
        if (np.abs(cos_alpha) > 1.0 + FEASIBLE_COS_TOL).any():
            worst = float(np.max(np.abs(cos_alpha)))
            raise InfeasibleRateError(
                f"rate k={self.k} infeasible at distance "
                f"{float(np.asarray(rho).flat[int(np.argmax(np.abs(cos_alpha)))]):.6g}"
                f" (|cos alpha| = {worst:.6g} > 1)"
            )
        return np.arccos(np.minimum(np.maximum(cos_alpha, -1.0), 1.0))

    def _distance(self, x, y) -> np.ndarray:
        """Distances of the pairs, which must neither meet nor be antipodal."""
        rho = self.space.distance(x, y)
        if (rho < MEET_TOL).any():
            raise DegenerateInputError("rotation coupling undefined at coincident points")
        if self.space.curvature == 1 and (rho > np.pi - ANTIPODE_TOL).any():
            raise CutLocusError("rotation coupling undefined at (numerically) antipodal points")
        return rho

    def noise_tangents(self, x, y, g) -> np.ndarray:
        """Tangent noise pair induced by the driving draws, on coordinate rows:
        x and y hold one row per ambient coordinate and g one per driving
        component, over n paths.  Returns an (ambient, 2, n) array: xi at x,
        then eta at y.  It forms no frame.

        The adapted frame at x is the reference frame b turned by the
        Householder map H taking the coefficients coef_j = <b_j, u> of the
        unit tangent u toward y to e_1, so that frame_0 = u and, for frame
        coefficients v,

            sum_j v_j frame_j = v_0 u + sum_j v'_j b_j,
            v' = (0, v_1, ...) + kappa w,  w = e_1 - coef,
            kappa = 2 sum_{j>=1} coef_j v_j / |w|^2

        (kappa = 0 where |w|^2 <= 1e-24: u is b_0 already and H is the
        identity).  b is the reference frame of ``ModelSpace.frame_apply``,
        which forms sum_j v'_j b_j; the pole data of x it applies also give
        coef, so they are computed once.  Parallel transport to y fixes the
        perpendicular part and takes u to u + sigma sin(rho) / (1 + cos(rho))
        (x + y), sigma = -1 on the sphere and +1 on the hyperboloid (with
        hyperbolic sin and cos; u itself on flat space), so eta is the image
        of the noise, its perpendicular pairs rotated by alpha(rho), plus g_0
        times that change.  Both images are formed in one stacked pass.  Row
        dots add in einsum's order and row sums in numpy's (``rowdot``,
        ``rowsum``), so the result is bitwise that of the same map on
        (n, ambient) rows.
        """
        space, curv = self.space, self.space.curvature
        rho = self._distance(x.T, y.T)
        u, pole, first, tail = self._frame_coefficients(x, y, rho, g)
        if curv == 0:
            out = np.concatenate((first[None], tail))
        else:
            out = space._pole_frame_apply(pole, x[:, None], first, tail)
        out += g[0] * u[:, None]
        if curv != 0:
            half = np.tan(0.5 * rho) if curv == 1 else np.tanh(0.5 * rho)
            out[:, 1] += (-curv * half * g[0]) * (x + y)
        return out

    def _frame_coefficients(self, x, y, rho, g):
        """The unit tangent u at x toward y, the pole data of the reference
        frame at x (None on flat space), and the coefficients in that frame
        of both noise images but their g_0 u parts: the first, (2, n), and
        the rest, (d - 1, 2, n).  Arrays are formed in place where their
        values allow, and the intermediate ones die here: with fewer arrays
        alive at once, less of a step's memory is handed back to the system
        and faulted in again at the next step."""
        space = self.space
        d, curv = space.dim, space.curvature
        n = x.shape[1]
        if self._fixed_turn is None:
            alpha = self._alpha(rho)
            cos_a, sin_a = np.cos(alpha), np.sin(alpha)
        else:
            cos_a, sin_a = self._fixed_turn

        def dot(a, b):  # the metric's row dots, in einsum's order
            out = rowdot(a.T, b.T)
            if curv == -1:
                out -= 2.0 * a[0] * b[0]
            return out

        pole = None
        if curv == 0:
            u = y - x
            u /= np.maximum(rho, 1e-300)
            coef = u
        else:
            u = (-curv * dot(x, y)) * x
            u += y
            u /= np.maximum(np.sqrt(np.maximum(dot(u, u), 0.0)), 1e-300)
            pf, qf, pole_x, sig_c = space._frame_pole(x)
            pole = (pf, qf, pole_x[:, None], sig_c)
            along = sig_c * dot(pole_x, u)
            coef = np.empty((d, n))
            coef[0] = pf * u[0] + qf * u[1] + along * (pf * x[0] + qf * x[1])
            np.multiply(along, x[2:], out=coef[1:])
            coef[1:] += u[2:]
        w0 = 1.0 - coef[0]
        w2 = w0 * w0 + rowdot(coef[1:].T, coef[1:].T)
        # a degenerate Householder (w2 ~ 0) is the identity
        two_w2 = np.divide(2.0, w2, out=np.zeros_like(w2), where=w2 > 1e-24)

        # the perpendicular noise, then its pairs turned by alpha (the drive
        # dimension is odd, so they pair up); an even dimension drops the
        # fictitious last component after the turn
        tail = np.empty((d - 1, 2, n))
        tail[:, 0] = g[1:d]
        odd, even = g[1::2], g[2::2]
        tail[0::2, 1] = cos_a * odd - sin_a * even
        tail[1::2, 1] = (sin_a * odd + cos_a * even)[: (d - 1) // 2]
        coef_perp = coef[1:, None]
        kappa = rowdot(tail.T, coef_perp.T).T * two_w2
        tail -= kappa * coef_perp
        kappa *= w0
        return u, pole, kappa, tail

    def move(self, x, y, gp, ga, h, cache):
        # both particles' coordinates as the rows of one (ambient, 2n) array,
        # the noise as (drive, n) rows, and the step lengths of both as one
        # row: the exponential of each pair's step is one pass over them
        n = len(x)
        points = np.concatenate((x.T, y.T), axis=1, out=np.empty((x.shape[1], 2 * n)))
        tangents = self.noise_tangents(points[:, :n], points[:, n:], gp.T.copy())
        tangents *= np.sqrt(h).T
        tangents = tangents.reshape(len(points), 2 * n)
        moved = np.ascontiguousarray(_exp_step(self.space, points.T, tangents.T))
        return moved[:n], moved[n:], cache


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
        # numpy multiplies a lone row by a matrix-vector kernel, which rounds
        # otherwise than its matrix product of 2 or more rows: padded to 2
        # rows, a row's bits do not depend on its batch
        n = len(gp)
        padded = gp if n > 1 else np.concatenate((gp, np.zeros((1, 3))))
        return stroock_step(x, gp, h), stroock_step(y, (padded @ self._skew.T)[:n], h), cache


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
    def paths_per_thread(self):
        return self.inner.paths_per_thread

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
        return CouplingState(x=x, y=y, regime=regime, cache=cache)

    def _free_move(self, x, y, gp, ga, h):
        """Both particles moved alone, on draws of their own."""
        nd = self.inner.indep_dim
        return self.inner.independent_move(x, gp[:, :nd], h), self.inner.independent_move(y, ga[:, :nd], h)

    def step(self, state: CouplingState, noise: StepNoise, h) -> CouplingState:
        gp, ga = noise.primary, noise.auxiliary
        coupled = state.regime == COUPLED
        n_coupled = np.count_nonzero(coupled)
        cache = state.cache
        # where every row shares a regime, the whole state makes one move
        if n_coupled == len(coupled):
            x_new, y_new, cache = self.inner.move(state.x, state.y, gp, ga, h, cache)
        elif not n_coupled:
            x_new, y_new = self._free_move(state.x, state.y, gp, ga, h)
        else:
            # coupled and free rows together are every row; each regime gets
            # its rows of a step-size column
            free = ~coupled
            h_coupled, h_free = (h, h) if np.ndim(h) == 0 else (h[coupled], h[free])
            x_new = np.empty_like(state.x)
            y_new = np.empty_like(state.y)
            sub_ga = None if ga is None else ga[coupled]
            xc, yc, cache = self.inner.move(
                state.x[coupled], state.y[coupled], gp[coupled], sub_ga, h_coupled, cache
            )
            x_new[coupled] = xc
            y_new[coupled] = yc
            x_new[free], y_new[free] = self._free_move(state.x[free], state.y[free], gp[free], ga[free], h_free)
        rho = self.space.distance(x_new, y_new)
        regime = state.regime.copy()
        regime[coupled & self._independent_zone(rho)] = INDEPENDENT
        regime[~coupled & self._coupled_zone(rho)] = COUPLED
        return CouplingState(x=x_new, y=y_new, regime=regime, cache=cache)


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
