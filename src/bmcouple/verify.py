"""Deterministic and statistical verification tools.

Closed-form distance laws with an independent ODE-integration oracle,
simulation-versus-law comparisons with convergence-order fitting, marginal
(linear functional) tests, the drift identity against quadrature index forms,
and the harmonic-gradient maximum-principle demonstration on a spherical cap.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .couplings import CouplingStrategy, distance_drift, make_strategy, scalar_distance_drift
from .errors import DomainError
from .simulate import run_paths
from .spaces import (
    ModelSpace,
    _half_field_index_forms,
    field_index_form,
    index_form_quadrature,
)

# -- closed-form distance laws -------------------------------------------------


@dataclass(frozen=True)
class DistanceLaw:
    """A deterministic map t -> expected separation, plus its defining ODE.

    ``observable`` says which simulated quantity the law describes: the
    geodesic distance or the ambient chord length.  ``rhs`` is the right-hand
    side of the scalar ODE the closed form solves; the law is only trusted
    after ``validate_law`` integrates that ODE independently and matches it.
    """

    law_id: str
    observable: str  # "geodesic" or "chord"
    initial: float
    evaluate: Callable[[np.ndarray], np.ndarray]
    rhs: Callable[[float], float]


def law_fixed(rho0: float) -> DistanceLaw:
    return DistanceLaw(
        law_id="fixed",
        observable="geodesic",
        initial=rho0,
        evaluate=lambda t: np.full_like(np.asarray(t, float), rho0),
        rhs=lambda rho: 0.0,
    )


def law_exponential_rate(rho0: float, k: float) -> DistanceLaw:
    return DistanceLaw(
        law_id="exponential-rate",
        observable="geodesic",
        initial=rho0,
        evaluate=lambda t: rho0 * np.exp(-k * np.asarray(t, float) / 2.0),
        rhs=lambda rho: -k * rho / 2.0,
    )


def law_synchronous(space: ModelSpace, rho0: float) -> DistanceLaw:
    """Distance under parallel-transport noise: constant on flat space,
    2*arcsin(e^{-(d-1)t/2} sin(rho0/2)) on the sphere and the matching
    arcsinh form on hyperbolic space."""
    r, d = space.curvature, space.dim
    if r == 0:

        def evaluate(t):
            return np.full_like(np.asarray(t, float), rho0)

        law_id = "flat-synchronous"
    elif r == 1:

        def evaluate(t):
            return 2.0 * np.arcsin(np.exp(-(d - 1) * np.asarray(t, float) / 2.0) * np.sin(rho0 / 2.0))

        law_id = "sphere-synchronous"
    else:

        def evaluate(t):
            return 2.0 * np.arcsinh(np.exp((d - 1) * np.asarray(t, float) / 2.0) * np.sinh(rho0 / 2.0))

        law_id = "hyperbolic-synchronous"

    rhs = scalar_distance_drift(space, 0.0)
    return DistanceLaw(law_id, "geodesic", rho0, evaluate, rhs)


def law_perverse(space: ModelSpace, rho0: float) -> DistanceLaw:
    """Distance under sign-flipped perpendicular noise: sqrt(rho0^2 + 4(d-1)t)
    on flat space and the arccos/arccosh forms on the curved spaces."""
    r, d = space.curvature, space.dim
    if r == 0:

        def evaluate(t):
            return np.sqrt(rho0**2 + 4.0 * (d - 1) * np.asarray(t, float))

        law_id = "flat-perverse"
    elif r == 1:

        def evaluate(t):
            return 2.0 * np.arccos(np.exp(-(d - 1) * np.asarray(t, float) / 2.0) * np.cos(rho0 / 2.0))

        law_id = "sphere-perverse"
    else:

        def evaluate(t):
            return 2.0 * np.arccosh(np.exp((d - 1) * np.asarray(t, float) / 2.0) * np.cosh(rho0 / 2.0))

        law_id = "hyperbolic-perverse"

    rhs = scalar_distance_drift(space, np.pi)
    return DistanceLaw(law_id, "geodesic", rho0, evaluate, rhs)


def law_chordal_contract(chord0: float) -> DistanceLaw:
    return DistanceLaw(
        law_id="chordal-contract",
        observable="chord",
        initial=chord0,
        evaluate=lambda t: chord0 * np.exp(-np.asarray(t, float) / 2.0),
        rhs=lambda m: -m / 2.0,
    )


def law_chordal_expand(sum_norm0: float) -> DistanceLaw:
    """Chord length sqrt(4 - |x+y|^2 e^{-t}) of the expanding pair on the 2-sphere."""
    s2 = sum_norm0**2

    def evaluate(t):
        return np.sqrt(4.0 - s2 * np.exp(-np.asarray(t, float)))

    return DistanceLaw(
        law_id="chordal-expand",
        observable="chord",
        initial=float(np.sqrt(4.0 - s2)),
        evaluate=evaluate,
        rhs=lambda m: (4.0 - m * m) / (2.0 * m),
    )


def _given_rate(k):
    if k is None:
        raise DomainError("law 'exponential-rate' needs a rate k")
    return k


def _sphere2_chord(space, v):
    """|v| for a chordal law, which holds on the 2-sphere only."""
    if (space.curvature, space.dim) != (1, 2):
        raise DomainError("the chordal laws apply to the 2-sphere only")
    return float(np.linalg.norm(v))


# Builders of the laws a run can be compared against, by law id; each takes
# the space, the start distance, both start points and the rate k (None when
# no rate was given).
LAWS = {
    "fixed": lambda space, rho0, x0, y0, k: law_fixed(rho0),
    "exponential-rate": lambda space, rho0, x0, y0, k: law_exponential_rate(rho0, _given_rate(k)),
    "flat-synchronous": lambda space, rho0, x0, y0, k: law_synchronous(space, rho0),
    "sphere-synchronous": lambda space, rho0, x0, y0, k: law_synchronous(space, rho0),
    "hyperbolic-synchronous": lambda space, rho0, x0, y0, k: law_synchronous(space, rho0),
    "flat-perverse": lambda space, rho0, x0, y0, k: law_perverse(space, rho0),
    "sphere-perverse": lambda space, rho0, x0, y0, k: law_perverse(space, rho0),
    "hyperbolic-perverse": lambda space, rho0, x0, y0, k: law_perverse(space, rho0),
    "chordal-contract": lambda space, rho0, x0, y0, k: law_chordal_contract(_sphere2_chord(space, y0 - x0)),
    "chordal-expand": lambda space, rho0, x0, y0, k: law_chordal_expand(_sphere2_chord(space, y0 + x0)),
}


def build_law(name: str, space: ModelSpace, x0, y0, k: float | None = None) -> DistanceLaw:
    """The law ``name`` for a pair started at (x0, y0) on ``space``.

    Raises DomainError for an unknown name; for a name that does not fit the
    space (e.g. sphere-perverse on hyperbolic space builds the
    hyperbolic-perverse law, and the chordal laws are those of the extrinsic
    2-sphere couplings); and for exponential-rate without a rate k.
    """
    if name not in LAWS:
        raise DomainError(f"unknown law {name!r}; known: {', '.join(sorted(LAWS))}")
    law = LAWS[name](space, float(space.distance(x0, y0)), x0, y0, k)
    if law.law_id != name:
        raise DomainError(
            f"law {name!r} does not apply to curvature {space.curvature:+d}; "
            f"this space has {law.law_id!r}"
        )
    return law


def validate_law(law: DistanceLaw, t_final: float) -> float:
    """Integrate the law's defining ODE with Runge-Kutta over 20 000 steps and
    return the max relative deviation from the closed form on the grid.  The
    closed form is evaluated once on the whole grid; the RK4 loop steps the
    scalar ``rhs``."""
    n_steps = 20000
    h = t_final / n_steps
    values = np.empty(n_steps + 1)
    value = law.initial
    values[0] = value
    for i in range(n_steps):
        k1 = law.rhs(value)
        k2 = law.rhs(value + 0.5 * h * k1)
        k3 = law.rhs(value + 0.5 * h * k2)
        k4 = law.rhs(value + h * k3)
        value += (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        values[i + 1] = value
    ref = np.asarray(law.evaluate(np.arange(n_steps + 1) * h), float)
    return float(np.max(np.abs(values - ref) / np.maximum(np.abs(ref), 1e-12)))


# -- simulation versus law ------------------------------------------------------

# Largest sup-time deviation of the ensemble-mean observable from its law
# that counts as agreement.
LAW_TOL = 0.02


def _observed(law: DistanceLaw, record) -> np.ndarray:
    """The record's (time, path) array of the quantity the law describes."""
    return record.rho if law.observable == "geodesic" else record.chord


def law_sup_error(law: DistanceLaw, record) -> float:
    """Sup over the record's times of |ensemble mean of the observable - law|."""
    return float(np.max(np.abs(np.mean(_observed(law, record), axis=1) - law.evaluate(record.times))))


# Step sizes of every distance-law check, coarsest first.
H_LADDER = (4e-3, 2e-3, 1e-3, 5e-4)


def convergence_order_fit(pairs) -> float:
    """Least-squares slope of log(error) against log(h); needs >= 3 points."""
    pairs = [(float(h), float(e)) for h, e in pairs]
    if len(pairs) < 3:
        raise DomainError("order fitting needs at least three ladder points")
    hs = np.log([p[0] for p in pairs])
    errs = np.log([max(p[1], 1e-300) for p in pairs])
    slope = np.polyfit(hs, errs, 1)[0]
    return float(slope)


def distance_law_check(
    strategy: CouplingStrategy, x0, y0, law: DistanceLaw, *, t_final: float, n_paths: int, seed: int
) -> dict:
    """Simulate over the step-size ladder ``H_LADDER`` and compare against the law.

    The gating error per ladder point is the sup over sample times of the
    absolute deviation of the ensemble-mean observable from the law (the
    per-path deviation of these couplings is pure discretization noise of
    size sqrt(h T), so the ensemble mean is what converges at weak order
    one).  Per-path sup deviations are reported as diagnostics.  The law
    itself is first validated against its ODE oracle.
    """
    oracle_err = validate_law(law, t_final)
    if oracle_err > 1e-8:
        raise DomainError(f"law {law.law_id} fails its ODE oracle (rel err {oracle_err:.3e})")
    sup_err = []
    mae_sup = []
    path_sup_mean = []
    # one batch for the whole ladder; each record is dropped once it is read
    records = list(run_paths(strategy, x0, y0, h=H_LADDER, t_final=t_final, n_paths=n_paths, seed=seed))
    while records:
        record = records.pop(0)
        abs_err = np.abs(_observed(law, record) - law.evaluate(record.times)[:, None])
        sup_err.append(law_sup_error(law, record))
        mae_sup.append(float(np.max(np.mean(abs_err, axis=1))))
        path_sup_mean.append(float(np.mean(np.max(abs_err, axis=0))))
    order = convergence_order_fit(list(zip(H_LADDER, sup_err)))
    order_mae = convergence_order_fit(list(zip(H_LADDER, mae_sup)))

    # A run passes if one error notion satisfies tolerance and order together.
    # The ensemble-mean chain isolates the weak discretization error; for
    # couplings whose distance is already exact to within the Monte Carlo
    # floor (the fixed-distance family) that chain has nothing left to
    # converge, and the per-path chain, which scales like sqrt(h), carries
    # the order information instead.
    def chain_ok(errors, fitted):
        return errors[-1] < LAW_TOL and (fitted >= 0.4 or max(errors) < 1e-12)

    return {
        "strategy": strategy.strategy_id,
        "law": law.law_id,
        "n_paths": n_paths,
        "h_ladder": list(H_LADDER),
        "sup_err": sup_err,
        "mae_sup": mae_sup,
        "path_sup_mean": path_sup_mean,
        "fitted_order": order,
        "fitted_order_mae": order_mae,
        "z_scores": [],
        "oracle_err": oracle_err,
        "pass": bool(chain_ok(sup_err, order) or chain_ok(mae_sup, order_mae)),
    }


# -- marginal (linear functional) test -------------------------------------------


def _marginal_factor(space: ModelSpace, t: float) -> float:
    """Exact decay factor of ambient-linear functionals under the heat flow:
    the coordinate functions are Laplace eigenfunctions with eigenvalue -d on
    the sphere, 0 on flat space and +d on the hyperboloid."""
    return float(np.exp(-space.curvature * space.dim * t / 2.0))


def marginal_check(
    strategy: CouplingStrategy,
    x0,
    y0,
    *,
    record,
    coordinate: str,
    times=(0.25, 0.5, 1.0),
) -> dict:
    """z-scores of E[v . X_t] against the exact linear-functional decay, for
    the first (at most three) ambient axes v, from the snapshots at ``times``
    of a record of the strategy run from (x0, y0); one record serves both
    coordinates.  Each time needs the snapshot ``run_paths`` keys at the step
    nearest it; a time without one is rejected, and so is a record of fewer
    than 2 paths, which has no standard error."""
    if coordinate not in ("X", "Y"):
        raise DomainError("coordinate must be 'X' or 'Y'")
    n_paths = record.n_paths
    if n_paths < 2:
        raise DomainError(f"a marginal check needs at least 2 paths, got {n_paths}")
    space = strategy.space
    start = np.asarray(x0 if coordinate == "X" else y0, float)
    directions = np.eye(space.ambient_dim)[: min(3, space.ambient_dim)]
    rows = []
    for t in times:
        key = round(t / record.h) * record.h
        if key not in record.snapshots:
            raise DomainError(f"the record has no snapshot at t = {t:g}")
        points = record.snapshots[key][0 if coordinate == "X" else 1]
        factor = _marginal_factor(space, key)
        for v in directions:
            samples = points @ v
            target = factor * float(start @ v)
            se = float(np.std(samples, ddof=1) / np.sqrt(n_paths))
            z = (float(np.mean(samples)) - target) / max(se, 1e-300)
            rows.append({"t": key, "direction": list(map(float, v)), "z": z})
    max_z = max(abs(r["z"]) for r in rows)
    return {
        "strategy": strategy.strategy_id,
        "coordinate": coordinate,
        "n_paths": n_paths,
        "rows": rows,
        "max_abs_z": max_z,
        "pass": bool(max_z < 3.0),
    }


# -- drift identity ----------------------------------------------------------------


def drift_identity_check() -> dict:
    """Compare the closed distance drift (d-1)(gc - cos a)/gs with half the
    index-form sum assembled from quadrature values of the half-Jacobi fields,
    on every model space of dimension 2, 3 and 5, at 13 distances in
    [0.1, 2.5] and 5 angles in [0, pi].

    Also checks the synchronous closed form -(d-1) gc' tan-type expression and
    the flat perverse drift 2(d-1)/rho.
    """
    dims = (2, 3, 5)
    alpha_grid = [i * np.pi / 4.0 for i in range(5)]
    rho_grid = list(np.linspace(0.1, 2.5, 13))
    cases = [(r, rho) for r in (-1, 0, 1) for rho in rho_grid]
    forms = _half_field_index_forms(*np.array(cases, float).T, 2048)
    worst = 0.0
    rows = []
    for (r, rho), i11, i22, i12 in zip(cases, *forms):
        for d in dims:
            space = ModelSpace(r, d)
            for alpha in alpha_grid:
                closed = float(distance_drift(space, alpha, rho))
                assembled = (d - 1) * (0.5 * (i11 + i22) + np.cos(alpha) * i12)
                err = abs(closed - assembled) / max(1.0, abs(closed))
                worst = max(worst, err)
                rows.append(
                    {
                        "curvature": r,
                        "dim": d,
                        "alpha": float(alpha),
                        "rho": float(rho),
                        "closed": closed,
                        "assembled": float(assembled),
                        "rel_err": float(err),
                    }
                )
    # closed-form spot identities
    special = 0.0
    for rho in rho_grid:
        for d in dims:
            sync = float(distance_drift(ModelSpace(1, d), 0.0, rho))
            special = max(special, abs(sync + (d - 1) * np.tan(rho / 2.0)))
            perv = float(distance_drift(ModelSpace(0, d), np.pi, rho))
            special = max(special, abs(perv - 2.0 * (d - 1) / rho))
    return {
        "max_rel_err": worst,
        "special_identity_err": special,
        "rows": rows,
        "pass": bool(worst < 1e-6 and special < 1e-9),
    }


def field_index_form_check(seed: int = 42) -> dict:
    """Check on 100 random cases that the Jacobi field minimizes the index
    form among perpendicular fields with the same boundary values.

    Competitors are the linear interpolant of the boundary values plus random
    sine bumps vanishing at both ends.
    """
    n_cases = 100
    rng = np.random.default_rng(seed)
    cases = []
    for _ in range(n_cases):
        r = int(rng.integers(-1, 2))
        rho = float(rng.uniform(0.2, 2.8 if r == 1 else 3.5))
        a, b = rng.uniform(-2.0, 2.0, size=2)
        cases.append((r, rho, a, b, rng.uniform(-0.5, 0.5, size=3)))
    r, rho, a, b = (np.array([case[i] for case in cases]) for i in range(4))
    jacobi_values = index_form_quadrature(r, rho, (a, b))
    worst = np.inf
    for (r, rho, a, b, coeffs), jacobi_value in zip(cases, jacobi_values):

        def w(s, a=a, b=b, rho=rho, coeffs=coeffs):
            out = a + (b - a) * s / rho
            for m, cm in enumerate(coeffs, start=1):
                out = out + cm * np.sin(m * np.pi * s / rho)
            return out

        def wdot(s, a=a, b=b, rho=rho, coeffs=coeffs):
            out = np.full_like(np.asarray(s, float), (b - a) / rho)
            for m, cm in enumerate(coeffs, start=1):
                out = out + cm * (m * np.pi / rho) * np.cos(m * np.pi * s / rho)
            return out

        competitor_value = field_index_form(r, rho, w, wdot)
        worst = min(worst, competitor_value - jacobi_value)
    return {"n_cases": n_cases, "worst_margin": float(worst), "pass": bool(worst > -1e-9)}


# -- maximum principle demonstration -------------------------------------------------


def cap_harmonic(n: int):
    """Pullback of Re(z^n) under stereographic projection from the south pole.

    Harmonic on the sphere minus the south pole; returns (u, gradient) where
    gradient gives the ambient tangent gradient vector.
    """
    if not isinstance(n, numbers.Integral) or n < 0:
        raise DomainError(f"harmonic index must be an integer >= 0, got {n!r}")

    def u(x):
        x = np.asarray(x, float)
        w = (x[..., 0] + 1j * x[..., 1]) / (1.0 + x[..., 2])
        return np.real(w**n)

    def gradient(x):
        x = np.asarray(x, float)
        if n == 0:
            return np.zeros_like(x)
        denom = (1.0 + x[..., 2])[..., None]
        w = x[..., 0] + 1j * x[..., 1]
        wn1 = (w / denom[..., 0]) ** (n - 1)
        g = np.empty_like(x)
        g[..., 0] = np.real(n * wn1) / denom[..., 0]
        g[..., 1] = -np.imag(n * wn1) / denom[..., 0]
        g[..., 2] = -n * np.real((w / denom[..., 0]) ** n) / denom[..., 0]
        radial = np.sum(g * x, axis=-1, keepdims=True)
        return g - radial * x

    return u, gradient


def cap_gradient_norm(n: int, polar_angle) -> np.ndarray:
    """|grad u| of the cap harmonic at polar angle theta from the cap pole:
    n |z|^{n-1} (1 + |z|^2) / 2 with |z| = tan(theta/2)."""
    z = np.tan(np.asarray(polar_angle, float) / 2.0)
    return n * z ** (n - 1) * (1.0 + z * z) / 2.0 if n else np.zeros_like(z)


def _cap_point(polar_angle: float) -> np.ndarray:
    return np.array([np.sin(polar_angle), 0.0, np.cos(polar_angle)])


def max_principle_demo(
    cap_angle: float,
    n_harmonic: int,
    *,
    h: float = 5e-4,
    n_paths: int = 10_000,
    t_max: float = 10.0,
    seed: int = 777,
) -> dict:
    """Check the coupling mechanism behind the boundary maximum principle for
    the gradient of a cap harmonic.

    (i) the stopped fixed-distance coupling reproduces u(x)-u(y) in mean;
    (ii) coupling-based finite-difference gradient estimates at interior
    points stay below the analytic boundary maximum plus noise margin.
    """
    if not 0.0 < cap_angle < np.pi / 2.0:
        raise DomainError("cap must be strictly smaller than a hemisphere")
    if n_harmonic < 1:
        raise DomainError("the demo needs a non-constant harmonic (n >= 1)")
    if n_paths < 2:
        raise DomainError(f"the demo's standard errors need at least 2 paths, got {n_paths}")
    space = ModelSpace.sphere(2)
    strategy = make_strategy("fixed-s2", space)
    u, grad = cap_harmonic(n_harmonic)
    level = float(np.cos(cap_angle))
    boundary_max = float(cap_gradient_norm(n_harmonic, cap_angle))

    separation = 0.05  # distance of every started pair
    # (i) martingale identity; run at a finer step, since the discrete
    # boundary monitoring bias is what limits the z-score here.  It draws
    # the streams (seed, p) at h / 2, so it shares no draws with (ii)
    starts = [(_cap_point(0.45 * cap_angle), _cap_point(0.45 * cap_angle + separation))]
    # (ii) interior gradient bound.  Both rows step at h on the streams
    # (seed + 1, p), so each path's noise is drawn once for both
    polars = (0.0, 0.5 * cap_angle)
    for polar in polars:
        base = _cap_point(polar)
        gvec = grad(base)
        gnorm = float(np.linalg.norm(gvec))
        if gnorm > 1e-12:
            direction = gvec / gnorm
        else:
            direction = space.project_tangent(base, np.array([1.0, 0.0, 0.0]))
            direction /= np.linalg.norm(direction)
        starts.append((space.exp_map(base, direction, separation), base))
    # All three rows run as the start sets of one run, so their stopped
    # tails step as one batch; each record is bitwise that of its row run
    # alone.  u(X) - u(Y) of each, both points stopped when either leaves the
    # cap, or at t_max.  One thread: most steps run a few hundred rows, too
    # few to overlap two, and 2000 paths at h = 5e-4 ran a median 2.46 s on
    # one and 4.11 s on two (5 runs each); with the two taking turns to
    # step, 2.29 s on one and 3.54 s on two
    x0s, y0s = (np.repeat(np.array(points)[:, None], n_paths, axis=1) for points in zip(*starts))
    steps = (h / 2.0, h, h)
    records = run_paths(
        strategy, x0s, y0s, h=steps, t_final=t_max, n_paths=n_paths, seed=(seed, seed + 1, seed + 1),
        record_stride=max(1, round(t_max / min(steps))), snapshot_times=(t_max,), threads=1,
        stop=lambda p: p[:, 2] - level,
    )
    ends = [next(iter(record.snapshots.values())) for record in records]
    diffs, *sdiffs = [u(xs) - u(ys) for xs, ys in ends]
    se = float(np.std(diffs, ddof=1) / np.sqrt(n_paths))
    target = float(u(starts[0][0]) - u(starts[0][1]))
    z = (float(np.mean(diffs)) - target) / max(se, 1e-300)

    gradient_rows = []
    for polar, sdiff in zip(polars, sdiffs):
        est = float(np.mean(sdiff)) / separation
        est_se = float(np.std(sdiff, ddof=1) / np.sqrt(n_paths)) / separation
        gradient_rows.append(
            {
                "polar_angle": float(polar),
                "estimate": est,
                "se": est_se,
                "analytic": float(cap_gradient_norm(n_harmonic, polar)),
                "within_bound": bool(est <= boundary_max + 3.0 * est_se),
            }
        )
    ok = bool(abs(z) < 3.0 and all(r["within_bound"] for r in gradient_rows))
    return {
        "cap_angle": cap_angle,
        "n_harmonic": n_harmonic,
        "n_paths": n_paths,
        "martingale_z": float(z),
        "boundary_gradient_max": boundary_max,
        "gradient_rows": gradient_rows,
        "pass": ok,
    }


# -- report serialization -------------------------------------------------------------


REPORT_KEYS = ("strategy", "law", "n_paths", "h_ladder", "sup_err", "fitted_order", "z_scores", "pass")


def report_json(report: dict) -> str:
    """Serialize a law-check report to the stable JSON schema."""
    filtered = {key: report.get(key) for key in REPORT_KEYS}
    return json.dumps(filtered, sort_keys=True)
