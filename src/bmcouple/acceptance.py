"""Named verification suites.

Each suite runs one block of the package's acceptance checks and returns a
dict with a ``pass`` flag and per-criterion ``lines`` of (label, ok, detail).
The CLI prints them; the test suite asserts them.  Seeds are fixed so suite
results are reproducible.
"""

from __future__ import annotations

import numpy as np

from .couplings import (
    COUPLED,
    INDEPENDENT,
    RotationCoupling,
    _aligned_direction,
    _fixed_distance_noise,
    _rodrigues_apply,
    distance_drift,
    feasible_rate_interval,
    make_strategy,
)
from .errors import InfeasibleRateError
from .simulate import run_paths
from .spaces import ModelSpace, _half_field_index_forms, index_form_closed
from .verify import (
    H_LADDER,
    build_law,
    distance_law_check,
    drift_identity_check,
    field_index_form_check,
    marginal_check,
    max_principle_demo,
)


def _line(label: str, ok: bool, detail: str):
    return {"label": label, "ok": bool(ok), "detail": detail}


def _suite(name: str, lines) -> dict:
    return {"suite": name, "pass": all(l["ok"] for l in lines), "lines": lines}


_S2 = ModelSpace.sphere(2)


def _start_pair(space: ModelSpace, rho0: float = 1.0):
    return space.base_point(), space.point_at_distance(rho0)


# -- 1: algebra ---------------------------------------------------------------------


def fixed_distance_residuals(x, y, j, k):
    """Per-pair absolute residuals of the three fixed-distance equations

        x' J y = c tr(J) - 1 - c^2
        x' J x + y' J y - c y' J x = tr(J) - 2 c
        J J' + K K' = I

    for stacked unit vectors x, y (n, 3) and driver matrices J, K (n, 3, 3)."""
    c = np.sum(x * y, axis=-1)
    tr = np.trace(j, axis1=-2, axis2=-1)
    jx = np.einsum("nij,nj->ni", j, x)
    jy = np.einsum("nij,nj->ni", j, y)
    r1 = np.abs(np.sum(x * jy, axis=-1) - (c * tr - 1.0 - c * c))
    r2 = np.abs(
        np.sum(x * jx, axis=-1) + np.sum(y * jy, axis=-1) - c * np.sum(y * jx, axis=-1) - (tr - 2.0 * c)
    )
    gram = j @ j.swapaxes(-1, -2) + k @ k.swapaxes(-1, -2)
    r3 = np.max(np.abs(gram - np.eye(3)), axis=(-2, -1))
    return r1, r2, r3


def fixed_distance_columns(x, y):
    """Driver matrices J and K (n, 3, 3) of the fixed-distance coupling, read
    off the noise map column by column: J e_i = map(e_i, 0), K e_i = map(0, e_i)."""
    zero = np.zeros_like(x)
    units = [np.broadcast_to(u, x.shape) for u in np.eye(3)]
    j = np.stack([_fixed_distance_noise(x.T, y.T, u.T, zero.T).T for u in units], axis=-1)
    k = np.stack([_fixed_distance_noise(x.T, y.T, zero.T, u.T).T for u in units], axis=-1)
    return j, k


def algebra_suite(seed: int = 3001) -> dict:
    """The 2-sphere constructions the coupling moves use, on 10 000 random
    unit pairs, and the rotation coupling's angle against its rate equation
    at 1000 random feasible rates."""
    n_pairs, n_alpha = 10_000, 1000
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n_pairs, 3))
    x /= np.linalg.norm(x, axis=-1, keepdims=True)
    y = rng.standard_normal((n_pairs, 3))
    y /= np.linalg.norm(y, axis=-1, keepdims=True)
    eye = np.eye(3)

    # columns R e_i of the rotation taking x to y
    rot = np.stack([_rodrigues_apply(x, y, np.broadcast_to(e, x.shape)) for e in eye], axis=-1)
    worst_rot = max(
        float(np.max(np.abs(rot.swapaxes(-1, -2) @ rot - eye))),
        float(np.max(np.abs(_rodrigues_apply(x, y, x) - y))),
    )
    c, e = _aligned_direction(x.T, y.T)
    e = e.T
    worst_align = max(
        float(np.max(np.abs(np.sum(e * e, axis=-1) - 1.0))),
        float(np.max(np.abs(np.sum(x * e, axis=-1)))),
        float(np.max(np.abs(c[:, None] * x + np.sqrt(1.0 - c * c)[:, None] * e - y))),
    )
    j, k = fixed_distance_columns(x, y)
    worst_resid = max(float(np.max(r)) for r in fixed_distance_residuals(x, y, j, k))
    worst_norm = float(np.max(np.linalg.norm(j, ord=2, axis=(-2, -1))))

    # the angle must make the distance drift -k rho / 2 for every feasible rate
    spaces = [ModelSpace(r, d) for r in (-1, 0, 1) for d in (2, 3, 5)]
    worst_alpha = 0.0
    for _ in range(n_alpha):
        space = spaces[rng.integers(len(spaces))]
        rho = rng.uniform(0.1, 3.0)
        rate = rng.uniform(*feasible_rate_interval(space, rho))
        alpha = RotationCoupling(space, k=rate)._alpha(np.array([rho]))
        target = -rate * rho / 2.0
        err = abs(float(distance_drift(space, alpha, rho)[0]) - target) / max(1.0, abs(target))
        worst_alpha = max(worst_alpha, err)
    lines = [
        _line("rodrigues orthogonality and mapping", worst_rot < 1e-12, f"max dev {worst_rot:.3e}"),
        _line("frame alignment identities", worst_align < 1e-12, f"max dev {worst_align:.3e}"),
        _line(
            "fixed-distance system residuals",
            worst_resid < 1e-10,
            f"max residual {worst_resid:.3e}",
        ),
        _line(
            "fixed-distance operator norm <= 1",
            worst_norm <= 1.0 + 1e-12,
            f"max |J|_op {worst_norm:.15f}",
        ),
        _line("angle solver residuals", worst_alpha < 1e-12, f"max rel residual {worst_alpha:.3e}"),
    ]
    return _suite("algebra", lines)


# -- 2: index forms --------------------------------------------------------------------


def index_form_suite(seed: int = 3002) -> dict:
    curvatures = np.repeat([-1, 0, 1], 13)
    rhos = np.tile(np.linspace(0.1, 2.5, 13), 3)
    q11, q22, _ = _half_field_index_forms(curvatures, rhos)
    worst_cmp = 0.0
    for r, rho, b11, b22 in zip(curvatures.tolist(), rhos, q11, q22):
        closed = index_form_closed(r, rho)
        for a, b in ((closed.i11, b11), (closed.i22, b22)):
            worst_cmp = max(worst_cmp, abs(a - b) / max(1.0, abs(a)))
    lemma = field_index_form_check(seed=seed)
    drift = drift_identity_check()
    lines = [
        _line(
            "closed vs quadrature index forms",
            worst_cmp < 1e-6,
            f"max rel err {worst_cmp:.3e}",
        ),
        _line(
            "index lemma: Jacobi field minimizes",
            lemma["pass"],
            f"worst margin {lemma['worst_margin']:.3e} over {lemma['n_cases']} cases",
        ),
        _line(
            "drift identity vs quadrature",
            drift["max_rel_err"] < 1e-6,
            f"max rel err {drift['max_rel_err']:.3e}",
        ),
        _line(
            "synchronous / flat-perverse closed drifts",
            drift["special_identity_err"] < 1e-9,
            f"max dev {drift['special_identity_err']:.3e}",
        ),
    ]
    return _suite("index-form", lines)


# -- 3: exact invariants -----------------------------------------------------------------


def exact_invariant_suite(n_steps: int = 1_000_000, seed: int = 3003) -> dict:
    """The translation and shared rotation-flow couplings hold the distance
    fixed to roundoff: one path each through ``run_paths``, every step
    recorded and checked."""
    h = 1e-6
    lines = []
    for strategy_id, space in (("translation", ModelSpace.euclidean(2)), ("so3-flow", ModelSpace.sphere(2))):
        strategy = make_strategy(strategy_id, space)
        x0, y0 = _start_pair(space)
        record = run_paths(strategy, x0, y0, h=h, t_final=n_steps * h, n_paths=1, seed=seed)
        worst = float(np.max(np.abs(record.rho - record.rho[0])))
        ok = len(record.times) == n_steps + 1 and worst < 1e-12
        lines.append(_line(f"{strategy_id} distance drift over {n_steps} steps", ok, f"max |drift| {worst:.3e}"))
    return _suite("exact-invariants", lines)


# -- 4: distance laws ----------------------------------------------------------------------


# (strategy, space, strategy params, law id, horizon) rows of the distance-law suite
_LAW_RUNS = (
    ("extrinsic-contract-s2", _S2, {}, "chordal-contract", 3.0),
    ("extrinsic-expand-s2", _S2, {}, "chordal-expand", 1.0),
    ("fixed-s2", _S2, {}, "fixed", 1.0),
    ("rotation", _S2, {"k": 0.0}, "fixed", 1.0),
    ("rotation", _S2, {"alpha_override": 0.0}, "sphere-synchronous", 3.0),
    ("rotation", ModelSpace.euclidean(2), {"alpha_override": np.pi}, "flat-perverse", 1.0),
    ("rotation", ModelSpace.hyperbolic(2), {"alpha_override": np.pi}, "hyperbolic-perverse", 1.0),
)


def distance_law_suite(n_paths: int = 200, seed: int = 3004) -> dict:
    """Each row's ensemble mean against its law, from rho0 = 1 over the step
    ladder ``H_LADDER``."""
    lines = []
    reports = []
    for strategy_id, space, params, law_id, horizon in _LAW_RUNS:
        strategy = make_strategy(strategy_id, space, **params)
        x0, y0 = _start_pair(space)
        law = build_law(law_id, space, x0, y0, params.get("k"))
        report = distance_law_check(strategy, x0, y0, law, t_final=horizon, n_paths=n_paths, seed=seed)
        reports.append(report)
        lines.append(
            _line(
                f"{strategy_id} vs {law.law_id}",
                report["pass"],
                f"mean-chain err {report['sup_err'][-1]:.4f} order {report['fitted_order']:.2f}; "
                f"per-path chain err {report['mae_sup'][-1]:.4f} "
                f"order {report['fitted_order_mae']:.2f} at h={H_LADDER[-1]:g}",
            )
        )
    out = _suite("distance-laws", lines)
    out["reports"] = reports
    return out


# -- 5: cross-construction consistency ---------------------------------------------------------


def consistency_suite(n_paths: int = 200, seed: int = 3005) -> dict:
    """The extrinsic contracting coupling and the synchronous rotation coupling
    follow the common law 2 arcsin(e^{-t/2} sin(rho0/2)) on the 2-sphere,
    from rho0 = 1."""
    x0, y0 = _start_pair(_S2)
    law = build_law("sphere-synchronous", _S2, x0, y0)
    lines = []
    for strategy_id, params in (
        ("extrinsic-contract-s2", {}),
        ("rotation", {"alpha_override": 0.0}),
    ):
        strategy = make_strategy(strategy_id, _S2, **params)
        report = distance_law_check(strategy, x0, y0, law, t_final=3.0, n_paths=n_paths, seed=seed)
        lines.append(
            _line(
                f"{strategy_id} matches {law.law_id}",
                report["pass"],
                f"sup err {report['sup_err'][-1]:.4f}, order {report['fitted_order']:.2f}",
            )
        )
    return _suite("consistency", lines)


# -- 6: marginals -----------------------------------------------------------------------------


# (strategy id, space, params, step size) rows of the marginal suite; the
# last, broken-marginal, is the negative control.  The mirror coupling runs at
# a finer step: its gluing carries a one-off O(sqrt(h)) weak error at the
# meeting step, so the linear-functional bias only drops below the Monte
# Carlo resolution for small h.
_MARGINAL_RUNS = (
    ("translation", ModelSpace.euclidean(2), {}, 2e-3),
    ("independent", _S2, {}, 2e-3),
    ("mirror-s2", _S2, {}, 1e-4),
    ("extrinsic-contract-s2", _S2, {}, 2e-3),
    ("extrinsic-expand-s2", _S2, {}, 2e-3),
    ("fixed-s2", _S2, {}, 2e-3),
    ("so3-flow", _S2, {}, 2e-3),
    ("rotation", _S2, {"k": 0.0}, 2e-3),
    ("rotation", ModelSpace.sphere(3), {"k": 2.0}, 2e-3),
    ("rotation", ModelSpace.hyperbolic(2), {"alpha_override": np.pi}, 2e-3),
    ("rotation", ModelSpace.euclidean(3), {"alpha_override": np.pi}, 2e-3),
    ("broken-marginal", _S2, {}, 2e-3),
)


def marginal_suite(seed: int = 3006) -> dict:
    """Both marginals of each row at t = 0.25, 0.5 and 1 over 10 000 paths
    from rho0 = 1, against the exact linear-functional decay."""
    n_paths, times = 10_000, (0.25, 0.5, 1.0)
    lines = []
    for strategy_id, space, params, h in _MARGINAL_RUNS:
        strategy = make_strategy(strategy_id, space, **params)
        x0, y0 = _start_pair(space)
        record = run_paths(
            strategy,
            x0,
            y0,
            h=h,
            t_final=max(times),
            n_paths=n_paths,
            seed=seed,
            record_stride=int(round(max(times) / h)),
            snapshot_times=times,
        )
        if strategy_id == "broken-marginal":
            # negative control: must fail loudly
            report = marginal_check(
                strategy, x0, y0, coordinate="Y", times=times, record=record
            )
            lines.append(
                _line(
                    "broken-marginal negative control fails",
                    report["max_abs_z"] > 5.0,
                    f"max |z| = {report['max_abs_z']:.1f} (> 5 required)",
                )
            )
            continue
        for coordinate in ("X", "Y"):
            report = marginal_check(
                strategy, x0, y0, coordinate=coordinate, times=times, record=record
            )
            label = f"{strategy_id}@{space.curvature:+d}d{space.dim} {coordinate}-marginal"
            lines.append(
                _line(label, report["pass"], f"max |z| = {report['max_abs_z']:.2f}")
            )
    return _suite("marginals", lines)


# -- 7: infeasibility ---------------------------------------------------------------------------


def infeasibility_suite() -> dict:
    """Which rates the rotation coupling accepts at rho0 = 1 on each space."""
    rho0 = 1.0
    lines = []

    def rejects(space, k) -> bool:
        try:
            strategy = RotationCoupling(space, k=k)
            strategy.initial_state(space.base_point(), space.point_at_distance(rho0), 1)
            return False
        except InfeasibleRateError:
            return True

    flat = ModelSpace.euclidean(3)
    flat_bad = all(rejects(flat, k) for k in (1e-6, 0.1, 1.0, 10.0))
    flat_good = not rejects(flat, 0.0) and not rejects(flat, -1.0)
    lines.append(
        _line(
            "flat space rejects every k > 0, accepts k <= 0",
            flat_bad and flat_good,
            "translation is the only non-expanding coupling",
        )
    )

    hyper = ModelSpace.hyperbolic(3)
    hyper_bad = all(rejects(hyper, k) for k in (0.0, 1e-6, 0.5, 2.0))
    kmin, kmax = feasible_rate_interval(hyper, rho0)
    hyper_good = not rejects(hyper, 0.5 * (kmin + kmax))
    lines.append(
        _line(
            "hyperbolic space rejects every k >= 0, accepts a negative window",
            hyper_bad and hyper_good,
            f"feasible window at rho0={rho0:g}: [{kmin:.3f}, {kmax:.3f}]",
        )
    )

    ok_sphere = True
    details = []
    for d in (2, 3, 5):
        sphere = ModelSpace.sphere(d)
        _, k_hi = feasible_rate_interval(sphere, rho0)
        accepted = [0.0, 0.5 * k_hi, float(d - 1), k_hi * (1.0 - 1e-9)]
        ok_sphere &= all(not rejects(sphere, k) for k in accepted)
        ok_sphere &= rejects(sphere, k_hi * 1.01)
        ok_sphere &= float(d - 1) <= k_hi
        details.append(f"d={d}: k in [0, {k_hi:.3f}] incl {d - 1}")
    lines.append(_line("sphere accepts k in [0, bound] incl k = d-1", ok_sphere, "; ".join(details)))
    return _suite("infeasibility", lines)


# -- 8: shyness / patching ------------------------------------------------------------------------


def shyness_suite(seed: int = 3008) -> dict:
    """The patched expanding coupling on the 2-sphere keeps 500 paths from
    rho0 = 0.5 apart up to T = 10 at h = 1e-3, with patch threshold 0.4."""
    rho0, eps, t_final, n_paths = 0.5, 0.4, 10.0, 500
    strategy = make_strategy("extrinsic-expand-s2", _S2, eps=eps)
    x0, y0 = _start_pair(_S2, rho0)
    record = run_paths(strategy, x0, y0, h=1e-3, t_final=t_final, n_paths=n_paths, seed=seed)
    floor = min(rho0, eps / 4.0)
    min_rho = float(np.min(record.rho))
    switches = int(np.sum(record.regime[1:] != record.regime[:-1]))
    visited_independent = bool(np.any(record.regime == INDEPENDENT))
    visited_coupled = bool(np.any(record.regime == COUPLED))
    lines = [
        _line(
            f"recorded rho >= min(rho0, eps/4) = {floor:g} on all paths",
            min_rho >= floor,
            f"min recorded rho {min_rho:.4f} over {n_paths} paths, T={t_final:g}",
        ),
        _line(
            "regime machine exercised both regimes",
            visited_independent and visited_coupled,
            f"{switches} regime switches recorded",
        ),
    ]
    return _suite("shyness", lines)


# -- 9: maximum principle --------------------------------------------------------------------------


def max_principle_suite(seed: int = 3009) -> dict:
    """The max-principle demo on the cap of angle 0.8 for the harmonics n = 1
    and 2."""
    lines = []
    for n in (1, 2):
        report = max_principle_demo(0.8, n, h=5e-4, n_paths=10_000, seed=seed + n)
        lines.append(
            _line(
                f"martingale identity (n={n})",
                abs(report["martingale_z"]) < 3.0,
                f"z = {report['martingale_z']:.2f}",
            )
        )
        detail = "; ".join(
            f"angle {row['polar_angle']:.2f}: est {row['estimate']:.4f} "
            f"(analytic {row['analytic']:.4f})"
            for row in report["gradient_rows"]
        )
        lines.append(
            _line(
                f"interior gradient <= boundary max (n={n})",
                all(row["within_bound"] for row in report["gradient_rows"]),
                f"boundary max {report['boundary_gradient_max']:.4f}; {detail}",
            )
        )
    return _suite("max-principle", lines)


SUITES = {
    "algebra": algebra_suite,
    "index-form": index_form_suite,
    "exact-invariants": exact_invariant_suite,
    "distance-laws": distance_law_suite,
    "consistency": consistency_suite,
    "marginals": marginal_suite,
    "infeasibility": infeasibility_suite,
    "shyness": shyness_suite,
    "max-principle": max_principle_suite,
}
