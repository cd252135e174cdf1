import json
import re

import numpy as np
import pytest

from bmcouple.couplings import distance_drift, make_strategy
from bmcouple.errors import DomainError
from bmcouple.simulate import run_paths
from bmcouple.spaces import ModelSpace
from bmcouple.verify import (
    cap_gradient_norm,
    cap_harmonic,
    convergence_order_fit,
    distance_law_check,
    drift_identity_check,
    field_index_form_check,
    law_chordal_contract,
    law_chordal_expand,
    law_exponential_rate,
    law_fixed,
    law_perverse,
    law_synchronous,
    marginal_check,
    max_principle_demo,
    report_json,
    LAWS,
    build_law,
    validate_law,
)

S2 = ModelSpace.sphere(2)


class TestLaws:
    def test_all_laws_pass_ode_oracle(self):
        laws = [
            (law_fixed(1.0), 1.0),
            (law_exponential_rate(1.0, 1.0), 3.0),
            (law_synchronous(S2, 1.0), 3.0),
            (law_synchronous(ModelSpace.hyperbolic(3), 1.0), 1.0),
            (law_synchronous(ModelSpace.euclidean(2), 1.0), 1.0),
            (law_perverse(S2, 1.0), 1.0),
            (law_perverse(ModelSpace.euclidean(2), 1.0), 1.0),
            (law_perverse(ModelSpace.hyperbolic(2), 1.0), 1.0),
            (law_chordal_contract(0.9), 3.0),
            (law_chordal_expand(1.7), 1.0),
        ]
        for law, t_final in laws:
            assert validate_law(law, t_final) < 1e-8, law.law_id

    @pytest.mark.parametrize("name", sorted(LAWS))
    def test_grid_evaluation_matches_pointwise_loop(self, name):
        # the closed form evaluated once on the grid gives the same error,
        # to the bit, as evaluating it at each RK4 step
        kind = name.split("-")[0]
        space = {"hyperbolic": ModelSpace.hyperbolic(3), "flat": ModelSpace.euclidean(2)}.get(kind, S2)
        law = build_law(name, space, space.base_point(), space.point_at_distance(1.0), k=0.8)
        t_final, n_steps = 2.0, 20000
        h = t_final / n_steps
        value, worst = law.initial, 0.0
        for i in range(n_steps + 1):
            ref = float(law.evaluate(i * h))
            worst = max(worst, abs(value - ref) / max(abs(ref), 1e-12))
            if i == n_steps:
                break
            k1 = law.rhs(value)
            k2 = law.rhs(value + 0.5 * h * k1)
            k3 = law.rhs(value + 0.5 * h * k2)
            k4 = law.rhs(value + h * k3)
            value += (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        assert validate_law(law, t_final) == worst

    @pytest.mark.parametrize("space", [S2, ModelSpace.euclidean(2), ModelSpace.hyperbolic(2)], ids=["S2", "flat2", "H2"])
    def test_every_law_a_mismatch_names_is_registered(self, space):
        # "this space has 'X'" must point at a law id --law accepts on that space
        x0, y0 = space.base_point(), space.point_at_distance(1.0)
        named = set()
        for name in LAWS:
            try:
                build_law(name, space, x0, y0, k=0.5)
            except DomainError as exc:
                named.update(re.findall(r"this space has '([^']+)'", str(exc)))
        assert named
        for name in named:
            assert name in LAWS
            assert build_law(name, space, x0, y0, k=0.5).law_id == name

    @pytest.mark.parametrize("space", [S2, ModelSpace.euclidean(2), ModelSpace.hyperbolic(2)], ids=["S2", "flat2", "H2"])
    @pytest.mark.parametrize("build, alpha", [(law_synchronous, 0.0), (law_perverse, np.pi)], ids=["sync", "perverse"])
    def test_law_rhs_is_the_distance_drift(self, space, build, alpha):
        # the oracle steps floats, and must give the drift's own values
        rhs = build(space, 1.0).rhs
        for r in np.linspace(0.05, 3.0, 60).tolist():
            assert rhs(r) == float(distance_drift(space, alpha, r)), r

    def test_initial_values(self):
        for law in (
            law_fixed(0.7),
            law_synchronous(S2, 0.7),
            law_perverse(ModelSpace.hyperbolic(2), 0.7),
        ):
            assert law.evaluate(0.0) == pytest.approx(0.7, abs=1e-14)

    def test_sphere_synchronous_value(self):
        # d=2, rho0=pi/2 at t = 2 ln 2: the decay factor is exactly 1/2
        law = law_synchronous(S2, np.pi / 2)
        expected = 2.0 * np.arcsin(np.sqrt(2.0) / 4.0)
        assert law.evaluate(2.0 * np.log(2.0)) == pytest.approx(expected, abs=1e-14)
        assert expected == pytest.approx(0.72273, abs=5e-6)

    def test_flat_perverse_value(self):
        law = law_perverse(ModelSpace.euclidean(2), 1.0)
        assert law.evaluate(1.0) == pytest.approx(np.sqrt(5.0), abs=1e-14)

    def test_perverse_monotone_increasing(self):
        for space in (S2, ModelSpace.euclidean(2), ModelSpace.hyperbolic(2)):
            law = law_perverse(space, 0.5)
            values = law.evaluate(np.linspace(0, 1, 50))
            assert np.all(np.diff(values) > 0)


class TestOrderFit:
    def test_exact_linear(self):
        pairs = [(h, h) for h in (4e-3, 2e-3, 1e-3)]
        assert convergence_order_fit(pairs) == pytest.approx(1.0, abs=1e-12)

    def test_exact_sqrt(self):
        pairs = [(h, np.sqrt(h)) for h in (4e-3, 2e-3, 1e-3)]
        assert convergence_order_fit(pairs) == pytest.approx(0.5, abs=1e-12)

    def test_noisy_recovery(self):
        rng = np.random.default_rng(0)
        hs = np.logspace(-3.5, -2, 8)
        errs = 3.0 * hs**0.8 * np.exp(rng.normal(0.0, 0.02, hs.size))
        assert convergence_order_fit(list(zip(hs, errs))) == pytest.approx(0.8, abs=0.1)

    def test_needs_three_points(self):
        with pytest.raises(DomainError):
            convergence_order_fit([(1e-3, 1e-3), (2e-3, 2e-3)])


class TestDistanceLawCheck:
    def test_translation_is_exact(self):
        flat = ModelSpace.euclidean(2)
        strategy = make_strategy("translation", flat)
        report = distance_law_check(
            strategy, flat.base_point(), flat.point_at_distance(1.0), law_fixed(1.0), t_final=0.5, n_paths=20, seed=3
        )
        assert max(report["sup_err"]) < 1e-12
        assert report["pass"] is True

    def test_report_schema_and_determinism(self):
        strategy = make_strategy("fixed-s2", S2)
        run = dict(t_final=0.25, n_paths=40, seed=9)
        a = distance_law_check(strategy, S2.base_point(), S2.point_at_distance(1.0), law_fixed(1.0), **run)
        b = distance_law_check(strategy, S2.base_point(), S2.point_at_distance(1.0), law_fixed(1.0), **run)
        assert report_json(a) == report_json(b)
        parsed = json.loads(report_json(a))
        assert set(parsed) == {
            "strategy", "law", "n_paths", "h_ladder", "sup_err", "fitted_order", "z_scores", "pass",
        }


class TestDriftIdentity:
    def test_small_grid(self):
        # the check's whole grid, 585 cases, takes under a tenth of a second
        report = drift_identity_check()
        assert report["max_rel_err"] < 1e-6
        assert report["special_identity_err"] < 1e-9
        assert report["pass"]


class TestIndexLemmaCheck:
    def test_jacobi_always_below_competitors(self):
        report = field_index_form_check(seed=1)
        assert report["pass"]
        assert report["worst_margin"] > -1e-9


class TestMarginalCheck:
    @staticmethod
    def _check(strategy_id, coordinate, times, n_paths):
        strategy = make_strategy(strategy_id, S2)
        x0, y0 = S2.base_point(), S2.point_at_distance(1.0)
        record = run_paths(
            strategy, x0, y0, h=2e-3, t_final=max(times), n_paths=n_paths, seed=4,
            record_stride=round(max(times) / 2e-3), snapshot_times=times,
        )
        return marginal_check(strategy, x0, y0, record=record, coordinate=coordinate, times=times)

    def test_independent_passes(self):
        report = self._check("independent", "X", (0.25, 0.5), 2000)
        assert report["max_abs_z"] < 4.0
        assert {"t", "direction", "z"} <= set(report["rows"][0])

    def test_negative_control_fails(self):
        report = self._check("broken-marginal", "Y", (0.5, 1.0), 4000)
        assert report["max_abs_z"] > 5.0
        assert not report["pass"]

    def test_bad_coordinate_rejected(self):
        with pytest.raises(DomainError):
            self._check("independent", "Z", (0.25,), 2)

    def test_one_path_rejected(self):
        # one path has no standard error: no z-score is reported for it
        strategy = make_strategy("independent", S2)
        x0, y0 = S2.base_point(), S2.point_at_distance(1.0)
        record = run_paths(strategy, x0, y0, h=0.05, t_final=0.5, n_paths=1, seed=4, snapshot_times=(0.5,))
        with pytest.raises(DomainError, match="at least 2 paths"):
            marginal_check(strategy, x0, y0, record=record, coordinate="X", times=(0.5,))

    def test_time_without_a_snapshot_rejected(self):
        # a record snapshotted at t = 1 alone has no ensemble at 0.25 or 0.5
        strategy = make_strategy("independent", S2)
        x0, y0 = S2.base_point(), S2.point_at_distance(1.0)
        record = run_paths(strategy, x0, y0, h=0.05, t_final=1.0, n_paths=20, seed=4, snapshot_times=(1.0,))
        assert marginal_check(strategy, x0, y0, record=record, coordinate="X", times=(1.0,))["rows"]
        for times in ((0.25, 0.5, 1.0), (0.5,), (1.1,)):
            with pytest.raises(DomainError, match="no snapshot"):
                marginal_check(strategy, x0, y0, record=record, coordinate="X", times=times)


class TestCapHarmonic:
    def test_constant_harmonic_trivial(self):
        u, grad = cap_harmonic(0)
        x = np.array([0.1, 0.2, np.sqrt(1 - 0.05)])
        assert u(x) == pytest.approx(1.0)
        assert np.allclose(grad(x), 0.0)

    def test_gradient_matches_norm_formula(self):
        for n in (1, 2, 3):
            u, grad = cap_harmonic(n)
            for polar in (0.2, 0.5, 0.9):
                x = np.array([np.sin(polar), 0.0, np.cos(polar)])
                assert np.linalg.norm(grad(x)) == pytest.approx(
                    float(cap_gradient_norm(n, polar)), rel=1e-12
                )

    def test_gradient_matches_finite_differences(self):
        u, grad = cap_harmonic(2)
        rng = np.random.default_rng(2)
        for _ in range(20):
            polar, azimuth = rng.uniform(0.1, 1.2), rng.uniform(0, 2 * np.pi)
            x = np.array(
                [np.sin(polar) * np.cos(azimuth), np.sin(polar) * np.sin(azimuth), np.cos(polar)]
            )
            frame = S2.reference_frame(x)
            eps = 1e-6
            for direction in frame:
                fd = (u(S2.exp_map(x, direction, eps)) - u(S2.exp_map(x, direction, -eps))) / (
                    2 * eps
                )
                assert fd == pytest.approx(float(grad(x) @ direction), abs=1e-6)

    def test_harmonicity_by_discrete_laplacian(self):
        u, _ = cap_harmonic(2)
        eps = 1e-4
        for polar in (0.3, 0.7, 1.1):
            x = np.array([np.sin(polar), 0.0, np.cos(polar)])
            frame = S2.reference_frame(x)
            lap = sum(
                (u(S2.exp_map(x, d, eps)) + u(S2.exp_map(x, d, -eps)) - 2 * u(x)) / eps**2
                for d in frame
            )
            assert abs(lap) < 1e-4

    def test_gradient_monotone_to_boundary(self):
        # |grad u| grows with the polar angle, so the max sits on the cap rim
        for n in (1, 2):
            angles = np.linspace(0.0, 1.2, 25)
            values = cap_gradient_norm(n, angles)
            assert np.all(np.diff(values) >= 0.0)

    def test_demo_rejects_bad_inputs(self):
        with pytest.raises(DomainError):
            max_principle_demo(2.0, 1, n_paths=10)
        with pytest.raises(DomainError):
            max_principle_demo(0.8, 0, n_paths=10)
        # Re(w^1.5) has a kink along the branch cut x < 0, y = 0, which
        # crosses the cap: it is not harmonic there
        for n in (1.5, 2.0):
            with pytest.raises(DomainError, match="integer"):
                max_principle_demo(0.8, n, n_paths=10)
            with pytest.raises(DomainError, match="integer"):
                cap_harmonic(n)
        # one path has no standard error: no z-score is reported for it
        with pytest.raises(DomainError, match="at least 2 paths"):
            max_principle_demo(0.8, 1, n_paths=1)

    def test_demo_report_is_pinned(self):
        # float.hex of the report the demo gave with its former stand-alone
        # stopping loop; stepping through run_paths must not change a bit
        report = max_principle_demo(0.8, 1, h=2e-3, n_paths=400, seed=6, t_max=6.0)
        assert report["martingale_z"].hex() == "0x1.db40a077c00e6p-3"
        rows = [(row["estimate"].hex(), row["se"].hex()) for row in report["gradient_rows"]]
        assert rows == [
            ("0x1.fabe3a00e3b1ep-2", "0x1.ef1509f622c44p-8"),
            ("0x1.0aca42674e0d6p-1", "0x1.57e44a65d4d6ap-8"),
        ]

    def test_demo_smoke(self):
        report = max_principle_demo(0.8, 1, h=2e-3, n_paths=400, seed=6, t_max=6.0)
        assert set(report) >= {"martingale_z", "boundary_gradient_max", "gradient_rows", "pass"}
        assert abs(report["martingale_z"]) < 6.0
        assert report["gradient_rows"][0]["estimate"] == pytest.approx(0.5, abs=0.1)
