import numpy as np
import pytest

from bmcouple.drivers import (
    NoiseStream,
    geodesic_walk_step,
    kendall_compose,
    stroock_linear_factor,
    stroock_step,
    walk_linear_factor,
)
from bmcouple.errors import CouplingConstraintError, DomainError, StepTooLargeError
from bmcouple.spaces import ModelSpace
from bmcouple.verify import convergence_order_fit
from smallmat import fixed_distance_matrices, reorthonormalize_rotation, so3_exp, so3_flow_step, step_noise


class TestNoiseStream:
    def test_identical_keys_identical_output(self):
        a = NoiseStream(123, 7).standard_normal(100)
        b = NoiseStream(123, 7).standard_normal(100)
        assert np.array_equal(a, b)

    def test_different_streams_differ(self):
        a = NoiseStream(123, 7).standard_normal(100)
        b = NoiseStream(123, 8).standard_normal(100)
        assert not np.array_equal(a, b)

    def test_step_noise_shapes(self):
        noise = step_noise(NoiseStream(5), 3, 2, n=10)
        assert noise.primary.shape == (10, 3)
        assert noise.auxiliary.shape == (10, 2)
        noise = step_noise(NoiseStream(5), 4)
        assert noise.primary.shape == (4,)
        assert noise.auxiliary is None


class TestStroockStep:
    def test_zero_noise_is_fixed_point(self):
        x = np.array([0.0, 1.0, 0.0])
        assert np.allclose(stroock_step(x, np.zeros(3), 1e-3), x, atol=1e-15)

    def test_one_step_formula(self):
        h = 0.01
        x = np.array([1.0, 0.0, 0.0])
        out = stroock_step(x, np.array([0.0, 0.0, 1.0]), h)
        raw = x * (1 - h) + np.sqrt(h) * np.array([0.0, 0.0, 1.0])
        assert np.allclose(out, raw / np.linalg.norm(raw), atol=1e-15)

    def test_stays_on_sphere(self):
        rng = np.random.default_rng(1)
        x = np.array([1.0, 0.0, 0.0])
        for _ in range(500):
            x = stroock_step(x, rng.standard_normal(3), 1e-3)
            assert abs(np.dot(x, x) - 1.0) < 1e-12

    def test_mean_contraction_monte_carlo(self):
        # E[v . X_t] = e^{-t} (v . x0) within 3 standard errors
        h, t_final, n = 1e-3, 1.0, 10_000
        rng = np.random.default_rng(42)
        x = np.tile([1.0, 0.0, 0.0], (n, 1))
        for _ in range(int(t_final / h)):
            x = stroock_step(x, rng.standard_normal((n, 3)), h)
        est = np.mean(x[:, 0])
        se = np.std(x[:, 0], ddof=1) / np.sqrt(n)
        assert abs(est - np.exp(-1.0)) < 3 * se

    def test_bad_step_size(self):
        with pytest.raises(DomainError):
            stroock_step(np.array([1.0, 0, 0]), np.zeros(3), 0.0)


class TestGeodesicWalk:
    def test_zero_noise_fixed_point(self):
        s2 = ModelSpace.sphere(2)
        x = s2.point_at_distance(0.7)
        frame = s2.reference_frame(x)
        assert np.allclose(geodesic_walk_step(s2, x, np.zeros(2), 1e-3, frame), x)

    def test_euclidean_reduces_to_translation(self):
        f3 = ModelSpace.euclidean(3)
        x = np.array([1.0, -2.0, 0.5])
        g = np.array([0.3, 1.0, -0.7])
        frame = f3.reference_frame(x)
        out = geodesic_walk_step(f3, x, g, 0.04, frame)
        assert np.allclose(out, x + 0.2 * g, atol=1e-14)

    def test_step_too_large_rejected(self):
        s2 = ModelSpace.sphere(2)
        x = s2.base_point()
        frame = s2.reference_frame(x)
        with pytest.raises(StepTooLargeError):
            geodesic_walk_step(s2, x, np.array([100.0, 0.0]), 1.0, frame)

    def test_constraint_preserved_on_curved_spaces(self):
        rng = np.random.default_rng(7)
        for space in (ModelSpace.sphere(3), ModelSpace.hyperbolic(3)):
            x = np.stack([space.random_point(rng) for _ in range(16)])
            for _ in range(500):
                frame = space.reference_frame(x)
                x = geodesic_walk_step(space, x, rng.standard_normal((16, space.dim)), 1e-3, frame)
            assert np.max(space.constraint_residual(x)) < 1e-12

    def test_sphere_mean_contraction(self):
        s2 = ModelSpace.sphere(2)
        h, t_final, n = 2e-3, 0.5, 8000
        rng = np.random.default_rng(3)
        x = np.tile(s2.base_point(), (n, 1))
        for _ in range(int(t_final / h)):
            frame = s2.reference_frame(x)
            x = geodesic_walk_step(s2, x, rng.standard_normal((n, 2)), h, frame)
        est = np.mean(x[:, 0])
        se = np.std(x[:, 0], ddof=1) / np.sqrt(n)
        assert abs(est - np.exp(-t_final)) < 3 * se


class TestKendallCompose:
    def test_pure_primary(self):
        db, dc = np.array([1.0, 2.0, 3.0]), np.array([-1.0, 0.0, 1.0])
        assert np.array_equal(kendall_compose(np.eye(3), np.zeros((3, 3)), db, dc), db)

    def test_pure_auxiliary(self):
        db, dc = np.array([1.0, 2.0, 3.0]), np.array([-1.0, 0.0, 1.0])
        assert np.array_equal(kendall_compose(np.zeros((3, 3)), np.eye(3), db, dc), dc)

    def test_constraint_violation_rejected(self):
        with pytest.raises(CouplingConstraintError):
            kendall_compose(np.eye(3), np.eye(3), np.zeros(3), np.zeros(3))

    def test_scalar_weights_are_multiples_of_identity(self):
        rng = np.random.default_rng(9)
        c = np.cos(rng.uniform(0.0, np.pi, 5))
        s = np.sqrt(1.0 - c * c)
        db, dc = rng.standard_normal((2, 5, 3))
        as_matrices = kendall_compose(c[:, None, None] * np.eye(3), s[:, None, None] * np.eye(3), db, dc)
        assert np.max(np.abs(kendall_compose(c, s, db, dc) - as_matrices)) < 1e-15
        with pytest.raises(CouplingConstraintError):
            kendall_compose(c, s + 1e-6, db, dc)

    def test_output_covariance_is_identity(self):
        rng = np.random.default_rng(8)
        x = np.array([1.0, 0.0, 0.0])
        y = np.array([np.cos(1.0), np.sin(1.0), 0.0])
        j, k = fixed_distance_matrices(x, y)
        n = 100_000
        out = kendall_compose(j, k, rng.standard_normal((n, 3)), rng.standard_normal((n, 3)))
        cov = out.T @ out / n
        # covariance entries have standard error about sqrt(2/n)
        assert np.max(np.abs(cov - np.eye(3))) < 3 * np.sqrt(2.0 / n)


class TestSo3:
    def test_zero_noise_fixed_point(self):
        z = so3_exp(np.array([0.3, -0.1, 0.2]))
        assert np.allclose(so3_flow_step(z, np.zeros(3), 1e-3), z, atol=1e-15)

    def test_exp_is_rotation(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            rot = so3_exp(rng.standard_normal(3))
            assert np.max(np.abs(rot.T @ rot - np.eye(3))) < 1e-14
            assert np.linalg.det(rot) == pytest.approx(1.0, abs=1e-12)

    def test_distance_preserved_many_steps(self):
        s2 = ModelSpace.sphere(2)
        x0, y0 = s2.base_point(), s2.point_at_distance(1.0)
        d0 = s2.distance(x0, y0)
        z = np.eye(3)
        stream = NoiseStream(77)
        worst = 0.0
        for g in stream.standard_normal((10_000, 3)):
            z = so3_flow_step(z, g, 1e-4)
            worst = max(worst, abs(float(s2.distance(z @ x0, z @ y0)) - d0))
        assert worst < 1e-12

    def test_reorthonormalize(self):
        z = so3_exp(np.array([0.2, 0.4, -0.3])) + 1e-8
        fixed = reorthonormalize_rotation(z)
        assert np.max(np.abs(fixed @ fixed.T - np.eye(3))) < 1e-14


class TestWeakOrder:
    """Order of the weak error in E[v . X_T], computed without Monte Carlo via
    the exact one-step linear-functional multipliers."""

    def test_stroock_order_at_least_one(self):
        t_final = 1.0
        ladder = [4e-3, 2e-3, 1e-3]
        errs = [abs(stroock_linear_factor(h) ** int(t_final / h) - np.exp(-1.0)) for h in ladder]
        # the h^2 correction pulls the finite-ladder fit slightly under 1
        assert convergence_order_fit(list(zip(ladder, errs))) >= 0.95
        pairwise = [np.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]
        assert pairwise[-1] >= 0.98 and pairwise == sorted(pairwise)

    def test_walk_order_at_least_one(self):
        t_final = 1.0
        ladder = [4e-3, 2e-3, 1e-3]
        errs = [abs(walk_linear_factor(h, 2) ** int(t_final / h) - np.exp(-1.0)) for h in ladder]
        assert convergence_order_fit(list(zip(ladder, errs))) >= 1.0

    def test_factors_match_monte_carlo(self):
        h, n = 4e-3, 200_000
        rng = np.random.default_rng(10)
        x = np.tile([1.0, 0.0, 0.0], (n, 1))
        x = stroock_step(x, rng.standard_normal((n, 3)), h)
        est = np.mean(x[:, 0])
        se = np.std(x[:, 0], ddof=1) / np.sqrt(n)
        assert abs(est - stroock_linear_factor(h)) < 3 * se
