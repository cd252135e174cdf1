import numpy as np
import pytest

from bmcouple.couplings import _fixed_distance_noise
from bmcouple.drivers import (
    NoiseStream,
    geodesic_walk_step,
    kendall_compose,
    stream_keys,
    stroock_step,
)
from bmcouple.errors import CouplingConstraintError, DomainError, StepTooLargeError
from bmcouple.spaces import ModelSpace
from bmcouple.verify import convergence_order_fit
from smallmat import (
    random_point,
    reorthonormalize_rotation,
    so3_exp,
    so3_flow_step,
    step_noise,
    stroock_linear_factor,
    walk_linear_factor,
)


class TestNoiseStream:
    def test_identical_keys_identical_output(self):
        a = NoiseStream(123, 7).standard_normal(100)
        b = NoiseStream(123, 7).standard_normal(100)
        assert np.array_equal(a, b)

    def test_different_streams_differ(self):
        a = NoiseStream(123, 7).standard_normal(100)
        b = NoiseStream(123, 8).standard_normal(100)
        assert not np.array_equal(a, b)

    def test_filling_in_place_draws_the_same_values(self):
        fresh = NoiseStream(123, 7)
        want = [fresh.standard_normal((7, 6)), fresh.standard_normal((3, 6))]
        stream, buffer = NoiseStream(123, 7), np.full((2, 7, 6), np.nan)
        first = buffer[1, :7]
        assert stream.standard_normal(out=first) is first
        stream.standard_normal(out=buffer[0, :3])
        assert np.array_equal(buffer[1], want[0]) and np.array_equal(buffer[0, :3], want[1])
        assert np.isnan(buffer[0, 3:]).all()

    @pytest.mark.parametrize("seed, stream_id", [(-5, 3), (123, 0), (9, 2**63 + 5), (2**64 + 7, 2**64 - 1)])
    def test_rekeyed_and_restored_streams_draw_the_fresh_stream(self, seed, stream_id):
        """A stream moved to (seed, id), drawn in windows with another stream
        between them, draws what a generator built on that key draws."""
        key = np.array([seed % 2**64, stream_id % 2**64], dtype=np.uint64)
        want = np.random.Generator(np.random.Philox(key=key)).standard_normal(7 + 9 + 4)
        assert np.array_equal(NoiseStream(seed, stream_id).standard_normal(20), want)
        assert np.array_equal(stream_keys(seed, [stream_id])[0], key)
        stream = NoiseStream(1, 1)
        stream.standard_normal(5)
        stream.rekey(key)
        got = [stream.standard_normal(7)]
        saved = np.empty(NoiseStream.POSITION_WORDS, dtype=np.uint64)
        stream.tell(saved)
        # the window ends inside a Philox block of four words
        assert 0 < saved[8] < 4
        stream.rekey(stream_keys(seed, [stream_id + 1])[0])
        other = stream.standard_normal(3)
        stream.seek(key, saved)
        got.append(stream.standard_normal(9))
        got.append(stream.standard_normal(out=np.empty(4)))
        assert np.array_equal(np.concatenate(got), want)
        assert not np.array_equal(other, want[:3])

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

    @pytest.mark.parametrize("h", [1e-3, np.linspace(1e-4, 1e-2, 50)[:, None]], ids=["float-h", "h-column"])
    def test_leaves_its_inputs_alone(self, h):
        # rows stepped in lockstep share views of one draw: two calls on one
        # noise view step as calls on copies of it, and neither writes to it
        rng = np.random.default_rng(43)
        gather = rng.standard_normal((50, 6))
        noise = gather[:, 3:]
        x = rng.standard_normal((2, 50, 3))
        x /= np.linalg.norm(x, axis=-1, keepdims=True)
        given = gather.copy(), x.copy()
        out = [stroock_step(p, noise, h) for p in (x[0], x[1], x[0].T.copy().T)]
        assert np.array_equal(gather, given[0]) and np.array_equal(x, given[1])
        expected = [stroock_step(p.copy(), noise.copy(), h) for p in (x[0], x[1], x[0])]
        assert [a.tobytes() for a in out] == [a.tobytes() for a in expected]

    def test_bad_step_size(self):
        with pytest.raises(DomainError):
            stroock_step(np.array([1.0, 0, 0]), np.zeros(3), 0.0)


@pytest.mark.parametrize("h", [0.0, -1e-3, np.array([[1e-3], [0.0]]), np.array([[-1e-3], [1e-3]])])
def test_non_positive_step_rejected_as_float_or_column(h):
    s2 = ModelSpace.sphere(2)
    x = np.stack([s2.base_point(), s2.point_at_distance(0.5)])
    with pytest.raises(DomainError, match="step size must be positive"):
        stroock_step(x, np.zeros((2, 3)), h)
    with pytest.raises(DomainError, match="step size must be positive"):
        geodesic_walk_step(s2, x, np.zeros((2, 2)), h)


class TestGeodesicWalk:
    def test_zero_noise_fixed_point(self):
        s2 = ModelSpace.sphere(2)
        x = s2.point_at_distance(0.7)
        assert np.allclose(geodesic_walk_step(s2, x, np.zeros(2), 1e-3), x)

    def test_euclidean_reduces_to_translation(self):
        f3 = ModelSpace.euclidean(3)
        x = np.array([1.0, -2.0, 0.5])
        g = np.array([0.3, 1.0, -0.7])
        out = geodesic_walk_step(f3, x, g, 0.04)
        assert np.allclose(out, x + 0.2 * g, atol=1e-14)

    def test_step_too_large_rejected(self):
        s2 = ModelSpace.sphere(2)
        x = s2.base_point()
        with pytest.raises(StepTooLargeError):
            geodesic_walk_step(s2, x, np.array([100.0, 0.0]), 1.0)

    def test_constraint_preserved_on_curved_spaces(self):
        rng = np.random.default_rng(7)
        for space in (ModelSpace.sphere(3), ModelSpace.hyperbolic(3)):
            x = np.stack([random_point(space, rng) for _ in range(16)])
            for _ in range(500):
                x = geodesic_walk_step(space, x, rng.standard_normal((16, space.dim)), 1e-3)
            assert np.max(space.constraint_residual(x)) < 1e-12

    def test_sphere_mean_contraction(self):
        s2 = ModelSpace.sphere(2)
        h, t_final, n = 2e-3, 0.5, 8000
        rng = np.random.default_rng(3)
        x = np.tile(s2.base_point(), (n, 1))
        for _ in range(int(t_final / h)):
            x = geodesic_walk_step(s2, x, rng.standard_normal((n, 2)), h)
        est = np.mean(x[:, 0])
        se = np.std(x[:, 0], ddof=1) / np.sqrt(n)
        assert abs(est - np.exp(-t_final)) < 3 * se


class TestKendallCompose:
    DB = np.array([[1.0, 2.0, 3.0], [4.0, -5.0, 6.0]])
    DC = np.array([[-1.0, 0.0, 1.0], [0.5, 0.25, -2.0]])

    def test_pure_primary(self):
        assert np.array_equal(kendall_compose(np.ones(2), np.zeros(2), self.DB, self.DC), self.DB)

    def test_pure_auxiliary(self):
        assert np.array_equal(kendall_compose(np.zeros(2), np.ones(2), self.DB, self.DC), self.DC)

    def test_constraint_violation_rejected(self):
        rng = np.random.default_rng(9)
        c = np.cos(rng.uniform(0.0, np.pi, 5))
        s = np.sqrt(1.0 - c * c)
        db, dc = rng.standard_normal((2, 5, 3))
        kendall_compose(c, s, db, dc)
        with pytest.raises(CouplingConstraintError):
            kendall_compose(c, s + 1e-6, db, dc)
        with pytest.raises(CouplingConstraintError):
            kendall_compose(np.ones(2), np.ones(2), self.DB, self.DC)

    def test_output_covariance_is_identity(self):
        # the production fixed-distance map on one batch of a fixed pair
        rng = np.random.default_rng(8)
        n = 100_000
        x = np.tile([1.0, 0.0, 0.0], (n, 1))
        y = np.tile([np.cos(1.0), np.sin(1.0), 0.0], (n, 1))
        gp, ga = rng.standard_normal((2, n, 3))
        out = _fixed_distance_noise(x.T, y.T, gp.T, ga.T).T
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

    @pytest.mark.parametrize("h", [1e-3, 1e-2, 0.1])
    def test_walk_factor_matches_closed_forms_at_odd_dimension(self, h):
        # E cos(sqrt(h) |G|) for G standard normal in R^3 and R^5
        assert abs(walk_linear_factor(h, 3) - (1.0 - h) * np.exp(-h / 2.0)) < 1e-12
        quintic = (1.0 - 2.0 * h + h * h / 3.0) * np.exp(-h / 2.0)
        assert abs(walk_linear_factor(h, 5) - quintic) < 1e-12

    def test_walk_factor_keeps_its_even_dimension_values(self):
        # Gauss-Laguerre at even d: the values the d = 2 order test reads
        got = [walk_linear_factor(h, 2).hex() for h in (1e-3, 1e-2, 0.1)]
        assert got == ["0x1.ff7cf8c0259d8p-1", "0x1.fae5a3ed63453p-1", "0x1.ce79178c9c395p-1"]

    def test_factors_match_monte_carlo(self):
        h, n = 4e-3, 200_000
        rng = np.random.default_rng(10)
        x = np.tile([1.0, 0.0, 0.0], (n, 1))
        x = stroock_step(x, rng.standard_normal((n, 3)), h)
        est = np.mean(x[:, 0])
        se = np.std(x[:, 0], ddof=1) / np.sqrt(n)
        assert abs(est - stroock_linear_factor(h)) < 3 * se
