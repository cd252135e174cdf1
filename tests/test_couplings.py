import numpy as np
import pytest
import smallmat as sm

from bmcouple.couplings import (
    COUPLED,
    INDEPENDENT,
    STRATEGIES,
    PatchedCoupling,
    RotationCoupling,
    _cross,
    distance_drift,
    feasible_rate_interval,
    make_strategy,
    rotation_angle_cos,
)
from bmcouple.drivers import NoiseStream, StepNoise
from bmcouple.errors import (
    CouplingConstraintError,
    CutLocusError,
    DegenerateInputError,
    DomainError,
    InfeasibleRateError,
    StepTooLargeError,
)
from bmcouple.simulate import run_paths
from bmcouple.spaces import ModelSpace, gen_cos, gen_sin

S2 = ModelSpace.sphere(2)
FLAT2 = ModelSpace.euclidean(2)


def _random_pairs(rng, n):
    x = rng.standard_normal((n, 3))
    x /= np.linalg.norm(x, axis=-1, keepdims=True)
    y = rng.standard_normal((n, 3))
    y /= np.linalg.norm(y, axis=-1, keepdims=True)
    return x, y


def step_many(strategy, x0, y0, n_paths, h, n_steps, seed=0):
    state = strategy.initial_state(x0, y0, n_paths)
    stream = NoiseStream(seed)
    for _ in range(n_steps):
        noise = sm.step_noise(stream, strategy.primary_dim, strategy.aux_dim, n=n_paths)
        state = strategy.step(state, noise, h)
    return state


@pytest.mark.parametrize("strategy_id", [*STRATEGIES, "patched"])
def test_cache_values_carry_a_leading_path_axis(strategy_id):
    # the stepping loop gathers and scatters the running paths' cache rows
    space = FLAT2 if strategy_id == "translation" else S2
    if strategy_id == "patched":
        strategy = make_strategy("rotation", S2, k=-1.0, eps=0.2)
    else:
        strategy = make_strategy(strategy_id, space, **({"k": 0.0} if strategy_id == "rotation" else {}))
    state = strategy.initial_state(space.base_point(), space.point_at_distance(1.0), 5)
    for value in state.cache.values():
        assert isinstance(value, np.ndarray) and value.shape[0] == 5


class TestTranslation:
    def test_distance_exact_over_many_steps(self):
        strategy = make_strategy("translation", FLAT2)
        x0, y0 = np.array([0.2, -1.0]), np.array([1.0, 0.5])
        d0 = float(np.linalg.norm(x0 - y0))
        state = strategy.initial_state(x0, y0, 4)
        stream = NoiseStream(3)
        for _ in range(1000):
            noise = sm.step_noise(stream, 2, n=4)
            state = strategy.step(state, noise, 1e-3)
            # the carried offset is bitwise constant; reconstructing the
            # difference from the moved points costs at most a few ulp
            assert np.array_equal(state.x - state.cache["offset"], state.y)
            dist = np.linalg.norm(state.x - state.y, axis=-1)
            assert np.max(np.abs(dist - d0)) < 1e-13

    def test_zero_noise_keeps_state(self):
        strategy = make_strategy("translation", FLAT2)
        state = strategy.initial_state(np.zeros(2), np.array([1.0, 0.0]), 1)
        out = strategy.step(state, StepNoise(primary=np.zeros((1, 2))), 1e-3)
        assert np.array_equal(out.x, state.x)
        assert np.array_equal(out.y, state.y)

    def test_requires_flat_space(self):
        with pytest.raises(DomainError):
            make_strategy("translation", S2)


class TestMirror:
    def test_meeting_within_horizon(self):
        strategy = make_strategy("mirror-s2", S2)
        record = run_paths(
            strategy,
            S2.base_point(),
            S2.point_at_distance(1.0),
            h=2e-3,
            t_final=20.0,
            n_paths=1000,
            seed=5,
            record_stride=10_000,
        )
        assert np.all(record.rho[-1] == 0.0)

    def test_glued_paths_stay_glued(self):
        strategy = make_strategy("mirror-s2", S2)
        state = step_many(strategy, S2.base_point(), S2.point_at_distance(0.3), 64, 2e-3, 800)
        glued = state.cache["glued"]
        assert np.any(glued)
        assert np.array_equal(state.x[glued], state.y[glued])

    def test_reflection_preserves_distance_before_meeting(self):
        # x and its mirror image stay mirror images: distance follows the plane
        strategy = make_strategy("mirror-s2", S2)
        state = strategy.initial_state(S2.base_point(), S2.point_at_distance(2.0), 1)
        stream = NoiseStream(11)
        normal0 = (state.x - state.y)[0]
        normal0 /= np.linalg.norm(normal0)
        for _ in range(200):
            state = strategy.step(state, sm.step_noise(stream, 3, n=1), 1e-4)
            if state.cache["glued"][0]:
                break
            normal = (state.x - state.y)[0]
            assert np.linalg.norm(np.cross(normal / np.linalg.norm(normal), normal0)) < 1e-10


class TestExtrinsicPair:
    def test_contract_keeps_equal_points_equal(self):
        strategy = make_strategy("extrinsic-contract-s2", S2)
        x0 = S2.base_point()
        state = step_many(strategy, x0, x0, 8, 1e-3, 200)
        assert np.max(np.abs(state.x - state.y)) < 1e-12

    def test_contract_chordal_law(self):
        strategy = make_strategy("extrinsic-contract-s2", S2)
        record = run_paths(
            strategy, S2.base_point(), S2.point_at_distance(1.0),
            h=1e-3, t_final=1.0, n_paths=100, seed=2,
        )
        chord0 = float(np.linalg.norm(S2.point_at_distance(1.0) - S2.base_point()))
        law = chord0 * np.exp(-record.times / 2.0)
        assert np.max(np.abs(np.mean(record.chord, axis=1) - law)) < 5e-3

    def test_expand_from_antipodal_tracks_reflection(self):
        strategy = make_strategy("extrinsic-expand-s2", S2)
        x0 = S2.base_point()
        state = strategy.initial_state(x0, -x0, 4)
        stream = NoiseStream(9)
        for _ in range(200):
            state = strategy.step(state, sm.step_noise(stream, 3, n=4), 1e-3)
            assert np.max(np.abs(state.y + state.x)) < 1e-12

    def test_expand_equals_contract_through_antipode(self):
        # running the expanding pair from (x, y) is the contracting pair from
        # (x, -y) with the second particle negated, driven by the same noise
        x0, y0 = S2.base_point(), S2.point_at_distance(1.0)
        expand = make_strategy("extrinsic-expand-s2", S2)
        contract = make_strategy("extrinsic-contract-s2", S2)
        se = expand.initial_state(x0, y0, 2)
        sc = contract.initial_state(x0, -y0, 2)
        stream_a, stream_b = NoiseStream(4), NoiseStream(4)
        for _ in range(300):
            se = expand.step(se, sm.step_noise(stream_a, 3, n=2), 1e-3)
            sc = contract.step(sc, sm.step_noise(stream_b, 3, n=2), 1e-3)
            assert np.max(np.abs(se.y + sc.y)) < 1e-10
            assert np.max(np.abs(se.x - sc.x)) < 1e-15


class TestFixedDistance:
    def test_batched_matrices_match_scalar(self):
        # the map is linear in (gp, ga), so its J and K columns pin it down
        from bmcouple.acceptance import fixed_distance_columns
        from smallmat import fixed_distance_matrices

        x, y = _random_pairs(np.random.default_rng(25), 200)
        j, k = fixed_distance_columns(x, y)
        for row in range(x.shape[0]):
            js, ks = fixed_distance_matrices(x[row], y[row])
            assert np.max(np.abs(j[row] - js)) < 1e-13
            assert np.max(np.abs(k[row] - ks)) < 1e-13

    @staticmethod
    def _oracle_noise(x, y, gp, ga):
        from bmcouple.drivers import kendall_compose
        from smallmat import fixed_distance_matrices

        return np.array(
            [kendall_compose(*fixed_distance_matrices(x[i], y[i]), gp[i], ga[i]) for i in range(len(x))]
        )

    @pytest.mark.parametrize("rho", [1e-3, 1e-4, 3e-5])
    def test_noise_map_matches_oracle_near_parallel(self, rho):
        # both sides divide roundoff in y - c x by its norm ~ rho; over 20 seeds
        # of 200 pairs the largest disagreement was 6.8e-16 / rho
        from bmcouple.couplings import _fixed_distance_noise

        rng = np.random.default_rng(28)
        x, _ = _random_pairs(rng, 200)
        t = rng.standard_normal((200, 3))
        t -= np.sum(t * x, axis=-1, keepdims=True) * x
        t /= np.linalg.norm(t, axis=-1, keepdims=True)
        y = np.cos(rho) * x + np.sin(rho) * t
        gp, ga = rng.standard_normal((2, 200, 3))
        expected = self._oracle_noise(x, y, gp, ga)
        assert np.max(np.abs(_fixed_distance_noise(x, y, gp, ga) - expected)) < 2e-15 / rho

    def test_point_off_sphere_violates_constraint(self):
        strategy = make_strategy("fixed-s2", S2)
        state = strategy.initial_state(S2.base_point(), S2.point_at_distance(1.0), 3)
        state.x[1] *= 1.0 + 1e-8
        with pytest.raises(CouplingConstraintError):
            strategy.step(state, sm.step_noise(NoiseStream(3), 3, 3, n=3), 1e-3)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_noise_map_rejects_parallel_pairs(self, sign):
        from bmcouple.couplings import _fixed_distance_noise

        x, y = _random_pairs(np.random.default_rng(29), 4)
        y[2] = sign * x[2]
        with pytest.raises(DegenerateInputError):
            _fixed_distance_noise(x, y, x, y)

    def test_batched_rodrigues_matches_scalar(self):
        from bmcouple.couplings import _rodrigues_apply
        from smallmat import rodrigues_rotation

        rng = np.random.default_rng(26)
        x = rng.standard_normal((50, 3))
        x /= np.linalg.norm(x, axis=-1, keepdims=True)
        y = rng.standard_normal((50, 3))
        y /= np.linalg.norm(y, axis=-1, keepdims=True)
        # the last rows are (anti)parallel pairs, which take the +/-I limits
        y[-2], y[-1] = x[-2], -x[-1]
        v = rng.standard_normal((50, 3))
        batched = _rodrigues_apply(x, y, v)
        for row in range(50):
            expected = rodrigues_rotation(x[row], y[row]) @ v[row]
            assert np.max(np.abs(batched[row] - expected)) < 1e-10

    @pytest.mark.parametrize("rho0", [1e-3, 1e-4, 3e-5])
    def test_small_start_distance_stays_fixed(self, rho0):
        # the aligned frame is renormalized by its computed norm, so J J' + K K' = I
        # holds to roundoff even when x and y are nearly parallel
        strategy = make_strategy("fixed-s2", S2)
        n = 200
        record = run_paths(
            strategy, S2.base_point(), S2.point_at_distance(rho0),
            h=1e-3, t_final=0.5, n_paths=n, seed=1, record_stride=50,
        )
        rel = record.rho[1:] / rho0 - 1.0
        se = np.std(rel, axis=1, ddof=1) / np.sqrt(n)
        assert np.max(np.abs(np.mean(rel, axis=1)) / se) < 3.0
        assert np.max(np.abs(rel)) < 0.2

    def test_start_at_antipode_rejected(self):
        strategy = make_strategy("fixed-s2", S2)
        with pytest.raises(DegenerateInputError):
            strategy.initial_state(S2.base_point(), -S2.base_point(), 1)

    def test_distance_drift_order(self):
        from bmcouple.verify import convergence_order_fit

        strategy = make_strategy("fixed-s2", S2)
        x0, y0 = S2.base_point(), S2.point_at_distance(1.0)
        drifts = []
        # coarse ladder keeps the drift signal above the Monte Carlo floor
        ladder = (16e-3, 8e-3, 4e-3)
        for h in ladder:
            record = run_paths(strategy, x0, y0, h=h, t_final=0.5, n_paths=5000, seed=6,
                               record_stride=10_000)
            drifts.append(abs(float(np.mean(record.rho[-1])) - 1.0) / 0.5)
        assert convergence_order_fit(list(zip(ladder, drifts))) >= 0.5


class TestSo3Flow:
    def test_distance_exactly_constant(self):
        strategy = make_strategy("so3-flow", S2)
        x0, y0 = S2.base_point(), S2.point_at_distance(1.0)
        d0 = float(S2.distance(x0, y0))
        state = strategy.initial_state(x0, y0, 4)
        stream = NoiseStream(12)
        worst = 0.0
        for _ in range(2000):
            state = strategy.step(state, sm.step_noise(stream, 3, n=4), 1e-3)
            worst = max(worst, float(np.max(np.abs(S2.distance(state.x, state.y) - d0))))
        assert worst < 1e-12

    def test_equal_starts_stay_identical(self):
        strategy = make_strategy("so3-flow", S2)
        x0 = S2.point_at_distance(0.4)
        state = step_many(strategy, x0, x0, 4, 1e-3, 300)
        assert np.array_equal(state.x, state.y)

    def test_one_row_move_tracks_the_scalar_oracle(self):
        # the batched exp / Gram-Schmidt kernel against the one-rotation walk
        strategy = make_strategy("so3-flow", S2)
        x0, y0 = S2.base_point(), S2.point_at_distance(1.0)
        state = strategy.initial_state(x0, y0, 1)
        z = np.eye(3)
        worst = 0.0
        for g in NoiseStream(31).standard_normal((10_000, 3)):
            state = strategy.step(state, StepNoise(primary=g[None]), 1e-3)
            z = sm.so3_flow_step(z, g, 1e-3)
            moved = np.concatenate([state.cache["z"][0] - z, [state.x[0] - z @ x0, state.y[0] - z @ y0]])
            worst = max(worst, float(np.max(np.abs(moved))))
        assert worst < 1e-14


def test_cross_is_numpys_bitwise():
    rng = np.random.default_rng(44)
    for shape in ((1, 3), (1000, 3), (2, 5, 3)):
        a, b = rng.standard_normal(shape), rng.standard_normal(shape)
        assert np.array_equal(_cross(a, b), np.cross(a, b))


class TestRotationCoupling:
    def test_step_of_quarter_circle_or_longer_is_rejected(self):
        # the geodesic walk's rule: a tangent step of length >= pi/2 on the sphere
        strategy = make_strategy("rotation", S2, k=0.0)
        state = strategy.initial_state(S2.base_point(), S2.point_at_distance(1.0), 2)
        gp = np.array([[0.1, 0.2, -0.1], [0.0, 2.3, 0.0]])
        with pytest.raises(StepTooLargeError):
            strategy.step(state, StepNoise(primary=gp), 0.5)
        strategy.step(state, StepNoise(primary=gp), 0.4)

    def test_requires_exactly_one_parameter(self):
        with pytest.raises(DomainError):
            RotationCoupling(S2)
        with pytest.raises(DomainError):
            RotationCoupling(S2, k=0.0, alpha_override=0.0)

    def test_zero_rate_angle_equals_distance_on_sphere(self):
        strategy = RotationCoupling(S2, k=0.0)
        rho = np.array([0.3, 1.2, 2.8])
        assert np.allclose(strategy._alpha(rho), rho, atol=1e-14)

    def test_flat_positive_rate_infeasible(self):
        for d in (2, 3):
            space = ModelSpace.euclidean(d)
            strategy = RotationCoupling(space, k=0.5)
            with pytest.raises(InfeasibleRateError):
                strategy.initial_state(space.base_point(), space.point_at_distance(1.0), 1)

    def test_hyperbolic_nonnegative_rate_infeasible(self):
        space = ModelSpace.hyperbolic(3)
        for k in (0.0, 1.0):
            with pytest.raises(InfeasibleRateError):
                RotationCoupling(space, k=k).initial_state(
                    space.base_point(), space.point_at_distance(1.0), 1
                )

    def test_sphere_accepts_curvature_rate(self):
        for d in (2, 3, 5):
            space = ModelSpace.sphere(d)
            strategy = RotationCoupling(space, k=float(d - 1))
            strategy.initial_state(space.base_point(), space.point_at_distance(1.0), 1)

    def test_feasible_interval_matches_angle_cos(self):
        for space in (S2, ModelSpace.sphere(4), ModelSpace.hyperbolic(2)):
            lo, hi = feasible_rate_interval(space, 1.3)
            assert abs(rotation_angle_cos(space, lo, 1.3) + 1.0) < 1e-12
            assert abs(rotation_angle_cos(space, hi, 1.3) - 1.0) < 1e-12

    def test_antipodal_start_rejected(self):
        strategy = RotationCoupling(S2, k=0.0)
        with pytest.raises(CutLocusError):
            strategy.initial_state(S2.base_point(), -S2.base_point(), 1)

    @pytest.mark.parametrize(
        "space",
        [S2, ModelSpace.sphere(3), ModelSpace.hyperbolic(2), ModelSpace.euclidean(3)],
    )
    def test_zero_martingale_condition(self, space):
        # first-variation pairing of the two tangent noises cancels exactly
        strategy = RotationCoupling(space, alpha_override=1.234)
        rng = np.random.default_rng(14)
        x = np.stack([space.random_point(rng) for _ in range(40)])
        y = np.stack(
            [
                space.exp_map(p, f[0] / space.metric_norm(f[0]), rng.uniform(0.2, 1.8))
                for p, f in zip(x, space.reference_frame(x))
            ]
        )
        gp = rng.standard_normal((40, strategy.primary_dim))
        xi, eta = strategy.noise_tangents(x, y, gp)
        rho = space.distance(x, y)
        gdir0 = space.log_map(x, y) / rho[:, None]
        gdir1 = -space.log_map(y, x) / rho[:, None]
        lhs = space.metric_dot(xi, gdir0)
        rhs = space.metric_dot(eta, gdir1)
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    @pytest.mark.parametrize(
        "space", [S2, ModelSpace.sphere(3), ModelSpace.hyperbolic(3), ModelSpace.euclidean(2)]
    )
    def test_noise_map_is_partial_isometry(self, space):
        # feeding the driving basis vectors through the noise map must give
        # tangent images with identity Gram matrices on both sides
        if space.curvature == 1:
            strategy = RotationCoupling(space, k=0.0)
        else:
            strategy = RotationCoupling(space, alpha_override=np.pi)
        rng = np.random.default_rng(15)
        n_drive = strategy.primary_dim
        d = space.dim
        for _ in range(20):
            x = space.random_point(rng)[None, :]
            frame = space.reference_frame(x)
            y = space.exp_map(x[0], frame[0, 0], rng.uniform(0.3, 1.5))[None, :]
            xis, etas = [], []
            for i in range(n_drive):
                gp = np.zeros((1, n_drive))
                gp[0, i] = 1.0
                xi, eta = strategy.noise_tangents(x, y, gp)
                xis.append(xi[0])
                etas.append(eta[0])
            rho = space.distance(x, y)
            basis_x = space.frame_with_first(x, space.log_map(x, y) / rho[:, None])[0]
            basis_y = space.parallel_transport(x[0], y[0], basis_x)
            for base, basis, images in ((x[0], basis_x, xis), (y[0], basis_y, etas)):
                coeff = np.stack(
                    [space.metric_dot(basis, img[None, :]) for img in images], axis=1
                )  # (d, N) tangent coordinates of the basis images
                assert np.max(np.abs(coeff @ coeff.T - np.eye(d))) < 1e-12
                if space.curvature != 0:
                    assert np.max(np.abs(space.metric_dot(np.stack(images), base))) < 1e-12

    def test_synchronous_drift_matches_tangent_formula(self):
        # empirical one-step distance drift at alpha=0 reproduces
        # -(d-1) tan(rho/2) on the sphere
        rho0, h, n = 1.0, 2e-4, 200_000
        strategy = RotationCoupling(S2, alpha_override=0.0)
        x0, y0 = S2.base_point(), S2.point_at_distance(rho0)
        state = strategy.initial_state(x0, y0, n)
        noise = sm.step_noise(NoiseStream(21), 3, n=n)
        out = strategy.step(state, noise, h)
        drift = (np.mean(S2.distance(out.x, out.y)) - rho0) / h
        target = -np.tan(rho0 / 2.0)
        se = np.std(S2.distance(out.x, out.y)) / (h * np.sqrt(n))
        assert abs(drift - target) < max(3 * se, 0.02 * abs(target))

    def test_perverse_flat_growth(self):
        strategy = RotationCoupling(FLAT2, alpha_override=np.pi)
        record = run_paths(
            strategy, FLAT2.base_point(), FLAT2.point_at_distance(1.0),
            h=1e-3, t_final=1.0, n_paths=200, seed=13, record_stride=100,
        )
        law = np.sqrt(1.0 + 4.0 * record.times)
        assert np.max(np.abs(np.mean(record.rho, axis=1) - law)) < 0.01

    def test_runtime_infeasibility_on_expanding_sphere(self):
        # a negative rate on the sphere loses feasibility as rho approaches pi
        strategy = RotationCoupling(S2, k=-0.4)
        state = strategy.initial_state(S2.base_point(), S2.point_at_distance(2.2), 64)
        stream = NoiseStream(17)
        with pytest.raises(InfeasibleRateError):
            for _ in range(5000):
                state = strategy.step(state, sm.step_noise(stream, 3, n=64), 1e-3)


def _geodesic_points(space, x, rng, lo, hi):
    """Points at distances uniform in [lo, hi] from the rows of x, in random
    directions."""
    dirs = rng.standard_normal((len(x), space.dim))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    tangents = np.einsum("nj,nja->na", dirs, space.reference_frame(x))
    return space.exp_map(x, tangents, rng.uniform(lo, hi, len(x)))


def _householder_gap(space, x, y):
    """|e_1 - coef| for the coefficients of the unit tangent toward y in the
    reference frame: the Householder completion divides by its square."""
    rho = space.distance(x, y)
    coef = space.metric_dot(space.reference_frame(x), (space.log_map(x, y) / rho[:, None])[:, None, :])
    coef[:, 0] -= 1.0
    return np.linalg.norm(coef, axis=1)


class TestRotationNoiseMap:
    """The closed-form noise map against the frame-building oracle in
    tests/smallmat.py (frame_with_first, parallel_transport, einsum)."""

    @pytest.mark.parametrize("curvature", [-1, 0, 1])
    @pytest.mark.parametrize("dim", [2, 3, 4, 5])
    def test_matches_frame_oracle(self, curvature, dim):
        space = ModelSpace(curvature, dim)
        strategy = RotationCoupling(space, alpha_override=1.234)
        rng = np.random.default_rng(100 + 10 * curvature + dim)
        n = 1000
        pole = np.broadcast_to(space.base_point(), (n, space.ambient_dim))
        far = 3.0 if curvature == 1 else 1.5
        x = _geodesic_points(space, pole, rng, 0.0, far)
        if curvature == 1:
            # a quarter of the rows near the pole's antipode use the second pole
            x[: n // 4] = _geodesic_points(space, -pole[: n // 4], rng, 0.0, 0.45)
            assert np.count_nonzero(1.0 + x[:, 0] < 0.1) > n // 5
        y = _geodesic_points(space, x, rng, 0.05, 3.0 if curvature == 1 else 2.5)
        # the canonical start pair: u is the first reference vector exactly
        x[0], y[0] = space.base_point(), space.point_at_distance(1.0)
        gp = rng.standard_normal((n, strategy.primary_dim))
        xi, eta = strategy.noise_tangents(x, y, gp)
        ref_xi, ref_eta = sm.rotation_noise_tangents(space, x, y, gp, strategy._alpha(space.distance(x, y)))
        # roundoff is amplified by 1/|e_1 - coef| where u nears the first
        # reference vector, in both maps; at a gap of 0 (the canonical pair)
        # both take the identity branch
        gap = _householder_gap(space, x, y)
        tol = 1e-12 * np.maximum(1.0, 0.1 / np.where(gap > 0.0, gap, 1.0))
        for got, ref in ((xi, ref_xi), (eta, ref_eta)):
            rel = np.linalg.norm(got - ref, axis=1) / np.linalg.norm(ref, axis=1)
            assert np.all(rel <= tol)

    @pytest.mark.parametrize(
        "space", [S2, ModelSpace.sphere(3), ModelSpace.hyperbolic(2), ModelSpace.euclidean(3)]
    )
    def test_canonical_start_pair_takes_the_identity_branch(self, space):
        # u = b_0: the adapted frame is the reference frame with u first
        strategy = RotationCoupling(space, alpha_override=0.0)
        x, y = space.base_point()[None, :], space.point_at_distance(0.7)[None, :]
        assert _householder_gap(space, x, y)[0] == 0.0
        gp = np.random.default_rng(3).standard_normal((1, strategy.primary_dim))
        xi, _ = strategy.noise_tangents(x, y, gp)
        d = space.dim
        expected = np.einsum("nj,nja->na", gp[:, :d], space.reference_frame(x))
        assert np.max(np.abs(xi - expected)) < 1e-15
        ref_xi, ref_eta = sm.rotation_noise_tangents(space, x, y, gp, np.zeros(1))
        assert np.max(np.abs(xi - ref_xi)) < 1e-15

    @pytest.mark.parametrize("call", ["noise_tangents", "move"])
    def test_degenerate_inputs_raise(self, call):
        def run(strategy, x, y):
            gp = np.ones((len(x), strategy.primary_dim))
            if call == "move":
                return strategy.move(x, y, gp, None, 1e-3, {})
            return strategy.noise_tangents(x, y, gp)

        x = np.stack([S2.base_point(), S2.point_at_distance(0.5)])
        meeting = np.stack([S2.point_at_distance(1.0), S2.point_at_distance(0.5)])
        with pytest.raises(DegenerateInputError):
            run(RotationCoupling(S2, k=0.0), x, meeting)
        antipodal = np.stack([S2.point_at_distance(1.0), -S2.point_at_distance(0.5)])
        with pytest.raises(CutLocusError):
            run(RotationCoupling(S2, k=0.0), x, antipodal)
        with pytest.raises(CutLocusError):
            run(RotationCoupling(S2, k=0.0), x[:1], S2.point_at_distance(np.pi - 1e-9)[None, :])
        # cos alpha = cos 3 - 0.4 * 3 sin 3 / 2 < -1 at distance 3
        with pytest.raises(InfeasibleRateError):
            run(RotationCoupling(S2, k=-0.4), x[:1], S2.point_at_distance(3.0)[None, :])
        flat = ModelSpace.euclidean(3)
        with pytest.raises(DegenerateInputError):
            run(RotationCoupling(flat, alpha_override=np.pi), np.zeros((1, 3)), np.zeros((1, 3)))


class TestDriftFormula:
    @pytest.mark.parametrize("r,d", [(1, 2), (1, 3), (0, 2), (-1, 4)])
    def test_special_angles(self, r, d):
        space = ModelSpace(r, d)
        for rho in (0.4, 1.1, 2.0):
            sync = distance_drift(space, 0.0, rho)
            perv = distance_drift(space, np.pi, rho)
            gs, gc = gen_sin(r, rho), gen_cos(r, rho)
            assert sync == pytest.approx((d - 1) * (gc - 1.0) / gs, abs=1e-12)
            assert perv == pytest.approx((d - 1) * (gc + 1.0) / gs, abs=1e-12)
        if r == 0:
            assert distance_drift(space, np.pi, 2.0) == pytest.approx((d - 1), abs=1e-12)


class TestPatched:
    def test_antipodal_start_is_independent(self):
        strategy = make_strategy("extrinsic-expand-s2", S2, eps=0.4)
        state = strategy.initial_state(S2.base_point(), -S2.base_point(), 3)
        assert np.all(state.regime == INDEPENDENT)

    def test_near_start_is_coupled(self):
        strategy = make_strategy("extrinsic-expand-s2", S2, eps=0.4)
        state = strategy.initial_state(S2.base_point(), S2.point_at_distance(1.0), 3)
        assert np.all(state.regime == COUPLED)

    def test_tiny_distance_is_independent_for_expanding(self):
        strategy = make_strategy("extrinsic-expand-s2", S2, eps=0.4)
        state = strategy.initial_state(S2.base_point(), S2.point_at_distance(0.05), 3)
        assert np.all(state.regime == INDEPENDENT)

    def test_coupled_samples_stay_below_cut_band(self):
        strategy = make_strategy("extrinsic-expand-s2", S2, eps=0.4)
        record = run_paths(
            strategy, S2.base_point(), S2.point_at_distance(2.6),
            h=1e-3, t_final=3.0, n_paths=50, seed=19,
        )
        coupled = record.regime == COUPLED
        assert np.any(coupled) and np.any(~coupled)
        assert np.all(record.rho[coupled] <= np.pi - 0.4 + 1e-12)

    def test_bad_eps_rejected(self):
        with pytest.raises(DomainError):
            make_strategy("fixed-s2", S2, eps=1.0)

    def test_unpatchable_strategy_rejected(self):
        # broken-marginal is a negative control, with no cut locus to patch around
        for strategy_id in ("mirror-s2", "so3-flow", "broken-marginal"):
            with pytest.raises(DomainError):
                make_strategy(strategy_id, S2, eps=0.3)

    def test_flat_space_patching_rejected(self):
        with pytest.raises(DomainError):
            PatchedCoupling(make_strategy("rotation", FLAT2, k=0.0), 0.3)


# (strategy id, space, make_strategy keywords, (primary_dim, aux_dim,
# indep_dim, patchable)): the widths of the draws each run consumes.
# indep_dim, the width of a lone particle's draw, is read only when patched,
# so the unpatchable rows hold None.
DECLARATIONS = [
    ("translation", FLAT2, {}, (2, 0, None, False)),
    ("mirror-s2", S2, {}, (3, 0, None, False)),
    ("extrinsic-contract-s2", S2, {}, (3, 0, 3, True)),
    ("extrinsic-contract-s2", S2, {"eps": 0.3}, (3, 3, 3, True)),
    ("extrinsic-expand-s2", S2, {}, (3, 0, 3, True)),
    ("extrinsic-expand-s2", S2, {"eps": 0.3}, (3, 3, 3, True)),
    ("fixed-s2", S2, {}, (3, 3, 3, True)),
    ("fixed-s2", S2, {"eps": 0.3}, (3, 3, 3, True)),
    ("rotation", S2, {"k": 0.5}, (3, 0, 2, True)),
    ("rotation", S2, {"k": 0.5, "eps": 0.3}, (3, 2, 2, True)),
    ("rotation", ModelSpace.sphere(3), {"k": 1.0}, (3, 0, 3, True)),
    ("rotation", ModelSpace.sphere(4), {"k": 1.0}, (5, 0, 4, True)),
    ("rotation", ModelSpace.hyperbolic(2), {"alpha_override": np.pi}, (3, 0, 2, True)),
    ("so3-flow", S2, {}, (3, 0, None, False)),
    ("independent", S2, {}, (2, 2, 2, True)),
    ("independent", S2, {"eps": 0.3}, (2, 2, 2, True)),
    ("independent", ModelSpace.hyperbolic(3), {}, (3, 3, 3, True)),
    ("broken-marginal", S2, {}, (3, 0, None, False)),
]


class TestRegistry:
    def test_every_strategy_is_declared(self):
        assert set(STRATEGIES) == {row[0] for row in DECLARATIONS}

    @pytest.mark.parametrize(
        "strategy_id, space, kwargs, expected",
        DECLARATIONS,
        ids=[f"{sid}-{space.curvature:+d}d{space.dim}{'-patched' * ('eps' in kw)}" for sid, space, kw, _ in DECLARATIONS],
    )
    def test_declared_widths(self, strategy_id, space, kwargs, expected):
        strategy = make_strategy(strategy_id, space, **kwargs)
        primary, aux, indep, patchable = expected
        assert (strategy.primary_dim, strategy.aux_dim, strategy.patchable) == (primary, aux, patchable)
        if indep is not None:
            assert strategy.indep_dim == indep

    def test_unknown_strategy(self):
        with pytest.raises(DomainError):
            make_strategy("quantum-leap", S2)

    def test_parameters_rejected_elsewhere(self):
        with pytest.raises(DomainError):
            make_strategy("fixed-s2", S2, k=1.0)

    def test_sphere_only_strategies(self):
        for sid in ("mirror-s2", "extrinsic-contract-s2", "fixed-s2", "so3-flow"):
            with pytest.raises(DomainError):
                make_strategy(sid, FLAT2)

    def test_independent_any_space(self):
        for space in (S2, FLAT2, ModelSpace.hyperbolic(3)):
            strategy = make_strategy("independent", space)
            state = step_many(strategy, space.base_point(), space.point_at_distance(0.5), 4, 1e-3, 50)
            assert state.n_paths == 4
