import numpy as np
import pytest

from bmcouple.errors import ConjugatePointError, CutLocusError, DomainError
from bmcouple.spaces import (
    IndexFormValues,
    ModelSpace,
    field_index_form,
    gen_cos,
    _half_field_index_forms,
    gen_sin,
    index_form_closed,
    index_form_quadrature,
    parse_space,
)
from smallmat import random_point

SPACES = [ModelSpace.euclidean(2), ModelSpace.sphere(2), ModelSpace.sphere(3), ModelSpace.hyperbolic(2), ModelSpace.hyperbolic(3)]


def random_pair(space, rng, max_dist=2.5):
    p = random_point(space, rng)
    frame = space.reference_frame(p)
    coeff = rng.standard_normal(space.dim)
    v = np.einsum("j,ja->a", coeff / np.linalg.norm(coeff), frame)
    s = rng.uniform(0.05, min(max_dist, 2.9) if space.curvature == 1 else max_dist)
    return p, space.exp_map(p, v, s), s


class TestDistance:
    def test_sphere_orthogonal_points(self):
        s2 = ModelSpace.sphere(2)
        assert s2.distance([1, 0, 0], [0, 1, 0]) == pytest.approx(np.pi / 2, abs=1e-14)

    def test_identical_points(self):
        s2 = ModelSpace.sphere(2)
        assert s2.distance([1, 0, 0], [1, 0, 0]) == 0.0

    def test_sphere_chordal_formula(self):
        s2 = ModelSpace.sphere(2)
        got = s2.distance([1, 0, 0], [0.6, 0.8, 0.0])
        assert got == pytest.approx(2 * np.arcsin(0.5 * np.sqrt(0.8)), abs=1e-14)

    @pytest.mark.parametrize("space", SPACES)
    def test_symmetry_and_triangle(self, space):
        rng = np.random.default_rng(1)
        for _ in range(100):
            p, q, _ = random_pair(space, rng)
            r = random_point(space, rng)
            dpq = space.distance(p, q)
            assert dpq == pytest.approx(space.distance(q, p), abs=1e-12)
            assert dpq <= space.distance(p, r) + space.distance(r, q) + 1e-10


def _lift(space, coords):
    """Points of the space from ambient coordinates (flat space and the
    sphere) or from the space coordinates of the hyperboloid."""
    if space.curvature == 0:
        return coords
    if space.curvature == 1:
        return space.project_point(coords)
    return np.concatenate([np.sqrt(1.0 + np.sum(coords * coords, axis=1))[:, None], coords], axis=1)


@pytest.mark.parametrize(
    "space",
    [ModelSpace.sphere(2), ModelSpace.sphere(3), ModelSpace.sphere(5), ModelSpace.hyperbolic(2),
     ModelSpace.hyperbolic(3), ModelSpace.euclidean(2), ModelSpace.euclidean(3)],
    ids=["S2", "S3", "S5", "H2", "H3", "flat2", "flat3"],
)
def test_distance_is_the_chord_distance_of_the_chord(space):
    """The records derive rho from the chord, so this must hold bitwise: on
    random pairs, a fifth of them within 1e-7 of each other, and on the
    sphere near-antipodal pairs whose half chord reaches the clamp at 1."""
    rng = np.random.default_rng([space.dim, space.curvature + 1])
    n, width = 10_000, space.dim if space.curvature == -1 else space.ambient_dim
    a = rng.standard_normal((n, width)) * rng.uniform(0.1, 2.0, (n, 1))
    b = rng.standard_normal((n, width)) * rng.uniform(0.1, 2.0, (n, 1))
    near = slice(0, n // 5)
    b[near] = a[near] + 1e-7 * rng.uniform(-1.0, 1.0, a[near].shape)
    if space.curvature == 1:
        far = slice(n // 5, n // 5 + 500)
        b[far] = -a[far] + 1e-9 * rng.uniform(-1.0, 1.0, a[far].shape)
    p, q = _lift(space, a), _lift(space, b)
    chord = space.metric_norm(q - p)
    assert np.all(space.distance(p[near], q[near]) < 1e-5)
    assert space.curvature != 1 or np.any(0.5 * chord >= 1.0)
    assert np.array_equal(space.chord_distance(chord), space.distance(p, q))


class TestExpLog:
    def test_flat_line(self):
        f2 = ModelSpace.euclidean(2)
        assert np.allclose(f2.exp_map([1.0, 2.0], [1.0, 0.0], 0.5), [1.5, 2.0])

    def test_sphere_quarter_circle(self):
        s2 = ModelSpace.sphere(2)
        out = s2.exp_map([1, 0, 0], [0, 1, 0], np.pi / 2)
        assert np.allclose(out, [0, 1, 0], atol=1e-15)

    def test_hyperbolic_geodesic(self):
        h2 = ModelSpace.hyperbolic(2)
        out = h2.exp_map([1, 0, 0], [0, 1, 0], 1.3)
        assert np.allclose(out, [np.cosh(1.3), np.sinh(1.3), 0.0], atol=1e-12)
        assert h2.distance(h2.base_point(), out) == pytest.approx(1.3, abs=1e-12)

    def test_non_unit_velocity_rejected(self):
        with pytest.raises(DomainError):
            ModelSpace.sphere(2).exp_map([1, 0, 0], [0, 2, 0], 1.0)

    def test_log_of_canonical_pair(self):
        s2 = ModelSpace.sphere(2)
        out = s2.log_map([1, 0, 0], [0, 1, 0])
        assert np.allclose(out, [0.0, np.pi / 2, 0.0], atol=1e-14)

    def test_antipodal_log_rejected(self):
        s2 = ModelSpace.sphere(2)
        with pytest.raises(CutLocusError):
            s2.log_map([1, 0, 0], [-1, 0, 0])

    @pytest.mark.parametrize("space", SPACES)
    def test_roundtrip(self, space):
        rng = np.random.default_rng(9)
        for _ in range(2000):
            p, q, s = random_pair(space, rng)
            log = space.log_map(p, q)
            assert space.metric_norm(log) == pytest.approx(space.distance(p, q), abs=1e-10)
            back = space.exp_tangent(p, log)
            # scale-free: hyperboloid coordinates grow like cosh(distance)
            assert space.distance(back, q) < 1e-9


    @pytest.mark.parametrize("space", [s for s in SPACES if s.curvature != 0])
    def test_zero_length_rows_stay_put_among_moving_rows(self, space):
        # the points sit a hair off the constraint, so an exponential that
        # renormalized a zero step would move their bits
        rng = np.random.default_rng(41)
        x = np.stack([random_point(space, rng) for _ in range(6)]) * (1.0 + 1e-12)
        u = space.project_tangent(x, 0.3 * rng.standard_normal(x.shape))
        still, moving = [1, 4], [0, 2, 3, 5]
        u[still] = 0.0
        out = space.exp_tangent(x, u)
        assert out[still].tobytes() == x[still].tobytes()
        assert out[moving].tobytes() == space.exp_tangent(x[moving], u[moving]).tobytes()
        for i in range(len(x)):
            assert out[i].tobytes() == space.exp_tangent(x[i : i + 1], u[i : i + 1])[0].tobytes()


class TestParallelTransport:
    @pytest.mark.parametrize("space", SPACES)
    def test_geodesic_tangent_maps_to_tangent(self, space):
        rng = np.random.default_rng(31)
        for _ in range(200):
            p, q, _ = random_pair(space, rng)
            rho = space.distance(p, q)
            start_dir = space.log_map(p, q) / rho
            end_dir = -space.log_map(q, p) / rho
            moved = space.parallel_transport(p, q, start_dir)
            scale = max(1.0, float(np.max(np.abs(end_dir))))
            assert np.max(np.abs(moved - end_dir)) < 1e-10 * scale

    def test_perpendicular_direction_fixed(self):
        s2 = ModelSpace.sphere(2)
        out = s2.parallel_transport([1, 0, 0], [0, 1, 0], [0, 0, 1.0])
        assert np.allclose(out, [0, 0, 1.0], atol=1e-15)

    @pytest.mark.parametrize("space", SPACES)
    def test_isometry(self, space):
        rng = np.random.default_rng(13)
        for _ in range(200):
            p, q, _ = random_pair(space, rng)
            v = space.project_tangent(p, rng.standard_normal(space.ambient_dim))
            w = space.project_tangent(p, rng.standard_normal(space.ambient_dim))
            tv = space.parallel_transport(p, q, v)
            tw = space.parallel_transport(p, q, w)
            assert space.metric_dot(tv, tw) == pytest.approx(
                space.metric_dot(v, w), rel=1e-10, abs=1e-10
            )
            if space.curvature != 0:
                scale = max(1.0, float(np.max(np.abs(q))))
                assert np.abs(space.metric_dot(q, tv)) < 1e-9 * scale


class TestIndexForms:
    def test_flat_closed_values(self):
        vals = index_form_closed(0, 2.0)
        assert vals == IndexFormValues(i11=0.5, i22=0.5, i12=-0.5, rho=2.0)

    def test_sphere_quarter(self):
        vals = index_form_closed(1, np.pi / 2)
        assert vals.i11 == pytest.approx(0.0, abs=1e-14)
        assert vals.i12 == pytest.approx(-1.0, abs=1e-14)

    def test_quadrature_flat_half_field(self):
        assert index_form_quadrature(0, 2.0, (1.0, 0.0)) == pytest.approx(0.5, abs=1e-10)

    def test_quadrature_flat_constant_field(self):
        # w == 1 is parallel in flat space: zero index value
        assert abs(index_form_quadrature(0, 2.0, (1.0, 1.0))) < 1e-10

    @pytest.mark.parametrize("r", [-1, 0, 1])
    def test_closed_matches_quadrature(self, r):
        rhos = np.linspace(0.1, 2.5, 9)
        q11 = index_form_quadrature(r, rhos, (1.0, 0.0))
        q22 = index_form_quadrature(r, rhos, (0.0, 1.0))
        q12 = _half_field_index_forms(r, rhos)[2]
        for rho, b11, b22, b12 in zip(rhos, q11, q22, q12):
            closed = index_form_closed(r, rho)
            assert b11 == pytest.approx(closed.i11, abs=1e-6 * max(1.0, abs(closed.i11)))
            assert b22 == pytest.approx(closed.i22, abs=1e-6 * max(1.0, abs(closed.i22)))
            assert b12 == pytest.approx(closed.i12, abs=1e-6 * max(1.0, abs(closed.i12)))

    def test_batch_equals_one_case_at_a_time(self):
        # the acceptance grid; the batch must not change a single bit
        curvatures = np.repeat([-1, 0, 1], 13)
        rhos = np.tile(np.linspace(0.1, 2.5, 13), 3)
        a, b = np.random.default_rng(9).uniform(-2.0, 2.0, size=(2, 39))
        cases = list(zip(curvatures.tolist(), rhos.tolist(), a.tolist(), b.tolist()))
        batched = [
            index_form_quadrature(curvatures, rhos, (1.0, 0.0)),
            index_form_quadrature(curvatures, rhos, (0.0, 1.0)),
            index_form_quadrature(curvatures, rhos, (a, b)),
            _half_field_index_forms(curvatures, rhos)[2],
        ]
        single = [
            [index_form_quadrature(r, rho, (1.0, 0.0)) for r, rho, _, _ in cases],
            [index_form_quadrature(r, rho, (0.0, 1.0)) for r, rho, _, _ in cases],
            [index_form_quadrature(r, rho, (ca, cb)) for r, rho, ca, cb in cases],
            [_half_field_index_forms(r, rho)[2] for r, rho, _, _ in cases],
        ]
        for got, want in zip(batched, single):
            assert isinstance(want[0], float)
            assert np.array_equal(got, np.array(want))

    def test_batch_with_one_conjugate_case_rejected(self):
        with pytest.raises(ConjugatePointError):
            index_form_quadrature(np.array([0, 1, -1]), np.array([1.0, np.pi, 2.0]))
        with pytest.raises(ConjugatePointError):
            _half_field_index_forms(1, np.array([0.5, 3.5]))[2]

    def test_curvature_comparison_of_half_fields(self):
        # higher curvature gives the smaller index value at equal length
        for rho in (0.3, 1.0, 2.0):
            values = [index_form_closed(r, rho).i22 for r in (-1, 0, 1)]
            assert values[2] < values[1] < values[0]

    def test_cross_term_negative(self):
        for r in (-1, 0, 1):
            for rho in np.linspace(0.1, 2.9 if r == 1 else 4.0, 7):
                assert index_form_closed(r, rho).i12 < 0.0

    def test_jacobi_minimizes_against_linear_field(self):
        rng = np.random.default_rng(8)
        cases = []
        for _ in range(100):
            r = int(rng.integers(-1, 2))
            rho = float(rng.uniform(0.2, 2.8 if r == 1 else 3.5))
            a, b = rng.uniform(-2, 2, size=2)
            cases.append((r, rho, a, b))
        r, rho, a, b = (np.array(column) for column in zip(*cases))
        jacobi = index_form_quadrature(r, rho, (a, b))
        for (r, rho, a, b), jac in zip(cases, jacobi):
            lin = field_index_form(
                r,
                rho,
                lambda s: a + (b - a) * s / rho,
                lambda s: np.full_like(np.asarray(s, float), (b - a) / rho),
            )
            assert jac <= lin + 1e-9

    def test_conjugate_point_rejected(self):
        with pytest.raises(ConjugatePointError):
            index_form_closed(1, np.pi)
        with pytest.raises(ConjugatePointError):
            index_form_quadrature(1, 3.2, (0.0, 1.0))


class TestGeneralizedTrig:
    def test_values(self):
        assert gen_sin(1, np.pi / 2) == pytest.approx(1.0)
        assert gen_sin(0, 1.7) == pytest.approx(1.7)
        assert gen_sin(-1, 1.0) == pytest.approx(np.sinh(1.0))
        assert gen_cos(1, np.pi) == pytest.approx(-1.0)
        assert gen_cos(0, 9.0) == pytest.approx(1.0)
        assert gen_cos(-1, 1.0) == pytest.approx(np.cosh(1.0))


class TestConstraints:
    def test_point_validation(self):
        s2 = ModelSpace.sphere(2)
        with pytest.raises(DomainError):
            s2.check_point(np.array([1.1, 0.0, 0.0]))
        h2 = ModelSpace.hyperbolic(2)
        with pytest.raises(DomainError):
            h2.check_point(np.array([-1.0, 0.0, 0.0]))  # wrong sheet

    @pytest.mark.parametrize("points", [np.zeros(4), np.zeros((5, 2)), np.float64(1.0), np.zeros((2, 3, 4))])
    def test_points_of_another_coordinate_count_are_rejected(self, points):
        with pytest.raises(DomainError, match="3 coordinates"):
            ModelSpace.sphere(2).check_point(points)

    def test_projection_restores_constraint(self):
        rng = np.random.default_rng(6)
        for space in SPACES:
            p = random_point(space, rng)
            drifted = p * 1.0
            if space.curvature != 0:
                drifted = p + 1e-6 * rng.standard_normal(space.ambient_dim)
                fixed = space.project_point(drifted)
                assert np.max(space.constraint_residual(fixed)) < 1e-12


class TestFrames:
    @pytest.mark.parametrize("space", SPACES)
    def test_reference_frame_orthonormal_tangent(self, space):
        rng = np.random.default_rng(21)
        pts = np.stack([random_point(space, rng) for _ in range(50)])
        frame = space.reference_frame(pts)
        gram = space.metric_dot(frame[:, :, None, :], frame[:, None, :, :])
        assert np.max(np.abs(gram - np.eye(space.dim))) < 1e-11
        if space.curvature != 0:
            assert np.max(np.abs(space.metric_dot(frame, pts[:, None, :]))) < 1e-11

    @pytest.mark.parametrize("space", SPACES)
    def test_frame_with_first(self, space):
        rng = np.random.default_rng(22)
        pts = np.stack([random_point(space, rng) for _ in range(50)])
        raw = rng.standard_normal(pts.shape)
        u = space.project_tangent(pts, raw)
        u = u / space.metric_norm(u)[..., None]
        frame = space.frame_with_first(pts, u)
        assert np.max(np.abs(frame[:, 0, :] - u)) == 0.0
        gram = space.metric_dot(frame[:, :, None, :], frame[:, None, :, :])
        assert np.max(np.abs(gram - np.eye(space.dim))) < 1e-11

    def test_sphere_frame_near_antipode_of_pole(self):
        s2 = ModelSpace.sphere(3)
        pole_opposite = -s2.base_point()
        frame = s2.reference_frame(pole_opposite + 0.0)
        gram = s2.metric_dot(frame[:, None, :], frame[None, :, :])
        assert np.max(np.abs(gram - np.eye(3))) < 1e-11


def test_parse_space():
    assert parse_space("sphere:2") == ModelSpace.sphere(2)
    assert parse_space("flat:3") == ModelSpace.euclidean(3)
    assert parse_space("hyperbolic:4") == ModelSpace.hyperbolic(4)
    with pytest.raises(DomainError):
        parse_space("torus:2")
    with pytest.raises(DomainError):
        parse_space("sphere")
