"""The scalar oracles of the 2-sphere constructions (tests/smallmat.py)."""

import numpy as np
import pytest
import smallmat as sm

from bmcouple.acceptance import fixed_distance_residuals
from bmcouple.errors import DegenerateInputError, DomainError

E1, E2, E3 = np.eye(3)


def random_unit(rng, dim=3):
    v = rng.standard_normal(dim)
    return v / np.linalg.norm(v)


class TestRodrigues:
    def test_parallel_gives_identity(self):
        assert np.array_equal(sm.rodrigues_rotation(E1, E1), np.eye(3))

    def test_antiparallel_gives_minus_identity(self):
        assert np.array_equal(sm.rodrigues_rotation(E1, -E1), -np.eye(3))

    def test_quarter_turn(self):
        expected = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        assert np.allclose(sm.rodrigues_rotation(E1, E2), expected, atol=1e-15)

    def test_non_unit_input_rejected(self):
        with pytest.raises(DomainError):
            sm.rodrigues_rotation([2.0, 0.0, 0.0], E2)

    def test_random_pairs_orthogonal_and_mapping(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            x, y = random_unit(rng), random_unit(rng)
            rot = sm.rodrigues_rotation(x, y)
            assert np.max(np.abs(rot.T @ rot - np.eye(3))) < 1e-12
            assert np.max(np.abs(rot @ x - y)) < 1e-12
            axis = np.cross(x, y)
            assert np.max(np.abs(rot @ axis - axis)) < 1e-12


class TestFrameAlign:
    def test_canonical_pair_is_identity(self):
        assert np.allclose(sm.frame_align(E1, E2), np.eye(3), atol=1e-15)

    def test_shifted_pair_permutes(self):
        out = sm.frame_align(E2, E3)
        assert np.allclose(out[:, 0], E2)
        assert np.allclose(out[:, 1], E3)
        assert np.allclose(out[:, 2], E1)

    def test_near_parallel_rejected(self):
        with pytest.raises(DegenerateInputError):
            sm.frame_align(E1, E1)

    def test_random_pairs_column_identities(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            x, y = random_unit(rng), random_unit(rng)
            if abs(x @ y) > 1.0 - 1e-6:
                continue
            out = sm.frame_align(x, y)
            c = x @ y
            assert np.max(np.abs(out.T @ out - np.eye(3))) < 1e-12
            assert np.allclose(out[:, 0], x, atol=1e-12)
            assert np.allclose(out @ np.array([c, np.sqrt(1 - c * c), 0.0]), y, atol=1e-12)
            assert np.allclose(out[:, 2], np.cross(x, y) / np.sqrt(1 - c * c), atol=1e-12)


class TestFixedDistanceMatrices:
    def test_perpendicular_blocks(self):
        # the canonical perpendicular pair is already aligned: J and K are the blocks
        j, k = sm.fixed_distance_matrices(E1, E2)
        assert np.array_equal(j, np.array([[0, -1, 0], [0, 0, 0], [0, 0, 0]], dtype=float))
        assert np.array_equal(k, np.array([[0, 0, 0], [0, 1, 0], [0, 0, 1]], dtype=float))

    def test_residuals_and_norm_on_random_pairs(self):
        rng = np.random.default_rng(23)
        for _ in range(1000):
            x, y = random_unit(rng), random_unit(rng)
            if abs(x @ y) > 1.0 - 1e-6:
                continue
            j, k = sm.fixed_distance_matrices(x, y)
            residuals = fixed_distance_residuals(x[None], y[None], j[None], k[None])
            assert max(float(r[0]) for r in residuals) < 1e-10
            assert np.linalg.norm(j, 2) <= 1.0 + 1e-12

    def test_degenerate_pair_rejected(self):
        with pytest.raises(DegenerateInputError):
            sm.fixed_distance_matrices(E1, -E1)
