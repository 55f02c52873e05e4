"""Unit tests for target correlation-matrix construction and repair."""

import numpy as np
import pytest

from repro.exceptions import GenerationError
from repro.tomborg.correlation_targets import (
    block_correlation_matrix,
    is_valid_correlation_matrix,
    nearest_correlation_matrix,
    random_correlation_matrix,
)
from repro.tomborg.distributions import UniformCorrelations


class TestValidityCheck:
    def test_identity_is_valid(self):
        assert is_valid_correlation_matrix(np.eye(5))

    def test_asymmetric_invalid(self):
        matrix = np.eye(3)
        matrix[0, 1] = 0.5
        assert not is_valid_correlation_matrix(matrix)

    def test_non_unit_diagonal_invalid(self):
        matrix = np.eye(3) * 2.0
        assert not is_valid_correlation_matrix(matrix)

    def test_indefinite_invalid(self):
        matrix = np.array(
            [[1.0, 0.9, -0.9], [0.9, 1.0, 0.9], [-0.9, 0.9, 1.0]]
        )
        assert not is_valid_correlation_matrix(matrix)

    def test_non_square_invalid(self):
        assert not is_valid_correlation_matrix(np.zeros((2, 3)))


class TestNearestCorrelationMatrix:
    def test_repairs_indefinite_matrix(self):
        matrix = np.array(
            [[1.0, 0.9, -0.9], [0.9, 1.0, 0.9], [-0.9, 0.9, 1.0]]
        )
        repaired = nearest_correlation_matrix(matrix)
        assert is_valid_correlation_matrix(repaired, tolerance=1e-6)

    def test_valid_matrix_unchanged(self):
        matrix = np.array([[1.0, 0.3], [0.3, 1.0]])
        repaired = nearest_correlation_matrix(matrix)
        assert np.allclose(repaired, matrix, atol=1e-8)

    def test_stays_close_to_input(self, rng):
        raw = random_correlation_matrix(
            8, UniformCorrelations(-0.5, 0.9), rng, repair=False
        )
        repaired = nearest_correlation_matrix(raw)
        assert is_valid_correlation_matrix(repaired, tolerance=1e-6)
        assert np.max(np.abs(repaired - raw)) < 0.6

    def test_rejects_non_square(self):
        with pytest.raises(GenerationError):
            nearest_correlation_matrix(np.zeros((2, 3)))


class TestRandomCorrelationMatrix:
    def test_output_is_valid(self, rng):
        matrix = random_correlation_matrix(12, UniformCorrelations(-0.3, 0.8), rng)
        assert matrix.shape == (12, 12)
        assert is_valid_correlation_matrix(matrix, tolerance=1e-6)

    def test_unrepaired_draw_keeps_samples(self, rng):
        matrix = random_correlation_matrix(
            6, UniformCorrelations(0.2, 0.2), rng, repair=False
        )
        off_diagonal = matrix[np.triu_indices(6, k=1)]
        assert np.allclose(off_diagonal, 0.2)

    def test_too_few_series_rejected(self, rng):
        with pytest.raises(GenerationError):
            random_correlation_matrix(1, UniformCorrelations(), rng)


class TestStructuredTargets:
    def test_block_matrix_structure(self):
        matrix = block_correlation_matrix([3, 2], within=0.7, between=0.1)
        assert matrix.shape == (5, 5)
        assert matrix[0, 1] == pytest.approx(0.7, abs=1e-6) or is_valid_correlation_matrix(matrix)
        assert matrix[0, 4] <= 0.2
        assert is_valid_correlation_matrix(matrix, tolerance=1e-6)

    def test_block_matrix_validation(self):
        with pytest.raises(GenerationError):
            block_correlation_matrix([])
        with pytest.raises(GenerationError):
            block_correlation_matrix([2, 3], within=1.5)

    def test_valid_block_matrix_keeps_exact_values(self):
        matrix = block_correlation_matrix([3, 2], within=0.7, between=0.1)
        expected = np.full((5, 5), 0.1)
        expected[:3, :3] = 0.7
        expected[3:, 3:] = 0.7
        np.fill_diagonal(expected, 1.0)
        assert np.array_equal(matrix, expected)

    def test_singleton_blocks_are_all_between(self):
        matrix = block_correlation_matrix([1, 1, 1], within=0.9, between=0.3)
        assert np.array_equal(matrix[np.triu_indices(3, k=1)], [0.3, 0.3, 0.3])

    def test_indefinite_block_is_repaired(self):
        # Three series cannot all correlate at -0.9 (the floor is -1/2).
        matrix = block_correlation_matrix([3], within=-0.9)
        assert is_valid_correlation_matrix(matrix, tolerance=1e-6)
        assert np.all(matrix[np.triu_indices(3, k=1)] < 0)


class TestTargetProperties:
    def test_entries_outside_unit_interval_invalid(self):
        assert not is_valid_correlation_matrix(np.array([[1.0, 1.5], [1.5, 1.0]]))

    def test_repair_is_idempotent(self):
        indefinite = np.array([[1.0, 0.9, -0.9], [0.9, 1.0, 0.9], [-0.9, 0.9, 1.0]])
        once = nearest_correlation_matrix(indefinite)
        twice = nearest_correlation_matrix(once)
        assert np.allclose(once, once.T)
        assert np.allclose(twice, once, atol=1e-8)

    def test_random_matrix_reproducible_from_seed(self):
        dist = UniformCorrelations(-0.5, 0.5)
        first = random_correlation_matrix(6, dist, np.random.default_rng(4))
        second = random_correlation_matrix(6, dist, np.random.default_rng(4))
        assert np.array_equal(first, second)
