"""Unit tests for the matrix fingerprint (repro.storage.cache)."""

from repro.storage.cache import matrix_fingerprint


class TestFingerprints:
    def test_matrix_fingerprint_stable_and_content_sensitive(self, small_matrix):
        first = matrix_fingerprint(small_matrix)
        second = matrix_fingerprint(small_matrix)
        assert first == second
        perturbed = small_matrix.with_values(small_matrix.values + 1e-9)
        assert matrix_fingerprint(perturbed) != first
