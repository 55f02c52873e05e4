"""Unit tests for the significance threshold (repro.analysis.significance)."""

import math

import numpy as np
import pytest
from scipy import stats

from repro.analysis.significance import significance_threshold
from repro.exceptions import QueryValidationError


class TestThreshold:
    def test_threshold_is_exactly_significant(self):
        n = 120
        threshold = significance_threshold(n, alpha=0.05)
        t = threshold * math.sqrt((n - 2) / (1.0 - threshold**2))
        assert 2.0 * stats.t.sf(t, n - 2) == pytest.approx(0.05, abs=1e-9)

    def test_bonferroni_raises_threshold(self):
        plain = significance_threshold(120, alpha=0.05)
        corrected = significance_threshold(120, alpha=0.05, num_comparisons=1000)
        assert corrected > plain

    def test_threshold_shrinks_with_window_length(self):
        assert significance_threshold(1000) < significance_threshold(50)

    def test_parameter_validation(self):
        with pytest.raises(QueryValidationError):
            significance_threshold(100, alpha=0.0)
        with pytest.raises(QueryValidationError):
            significance_threshold(100, num_comparisons=0)
        with pytest.raises(QueryValidationError):
            significance_threshold(3)

    @pytest.mark.parametrize("n", [10, 64, 500])
    @pytest.mark.parametrize("alpha", [0.01, 0.1])
    def test_pearsonr_pvalue_at_threshold_equals_alpha(self, n, alpha):
        # Two series whose sample correlation is exactly the threshold.
        threshold = significance_threshold(n, alpha=alpha)
        rng = np.random.default_rng(n)
        a = rng.normal(size=n)
        b = rng.normal(size=n)
        a = (a - a.mean()) / np.linalg.norm(a - a.mean())
        b = b - b.mean() - (b - b.mean()) @ a * a
        b /= np.linalg.norm(b)
        y = threshold * a + math.sqrt(1.0 - threshold**2) * b
        r, p = stats.pearsonr(a, y)
        assert r == pytest.approx(threshold, abs=1e-12)
        assert p == pytest.approx(alpha, rel=1e-6)

    def test_bonferroni_equals_plain_threshold_at_divided_alpha(self):
        corrected = significance_threshold(200, alpha=0.05, num_comparisons=10)
        assert corrected == pytest.approx(significance_threshold(200, alpha=0.005))

    def test_threshold_shrinks_as_alpha_grows(self):
        values = [significance_threshold(80, alpha=a) for a in (0.001, 0.01, 0.1, 0.5)]
        assert all(0.0 < v < 1.0 for v in values)
        assert values == sorted(values, reverse=True)
