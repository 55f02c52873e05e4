"""Property-based tests for the triangle (horizontal) bound.

The bound is a theorem about any three real vectors: it must contain the
true correlation for *every* input, so hypothesis can hammer it with
arbitrary data.  (The Eq. 2 temporal bound's properties live with the
jumping experiment, ``tests/unit/experiments/test_jumping_property.py``.)
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.correlation import correlation_matrix
from repro.experiments.horizontal import triangle_bounds


@given(st.integers(min_value=0, max_value=10_000_000), st.integers(4, 64))
@settings(max_examples=80, deadline=None)
def test_triangle_bound_contains_true_correlation(seed, length):
    rng = np.random.default_rng(seed)
    data = rng.normal(size=(3, length))
    # Mix the rows so interesting (non-trivial) correlations appear often.
    mix = rng.normal(size=(3, 3))
    data = mix @ data
    corr = correlation_matrix(data)
    lower, upper = triangle_bounds(corr[0, 2], corr[1, 2])
    assert lower - 1e-7 <= corr[0, 1] <= upper + 1e-7


@given(st.integers(min_value=0, max_value=10_000_000))
@settings(max_examples=30, deadline=None)
def test_triangle_bounds_are_valid_intervals(seed):
    rng = np.random.default_rng(seed)
    a = rng.uniform(-1, 1, size=20)
    b = rng.uniform(-1, 1, size=20)
    lower, upper = triangle_bounds(a, b)
    assert np.all(lower <= upper + 1e-12)
    assert np.all(lower >= -1 - 1e-12)
    assert np.all(upper <= 1 + 1e-12)
