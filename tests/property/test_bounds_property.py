"""Property-based tests for the correlation bounds.

* The triangle (horizontal) bound is a theorem about any three real vectors:
  it must contain the true correlation for *every* input, so hypothesis can
  hammer it with arbitrary data.
* The Eq. 2 temporal bound is monotone in the number of outgoing windows and
  must agree with the scalar reference implementation for any inputs.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bounds import (
    first_possible_crossing,
    max_skippable_steps_scalar,
    temporal_upper_bound,
    triangle_bounds,
)
from repro.core.correlation import correlation_matrix


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


@given(
    st.floats(-1, 1),
    st.lists(st.floats(-1, 1), min_size=1, max_size=30),
    st.integers(1, 64),
)
@settings(max_examples=80, deadline=None)
def test_temporal_bound_monotone_in_steps(corr_now, outgoing, num_basic_windows):
    running = 0.0
    previous = -np.inf
    for steps, c in enumerate(outgoing, start=1):
        running += c
        bound = temporal_upper_bound(corr_now, steps, running, num_basic_windows)
        assert bound >= previous - 1e-12
        previous = bound


@given(
    st.floats(-0.99, 0.99),
    st.floats(-0.5, 0.99),
    st.lists(st.floats(-1, 1), min_size=2, max_size=20),
    st.integers(2, 16),
)
@settings(max_examples=60, deadline=None)
def test_vectorized_crossing_matches_scalar_reference(corr_now, beta, outgoing, ns):
    """first_possible_crossing with step_bw=1 must equal the scalar loop."""
    outgoing_arr = np.asarray(outgoing)
    max_steps = len(outgoing_arr)
    # Build a fake prefix for two series: pair (0, 1) is packed row 1.
    prefix = np.zeros((3, max_steps + 1))
    prefix[1, 1:] = np.cumsum(outgoing_arr)
    expected = max_skippable_steps_scalar(corr_now, beta, outgoing_arr, ns)
    got = first_possible_crossing(
        np.array([corr_now]), beta, prefix, np.array([1]),
        bw_start=0, step_bw=1, num_basic_windows=ns, max_steps=max_steps,
    )
    assert got[0] == expected


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
