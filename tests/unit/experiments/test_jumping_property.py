"""Property-based tests for the Eq. 2 temporal bound.

The bound is monotone in the number of outgoing windows and must agree with
the scalar reference implementation for any inputs.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.jumping import (
    first_possible_crossing,
    max_skippable_steps_scalar,
    temporal_upper_bound,
)


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
