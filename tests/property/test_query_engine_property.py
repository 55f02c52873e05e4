"""Property-based tests for query enumeration and engine agreement.

The strongest invariant in the repository: for *any* valid aligned query over
*any* data, Dangoron without pruning, TSUBASA and brute force must produce
identical edge sets (they are all exact), and Dangoron with pruning must never
report a false edge (precision 1) regardless of the data distribution.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.accuracy import compare_results
from repro.baselines.brute_force import BruteForceEngine
from repro.baselines.tsubasa import TsubasaEngine
from repro.core.dangoron import DangoronEngine
from repro.core.query import SlidingQuery
from repro.experiments.jumping import JumpingEngine
from repro.timeseries.matrix import TimeSeriesMatrix


@st.composite
def aligned_query_case(draw):
    """Random data plus a random query aligned to a random basic-window size."""
    seed = draw(st.integers(min_value=0, max_value=10_000_000))
    num_series = draw(st.integers(min_value=2, max_value=8))
    basic = draw(st.sampled_from([4, 8, 16]))
    window_bw = draw(st.integers(min_value=2, max_value=6))
    step_bw = draw(st.integers(min_value=1, max_value=4))
    num_windows = draw(st.integers(min_value=1, max_value=8))
    window = basic * window_bw
    step = basic * step_bw
    length = window + step * (num_windows - 1)
    threshold = draw(st.sampled_from([0.3, 0.6, 0.8, 0.95]))
    rng = np.random.default_rng(seed)
    # Mix of independent noise and a shared component so that some, but not
    # all, pairs cross interesting thresholds.
    shared = rng.normal(size=length)
    weights = rng.uniform(0, 1, size=num_series)
    values = (
        weights[:, None] * shared[None, :]
        + rng.normal(size=(num_series, length))
    )
    matrix = TimeSeriesMatrix(values)
    query = SlidingQuery(
        start=0, end=length, window=window, step=step, threshold=threshold
    )
    return matrix, query, basic


@given(aligned_query_case())
@settings(max_examples=25, deadline=None)
def test_exact_engines_agree(case):
    matrix, query, basic = case
    exact = BruteForceEngine().run(matrix, query)
    tsubasa = TsubasaEngine(basic_window_size=basic).run(matrix, query)
    unpruned = DangoronEngine(basic_window_size=basic).run(matrix, query)
    for reference, candidate in ((exact, tsubasa), (exact, unpruned)):
        for a, b in zip(reference, candidate):
            assert a.edge_set() == b.edge_set()


@given(aligned_query_case())
@settings(max_examples=25, deadline=None)
def test_pruned_dangoron_never_reports_false_edges(case):
    matrix, query, basic = case
    exact = BruteForceEngine().run(matrix, query)
    pruned = JumpingEngine(basic_window_size=basic).run(matrix, query)
    report = compare_results(pruned, exact)
    assert report.precision == 1.0
    assert report.value_max_error < 1e-7


@given(aligned_query_case())
@settings(max_examples=25, deadline=None)
def test_window_enumeration_consistency(case):
    matrix, query, _ = case
    starts = query.window_starts()
    assert len(starts) == query.num_windows
    assert starts[-1] + query.window <= query.end
    if query.num_windows > 1:
        assert np.all(np.diff(starts) == query.step)
    # Every enumerated window fits inside the matrix.
    for _, begin, end in query.iter_windows():
        assert 0 <= begin < end <= matrix.length
