"""The oracle against a hand-computed four-series case."""

import numpy as np
import pytest

from perf import oracle

# One window of four points.  Centred x = [-1.5, -.5, .5, 1.5]; y is
# orthogonal to it, so by hand:
#   corr(x, 2x+1) = 1, corr(x, -x) = -1, corr(x, y) = 0,
#   corr(2x+1, -x) = -1, corr(2x+1, y) = 0, corr(-x, y) = 0.
X = np.array([1.0, 2.0, 3.0, 4.0])
Y = np.array([1.0, -1.0, -1.0, 1.0])
WINDOW = np.stack([X, 2 * X + 1, -X, Y])
BY_HAND = np.array(
    [
        [1.0, 1.0, -1.0, 0.0],
        [1.0, 1.0, -1.0, 0.0],
        [-1.0, -1.0, 1.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
    ]
)


def test_correlation_matrix_matches_the_hand_computation():
    assert np.allclose(oracle.correlation_matrix(WINDOW), BY_HAND, atol=1e-12)


def test_window_reference_walks_the_grid():
    values = np.concatenate([WINDOW, WINDOW[:, ::-1]], axis=1)  # 8 columns
    reference = oracle.window_reference(values, window=4, step=2)
    assert reference.shape == (3, 4, 4)
    assert np.allclose(reference[0], BY_HAND, atol=1e-12)
    assert np.allclose(reference[2], BY_HAND, atol=1e-12)  # reversing time keeps Pearson
    assert oracle.grid_slice(reference, 2, 8, 4, 2).shape[0] == 2


def _answer(pairs):
    rows = np.array([p[0] for p in pairs], dtype=np.int64)
    cols = np.array([p[1] for p in pairs], dtype=np.int64)
    values = np.array([p[2] for p in pairs], dtype=np.float64)
    return [(rows, cols, values)]


def test_threshold_precision_and_recall():
    reference = BY_HAND[None]
    # At beta 0.5 the only edge is (0, 1).
    full = oracle.check_threshold(_answer([(0, 1, 1.0)]), reference, 0.5)
    assert full.ok and (full.reference_edges, full.recalled_edges) == (1, 1)
    # A heuristic may miss it: still precise, recall 0.
    missed = oracle.check_threshold(_answer([]), reference, 0.5)
    assert missed.ok and (missed.reference_edges, missed.recalled_edges) == (1, 0)
    assert oracle.recall([full, missed]) == 0.5
    # Precision must be 1.0: a pair below the threshold, or a wrong value, is wrong.
    assert not oracle.check_threshold(_answer([(0, 1, 1.0), (0, 3, 0.0)]), reference, 0.5).ok
    assert not oracle.check_threshold(_answer([(0, 1, 0.9)]), reference, 0.5).ok
    assert not oracle.check_threshold(_answer([(1, 0, 1.0)]), reference, 0.5).ok
    assert not oracle.check_threshold([], reference, 0.5).ok


def test_topk_is_the_k_largest_best_first():
    reference = BY_HAND[None]
    # Upper-triangle values by hand: 1, -1, 0, -1, 0, 0 -> top 2 are 1 and a 0.
    assert oracle.check_topk(_answer([(0, 1, 1.0), (0, 3, 0.0)]), reference, 2).ok
    assert not oracle.check_topk(_answer([(0, 3, 0.0), (0, 1, 1.0)]), reference, 2).ok
    assert not oracle.check_topk(_answer([(0, 1, 1.0), (0, 2, -1.0)]), reference, 2).ok
    assert not oracle.check_topk(_answer([(0, 1, 1.0)]), reference, 2).ok


def test_lag_reference_by_hand():
    # b is a delayed by one step: corr(a[t], b[t+1]) is exactly 1.
    a = np.array([0.0, 1.0, 0.0, -1.0, 0.0, 2.0, 0.0])
    b = np.concatenate([[5.0], a[:-1]])
    ref = oracle.lag_reference(np.stack([a, b]), max_lag=1)
    assert ref.shape == (3, 2, 2)
    assert ref[2, 0, 1] == pytest.approx(1.0)      # lag +1: a leads b
    assert ref[0, 1, 0] == pytest.approx(1.0)      # seen from b: lag -1
    assert ref[1, 0, 1] == pytest.approx(np.corrcoef(a, b)[0, 1])
    best_corr = ref.max(axis=0)
    best_lag = ref.argmax(axis=0) - 1
    assert oracle.check_lagged([(best_corr, best_lag)], [np.stack([a, b])], 1).ok
    assert not oracle.check_lagged([(best_corr, np.zeros_like(best_lag))], [np.stack([a, b])], 1).ok
