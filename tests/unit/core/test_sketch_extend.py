"""Unit tests for O(Δ) sketch extension (BasicWindowSketch.extend).

Appending whole basic windows must produce a sketch bit-identical to
rebuilding from the concatenated values: the delta windows' statistics come
from the same dense element-wise operations as a scratch build, and prefix
sums over identical concatenated inputs give identical prefixes.
"""

import numpy as np
import pytest

from repro.core.basic_window import BasicWindowLayout
from repro.core.sketch import BasicWindowSketch
from repro.exceptions import SketchError
from repro.experiments.jumping import correlation_prefix


@pytest.fixture
def rng():
    return np.random.default_rng(21)


@pytest.fixture
def base_values(rng):
    return rng.normal(size=(5, 192))


def test_extend_matches_scratch_build(rng, base_values):
    layout = BasicWindowLayout.for_range(0, 192, 32)
    base = BasicWindowSketch.build(base_values, layout)
    delta = rng.normal(size=(5, 96))  # 3 more basic windows
    extended = base.extend(delta)
    scratch = BasicWindowSketch.build(
        np.concatenate([base_values, delta], axis=1),
        BasicWindowLayout.for_range(0, 288, 32),
    )
    assert extended.layout == scratch.layout
    assert extended.series_sums.tobytes() == scratch.series_sums.tobytes()
    assert extended.series_sumsqs.tobytes() == scratch.series_sumsqs.tobytes()
    assert extended.pair_sumprods.tobytes() == scratch.pair_sumprods.tobytes()
    assert correlation_prefix(extended).tobytes() == correlation_prefix(scratch).tobytes()


def test_extend_without_pairwise_stats(rng, base_values):
    layout = BasicWindowLayout.for_range(0, 192, 32)
    base = BasicWindowSketch.build(base_values, layout, pairwise=False)
    delta = rng.normal(size=(5, 64))
    extended = base.extend(delta)
    scratch = BasicWindowSketch.build(
        np.concatenate([base_values, delta], axis=1),
        BasicWindowLayout.for_range(0, 256, 32),
        pairwise=False,
    )
    assert not extended.has_pairwise
    assert extended.series_sums.tobytes() == scratch.series_sums.tobytes()
    assert extended.series_sumsqs.tobytes() == scratch.series_sumsqs.tobytes()


def test_extend_leaves_base_untouched(rng, base_values):
    layout = BasicWindowLayout.for_range(0, 192, 32)
    base = BasicWindowSketch.build(base_values, layout)
    before = base.pair_sumprods.copy()
    prefix = correlation_prefix(base).copy()
    base.extend(rng.normal(size=(5, 32)))
    np.testing.assert_array_equal(base.pair_sumprods, before)
    np.testing.assert_array_equal(correlation_prefix(base), prefix)
    assert base.layout == layout


def test_extend_repeatedly(rng, base_values):
    layout = BasicWindowLayout.for_range(0, 192, 32)
    sketch = BasicWindowSketch.build(base_values, layout)
    pieces = [base_values]
    for _ in range(3):
        delta = rng.normal(size=(5, 32))
        pieces.append(delta)
        sketch = sketch.extend(delta)
    scratch = BasicWindowSketch.build(
        np.concatenate(pieces, axis=1),
        BasicWindowLayout.for_range(0, 192 + 3 * 32, 32),
    )
    assert sketch.pair_sumprods.tobytes() == scratch.pair_sumprods.tobytes()
    assert correlation_prefix(sketch).tobytes() == correlation_prefix(scratch).tobytes()


def test_extend_works_with_offset_layout(rng):
    values = rng.normal(size=(4, 200))
    layout = BasicWindowLayout.for_range(8, 200, 32)  # offset 8, 6 windows
    base = BasicWindowSketch.build(values, layout)
    delta = rng.normal(size=(4, 32))
    extended = base.extend(delta)
    scratch = BasicWindowSketch.build(
        np.concatenate([values, delta], axis=1),
        BasicWindowLayout(offset=8, size=32, count=7),
    )
    assert extended.pair_sumprods.tobytes() == scratch.pair_sumprods.tobytes()
    assert correlation_prefix(extended).tobytes() == correlation_prefix(scratch).tobytes()


def test_extend_rejects_bad_shapes(rng, base_values):
    base = BasicWindowSketch.build(
        base_values, BasicWindowLayout.for_range(0, 192, 32)
    )
    with pytest.raises(SketchError):
        base.extend(rng.normal(size=(5, 33)))  # not a multiple of the size
    with pytest.raises(SketchError):
        base.extend(rng.normal(size=(5, 0)))  # nothing to extend with
    with pytest.raises(SketchError):
        base.extend(rng.normal(size=(4, 32)))  # wrong series count
    with pytest.raises(SketchError):
        base.extend(rng.normal(size=(5, 32, 1)))  # wrong rank
