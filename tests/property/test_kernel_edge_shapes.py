"""The statistics kernel and the grid at the shapes where row blocks are cut.

``repro.core.sketch._window_statistics`` multiplies fixed blocks of
``_BUILD_ROW_BLOCK`` (B) series against the series at or right of each
block.  The shapes where that blocking changes are one and two series (no
pair row, one pair row), one block minus one, exactly one block and one
block plus one, and sizes where its bits differ from a full ``x @ x.T``
(257 and 300).  At each, a build, a build extended at a cut and a tiled
build hold the same bits; the grid answers a pair subset exactly as it
answers those pairs within the whole triangle, though its filter blocks hold
other pairs; and every engine, registered or experiment, answers one and
two series.

The products are BLAS calls, so the identity holds for one BLAS build and
thread count; CI's ``blas-threads`` job runs this file at one and at two.
"""

import numpy as np
import pytest

from repro.core import sketch as sketch_module
from repro.core.basic_window import BasicWindowLayout
from repro.core.engine import available_engines, create_engine, engine_options
from repro.core.query import SlidingQuery
from repro.core.sketch import BasicWindowSketch
from repro.core.tiled import build_sketch_tiled
from repro.experiments.approximate import ParCorrEngine, StatStreamEngine
from repro.storage.chunk_store import ChunkStore
from repro.timeseries.matrix import TimeSeriesMatrix

B = sketch_module._BUILD_ROW_BLOCK
SHAPES = [1, 2, B - 1, B, B + 1, 257, 300]
SIZE, COUNT = 8, 6
STATISTICS = ("series_sums", "series_sumsqs", "pair_sumprods")


def walks(num_series, length, seed):
    """Correlated random walks, so the grid has edges to find."""
    rng = np.random.default_rng(seed)
    base = rng.standard_normal(length).cumsum()
    return base + rng.standard_normal((num_series, length)).cumsum(axis=1)


@pytest.mark.parametrize("num_series", SHAPES)
def test_build_extend_and_tiled_give_the_same_bits(num_series):
    values = walks(num_series, SIZE * COUNT, seed=num_series)
    layout = BasicWindowLayout(offset=0, size=SIZE, count=COUNT)
    built = BasicWindowSketch.build(values, layout)
    assert built.pair_sumprods.shape == (num_series * (num_series - 1) // 2, COUNT)

    extended = BasicWindowSketch.build(values, BasicWindowLayout(0, SIZE, 2))
    extended = extended.extend(values[:, 2 * SIZE : 5 * SIZE]).extend(values[:, 5 * SIZE :])

    store = ChunkStore(num_series=num_series, chunk_columns=SIZE + 3)
    store.append(values)
    tiled = build_sketch_tiled(store, layout, memory_budget=num_series * SIZE * 8 * 4)

    for other in (extended, tiled):
        for name in STATISTICS:
            assert getattr(other, name).tobytes() == getattr(built, name).tobytes(), name


@pytest.mark.parametrize("num_series", SHAPES)
def test_a_gathered_pair_subset_grids_like_the_whole_triangle(num_series):
    values = walks(num_series, SIZE * COUNT, seed=100 + num_series)
    sketch = BasicWindowSketch.build(values, BasicWindowLayout(0, SIZE, COUNT))
    query = SlidingQuery(0, SIZE * COUNT, 3 * SIZE, SIZE, 0.3)
    rows, cols = np.triu_indices(num_series, k=1)
    whole, _ = sketch.exact_pairs_grid(rows, cols, query)
    assert len(whole) == query.num_windows

    picked = np.random.default_rng(num_series).random(len(rows)) < 0.5
    subset, _ = sketch.exact_pairs_grid(rows[picked], cols[picked], query)
    chosen = set(zip(rows[picked].tolist(), cols[picked].tolist()))
    for (i, j, v), (si, sj, sv) in zip(whole, subset):
        inside = np.array(
            [(a, b) in chosen for a, b in zip(i.tolist(), j.tolist())], dtype=bool
        )
        assert si.tobytes() == i[inside].tobytes()
        assert sj.tobytes() == j[inside].tobytes()
        assert sv.tobytes() == v[inside].tobytes()


def _registered(name):
    options = {"basic_window_size": 16} if "basic_window_size" in engine_options(name) else {}
    return lambda: create_engine(name, **options)


ENGINES = {name: _registered(name) for name in available_engines()}
ENGINES.update(parcorr=ParCorrEngine, statstream=StatStreamEngine)


@pytest.mark.parametrize("num_series", [1, 2])
@pytest.mark.parametrize("name", sorted(ENGINES))
def test_every_engine_answers_one_and_two_series(name, num_series):
    values = walks(num_series, 96, seed=7)
    matrix = TimeSeriesMatrix(values)
    query = SlidingQuery(0, 96, 32, 16, -1.0)
    result = ENGINES[name]().run(matrix, query)
    assert result.num_windows == query.num_windows
    for window in result.matrices:
        assert len(window.rows) <= num_series * (num_series - 1) // 2
        assert np.all(window.rows < window.cols)
