"""Unit tests for fingerprint chaining and O(Δ) sketch extension.

The chain lets an append-only stream re-key its cached sketches under the
grown matrix's digest without re-hashing history, and lets the cache refresh
a sketch by extending a cached prefix with only the appended basic windows
(``SketchCache.get_or_extend``) — bit-identical to a scratch build.
"""

import numpy as np
import pytest

from repro.core.basic_window import BasicWindowLayout
from repro.core.sketch import BasicWindowSketch
from repro.exceptions import StorageError
from repro.experiments.jumping import correlation_prefix
from repro.storage.cache import SketchCache, matrix_fingerprint
from repro.timeseries.matrix import TimeSeriesMatrix


def grown(matrix: TimeSeriesMatrix, columns: np.ndarray) -> TimeSeriesMatrix:
    return TimeSeriesMatrix(
        np.concatenate([matrix.values, columns], axis=1),
        series_ids=list(matrix.series_ids),
        time_axis=matrix.time_axis,
    )


@pytest.fixture
def matrix(ar1_matrix):
    return ar1_matrix(6, 256, coefficient=0.8, shared_weight=0.5, seed=3)


@pytest.fixture
def delta():
    rng = np.random.default_rng(11)
    return rng.normal(size=(6, 64))


class TestFingerprintChain:
    def test_chained_fingerprint_matches_scratch_hash(self, matrix, delta):
        cache = SketchCache()
        cache.get_or_build(matrix, BasicWindowLayout.for_range(0, 256, 32))
        fingerprint = cache.extend_chain(matrix, delta)
        assert fingerprint == matrix_fingerprint(grown(matrix, delta))

    def test_chain_survives_multiple_appends(self, matrix):
        rng = np.random.default_rng(4)
        cache = SketchCache()
        cache.get_or_build(matrix, BasicWindowLayout.for_range(0, 256, 32))
        current = matrix
        for step in (1, 7, 32, 64):  # including sub-window batches
            columns = rng.normal(size=(6, step))
            fingerprint = cache.extend_chain(current, columns)
            current = grown(current, columns)
            cache.adopt_fingerprint(current, fingerprint)
            assert fingerprint == matrix_fingerprint(
                TimeSeriesMatrix(
                    current.values.copy(),
                    series_ids=list(current.series_ids),
                    time_axis=current.time_axis,
                )
            )

    def test_entries_move_to_the_grown_fingerprint(self, matrix, delta):
        cache = SketchCache()
        layout = BasicWindowLayout.for_range(0, 256, 32)
        cache.get_or_build(matrix, layout)
        fingerprint = cache.extend_chain(matrix, delta)
        bigger = grown(matrix, delta)
        cache.adopt_fingerprint(bigger, fingerprint)
        # The old-range sketch is still served, now keyed under the grown
        # matrix's digest: same offset/size/count covers the same columns.
        assert cache.contains(bigger, layout)
        assert cache.get_or_build(bigger, layout).layout == layout
        assert cache.stats.hits == 1 and cache.builds == 1

    def test_append_shape_mismatch_raises(self, matrix):
        cache = SketchCache()
        cache.get_or_build(matrix, BasicWindowLayout.for_range(0, 256, 32))
        with pytest.raises(StorageError, match="columns"):
            cache.extend_chain(matrix, np.zeros((5, 4)))
        with pytest.raises(StorageError, match="columns"):
            cache.extend_chain(matrix, np.zeros(6))

    def test_has_chain_is_per_content(self, matrix, delta):
        cache = SketchCache()
        assert not cache.has_chain(matrix)
        cache.get_or_build(matrix, BasicWindowLayout.for_range(0, 256, 32))
        fingerprint = cache.extend_chain(matrix, delta)
        bigger = grown(matrix, delta)
        cache.adopt_fingerprint(bigger, fingerprint)
        assert cache.has_chain(bigger)
        assert not cache.has_chain(matrix)  # the chain moved to the new digest


class TestExtensionCoverage:
    def test_prefix_coverage_reported(self, matrix, delta):
        cache = SketchCache()
        cache.get_or_build(matrix, BasicWindowLayout.for_range(0, 256, 32))
        fingerprint = cache.extend_chain(matrix, delta)
        bigger = grown(matrix, delta)
        cache.adopt_fingerprint(bigger, fingerprint)
        layout = BasicWindowLayout.for_range(0, 320, 32)
        assert cache.extension_coverage(bigger, layout) == 8

    def test_exact_hit_reports_full_coverage(self, matrix):
        cache = SketchCache()
        layout = BasicWindowLayout.for_range(0, 256, 32)
        cache.get_or_build(matrix, layout)
        # An exact cached entry is full coverage: nothing needs extending.
        assert cache.extension_coverage(matrix, layout) == layout.count

    def test_cold_cache_reports_no_coverage(self, matrix):
        cache = SketchCache()
        layout = BasicWindowLayout.for_range(0, 256, 32)
        assert cache.extension_coverage(matrix, layout) is None

    def test_no_coverage_without_prefix_entry(self, matrix, delta):
        cache = SketchCache()
        cache.get_or_build(matrix, BasicWindowLayout.for_range(0, 256, 32))
        fingerprint = cache.extend_chain(matrix, delta)
        bigger = grown(matrix, delta)
        cache.adopt_fingerprint(bigger, fingerprint)
        # Different window size: the cached prefix does not apply.
        assert cache.extension_coverage(bigger, BasicWindowLayout.for_range(0, 320, 16)) is None
        # Different offset: not a prefix of this layout.
        assert cache.extension_coverage(bigger, BasicWindowLayout.for_range(32, 320, 32)) is None

    def test_coverage_probe_has_no_side_effects(self, matrix, delta):
        cache = SketchCache()
        cache.get_or_build(matrix, BasicWindowLayout.for_range(0, 256, 32))
        fingerprint = cache.extend_chain(matrix, delta)
        bigger = grown(matrix, delta)
        cache.adopt_fingerprint(bigger, fingerprint)
        before = (cache.stats.hits, cache.stats.misses, cache.builds)
        cache.extension_coverage(bigger, BasicWindowLayout.for_range(0, 320, 32))
        assert (cache.stats.hits, cache.stats.misses, cache.builds) == before


class TestGetOrExtend:
    def test_extension_is_bit_identical_to_scratch_build(self, matrix, delta):
        cache = SketchCache()
        cache.get_or_build(matrix, BasicWindowLayout.for_range(0, 256, 32))
        fingerprint = cache.extend_chain(matrix, delta)
        bigger = grown(matrix, delta)
        cache.adopt_fingerprint(bigger, fingerprint)
        layout = BasicWindowLayout.for_range(0, 320, 32)
        extended = cache.get_or_extend(bigger, layout)
        scratch = BasicWindowSketch.build(bigger.values, layout)
        assert extended.series_sums.tobytes() == scratch.series_sums.tobytes()
        assert extended.series_sumsqs.tobytes() == scratch.series_sumsqs.tobytes()
        assert extended.pair_sumprods.tobytes() == scratch.pair_sumprods.tobytes()
        assert correlation_prefix(extended).tobytes() == correlation_prefix(scratch).tobytes()

    def test_extension_counts_stats_not_builds(self, matrix, delta):
        cache = SketchCache()
        cache.get_or_build(matrix, BasicWindowLayout.for_range(0, 256, 32))
        fingerprint = cache.extend_chain(matrix, delta)
        bigger = grown(matrix, delta)
        cache.adopt_fingerprint(bigger, fingerprint)
        cache.get_or_extend(bigger, BasicWindowLayout.for_range(0, 320, 32))
        assert cache.builds == 1  # only the original scratch build
        assert cache.stats.sketch_extensions == 1
        assert cache.stats.extended_windows == 2

    def test_second_request_hits_the_extended_entry(self, matrix, delta):
        cache = SketchCache()
        cache.get_or_build(matrix, BasicWindowLayout.for_range(0, 256, 32))
        fingerprint = cache.extend_chain(matrix, delta)
        bigger = grown(matrix, delta)
        cache.adopt_fingerprint(bigger, fingerprint)
        layout = BasicWindowLayout.for_range(0, 320, 32)
        first = cache.get_or_extend(bigger, layout)
        second = cache.get_or_extend(bigger, layout)
        assert first is second
        assert cache.stats.sketch_extensions == 1

    @pytest.mark.parametrize("budget", [None, 4096])
    def test_falls_back_to_build_without_chain(self, matrix, budget):
        # A budget makes the fallback the tiled build: same bits as dense.
        cache = SketchCache()
        layout = BasicWindowLayout.for_range(0, 256, 32)
        sketch = cache.get_or_extend(matrix, layout, memory_budget=budget)
        scratch = BasicWindowSketch.build(matrix.values, layout)
        assert cache.builds == 1 and cache.stats.sketch_extensions == 0
        assert sketch.layout == layout
        assert sketch.pair_sumprods.tobytes() == scratch.pair_sumprods.tobytes()

    def test_sub_window_appends_extend_once_enough_columns_accumulate(self, matrix):
        rng = np.random.default_rng(8)
        cache = SketchCache()
        cache.get_or_build(matrix, BasicWindowLayout.for_range(0, 256, 32))
        current = matrix
        for _ in range(5):  # 5 x 13 = 65 columns -> 2 new basic windows
            columns = rng.normal(size=(6, 13))
            fingerprint = cache.extend_chain(current, columns)
            current = grown(current, columns)
            cache.adopt_fingerprint(current, fingerprint)
        layout = BasicWindowLayout.for_range(0, current.length, 32)
        assert layout.count == 10
        extended = cache.get_or_extend(current, layout)
        scratch = BasicWindowSketch.build(current.values, layout)
        assert correlation_prefix(extended).tobytes() == correlation_prefix(scratch).tobytes()
        assert cache.stats.extended_windows == 2

    def test_extension_coverage_predicts_what_get_or_extend_does(self, matrix, delta):
        """The planner's build rule reads ``extension_coverage``; the fetch
        is ``get_or_extend``.  Coverage of the whole layout means a hit, of
        a prefix an extension, ``None`` a build — never anything else."""
        cache = SketchCache()
        cache.get_or_build(matrix, BasicWindowLayout.for_range(0, 256, 32))
        fingerprint = cache.extend_chain(matrix, delta)
        bigger = grown(matrix, delta)
        cache.adopt_fingerprint(bigger, fingerprint)
        cases = (
            (BasicWindowLayout.for_range(0, 320, 32), 8, "extension"),
            (BasicWindowLayout.for_range(0, 320, 32), 10, "hit"),
            (BasicWindowLayout.for_range(0, 320, 16), None, "build"),
        )
        for layout, coverage, outcome in cases:
            assert cache.extension_coverage(bigger, layout) == coverage
            before = (cache.stats.hits, cache.stats.sketch_extensions, cache.builds)
            cache.get_or_extend(bigger, layout)
            after = (cache.stats.hits, cache.stats.sketch_extensions, cache.builds)
            moved = {
                "hit": (1, 0, 0), "extension": (0, 1, 0), "build": (0, 0, 1)
            }[outcome]
            assert tuple(b - a for a, b in zip(before, after)) == moved, outcome

    def test_clear_drops_chains(self, matrix, delta):
        cache = SketchCache()
        cache.get_or_build(matrix, BasicWindowLayout.for_range(0, 256, 32))
        fingerprint = cache.extend_chain(matrix, delta)
        bigger = grown(matrix, delta)
        cache.adopt_fingerprint(bigger, fingerprint)
        cache.clear()
        assert not cache.has_chain(bigger)
