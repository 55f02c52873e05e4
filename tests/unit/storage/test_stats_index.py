"""Unit tests for the persisted basic-window statistics index."""

import numpy as np
import pytest

from repro.exceptions import StorageError
from repro.experiments.jumping import correlation_prefix
from repro.storage.stats_index import ARCHIVE_FORMAT, StatsIndex


class TestBuildAndQuery:
    def test_build_covers_complete_basic_windows(self, rng):
        data = rng.normal(size=(6, 100))
        index = StatsIndex.build(data, basic_window_size=16)
        assert index.layout.size == 16
        assert index.layout.count == 6
        assert index.covered_columns == 96
        assert index.num_series == 6
        assert index.memory_bytes() > 0

    def test_wrapped_sketch_answers_queries(self, rng):
        data = rng.normal(size=(5, 128))
        index = StatsIndex.build(data, basic_window_size=32)
        from repro.core.correlation import correlation_matrix

        rows, cols = np.triu_indices(5, k=1)
        expected = correlation_matrix(data[:, 0:64])[rows, cols]
        got = index.sketch.exact_pairs_scan(rows, cols, 0, 2)
        assert np.allclose(got, expected, atol=1e-9)

    def test_build_requires_2d(self, rng):
        with pytest.raises(StorageError):
            StatsIndex.build(rng.normal(size=50), basic_window_size=10)


class TestExtension:
    def test_extend_matches_full_rebuild(self, rng):
        data = rng.normal(size=(4, 160))
        incremental = StatsIndex.build(data[:, :64], basic_window_size=16)
        appended = incremental.extend(data[:, 64:160])
        assert appended == 6
        rebuilt = StatsIndex.build(data, basic_window_size=16)
        assert incremental.layout.count == rebuilt.layout.count
        assert np.allclose(
            incremental.sketch.series_sums, rebuilt.sketch.series_sums
        )
        assert np.allclose(
            incremental.sketch.pair_sumprods, rebuilt.sketch.pair_sumprods
        )
        rows, cols = np.triu_indices(4, k=1)
        assert np.allclose(
            incremental.sketch.exact_pairs_scan(rows, cols, 0, 10),
            rebuilt.sketch.exact_pairs_scan(rows, cols, 0, 10),
        )

    def test_extend_is_bitwise_a_rebuild(self, rng):
        """Growth goes through ``BasicWindowSketch.extend``: same bits as a
        build over everything, for every statistic."""
        data = rng.normal(size=(5, 200))
        index = StatsIndex.build(data[:, :50], basic_window_size=16)
        index.extend(data[:, 50:130], previous_tail=data[:, 48:50])
        index.extend(data[:, 130:200], previous_tail=data[:, 128:130])
        rebuilt = StatsIndex.build(data, basic_window_size=16)
        assert index.layout == rebuilt.layout
        for name in ("series_sums", "series_sumsqs", "pair_sumprods"):
            assert (
                getattr(index.sketch, name).tobytes()
                == getattr(rebuilt.sketch, name).tobytes()
            )
        assert (
            correlation_prefix(index.sketch).tobytes()
            == correlation_prefix(rebuilt.sketch).tobytes()
        )

    def test_extend_with_incomplete_window_appends_nothing(self, rng):
        index = StatsIndex.build(rng.normal(size=(3, 32)), basic_window_size=16)
        assert index.extend(rng.normal(size=(3, 10))) == 0
        assert index.layout.count == 2

    def test_extend_with_previous_tail(self, rng):
        data = rng.normal(size=(3, 64))
        index = StatsIndex.build(data[:, :32], basic_window_size=16)
        tail = data[:, 32:40]
        appended = index.extend(data[:, 40:64], previous_tail=tail)
        assert appended == 2
        rebuilt = StatsIndex.build(data, basic_window_size=16)
        assert np.allclose(index.sketch.series_sums, rebuilt.sketch.series_sums)

    def test_extend_shape_mismatch(self, rng):
        index = StatsIndex.build(rng.normal(size=(3, 32)), basic_window_size=16)
        with pytest.raises(StorageError):
            index.extend(rng.normal(size=(4, 16)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_extend_refuses_non_finite_columns(self, rng, bad):
        index = StatsIndex.build(rng.normal(size=(3, 32)), basic_window_size=16)
        sums = index.sketch.series_sums.copy()
        with pytest.raises(StorageError, match="finite"):
            index.extend(np.full((3, 16), bad))
        tail = rng.normal(size=(3, 8))
        tail[1, 2] = bad
        with pytest.raises(StorageError, match="finite"):
            index.extend(rng.normal(size=(3, 8)), previous_tail=tail)
        assert index.layout.count == 2
        assert np.array_equal(index.sketch.series_sums, sums)

    def test_extend_refuses_a_vector_next_to_a_tail(self, rng):
        index = StatsIndex.build(rng.normal(size=(3, 32)), basic_window_size=16)
        with pytest.raises(StorageError, match="shape"):
            index.extend(rng.normal(size=3), previous_tail=rng.normal(size=(3, 8)))
        assert index.layout.count == 2


class TestPersistence:
    def test_save_load_round_trip(self, rng, tmp_path):
        data = rng.normal(size=(4, 96))
        index = StatsIndex.build(data, basic_window_size=24)
        path = index.save(tmp_path / "stats.npz")
        loaded = StatsIndex.load(path)
        assert loaded.layout.size == 24
        assert loaded.layout.count == index.layout.count
        rows, cols = np.triu_indices(4, k=1)
        assert np.allclose(
            loaded.sketch.exact_pairs_scan(rows, cols, 0, 4),
            index.sketch.exact_pairs_scan(rows, cols, 0, 4),
        )

    def test_load_missing_or_foreign_file(self, tmp_path):
        with pytest.raises(StorageError):
            StatsIndex.load(tmp_path / "missing.npz")
        foreign = tmp_path / "foreign.npz"
        np.savez(foreign, unrelated=np.arange(4))
        with pytest.raises(StorageError):
            StatsIndex.load(foreign)

    def test_untagged_dense_archive_is_refused_by_name(self, rng, tmp_path):
        """An archive in the dense ``(count, N, N)`` format, which carries no
        format tag, is refused rather than misread as packed."""
        n, count, size = 4, 4, 24
        old = tmp_path / "dense.npz"
        np.savez_compressed(
            old,
            offset=np.array([0]),
            size=np.array([size]),
            count=np.array([count]),
            series_sums=rng.normal(size=(n, count)),
            series_sumsqs=rng.uniform(1.0, 2.0, size=(n, count)),
            pair_sumprods=rng.normal(size=(count, n, n)),
            pair_corrs=rng.uniform(-1.0, 1.0, size=(count, n, n)),
        )
        with pytest.raises(StorageError, match=r"dense\.npz.*format None"):
            StatsIndex.load(old)

    def test_v2_archive_is_refused_by_name(self, rng, tmp_path):
        """A v2 archive packs the diagonal, ``N (N + 1) / 2`` pair rows, which
        no longer fit the strict-upper-triangle layout; it is refused by
        format, naming both tags, before its statistics are read."""
        n, count, size = 4, 4, 24
        old = tmp_path / "v2.npz"
        np.savez_compressed(
            old,
            offset=np.array([0]),
            size=np.array([size]),
            count=np.array([count]),
            format=np.array("repro.stats-index/v2"),
            series_sums=rng.normal(size=(n, count)),
            series_sumsqs=rng.uniform(1.0, 2.0, size=(n, count)),
            pair_sumprods=rng.normal(size=(n * (n + 1) // 2, count)),
        )
        with pytest.raises(
            StorageError,
            match=r"v2\.npz.*'repro\.stats-index/v2'.*'repro\.stats-index/v3'.*rebuild",
        ):
            StatsIndex.load(old)

    def test_inconsistent_tagged_archive_is_a_storage_error(self, rng, tmp_path):
        """Statistics whose shapes disagree under the current tag surface as
        a StorageError naming the file, not as a bare sketch error."""
        n, count = 4, 4
        bad = tmp_path / "bad.npz"
        np.savez_compressed(
            bad,
            offset=np.array([0]),
            size=np.array([24]),
            count=np.array([count]),
            format=np.array(ARCHIVE_FORMAT),
            series_sums=rng.normal(size=(n, count)),
            series_sumsqs=rng.uniform(1.0, 2.0, size=(n, count)),
            pair_sumprods=rng.normal(size=(n * (n + 1) // 2, count)),
        )
        with pytest.raises(StorageError, match=r"bad\.npz.*rebuild the index"):
            StatsIndex.load(bad)

    def test_repr(self, rng):
        index = StatsIndex.build(rng.normal(size=(3, 64)), basic_window_size=16)
        assert "basic_windows=4" in repr(index)
