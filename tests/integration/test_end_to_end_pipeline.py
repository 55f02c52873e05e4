"""Integration: the full pipeline from raw data to exported networks.

Mirrors what a user of the library would actually do with the paper's system:
generate (or load) data, persist it with a statistics index, answer a sliding
query with Dangoron, build the dynamic network, and export the results — then
verify every artefact is consistent with a direct computation.
"""

import csv

import numpy as np

from repro.analysis.accuracy import compare_results
from repro.baselines.brute_force import BruteForceEngine
from repro.core.dangoron import DangoronEngine
from repro.core.query import SlidingQuery
from repro.datasets.climate import SyntheticUSCRN
from repro.datasets.loaders import load_wide_csv, write_wide_csv
from repro.network.dynamic import DynamicNetwork
from repro.network.export import write_temporal_edge_list
from repro.storage.catalog import Catalog
from repro.storage.chunk_store import ChunkStore
from repro.storage.stats_index import StatsIndex


class TestClimatePipeline:
    def test_generate_store_query_network_export(self, tmp_path):
        # 1. Generate USCRN-like anomalies and write them as the CLI's wide CSV.
        generator = SyntheticUSCRN(num_stations=12, num_days=30, seed=17)
        raw = generator.generate_anomalies()
        path = write_wide_csv(raw, tmp_path / "uscrn.csv")

        # 2-3. Load them back the way a CLI user would.
        matrix = load_wide_csv(path)
        assert matrix.num_series == raw.num_series
        assert np.array_equal(matrix.values, raw.values)

        # 4. Persist raw data + statistics index in a catalog.
        catalog = Catalog(tmp_path / "catalog")
        store = ChunkStore(matrix.num_series, chunk_columns=256,
                           series_ids=matrix.series_ids)
        store.append(matrix.values)
        catalog.add_dataset("uscrn_2020", store, description="synthetic USCRN")
        index = StatsIndex.build(matrix.values, basic_window_size=24)
        catalog.add_index("uscrn_2020", index)

        # 5. Answer a sliding query with Dangoron over the catalogued data.
        reopened = Catalog(tmp_path / "catalog")
        data = reopened.load_dataset("uscrn_2020").read_all()
        query = SlidingQuery(
            start=0, end=data.shape[1], window=240, step=24, threshold=0.5
        )
        from repro.timeseries.matrix import TimeSeriesMatrix

        ts = TimeSeriesMatrix(data, series_ids=matrix.series_ids)
        result = DangoronEngine(basic_window_size=24).run(ts, query)
        reference = BruteForceEngine().run(ts, query)
        report = compare_results(result, reference)
        assert report.precision == 1.0
        assert report.recall >= 0.9

        # 6. Build the dynamic network and export artefacts.
        network = DynamicNetwork.from_result(result)
        assert len(network) == query.num_windows
        edge_path = write_temporal_edge_list(result, tmp_path / "edges.csv")
        with open(edge_path, newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == sum(m.num_edges for m in result.matrices)
        assert sum(row["window"] == "0" for row in rows) == result[0].num_edges

    def test_query_results_identical_from_store_and_memory(self, tmp_path):
        generator = SyntheticUSCRN(num_stations=10, num_days=20, seed=23)
        matrix = generator.generate_anomalies()
        store = ChunkStore(matrix.num_series, chunk_columns=128,
                           series_ids=matrix.series_ids)
        store.append(matrix.values)
        path = store.save(tmp_path / "data.npz")
        restored = ChunkStore.load(path).read_all()
        assert np.allclose(restored, matrix.values)

        from repro.timeseries.matrix import TimeSeriesMatrix

        query = SlidingQuery(
            start=0, end=matrix.length, window=120, step=24, threshold=0.6
        )
        engine = DangoronEngine(basic_window_size=24)
        from_memory = engine.run(matrix, query)
        from_store = engine.run(
            TimeSeriesMatrix(restored, series_ids=matrix.series_ids), query
        )
        assert [m.edge_set() for m in from_memory] == [
            m.edge_set() for m in from_store
        ]
