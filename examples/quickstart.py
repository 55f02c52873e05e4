"""Quickstart: one session, one query family, one result protocol.

Generates a small synthetic climate dataset, opens a
:class:`~repro.api.CorrelationSession` over it, runs a thresholded sliding
query plus a threshold sweep (one sketch build for all of it), verifies the
answer against brute force, and shows the protocol surface every result type
shares.

Run with::

    python examples/quickstart.py
"""

from __future__ import annotations

from repro import BruteForceEngine, CorrelationSession, ThresholdQuery, TopKQuery
from repro.analysis import compare_results, format_table, summarize_result
from repro.datasets import SyntheticUSCRN
from repro.network import DynamicNetwork, union_graph_from_edges


def main() -> None:
    # 1. Data: hourly temperature anomalies for 48 stations over two months.
    #    (Swap in repro.datasets.load_uscrn_hourly(...) for real USCRN files.)
    generator = SyntheticUSCRN(num_stations=48, num_days=60, seed=1)
    data = generator.generate_anomalies()
    print(f"data: {data.num_series} stations x {data.length} hourly observations")

    # 2. One front door over the data: the session plans every query through a
    #    shared basic-window sketch cache (basic windows of one day).
    session = CorrelationSession(data, basic_window_size=24)

    # 3. Query: 10-day windows sliding one day at a time, keep edges with
    #    correlation >= 0.7 (the paper's threshold semantics).
    query = ThresholdQuery(
        start=0, end=data.length, window=240, step=24, threshold=0.7
    )
    print(f"query: {query.describe()}")
    result = session.run(query)
    print(f"result: {result.describe()}")

    # 4. Sanity-check against the exact brute-force answer (run through the
    #    same session — engines are interchangeable under it).
    exact = session.run_with_engine(BruteForceEngine(), query)
    report = compare_results(result, exact)
    stats = result.stats
    rows = [
        ["windows", result.num_windows],
        ["edges found", result.total_edges()],
        ["precision vs exact", report.precision],
        ["recall vs exact", report.recall],
        ["pair-windows evaluated", stats.exact_evaluations],
        ["evaluation fraction", stats.evaluation_fraction],
        ["pure query seconds", stats.query_seconds],
        ["sketch build seconds", stats.sketch_build_seconds],
    ]
    print()
    print(format_table(["quantity", "value"], rows, title="Dangoron run summary"))

    # 5. A threshold sweep and a top-k query reuse the one sketch the session
    #    already built — watch the cache stats.
    sweep = session.sweep_thresholds(query, [0.5, 0.6, 0.8, 0.9])
    top = session.run(TopKQuery(start=0, end=data.length, window=240, step=24, k=5))
    print(f"\nafter sweep + top-k: {session.describe()}")
    print(f"sketch builds so far: {session.sketch_cache.builds} "
          f"(for {len(sweep) + 2} sketch-backed queries)")
    print()
    print(summarize_result(top, title="top-5 pairs per window"))

    # 6. Every result speaks the same protocol; the network layer consumes it
    #    uniformly.  One persistence-weighted backbone from the top-k result:
    backbone = union_graph_from_edges(top, min_persistence=0.5)
    print(f"\ntop-k backbone: {backbone.number_of_edges()} edges present in "
          f">=50% of windows")

    # 7. The thresholded result is a dynamic network: one graph per window.
    network = DynamicNetwork.from_result(result)
    densest = int(max(range(len(network)), key=lambda k: network[k].number_of_edges()))
    print(
        f"densest window: #{densest} with {network[densest].number_of_edges()} edges; "
        f"mean edge persistence "
        f"{sum(network.edge_persistence().values()) / max(len(network.edge_persistence()), 1):.2f}"
    )


if __name__ == "__main__":
    main()
