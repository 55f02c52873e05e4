"""Exploratory queries beyond a fixed threshold: top-k pairs and lead-lag edges.

Uses climate anomalies to show the query family beyond ``ThresholdQuery``:
(1) :class:`TopKQuery` — the k most correlated station pairs per window, and
the data-driven threshold they suggest for a subsequent threshold run — and
(2) :class:`LaggedQuery` — station pairs whose weather is correlated at a
time offset (one station "leads" the other as systems move across the map).
All three run through one :class:`CorrelationSession`, so the top-k query and
the tuned threshold query share a single sketch build.

Run with::

    python examples/topk_lag_analysis.py
"""

from __future__ import annotations

import numpy as np

from repro import CorrelationSession, LaggedQuery, ThresholdQuery, TopKQuery
from repro.analysis import format_table, significance_threshold
from repro.core.lag import lead_lag_graph_edges
from repro.datasets import SyntheticUSCRN


def main() -> None:
    # 1. Hourly temperature anomalies for 40 stations over two months, plus one
    #    "downwind" station whose weather is station 0's delayed by six hours —
    #    the kind of propagation the lead-lag query is meant to surface.
    generator = SyntheticUSCRN(num_stations=40, num_days=60, seed=21)
    base = generator.generate_anomalies()
    rng = np.random.default_rng(21)
    downwind = np.roll(base.values[0], 6) + 0.3 * rng.standard_normal(base.length)
    data = type(base)(
        np.vstack([base.values, downwind]),
        series_ids=base.series_ids + ["USCRN-DOWNWIND"],
        time_axis=base.time_axis,
    )
    stations = {i: s for i, s in enumerate(data.series_ids)}
    session = CorrelationSession(data, basic_window_size=24)
    print(f"data: {data.num_series} stations x {data.length} hours")

    # 2. Top-k: the 10 most correlated pairs of every 10-day window.
    topk_query = TopKQuery(start=0, end=data.length, window=240, step=48, k=10)
    topk = session.run(topk_query)
    suggested = topk.suggested_threshold()
    persistent = topk.persistent_pairs(min_fraction=0.75)
    significance = significance_threshold(
        topk_query.window, alpha=0.01,
        num_comparisons=data.num_series * (data.num_series - 1) // 2,
    )
    rows = [
        ["windows", topk.num_windows],
        ["suggested threshold (min of per-window k-th values)", suggested],
        ["significance floor (alpha=0.01, Bonferroni)", significance],
        ["pairs in the top 10 of >= 75% of windows", len(persistent)],
    ]
    print()
    print(format_table(["quantity", "value"], rows, title="top-k exploration"))
    print("most persistent top-10 pairs:")
    for i, j in persistent[:5]:
        print(f"  {stations[i]} -- {stations[j]}")

    # 3. Use the suggested threshold to drive a Dangoron threshold run — the
    #    session reuses the sketch the top-k query already built.
    tuned_query = ThresholdQuery(
        start=0, end=data.length, window=240, step=48,
        threshold=max(suggested, significance),
    )
    result = session.run(tuned_query)
    print(
        f"\nDangoron at the data-driven threshold {tuned_query.threshold:.3f}: "
        f"{result.total_edges()} edges, evaluation fraction "
        f"{result.stats.evaluation_fraction:.2f} "
        f"(sketch builds so far: {session.sketch_cache.builds})"
    )

    # 4. Lead-lag analysis: correlations at offsets up to 24 hours.  The lagged
    #    result speaks the same protocol — its edges carry the best lag.
    lag_query = LaggedQuery(
        start=0, end=data.length, window=240, step=120,
        threshold=0.6, max_lag=24,
    )
    lagged = session.run(lag_query)
    relations = lead_lag_graph_edges(
        lagged.windows, threshold=0.6, min_persistence=0.5
    )
    lagged_only = [r for r in relations if abs(r[3]) >= 3.0]
    print(
        f"\nlead-lag relations above 0.6 in at least half the windows: {len(relations)} "
        f"({len(lagged_only)} with a mean lead of 3+ hours)"
    )
    for i, j, corr, lag in sorted(lagged_only, key=lambda r: -abs(r[3]))[:5]:
        leader, follower = (stations[i], stations[j]) if lag > 0 else (stations[j], stations[i])
        print(
            f"  {leader} leads {follower} by {abs(lag):.1f} hours "
            f"(mean correlation {corr:.2f})"
        )


if __name__ == "__main__":
    main()
