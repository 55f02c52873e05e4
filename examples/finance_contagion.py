"""Stock-market correlation dynamics: crises densify the correlation network.

The finance motivation of correlation-network analysis (Kenett et al. 2010;
Tilfani et al. 2021): during market stress, pairwise return correlations jump
and the thresholded network densifies ("contagion").  This example generates
returns with two crisis periods, tracks the sliding-window network with the
online streaming monitor (as a live system would), and shows that

* edge counts spike inside the crisis windows, and
* the network change-point detector fires at the crisis onsets.

Run with::

    python examples/finance_contagion.py
"""

from __future__ import annotations

import numpy as np

from repro.analysis import format_table
from repro.datasets import SyntheticMarket, crisis_edge_density
from repro.network import DynamicNetwork
from repro.network.builder import graph_from_matrix
from repro.streaming import OnlineCorrelationMonitor


def main() -> None:
    crisis_periods = [(600, 680), (1000, 1060)]
    market = SyntheticMarket(
        num_assets=60,
        num_days=1260,
        num_sectors=6,
        crisis_periods=crisis_periods,
        seed=13,
    )
    returns = market.generate_returns()
    print(
        f"assets: {returns.num_series}, trading days: {returns.length}, "
        f"crisis periods: {crisis_periods}"
    )

    # Six-month windows (126 trading days) sliding by one month (21 days),
    # fed to the online monitor in monthly batches as if data arrived live.
    monitor = OnlineCorrelationMonitor(
        num_series=returns.num_series,
        window=126,
        step=21,
        threshold=0.6,
        basic_window_size=21,
    )
    emitted = []
    for start in range(0, returns.length, 21):
        emitted.extend(monitor.append(returns.values[:, start : start + 21]))
    print(f"windows emitted by the streaming monitor: {len(emitted)}")

    edge_counts = np.array([r.matrix.num_edges for r in emitted])
    window_starts = np.array([r.start for r in emitted])
    crisis_mean, calm_mean = crisis_edge_density(
        edge_counts, window_starts + 126, crisis_periods
    )
    print()
    print(
        format_table(
            ["regime", "mean edges per window"],
            [["crisis windows", crisis_mean], ["calm windows", calm_mean]],
            title="Network density by regime",
        )
    )
    if calm_mean > 0:
        print(f"densification factor during crises: {crisis_mean / calm_mean:.1f}x")

    # Change points from consecutive-window edge overlap.
    graphs = [
        graph_from_matrix(r.matrix, series_ids=returns.series_ids) for r in emitted
    ]
    network = DynamicNetwork(graphs, window_starts=window_starts)
    changes = network.change_points(max_jaccard=0.35)
    print("\nchange points (low edge overlap with the previous window):")
    for change in changes:
        window_end = int(window_starts[change.window_index]) + 126
        print(
            f"  window ending day {window_end}: jaccard {change.jaccard:.2f}"
        )
    print(
        "compare with crisis onsets at days "
        + ", ".join(str(start) for start, _ in crisis_periods)
    )


if __name__ == "__main__":
    main()
