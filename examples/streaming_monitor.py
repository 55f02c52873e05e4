"""Live network monitoring: stream data in, get alerts when the network changes.

Simulates a market feed whose assets decorrelate and then snap into a crisis
regime, feeds it column-by-column into the online correlation monitor, and
prints the alerts the change monitor raises (edges appearing/disappearing,
whole-network shifts, density jumps) as they happen.  The last section shows
the same push-based answer through the unified front door —
``CorrelationSession.stream(query)`` — and checks it against the batch run of
the identical query.

Run with::

    python examples/streaming_monitor.py
"""

from __future__ import annotations

import numpy as np

from repro import CorrelationSession, ThresholdQuery
from repro.analysis import format_table
from repro.datasets import SyntheticMarket
from repro.streaming import (
    ALERT_DENSITY_JUMP,
    ALERT_EDGE_APPEARED,
    ALERT_EDGE_DROPPED,
    ALERT_NETWORK_SHIFT,
    NetworkChangeMonitor,
    OnlineCorrelationMonitor,
)


def main() -> None:
    # 1. A market with two crisis periods, during which correlations spike.
    generator = SyntheticMarket(
        num_assets=24,
        num_days=1260,
        crisis_periods=[(500, 580), (900, 960)],
        seed=11,
    )
    returns = generator.generate_returns()
    print(
        f"stream: {returns.num_series} assets, {returns.length} trading days, "
        f"crises at {generator.crisis_periods}"
    )

    # 2. Online monitor: 63-day (quarter) windows sliding 21 days (one month),
    #    with alerting on top.
    online = OnlineCorrelationMonitor(
        num_series=returns.num_series,
        window=63,
        step=21,
        threshold=0.5,
        basic_window_size=21,
    )
    monitor = NetworkChangeMonitor(
        monitor=online, min_jaccard=0.4, max_density_change=0.15
    )

    # 3. Feed the stream in monthly batches, reporting alerts as they arrive.
    batch = 21
    for start in range(0, returns.length, batch):
        columns = returns.values[:, start : start + batch]
        for alert in monitor.append(columns):
            print(f"  window {alert.window_index:3d}  {alert.kind:16s} {alert.message}")

    # 4. Summarize what the monitor saw.
    rows = [
        ["windows emitted", online.emitted_windows],
        ["edges in final window", monitor.edge_count_history[-1]],
        ["max edges in any window", max(monitor.edge_count_history)],
        ["edge-appeared alerts", len(monitor.alerts_of_kind(ALERT_EDGE_APPEARED))],
        ["edge-dropped alerts", len(monitor.alerts_of_kind(ALERT_EDGE_DROPPED))],
        ["network-shift alerts", len(monitor.alerts_of_kind(ALERT_NETWORK_SHIFT))],
        ["density-jump alerts", len(monitor.alerts_of_kind(ALERT_DENSITY_JUMP))],
    ]
    print()
    print(format_table(["quantity", "value"], rows, title="streaming monitor summary"))

    # 5. The crisis periods should show up as density spikes.
    counts = np.array(monitor.edge_count_history)
    spike_windows = np.argsort(counts)[-3:]
    print(
        "\nwindows with the densest networks (crisis regimes): "
        + ", ".join(f"#{int(w)} ({int(counts[w])} edges)" for w in sorted(spike_windows))
    )

    # 6. The same push-based view through the unified front door: a session
    #    streams any signed threshold query window-by-window, and the emitted
    #    networks match a batch run of the identical query.
    session = CorrelationSession(returns, basic_window_size=21)
    query = ThresholdQuery(
        start=0, end=(returns.length // 21) * 21, window=63, step=21, threshold=0.5
    )
    streamed = list(session.stream(query, chunk_columns=21))
    batch = session.run(query)
    agree = sum(
        emitted.matrix.edge_set() == window.edge_set()
        for emitted, window in zip(streamed, batch.matrices)
    )
    print(
        f"\nsession.stream vs session.run on {query.describe()}: "
        f"{agree}/{len(streamed)} windows with identical edge sets"
    )


if __name__ == "__main__":
    main()
