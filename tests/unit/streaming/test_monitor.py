"""Unit tests for the network-change alerting layer (repro.streaming.monitor)."""

import numpy as np
import pytest

from repro.exceptions import StreamingError
from repro.streaming.monitor import (
    ALERT_DENSITY_JUMP,
    ALERT_EDGE_APPEARED,
    ALERT_EDGE_DROPPED,
    ALERT_NETWORK_SHIFT,
    NetworkChangeMonitor,
)
from repro.streaming.online import OnlineCorrelationMonitor


def _make_monitor(num_series=4, window=64, step=32, threshold=0.8, **kwargs):
    online = OnlineCorrelationMonitor(
        num_series=num_series,
        window=window,
        step=step,
        threshold=threshold,
        basic_window_size=32,
    )
    return NetworkChangeMonitor(monitor=online, **kwargs)


def _correlated_block(rng, columns, flip=False):
    """4 series: (0, 1) strongly correlated unless ``flip``; (2, 3) independent."""
    base = rng.standard_normal(columns)
    partner = base if not flip else rng.standard_normal(columns)
    return np.stack([
        base,
        partner + 0.05 * rng.standard_normal(columns),
        rng.standard_normal(columns),
        rng.standard_normal(columns),
    ])


class TestAlerting:
    def test_edge_drop_and_appear_alerts(self, rng):
        monitor = _make_monitor()
        # Two windows where (0, 1) is an edge, then the pair decouples.
        assert monitor.append(_correlated_block(rng, 64)) == []
        monitor.append(_correlated_block(rng, 64))
        alerts = monitor.append(_correlated_block(rng, 64, flip=True))
        dropped_edges = [a.edge for a in alerts if a.kind == ALERT_EDGE_DROPPED]
        assert (0, 1) in dropped_edges
        # Re-couple the pair: it must re-appear.
        alerts = monitor.append(_correlated_block(rng, 128))
        appeared = [a.edge for a in monitor.alerts_of_kind(ALERT_EDGE_APPEARED)]
        assert (0, 1) in appeared

    def test_watch_list_filters_edge_alerts(self, rng):
        monitor = _make_monitor(watch_pairs=[(2, 3)])
        monitor.append(_correlated_block(rng, 128))
        monitor.append(_correlated_block(rng, 128, flip=True))
        edge_alerts = monitor.alerts_of_kind(ALERT_EDGE_DROPPED)
        assert all(alert.edge == (2, 3) for alert in edge_alerts)

    def test_network_shift_alert_on_decorrelation(self, rng):
        monitor = _make_monitor(min_jaccard=0.99)
        monitor.append(_correlated_block(rng, 128))
        monitor.append(_correlated_block(rng, 64, flip=True))
        kinds = {a.kind for a in monitor.alerts}
        assert ALERT_NETWORK_SHIFT in kinds

    def test_density_jump_alert(self, rng):
        monitor = _make_monitor(max_density_change=0.1)
        monitor.append(_correlated_block(rng, 128))
        monitor.append(_correlated_block(rng, 64, flip=True))
        assert monitor.alerts_of_kind(ALERT_DENSITY_JUMP)

    def test_no_alerts_for_stable_network(self, rng):
        monitor = _make_monitor()
        base = rng.standard_normal(256)
        stable = np.stack([
            base,
            base + 0.05 * rng.standard_normal(256),
            rng.standard_normal(256),
            rng.standard_normal(256),
        ])
        alerts = monitor.append(stable)
        # Only the pair (0, 1) is an edge in every window; nothing changes.
        assert [a for a in alerts if a.kind != ALERT_EDGE_APPEARED] == []
        assert monitor.edge_count_history.count(monitor.edge_count_history[0]) == len(
            monitor.edge_count_history
        )

    def test_edge_count_history_tracks_windows(self, rng):
        monitor = _make_monitor()
        monitor.append(_correlated_block(rng, 256))
        assert len(monitor.edge_count_history) == monitor.monitor.emitted_windows


class TestValidation:
    def test_invalid_thresholds_rejected(self):
        with pytest.raises(StreamingError):
            _make_monitor(min_jaccard=1.5)
        with pytest.raises(StreamingError):
            _make_monitor(max_density_change=0.0)

    def test_invalid_watch_pairs_rejected(self):
        with pytest.raises(StreamingError):
            _make_monitor(watch_pairs=[(0, 9)])
        with pytest.raises(StreamingError):
            _make_monitor(watch_pairs=[(1, 1)])

    def test_alerts_property_returns_copy(self, rng):
        monitor = _make_monitor()
        monitor.append(_correlated_block(rng, 128))
        log = monitor.alerts
        log.append("sentinel")
        assert "sentinel" not in monitor.alerts
