"""Streaming substrate: online monitoring and change alerts over a growing stream (S8)."""

from repro.streaming.monitor import (
    ALERT_DENSITY_JUMP,
    ALERT_EDGE_APPEARED,
    ALERT_EDGE_DROPPED,
    ALERT_NETWORK_SHIFT,
    NetworkAlert,
    NetworkChangeMonitor,
)
from repro.streaming.online import OnlineCorrelationMonitor, OnlineWindowResult

__all__ = [
    "ALERT_DENSITY_JUMP",
    "ALERT_EDGE_APPEARED",
    "ALERT_EDGE_DROPPED",
    "ALERT_NETWORK_SHIFT",
    "NetworkAlert",
    "NetworkChangeMonitor",
    "OnlineCorrelationMonitor",
    "OnlineWindowResult",
]
