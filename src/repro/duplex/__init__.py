"""Full-duplex operation: two paper protocols plus piggybacked acks."""

from repro.duplex.endpoint import (
    DuplexEndpoint,
    DuplexFrame,
    DuplexStats,
    PiggybackMux,
)
from repro.duplex.runner import DuplexResult, duplex_over_udp, run_duplex

__all__ = [
    "DuplexEndpoint",
    "DuplexFrame",
    "DuplexStats",
    "PiggybackMux",
    "DuplexResult",
    "run_duplex",
    "duplex_over_udp",
]
