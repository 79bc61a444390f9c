"""Application traffic sources for driving protocol senders."""

from repro.workloads.sources import (
    BurstySource,
    GreedySource,
    ListSource,
    PoissonSource,
    ReplaySource,
    Source,
)

__all__ = [
    "Source",
    "GreedySource",
    "ListSource",
    "PoissonSource",
    "BurstySource",
    "ReplaySource",
]
