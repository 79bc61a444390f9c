"""The channel surface every link-layer wrapper must forward.

:func:`~repro.sim.runner.run_transfer` and the verification/observability
layers talk to a *channel-shaped* object: the raw :class:`~repro.channel
.channel.Channel`, the byte-framing :class:`~repro.wire.framed
.FramedChannel`, or a per-flow :class:`~repro.channel.mux.FlowPort`.
Historically each wrapper re-implemented the forwarding by hand, and a
missing passthrough (``stats``, ``effective_max_lifetime``, ...) only
surfaced when some harness feature silently misbehaved.  This module
pins the contract once:

* :class:`ChannelSurface` is an ABC naming every attribute the harness
  uses; implementations register as virtual subclasses so
  ``isinstance`` checks work without inheritance coupling;
* :func:`missing_surface` structurally audits a channel *instance*
  (several implementations create surface attributes in ``__init__``,
  so a class-level check cannot see them) and returns what is absent —
  the wrapper-parity tests assert it returns nothing for every wrapper.
"""

from __future__ import annotations

import abc
from typing import Any, Dict, List

__all__ = ["ChannelSurface", "CHANNEL_SURFACE_METHODS", "CHANNEL_SURFACE_ATTRS",
           "missing_surface", "link_stats"]

#: callables the harness invokes on every channel-shaped object
CHANNEL_SURFACE_METHODS = (
    "connect",  # wire the delivery callback
    "send",  # inject a message
    "add_observer",  # channel-event taps (monitor, obs, causal, drops)
    "in_flight",  # iterate undelivered copies (oracle mode, monitors)
    "count_matching",  # count undelivered copies by predicate
)

#: non-callable attributes/properties the harness reads
CHANNEL_SURFACE_ATTRS = (
    "sim",  # owning simulator
    "name",  # stable label used in traces and obs series
    "stats",  # ChannelStats-shaped counters
    "in_flight_count",
    "is_empty",
    "effective_max_lifetime",  # timeout derivation (aging bound)
)


class ChannelSurface(abc.ABC):
    """Abstract surface of a harness-usable channel.

    Concrete channels register as *virtual* subclasses
    (``ChannelSurface.register(...)``) rather than inheriting, keeping
    the wire/channel modules dependency-free; :func:`missing_surface`
    does the structural verification that registration alone cannot.
    """

    @abc.abstractmethod
    def connect(self, receiver) -> None:  # pragma: no cover - interface
        """Set the delivery callback messages are handed to."""

    @abc.abstractmethod
    def send(self, message: Any) -> None:  # pragma: no cover - interface
        """Inject one message for (possibly lossy, delayed) delivery."""

    @abc.abstractmethod
    def add_observer(self, observer) -> None:  # pragma: no cover - interface
        """Register ``observer(kind, message)`` for channel events."""

    @abc.abstractmethod
    def in_flight(self):  # pragma: no cover - interface
        """Iterate messages sent but not yet delivered/lost/aged."""

    @abc.abstractmethod
    def count_matching(self, predicate) -> int:  # pragma: no cover - interface
        """Count in-flight messages satisfying ``predicate``."""


def missing_surface(channel: Any) -> List[str]:
    """Audit a channel instance against the full harness surface.

    Returns the (possibly empty) list of missing or malformed attribute
    names: methods that are absent or not callable, and readable
    attributes that are absent.  An empty list means the object can be
    handed to ``run_transfer``/monitors/obs without losing capability.
    """
    problems: List[str] = []
    for method in CHANNEL_SURFACE_METHODS:
        if not callable(getattr(channel, method, None)):
            problems.append(method)
    for attr in CHANNEL_SURFACE_ATTRS:
        if not hasattr(channel, attr):
            problems.append(attr)
    return problems


def link_stats(channel: Any) -> Dict[str, Any]:
    """A channel's final counters as a dict.

    A framed link (:class:`~repro.wire.framed.FramedChannel`) adds its
    corruption counters: ``corrupted``, ``discarded`` and ``bytes_sent``.
    """
    stats = channel.stats.as_dict()
    if hasattr(channel, "discarded"):
        stats["corrupted"] = channel.corrupted
        stats["discarded"] = channel.discarded
        stats["bytes_sent"] = channel.bytes_sent
    return stats
