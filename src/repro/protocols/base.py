"""Common interface for simulated protocol endpoints.

Every protocol in this package (block acknowledgment and the baselines) is
split into a *sender endpoint* and a *receiver endpoint* that communicate
only through two :class:`~repro.channel.channel.Channel` objects — the
forward (data) channel and the reverse (acknowledgment) channel.  The
shared surface here keeps the benchmark harness protocol-agnostic: the
runner wires any ``(sender, receiver)`` pair the same way and reads the
same statistics off both.

Lifecycle::

    sender = SomeSender(window=8)
    receiver = SomeReceiver(window=8)
    sender.attach(sim, forward_channel, recorder)
    receiver.attach(sim, reverse_channel, recorder)
    forward_channel.connect(receiver.on_message)
    reverse_channel.connect(sender.on_message)
    receiver.on_deliver = application_callback
    sender.on_window_open = source_callback

Application data enters through :meth:`SenderEndpoint.submit` whenever
:attr:`SenderEndpoint.can_accept` is true, and leaves through the
receiver's ``on_deliver`` callback, in order, exactly once.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.channel.channel import Channel
from repro.sim.engine import Simulator
from repro.trace.recorder import NullRecorder

__all__ = ["SenderStats", "ReceiverStats", "SenderEndpoint", "ReceiverEndpoint"]


@dataclass
class SenderStats:
    """Counters every sender endpoint maintains."""

    submitted: int = 0  # payloads accepted from the application
    data_sent: int = 0  # data transmissions, including retransmissions
    retransmissions: int = 0
    acks_received: int = 0
    stale_acks: int = 0  # acks carrying no new information
    timeouts_fired: int = 0
    acked: int = 0  # payloads known delivered (cumulative prefix)
    last_ack_time: float = 0.0

    @property
    def efficiency(self) -> float:
        """Acknowledged payloads per data transmission (1.0 = no waste)."""
        return self.acked / self.data_sent if self.data_sent else 0.0

    def as_dict(self) -> dict:
        return {
            "submitted": self.submitted,
            "data_sent": self.data_sent,
            "retransmissions": self.retransmissions,
            "acks_received": self.acks_received,
            "stale_acks": self.stale_acks,
            "timeouts_fired": self.timeouts_fired,
            "acked": self.acked,
        }


@dataclass
class ReceiverStats:
    """Counters every receiver endpoint maintains."""

    data_received: int = 0
    duplicates: int = 0  # data below the accept point (already delivered)
    redundant: int = 0  # data already buffered (needs unsafe timeouts)
    out_of_order: int = 0  # data that had to be buffered
    acks_sent: int = 0
    delivered: int = 0  # payloads released to the application
    max_buffered: int = 0  # high-water mark of the reorder buffer
    last_delivery_time: float = 0.0

    @property
    def acks_per_delivery(self) -> float:
        """Acknowledgment messages per delivered payload (E4's metric)."""
        return self.acks_sent / self.delivered if self.delivered else 0.0

    def as_dict(self) -> dict:
        return {
            "data_received": self.data_received,
            "duplicates": self.duplicates,
            "redundant": self.redundant,
            "out_of_order": self.out_of_order,
            "acks_sent": self.acks_sent,
            "delivered": self.delivered,
            "max_buffered": self.max_buffered,
        }


class SenderEndpoint(ABC):
    """Base class for protocol senders."""

    actor_name = "sender"

    def __init__(self) -> None:
        self.sim: Optional[Simulator] = None
        self.tx: Optional[Channel] = None
        self.trace = NullRecorder()
        self.stats = SenderStats()
        self.on_window_open: Optional[Callable[[], None]] = None

    def attach(self, sim: Simulator, tx: Channel, trace=None) -> None:
        """Bind the endpoint to a simulator and its outbound channel."""
        self.sim = sim
        self.tx = tx
        if trace is not None:
            self.trace = trace
        self._after_attach()

    def _after_attach(self) -> None:
        """Hook for subclasses that need setup once ``sim``/``tx`` exist."""

    @property
    @abstractmethod
    def can_accept(self) -> bool:
        """True when :meth:`submit` may be called (window open)."""

    @abstractmethod
    def submit(self, payload: Any) -> int:
        """Accept one payload from the application; returns its sequence
        number.  Must only be called when :attr:`can_accept` is true."""

    @abstractmethod
    def on_message(self, message: Any) -> None:
        """Channel delivery callback (acknowledgments arrive here)."""

    @property
    @abstractmethod
    def all_acknowledged(self) -> bool:
        """True when every submitted payload is known delivered."""

    def _window_opened(self) -> None:
        """Notify the application that the window reopened."""
        on_window_open = self.on_window_open
        if on_window_open is not None:
            on_window_open()


class ReceiverEndpoint(ABC):
    """Base class for protocol receivers."""

    actor_name = "receiver"

    def __init__(self) -> None:
        self.sim: Optional[Simulator] = None
        self.tx: Optional[Channel] = None  # reverse channel (acks)
        self.trace = NullRecorder()
        self.stats = ReceiverStats()
        self.on_deliver: Optional[Callable[[int, Any], None]] = None

    def attach(self, sim: Simulator, tx: Channel, trace=None) -> None:
        """Bind the endpoint to a simulator and its outbound (ack) channel."""
        self.sim = sim
        self.tx = tx
        if trace is not None:
            self.trace = trace
        self._after_attach()

    def _after_attach(self) -> None:
        """Hook for subclasses that need setup once ``sim``/``tx`` exist."""

    @abstractmethod
    def on_message(self, message: Any) -> None:
        """Channel delivery callback (data messages arrive here)."""

    def _deliver(self, seq: int, payload: Any) -> None:
        """Release one payload to the application, updating stats."""
        stats = self.stats
        stats.delivered += 1
        stats.last_delivery_time = self.sim.now
        on_deliver = self.on_deliver
        if on_deliver is not None:
            on_deliver(seq, payload)
