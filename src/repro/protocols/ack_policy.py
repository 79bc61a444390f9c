"""Receiver acknowledgment scheduling policies.

The paper's receiver actions 4 and 5 are *nondeterministic*: the receiver
may acknowledge after every message or let a block build up and cover many
messages with one acknowledgment ("the receiver attempts to acknowledge as
many data messages as possible with a single block acknowledgment").  A
policy object resolves that nondeterminism in the timed simulation:

* :class:`EagerAckPolicy` — acknowledge as soon as anything is pending.
  Blocks still form naturally when a retransmission fills a gap and
  releases a buffered run, but in-order traffic gets one ack per message.
* :class:`DelayedAckPolicy` — wait up to ``delay`` after the first pending
  message so consecutive arrivals coalesce into one block.  The classic
  delayed-ack tradeoff: fewer acks (E4) against added latency, which must
  also be budgeted into the sender's safe timeout period.
* :class:`CountingAckPolicy` — acknowledge once ``threshold`` messages are
  pending, with a ``max_delay`` backstop so a final partial block is never
  stranded.

Policies must guarantee a bounded worst-case acknowledgment latency
(:attr:`AckPolicy.max_latency`); the sender's timeout-period computation
(:func:`repro.protocols.blockack.safe_timeout_period`) depends on it.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import Callable, Optional

from repro.sim.engine import Simulator
from repro.sim.timers import Timer

__all__ = ["AckPolicy", "EagerAckPolicy", "DelayedAckPolicy", "CountingAckPolicy"]


class AckPolicy(ABC):
    """Decides when the receiver runs its acknowledge-and-advance step."""

    def __init__(self) -> None:
        self._flush: Optional[Callable[[], None]] = None
        self._sim: Optional[Simulator] = None

    def attach(self, sim: Simulator, flush: Callable[[], None]) -> None:
        """Bind to the simulator and the receiver's flush function."""
        self._sim = sim
        self._flush = flush

    @abstractmethod
    def on_update(self, pending: int) -> None:
        """Called after data arrives; ``pending`` is the acknowledgeable
        run length (``vr - nr`` after sliding)."""

    def cancel_pending(self) -> None:
        """Drop any scheduled flush (crash semantics); default no-op."""

    @property
    @abstractmethod
    def max_latency(self) -> float:
        """Worst-case delay between a message becoming acknowledgeable and
        the acknowledgment leaving the receiver."""


class EagerAckPolicy(AckPolicy):
    """Acknowledge immediately whenever a block is pending."""

    def on_update(self, pending: int) -> None:
        if pending > 0:
            self._flush()

    @property
    def max_latency(self) -> float:
        return 0.0

    def __repr__(self) -> str:
        return "EagerAckPolicy()"


class DelayedAckPolicy(AckPolicy):
    """Hold acknowledgments up to ``delay`` so arrivals coalesce."""

    def __init__(self, delay: float) -> None:
        super().__init__()
        if not 0 <= delay < math.inf:
            raise ValueError(f"delay must be finite and non-negative, got {delay}")
        self.delay = delay
        self._timer: Optional[Timer] = None

    def attach(self, sim: Simulator, flush: Callable[[], None]) -> None:
        super().attach(sim, flush)
        self._timer = Timer(sim, self._fire, name="delayed-ack")

    def on_update(self, pending: int) -> None:
        if pending > 0 and not self._timer.running:
            self._timer.start(self.delay)

    def _fire(self) -> None:
        self._flush()

    def cancel_pending(self) -> None:
        if self._timer is not None:
            self._timer.stop()

    @property
    def max_latency(self) -> float:
        return self.delay

    def __repr__(self) -> str:
        return f"DelayedAckPolicy({self.delay})"


class CountingAckPolicy(AckPolicy):
    """Acknowledge at ``threshold`` pending messages, or after ``max_delay``."""

    def __init__(self, threshold: int, max_delay: float) -> None:
        super().__init__()
        if threshold <= 0:
            raise ValueError(f"threshold must be positive, got {threshold}")
        if not 0 <= max_delay < math.inf:
            raise ValueError(
                f"max_delay must be finite and non-negative, got {max_delay}"
            )
        self.threshold = threshold
        self.backstop = max_delay
        self._timer: Optional[Timer] = None

    def attach(self, sim: Simulator, flush: Callable[[], None]) -> None:
        super().attach(sim, flush)
        self._timer = Timer(sim, self._fire, name="counting-ack")

    def on_update(self, pending: int) -> None:
        if pending >= self.threshold:
            self._timer.stop()
            self._flush()
        elif pending > 0 and not self._timer.running:
            self._timer.start(self.backstop)

    def _fire(self) -> None:
        self._flush()

    def cancel_pending(self) -> None:
        if self._timer is not None:
            self._timer.stop()

    @property
    def max_latency(self) -> float:
        return self.backstop

    def __repr__(self) -> str:
        return f"CountingAckPolicy({self.threshold}, {self.backstop})"
