"""Application traffic sources that drive a protocol sender.

A source decides *when* payloads are handed to the sender; the sender's
window decides when they may actually be transmitted.  Sources interact
with any :class:`~repro.protocols.base.SenderEndpoint` through two hooks:

* they call ``sender.submit(payload)`` while ``sender.can_accept``;
* they register on ``sender.on_window_open`` so queued work resumes the
  moment acknowledgments reopen the window.

Payloads are ``(index, tag)`` tuples by default so the runner can verify
exactly-once in-order delivery end to end.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from typing import Any, Iterable, List, Optional

from repro.protocols.base import SenderEndpoint
from repro.sim.engine import Simulator

__all__ = [
    "Source",
    "GreedySource",
    "ListSource",
    "PoissonSource",
    "BurstySource",
    "ReplaySource",
]


class Source(ABC):
    """Base class for traffic sources."""

    def __init__(self, total: int) -> None:
        if total < 0:
            raise ValueError(f"total must be non-negative, got {total}")
        self.total = total
        self.submitted: List[Any] = []
        self.sim: Optional[Simulator] = None
        self.sender: Optional[SenderEndpoint] = None

    def attach(self, sim: Simulator, sender: SenderEndpoint) -> None:
        """Bind to the simulator and sender, and start generating."""
        self.sim = sim
        self.sender = sender
        sender.on_window_open = self._on_window_open
        self._start()

    @property
    def exhausted(self) -> bool:
        """True once every payload has been handed to the sender."""
        return len(self.submitted) >= self.total

    @property
    def _bound_sim(self) -> Simulator:
        if self.sim is None:
            raise RuntimeError("source used before attach()")
        return self.sim

    @property
    def _bound_sender(self) -> SenderEndpoint:
        if self.sender is None:
            raise RuntimeError("source used before attach()")
        return self.sender

    def _make_payload(self) -> Any:
        return ("msg", len(self.submitted))

    def _submit_one(self) -> None:
        sender = self.sender
        if sender is None:
            raise RuntimeError("source used before attach()")
        payload = self._make_payload()
        self.submitted.append(payload)
        sender.submit(payload)

    @abstractmethod
    def _start(self) -> None:
        """Begin generating traffic (called from :meth:`attach`)."""

    @abstractmethod
    def _on_window_open(self) -> None:
        """Called whenever the sender's window reopens."""


class GreedySource(Source):
    """Saturates the sender: submits whenever the window is open.

    This is the workload for every throughput experiment — with a greedy
    source the protocol itself (window, acks, retransmissions) is the only
    thing limiting goodput.
    """

    def _start(self) -> None:
        self._fill()

    def _on_window_open(self) -> None:
        self._fill()

    def _fill(self) -> None:
        sender = self._bound_sender
        submitted = self.submitted
        total = self.total
        while len(submitted) < total and sender.can_accept:
            self._submit_one()


class ListSource(GreedySource):
    """Greedy source that submits the given payloads, in order."""

    def __init__(self, payloads: Iterable[Any]) -> None:
        self.payloads = list(payloads)
        super().__init__(len(self.payloads))

    def _make_payload(self) -> Any:
        return self.payloads[len(self.submitted)]


class PoissonSource(Source):
    """Payloads arrive as a Poisson process of the given ``rate``.

    Arrivals finding a closed window queue and drain on window-open, so
    the offered load is preserved even through loss-recovery stalls.
    """

    def __init__(self, total: int, rate: float, rng: random.Random) -> None:
        super().__init__(total)
        if rate <= 0:
            raise ValueError(f"rate must be positive, got {rate}")
        self.rate = rate
        self.rng = rng
        self._queued = 0
        self._arrivals_scheduled = 0

    def _start(self) -> None:
        self._schedule_next_arrival()

    def _schedule_next_arrival(self) -> None:
        if self._arrivals_scheduled >= self.total:
            return
        self._arrivals_scheduled += 1
        gap = self.rng.expovariate(self.rate)
        self._bound_sim.schedule(gap, self._on_arrival)

    def _on_arrival(self) -> None:
        self._queued += 1
        self._drain()
        self._schedule_next_arrival()

    def _on_window_open(self) -> None:
        self._drain()

    def _drain(self) -> None:
        while self._queued > 0 and not self.exhausted and self._bound_sender.can_accept:
            self._queued -= 1
            self._submit_one()


class ReplaySource(Source):
    """Replays an explicit arrival-time schedule (trace-driven workload).

    ``arrivals`` is a sorted sequence of virtual times; one payload
    arrives at each.  This is how measured traces or adversarially
    crafted schedules are fed through the protocols, and how a workload
    can be replayed bit-identically across protocol variants.
    """

    def __init__(self, arrivals: Iterable[float]) -> None:
        times = [float(t) for t in arrivals]
        if any(b < a for a, b in zip(times, times[1:])):
            raise ValueError("arrival times must be non-decreasing")
        if times and times[0] < 0:
            raise ValueError("arrival times must be non-negative")
        self.arrivals = times
        self._queued = 0
        super().__init__(total=len(times))

    def _start(self) -> None:
        for when in self.arrivals:
            self._bound_sim.schedule(when, self._on_arrival)

    def _on_arrival(self) -> None:
        self._queued += 1
        self._drain()

    def _on_window_open(self) -> None:
        self._drain()

    def _drain(self) -> None:
        while self._queued > 0 and not self.exhausted and self._bound_sender.can_accept:
            self._queued -= 1
            self._submit_one()


class BurstySource(Source):
    """On/off traffic: bursts of ``burst_size`` arrivals, then silence.

    Bursts are where block acknowledgment shines (one ack per burst);
    ``examples/ack_policy_tuning.py`` drives it to compare ack policies.
    """

    def __init__(self, total: int, burst_size: int, gap: float) -> None:
        super().__init__(total)
        if burst_size <= 0:
            raise ValueError(f"burst_size must be positive, got {burst_size}")
        if gap < 0:
            raise ValueError(f"gap must be non-negative, got {gap}")
        self.burst_size = burst_size
        self.gap = gap
        self._queued = 0
        self._generated = 0

    def _start(self) -> None:
        self._burst()

    def _burst(self) -> None:
        if self._generated >= self.total:
            return
        take = min(self.burst_size, self.total - self._generated)
        self._generated += take
        self._queued += take
        self._drain()
        if self._generated < self.total:
            self._bound_sim.schedule(self.gap, self._burst)

    def _on_window_open(self) -> None:
        self._drain()

    def _drain(self) -> None:
        while self._queued > 0 and not self.exhausted and self._bound_sender.can_accept:
            self._queued -= 1
            self._submit_one()
