"""The simulated unidirectional channel.

The paper models each channel as a *set* of in-transit messages whose
membership changes as messages are sent into it, lost from it, or received
from it.  :class:`Channel` realises that model on the event engine:

* **send** — the loss model may drop the message immediately (it leaves the
  set); otherwise a delay is drawn and delivery is scheduled;
* **reorder** — falls out of independent per-message delays;
* **aging** — if ``max_lifetime`` is set, a message whose sampled delay
  exceeds it is discarded instead of delivered.  This implements the
  paper's "mechanism for aging messages in transit, i.e., ensuring that
  they are eventually discarded if not received", and restores a finite
  message lifetime even under unbounded delay models.

The in-flight set is inspectable (:meth:`in_flight`,
:meth:`count_matching`).  Inspection exists for the *oracle* timeout of the
paper's abstract protocol, whose guard reads channel contents (e.g.
``C_SR = {}``); timer-based senders never touch it.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Optional

from repro.channel.delay import ConstantDelay, DelayModel
from repro.channel.impairments import LossModel, NoLoss
from repro.sim.engine import Simulator

__all__ = ["Channel", "ChannelStats"]


@dataclass
class ChannelStats:
    """Counters maintained by a :class:`Channel` over its lifetime."""

    sent: int = 0
    delivered: int = 0
    lost: int = 0
    aged_out: int = 0
    reordered: int = 0  # deliveries that overtook an earlier send
    duplicated: int = 0  # extra copies injected (see duplicate_probability)

    @property
    def in_flight_now(self) -> int:
        """Derived: copies sent but not yet delivered/lost/aged."""
        return (
            self.sent + self.duplicated - self.delivered - self.lost - self.aged_out
        )

    def as_dict(self) -> dict:
        return {
            "sent": self.sent,
            "delivered": self.delivered,
            "lost": self.lost,
            "aged_out": self.aged_out,
            "reordered": self.reordered,
            "duplicated": self.duplicated,
        }


class Channel:
    """A lossy, reordering, unidirectional channel.

    Parameters
    ----------
    sim:
        The event engine this channel schedules deliveries on.
    delay:
        Per-message delay model; defaults to a unit constant delay (FIFO).
    loss:
        Loss model; defaults to no loss.
    rng:
        Random stream for delay and loss draws.  Pass a dedicated stream
        per channel for reproducible comparative studies.
    max_lifetime:
        If set, messages whose sampled delay exceeds this bound are aged
        out (discarded) instead of delivered.
    duplicate_probability:
        Probability that a message is delivered twice (an independent
        second copy with its own delay).  **The paper's channel model
        forbids duplication** — assertion 8 requires at most one copy of
        each message in transit — so this knob exists to *demonstrate*
        that assumption's boundary (see ``tests/test_duplication.py``),
        not for normal operation.
    name:
        Label used in traces and reprs.
    """

    def __init__(
        self,
        sim: Simulator,
        delay: Optional[DelayModel] = None,
        loss: Optional[LossModel] = None,
        rng: Optional[random.Random] = None,
        max_lifetime: Optional[float] = None,
        duplicate_probability: float = 0.0,
        name: str = "channel",
    ) -> None:
        if max_lifetime is not None and max_lifetime <= 0:
            raise ValueError(f"max_lifetime must be positive, got {max_lifetime}")
        if not 0.0 <= duplicate_probability <= 1.0:
            raise ValueError(
                f"duplicate_probability must be in [0, 1], got {duplicate_probability}"
            )
        self.sim = sim
        self.delay = delay if delay is not None else ConstantDelay(1.0)
        self.loss = loss if loss is not None else NoLoss()
        self.rng = rng if rng is not None else random.Random(0)
        self.max_lifetime = max_lifetime
        self.duplicate_probability = duplicate_probability
        self.name = name
        self.stats = ChannelStats()
        self._receiver: Optional[Callable[[Any], None]] = None
        # flight_id -> (message, send_seq, event); a plain tuple rather
        # than a bookkeeping object keeps the per-message send cost to one
        # small allocation on the hot path
        self._in_flight: dict[int, tuple] = {}
        self._ids = itertools.count()
        self._last_delivered_send_seq = -1
        self._observers: list[Callable[[str, Any], None]] = []

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------

    def connect(self, receiver: Callable[[Any], None]) -> None:
        """Set the delivery callback.  Must be called before sending."""
        self._receiver = receiver

    def add_observer(self, observer: Callable[[str, Any], None]) -> None:
        """Register a callback invoked as ``observer(kind, message)``.

        ``kind`` is one of ``"send"``, ``"deliver"``, ``"lose"``, ``"age"``,
        or ``"duplicate"`` (an extra copy entering the channel).
        Observers feed the trace recorder and test probes.
        """
        self._observers.append(observer)

    # ------------------------------------------------------------------
    # the data path
    # ------------------------------------------------------------------

    def send(self, message: Any) -> None:
        """Inject a message; it will be lost, aged out, or delivered later."""
        if self._receiver is None:
            raise RuntimeError(f"channel {self.name!r} has no receiver connected")
        stats = self.stats
        rng = self.rng
        send_seq = stats.sent
        stats.sent = send_seq + 1
        # the observer list is re-read at every notify point, never
        # aliased into a local: an observer attached mid-send (e.g. from
        # a callback fired between two sends, or a telemetry layer wired
        # up after traffic started) is seen by the very next event; the
        # guarded inline loops cost a link without observers nothing
        if self._observers:
            for observer in self._observers:
                observer("send", message)

        if self.loss.drops_at(rng, self.sim.now):
            stats.lost += 1
            if self._observers:
                for observer in self._observers:
                    observer("lose", message)
            return

        copies = 1
        if (
            self.duplicate_probability > 0.0
            and rng.random() < self.duplicate_probability
        ):
            copies = 2
            stats.duplicated += 1
            if self._observers:  # the second copy entering
                for observer in self._observers:
                    observer("duplicate", message)

        max_lifetime = self.max_lifetime
        sample = self.delay.sample
        for _ in range(copies):
            transit = sample(rng)
            if max_lifetime is not None and transit > max_lifetime:
                stats.aged_out += 1
                if self._observers:
                    for observer in self._observers:
                        observer("age", message)
                continue
            flight_id = next(self._ids)
            event = self.sim.schedule(transit, self._deliver, flight_id)
            self._in_flight[flight_id] = (message, send_seq, event)

    def _deliver(self, flight_id: int) -> None:
        message, send_seq, _ = self._in_flight.pop(flight_id)
        self.stats.delivered += 1
        if send_seq < self._last_delivered_send_seq:
            self.stats.reordered += 1
        else:
            self._last_delivered_send_seq = send_seq
        if self._observers:
            for observer in self._observers:
                observer("deliver", message)
        self._receiver(message)

    def reset(self) -> None:
        """Return the channel to its just-built state for a repeat run.

        Cancels and discards everything in flight, zeroes the counters,
        and — crucially for reproducibility — resets the loss model, so
        stateful models (:class:`~repro.channel.impairments.\
GilbertElliottLoss`, :class:`~repro.channel.impairments.ScriptedLoss`)
        replay deterministically across repeated runs on one channel.
        The rng is owned by the caller and is *not* reseeded here.
        """
        for _, _, event in self._in_flight.values():
            event.cancel()
        self._in_flight.clear()
        self.stats = ChannelStats()
        self._last_delivered_send_seq = -1
        self.loss.reset()

    def drop_in_flight(self, predicate: Callable[[Any], bool]) -> int:
        """Forcibly lose in-flight messages matching ``predicate``.

        Returns the number dropped.  Used by fault-injection experiments to
        lose a specific message after it entered the channel.
        """
        doomed = [
            flight_id
            for flight_id, entry in self._in_flight.items()
            if predicate(entry[0])
        ]
        for flight_id in doomed:
            message, _, event = self._in_flight.pop(flight_id)
            event.cancel()
            self.stats.lost += 1
            for observer in self._observers:
                observer("lose", message)
        return len(doomed)

    # ------------------------------------------------------------------
    # oracle inspection (used only by the paper's abstract timeout guard)
    # ------------------------------------------------------------------

    def in_flight(self) -> Iterator[Any]:
        """Iterate over the messages currently in transit."""
        return (entry[0] for entry in self._in_flight.values())

    @property
    def in_flight_count(self) -> int:
        """Number of messages currently in transit."""
        return len(self._in_flight)

    @property
    def is_empty(self) -> bool:
        """True if no message is in transit (the paper's ``C = {}``)."""
        return not self._in_flight

    def count_matching(self, predicate: Callable[[Any], bool]) -> int:
        """Count in-flight messages matching ``predicate``.

        Implements the paper's ``*SR^m`` / ``*RS^m`` occupancy counts.
        """
        return sum(1 for message in self.in_flight() if predicate(message))

    # ------------------------------------------------------------------
    # derived bounds
    # ------------------------------------------------------------------

    @property
    def effective_max_lifetime(self) -> Optional[float]:
        """Longest time any message can spend in this channel.

        ``min`` of the delay model's bound and the aging bound; ``None`` if
        neither is finite (in which case no timer-based sender can safely
        use this channel).
        """
        bounds = [
            bound
            for bound in (self.delay.max_delay, self.max_lifetime)
            if bound is not None
        ]
        return min(bounds) if bounds else None

    # ------------------------------------------------------------------

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Channel({self.name!r}, delay={self.delay!r}, loss={self.loss!r}, "
            f"in_flight={self.in_flight_count})"
        )


# the raw channel is the reference implementation of the harness surface
from repro.channel.surface import ChannelSurface  # noqa: E402  (cycle-free)

ChannelSurface.register(Channel)
