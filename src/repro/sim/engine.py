"""Discrete-event simulation engine.

The engine is a classic event-list simulator: a priority queue of
:class:`Event` objects ordered by virtual time, drained by
:class:`Simulator.run`.  All protocol machinery in this package (channels,
timers, senders, receivers) is written against this engine.

Design notes
------------

* Virtual time is a ``float`` in abstract "time units".  Experiments
  typically interpret one unit as one mean one-way channel delay, but the
  engine itself attaches no meaning to the unit.
* The clock is the plain attribute :attr:`Simulator.now`: callers read
  it, and only the engine writes it (the drain loops and ``step`` set it
  to each event's time, ``run(until=)`` and ``run_while(max_time=)``
  advance it to their bound).  Endpoints, channels and timers read it
  several times per message, so a read is one attribute load rather
  than a property call.
* Ties in event time are broken by insertion order, which makes executions
  deterministic given a seeded random number generator.  Determinism is
  load-bearing: the trace-equivalence experiment (E7) replays two protocol
  variants under identical schedules and asserts identical behaviour.
  The order is a counter: ``Simulator.reserve()`` takes the number the
  next ``schedule`` would take without pushing anything, and
  :meth:`Simulator.schedule_reserved` pushes an event under it later, so
  that event sorts among equal-time events as if it had been scheduled
  when the number was taken (the timer banks of :mod:`repro.sim.timers`
  keep one event per bank this way).
* Events may be cancelled in O(1) by marking; the queue lazily discards
  cancelled entries when they surface.  This is the standard "lazy
  deletion" idiom for binary-heap event lists.
* The heap holds ``(time, seq, event)`` tuples rather than bare events, so
  every sift comparison during push/pop is a C-level tuple comparison
  instead of a Python-level ``Event.__lt__`` call.  The tie-break order is
  identical to comparing events directly; only the cost changes.
"""

from __future__ import annotations

import itertools
import math
from heapq import heappop, heappush
from typing import Any, Callable, Optional

__all__ = [
    "Event",
    "Simulator",
    "SimulationError",
    "ScheduleInPastError",
]


class SimulationError(Exception):
    """Base class for errors raised by the simulation engine."""


class ScheduleInPastError(SimulationError):
    """Raised when an event is scheduled with a negative or NaN delay."""


class Event:
    """A scheduled callback.

    Instances are created by :meth:`Simulator.schedule` and should not be
    constructed directly.  An event can be cancelled with :meth:`cancel`;
    cancelled events are silently skipped when their time comes.
    """

    __slots__ = ("time", "seq", "callback", "args", "cancelled")

    def __init__(
        self,
        time: float,
        seq: int,
        callback: Callable[..., None],
        args: tuple,
    ) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False

    def cancel(self) -> None:
        """Prevent this event from firing.  Idempotent."""
        self.cancelled = True

    @property
    def pending(self) -> bool:
        """True if the event has not been cancelled."""
        return not self.cancelled

    def __lt__(self, other: "Event") -> bool:
        # heapq requires a total order; break time ties by insertion order
        # so that executions are reproducible.
        return (self.time, self.seq) < (other.time, other.seq)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        name = getattr(self.callback, "__qualname__", repr(self.callback))
        return f"Event(t={self.time:.6g}, {name}, {state})"


class Simulator:
    """An event-driven virtual-time simulator.

    Typical use::

        sim = Simulator()
        sim.schedule(1.5, my_callback, arg1, arg2)
        sim.run(until=100.0)

    Callbacks run with the clock set to their scheduled time and may
    schedule further events.  The simulator is single-threaded and
    re-entrant scheduling from inside callbacks is the normal mode of
    operation.

    ``now`` is the current virtual time, a plain attribute: read it
    freely, but only the engine writes it.

    ``reserve()`` returns the tie-break number the next :meth:`schedule`
    would take, and pushes nothing; :meth:`schedule_reserved` pushes an
    event under such a number later.
    """

    # Optional seam: when set to a callable, every Timer built on this
    # simulator reports arms/cancels/fires as ``timer_observer(op, timer)``
    # (see repro.sim.timers).  The off-path cost is one attribute read;
    # the event loop itself never consults it.  The class attribute is
    # the documented default; __init__ sets the instance's own.
    timer_observer = None

    def __init__(self) -> None:
        self.timer_observer: Optional[Callable[[str, Any], None]] = None
        # entries are (time, seq, Event); see the module design notes
        self._queue: list[tuple[float, int, Event]] = []
        self.now: float = 0.0
        self._counter = itertools.count()
        # reserve() takes the tie-break number the next schedule() would
        # take and pushes nothing; it is the counter's own __next__, so a
        # timer bank's arm runs no Python frame for it
        self.reserve = self._counter.__next__
        self._events_processed = 0
        self._running = False
        self._instruments = None  # see set_instruments

    # ------------------------------------------------------------------
    # clock and introspection
    # ------------------------------------------------------------------

    @property
    def events_processed(self) -> int:
        """Number of events executed so far (cancelled events excluded)."""
        return self._events_processed

    @property
    def pending_count(self) -> int:
        """Number of not-yet-cancelled events in the queue.

        O(queue length); intended for tests and debugging, not hot paths.
        """
        return sum(1 for entry in self._queue if not entry[2].cancelled)

    def peek_time(self) -> Optional[float]:
        """Time of the next pending event, or None if the queue is empty."""
        self._discard_cancelled_head()
        if not self._queue:
            return None
        return self._queue[0][0]

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------

    def schedule(
        self, delay: float, callback: Callable[..., None], *args: Any
    ) -> Event:
        """Schedule ``callback(*args)`` to run ``delay`` time units from now.

        Returns the :class:`Event`, which can be cancelled.  A zero delay is
        allowed and runs after all events already scheduled for the current
        instant.  A negative or NaN delay raises
        :class:`ScheduleInPastError`: a NaN time would sort anywhere in
        the heap and set the clock to NaN when it ran.
        """
        if not delay >= 0:
            raise ScheduleInPastError(_delay_error(delay))
        time = self.now + delay
        seq = next(self._counter)
        event = Event(time, seq, callback, args)
        heappush(self._queue, (time, seq, event))
        return event

    def schedule_reserved(
        self, time: float, seq: int, callback: Callable[..., None], *args: Any
    ) -> Event:
        """Schedule ``callback(*args)`` at absolute ``time`` under ``seq``.

        ``seq`` is a number ``reserve()`` returned, used once.  The
        event runs exactly where an event :meth:`schedule` had pushed for
        ``time`` when ``seq`` was reserved would run.  ``time`` before
        :attr:`now`, or NaN, raises :class:`ScheduleInPastError`.  With
        instruments installed the push is reported to ``on_schedule``.
        """
        if not time >= self.now:
            raise ScheduleInPastError(_delay_error(time - self.now))
        event = Event(time, seq, callback, args)
        queue = self._queue
        heappush(queue, (time, seq, event))
        instruments = self._instruments
        if instruments is not None:
            instruments.on_schedule(len(queue))
        return event

    def schedule_at(
        self, time: float, callback: Callable[..., None], *args: Any
    ) -> Event:
        """Schedule ``callback(*args)`` at an absolute virtual time."""
        return self.schedule(time - self.now, callback, *args)

    # ------------------------------------------------------------------
    # instrumentation
    # ------------------------------------------------------------------

    def set_instruments(self, instruments: Optional[Any]) -> None:
        """Install (or with None, remove) engine telemetry hooks.

        ``instruments`` duck-types :class:`repro.obs.session.SimInstruments`:
        ``on_schedule(queue_len)``, ``on_fire(queue_len)``,
        ``on_cancel_discard()``.  The uninstrumented engine is untouched
        by this feature: ``schedule`` is swapped for its instrumented
        twin as an *instance* attribute, and the drain loops select an
        instrumented body once per call — with no instruments installed,
        every hot path is byte-for-byte the code above.
        """
        installed = self._instruments is not None
        self._instruments = instruments
        # ``schedule`` is the only name not set in __init__, and the
        # class's shared key table always has room for one late name, so
        # the simulator's attributes stay inline (DESIGN §10)
        if instruments is None:
            if installed:
                del self.schedule
        elif not installed:
            self.schedule = self._schedule_instrumented

    def _schedule_instrumented(
        self, delay: float, callback: Callable[..., None], *args: Any
    ) -> Event:
        """:meth:`schedule` plus the on_schedule hook (same semantics)."""
        if not delay >= 0:
            raise ScheduleInPastError(_delay_error(delay))
        time = self.now + delay
        seq = next(self._counter)
        event = Event(time, seq, callback, args)
        heappush(self._queue, (time, seq, event))
        self._instruments.on_schedule(len(self._queue))
        return event

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------

    def step(self) -> bool:
        """Execute the single next pending event.

        Returns True if an event ran, False if the queue was empty.
        """
        self._discard_cancelled_head()
        queue = self._queue
        if not queue:
            return False
        time, _, event = heappop(queue)
        self.now = time
        self._events_processed += 1
        if self._instruments is not None:
            self._instruments.on_fire(len(queue))
        event.callback(*event.args)
        return True

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> None:
        """Drain the event queue.

        Parameters
        ----------
        until:
            Stop once the next event would be strictly later than this
            time.  When no pending event at or before ``until`` remains,
            the clock is advanced to ``until`` on exit so that subsequent
            relative scheduling behaves intuitively; a drain cut short
            by ``max_events`` leaves the clock at the last event run.
        max_events:
            Stop after executing this many events (a runaway guard).
        """
        if self._running:
            raise SimulationError("Simulator.run is not re-entrant")
        self._running = True
        queue = self._queue
        pop = heappop
        instruments = self._instruments
        executed = 0
        try:
            if instruments is None:
                while queue:
                    head = queue[0]
                    if head[2].cancelled:
                        pop(queue)
                        continue
                    if until is not None and head[0] > until:
                        break
                    if max_events is not None and executed >= max_events:
                        break
                    pop(queue)
                    event = head[2]
                    self.now = head[0]
                    self._events_processed += 1
                    executed += 1
                    event.callback(*event.args)
            else:
                # instrumented twin of the loop above (kept separate so the
                # null path pays nothing for observability)
                while queue:
                    head = queue[0]
                    if head[2].cancelled:
                        pop(queue)
                        instruments.on_cancel_discard()
                        continue
                    if until is not None and head[0] > until:
                        break
                    if max_events is not None and executed >= max_events:
                        break
                    pop(queue)
                    event = head[2]
                    self.now = head[0]
                    self._events_processed += 1
                    executed += 1
                    instruments.on_fire(len(queue))
                    event.callback(*event.args)
        finally:
            self._running = False
        if until is not None and self.now < until:
            head_time = self.peek_time()
            if head_time is None or head_time > until:
                self.now = until

    def run_while(
        self,
        keep_going: Callable[[], bool],
        max_time: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> int:
        """Drain pending events for as long as ``keep_going()`` is true.

        The predicate is evaluated before every event; the drain also
        stops when the *next pending event* would be later than
        ``max_time`` (head-peek, the same boundary rule as
        ``run(until=)`` — an event scheduled exactly at ``max_time``
        fires, one strictly past it does not, and the clock advances to
        ``max_time`` when the bound is what stopped the drain), after
        ``max_events`` events, or when the queue runs dry.  Returns the
        number of events executed.

        This replaces the ``while not done(): sim.step()`` idiom: the
        whole drain loop lives inside the engine with the queue and heap
        ops bound to locals, so the per-event cost is one predicate call
        instead of predicate + ``step`` + head-scan indirection.
        """
        if self._running:
            raise SimulationError("Simulator.run_while is not re-entrant")
        self._running = True
        queue = self._queue
        pop = heappop
        instruments = self._instruments
        executed = 0
        timed_out = False
        try:
            if instruments is None:
                while keep_going():
                    while queue and queue[0][2].cancelled:
                        pop(queue)
                    if not queue:
                        break
                    if max_time is not None and queue[0][0] > max_time:
                        timed_out = True
                        break
                    if max_events is not None and executed >= max_events:
                        break
                    head = pop(queue)
                    self.now = head[0]
                    self._events_processed += 1
                    executed += 1
                    event = head[2]
                    event.callback(*event.args)
            else:
                # instrumented twin (see run); null path stays untouched
                while keep_going():
                    while queue and queue[0][2].cancelled:
                        pop(queue)
                        instruments.on_cancel_discard()
                    if not queue:
                        break
                    if max_time is not None and queue[0][0] > max_time:
                        timed_out = True
                        break
                    if max_events is not None and executed >= max_events:
                        break
                    head = pop(queue)
                    self.now = head[0]
                    self._events_processed += 1
                    executed += 1
                    event = head[2]
                    instruments.on_fire(len(queue))
                    event.callback(*event.args)
        finally:
            self._running = False
        if timed_out and self.now < max_time:
            self.now = max_time
        return executed

    def run_until_idle(self, max_events: int = 10_000_000) -> None:
        """Run until no events remain, guarded by ``max_events``."""
        self.run(max_events=max_events)
        self._discard_cancelled_head()
        if self._queue:
            raise SimulationError(
                f"event queue not drained after {max_events} events; "
                "possible livelock"
            )

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _discard_cancelled_head(self) -> None:
        queue = self._queue
        instruments = self._instruments
        while queue and queue[0][2].cancelled:
            heappop(queue)
            if instruments is not None:
                instruments.on_cancel_discard()


def _delay_error(delay: float) -> str:
    if math.isnan(delay):
        return "cannot schedule an event a NaN delay from now"
    return f"cannot schedule event {delay} time units in the past"
