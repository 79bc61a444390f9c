"""Restartable timers on top of the event engine.

Protocol endpoints need timers that can be started, stopped, and restarted
many times (retransmission timers above all).  Wrapping raw
:class:`~repro.sim.engine.Event` handles in a :class:`Timer` keeps the
endpoint code free of cancel-and-reschedule boilerplate and of the classic
bug where a stale timer event fires after the timer was logically stopped.

A :class:`TimerBank` keys many such timers (one per outstanding sequence
number) but gives the engine one event per bank, not one per arming.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable, Iterable, Optional

from repro.sim.engine import Event, Simulator

__all__ = ["Timer", "TimerBank", "AdaptiveTimer", "AdaptiveTimerBank"]

_INF = float("inf")


def _period_error(period: Any) -> str:
    return f"timer period must be finite and non-negative, got {period!r}"


class Timer:
    """A single restartable one-shot timer.

    The callback fires once, ``period`` after the most recent
    :meth:`start`/:meth:`restart`.  Stopping or restarting cancels the
    in-flight event, so the callback can never fire for a superseded arming.

    When the owning simulator carries a ``timer_observer`` attribute
    (see :class:`~repro.sim.engine.Simulator`), every arm, cancel, and
    fire is reported as ``observer(op, timer)`` with ``op`` in
    ``"arm"``/``"cancel"``/``"fire"`` — the seam the causal recorder
    uses to chain timer-fire → retransmit edges.  The cost when no
    observer is set is one attribute read per operation; the engine's
    event loop is untouched, so schedules are identical either way.

    ``expires_at`` is a plain slot, the virtual time of the pending
    firing or None while idle: :meth:`start` sets it, and :meth:`stop`
    and the firing clear it before they report, so an observer reads
    the deadline on ``"arm"`` and None on ``"cancel"`` and ``"fire"``.
    The timer's event is cancelled only by its own :meth:`stop`, so the
    timer runs exactly while it holds an event.
    """

    __slots__ = ("_sim", "_callback", "_args", "_event", "expires_at", "name", "key")

    def __init__(
        self,
        sim: Simulator,
        callback: Callable[..., None],
        *args: Any,
        name: str = "timer",
    ) -> None:
        self._sim = sim
        self._callback = callback
        self._args = args
        self._event: Optional[Event] = None
        self.expires_at: Optional[float] = None
        self.name = name
        self.key: Any = None  # TimerBank stamps its key here

    @property
    def running(self) -> bool:
        """True if the timer is armed and has not yet fired."""
        return self._event is not None

    def start(self, period: float) -> None:
        """Arm the timer ``period`` from now.  Restarts if already running.

        A period that is negative, infinite or NaN raises ValueError
        before a running arming is stopped.
        """
        if not 0.0 <= period < _INF:
            raise ValueError(_period_error(period))
        if self._event is not None:
            self.stop()
        sim = self._sim
        self.expires_at = sim.now + period
        self._event = sim.schedule(period, self._fire)
        observer = getattr(sim, "timer_observer", None)
        if observer is not None:
            observer("arm", self)

    def restart(self, period: float) -> None:
        """Alias of :meth:`start`; reads better at call sites that re-arm."""
        self.start(period)

    def stop(self) -> None:
        """Disarm the timer.  Safe to call when idle."""
        event = self._event
        if event is not None:
            event.cancel()
            self._event = None
            self.expires_at = None
            observer = getattr(self._sim, "timer_observer", None)
            if observer is not None:
                observer("cancel", self)

    def _fire(self) -> None:
        self._event = None
        self.expires_at = None
        observer = getattr(self._sim, "timer_observer", None)
        if observer is not None:
            observer("fire", self)
        self._callback(*self._args)


class _BankTimer(Timer):
    """The timer a :class:`TimerBank` keeps for one key while observed.

    Timer observers read its name, ``"<bank>[<key!r>]"``: the causal
    recorder's timer nodes when they are materialized, flight dumps and
    Perfetto tracks.  The name is fixed at construction, from the bank's
    name and the key, but formatted on first read and cached.  The bank
    arms, stops and fires the key itself and reports each on this timer,
    which keeps :class:`Timer`'s ``expires_at`` rules and is running
    exactly while it has one; when the key holds the bank's earliest
    arming, the bank's engine event runs through this timer's
    :meth:`Timer._fire`.
    """

    __slots__ = ("_bank_name", "_name")

    def __init__(self, bank: "TimerBank", key: Any) -> None:
        self._sim = bank._sim
        self._callback = bank._timer._callback  # the bank's bound _fire_head
        self._args = ()
        self._event = None
        self.expires_at = None
        self._bank_name = bank.name
        self._name: Optional[str] = None
        self.key = key

    @property
    def running(self) -> bool:
        return self.expires_at is not None

    @property
    def name(self) -> str:
        name = self._name
        if name is None:
            name = self._name = f"{self._bank_name}[{self.key!r}]"
        return name


class TimerBank:
    """A keyed collection of independent timers on one engine event.

    The sophisticated-timeout sender (paper Section IV) keeps one
    retransmission timer per outstanding sequence number.  A bank acts
    as one :class:`Timer` per key: the same firings, at the same times,
    in the same engine order, with the same observer reports.  It holds
    only keys started since they were last stopped.

    Inside, each arming is an entry ``(deadline, seq, key)`` of the
    bank's own heap, and the engine holds one event per bank, for the
    earliest live arming (the head):

    * An arm takes the engine's next tie-break number (``reserve()``),
      and the head event is pushed under its arming's number
      (:meth:`~repro.sim.engine.Simulator.schedule_reserved`).  So every
      live arming keeps the ``(time, seq)`` its own event would carry,
      the head is the smallest of them and is on the engine's heap while
      it is live, and the engine runs the same events in the same order
      as it would with one event per arming.
    * ``_live`` maps each known key to the ``seq`` of its live arming,
      or to None once that arming fired: a fired key stays known, in its
      place, until it is stopped.  Stopped and superseded armings stay
      in the heap until they reach its top, so the top is always live.
    * The head moves when an arm comes before it, when it is stopped or
      re-armed, and when it fires.  :meth:`stop_many` stops any number
      of keys and moves it at most once.

    With no timer observer the head event runs through the bank's own
    timer and the bank allocates nothing per key.  With
    ``sim.timer_observer`` set, which every operation reads, each armed
    key keeps a :class:`_BankTimer`, made at its first arm and dropped
    at stop; arms, cancels and fires are reported on it as on a
    :class:`Timer`.  Install the observer before the first arm, as the
    session host does.
    """

    def __init__(
        self,
        sim: Simulator,
        callback: Callable[[Any], None],
        name: str = "timerbank",
    ) -> None:
        self._sim = sim
        self._callback = callback
        self.name = name
        self._period: Optional[float] = None  # see AdaptiveTimerBank
        self._live: dict[Any, Optional[int]] = {}
        self._heap: list[tuple[float, int, Any]] = []
        self._named: dict[Any, _BankTimer] = {}  # observed keys' timers
        # the head event's timer when its key has no _BankTimer
        self._timer = Timer(sim, self._fire_head, name=name)
        self._head_time = _INF
        self._head_seq = -1
        self._head_event: Optional[Event] = None

    def start(self, key: Any, period: Optional[float] = None) -> None:
        """Arm (or re-arm) the timer for ``key``, ``period`` from now.

        Only an :class:`AdaptiveTimerBank` arms without an explicit
        ``period``.  A period that is negative, infinite or NaN raises
        ValueError before anything changes.
        """
        if period is None:
            period = self._period
            if period is None:
                period = self._default_period(key)
        elif not 0.0 <= period < _INF:
            raise ValueError(_period_error(period))
        sim = self._sim
        deadline = sim.now + period
        seq = sim.reserve()
        live = self._live
        old = live.get(key)
        live[key] = seq
        observer = getattr(sim, "timer_observer", None)
        if observer is None:
            timer = self._timer
        else:
            timer = self._named.get(key)
            if timer is None:
                timer = self._named[key] = _BankTimer(self, key)
            if old is not None:
                timer.expires_at = None
                observer("cancel", timer)
            timer.expires_at = deadline
            observer("arm", timer)
        heappush(self._heap, (deadline, seq, key))
        if deadline < self._head_time:
            # the new arming comes first: it is the heap's top now
            event = self._head_event
            if event is not None:
                event.cancel()
            self._head_time = deadline
            self._head_seq = seq
            self._head_event = sim.schedule_reserved(deadline, seq, timer._fire)
        elif old == self._head_seq:
            # the head was re-armed later: its entry is dead at the top
            self._head_event.cancel()
            self._next_head()

    def stop(self, key: Any) -> None:
        """Disarm and forget the timer for ``key``.  Safe if the key is unknown."""
        self.stop_many((key,))

    def stop_many(self, keys: Iterable[Any]) -> None:
        """Disarm and forget the timers of ``keys``; unknown keys are skipped.

        The same as :meth:`stop` on each key in turn, observer reports
        included, but the head moves at most once.
        """
        live = self._live
        named = self._named
        head_seq = self._head_seq
        hit = False
        observer = getattr(self._sim, "timer_observer", None)
        if observer is None and not named:
            pop = live.pop
            for key in keys:
                if pop(key, None) == head_seq:
                    hit = True
        else:
            for key in keys:
                seq = live.pop(key, None)
                timer = named.pop(key, None)
                if seq is None:
                    continue
                if seq == head_seq:
                    hit = True
                if observer is not None:
                    if timer is None:
                        timer = _BankTimer(self, key)
                    timer.expires_at = None
                    observer("cancel", timer)
        if hit:
            self._head_event.cancel()
            self._next_head()

    def stop_all(self) -> None:
        """Disarm and forget every timer in the bank."""
        self.stop_many(list(self._live))

    def running(self, key: Any) -> bool:
        """True if the timer for ``key`` is armed."""
        return self._live.get(key) is not None

    def active_keys(self) -> list:
        """Keys whose timers are currently armed."""
        return [key for key, seq in self._live.items() if seq is not None]

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _default_period(self, key: Any) -> float:
        raise TypeError(f"{self.name}: start() needs a period; the bank has none")

    def _next_head(self) -> None:
        """Drop dead entries off the heap's top and schedule the live one."""
        heap = self._heap
        live = self._live
        while heap:
            deadline, seq, key = heap[0]
            if live.get(key) == seq:
                named = self._named
                timer = named.get(key, self._timer) if named else self._timer
                self._head_time = deadline
                self._head_seq = seq
                self._head_event = self._sim.schedule_reserved(
                    deadline, seq, timer._fire
                )
                return
            heappop(heap)
        self._head_time = _INF
        self._head_seq = -1
        self._head_event = None

    def _fire_head(self) -> None:
        """The head event: expire the earliest arming, then call back."""
        key = heappop(self._heap)[2]
        self._live[key] = None
        self._next_head()
        self._callback(key)


class AdaptiveTimer(Timer):
    """A timer whose period is supplied by a callable at each arming.

    Adaptive-retransmission senders arm timers with a period that moves
    run to run (RTO estimate times backoff factor).  Rather than thread
    the period through every call site, the timer owns a ``period_fn``
    consulted at arm time: :meth:`start`/:meth:`restart` with no
    argument ask ``period_fn()``; passing an explicit period still
    works, so an ``AdaptiveTimer`` with ``period_fn=lambda: T`` is a
    drop-in :class:`Timer` with a default period.
    """

    __slots__ = ("_period_fn",)

    def __init__(
        self,
        sim: Simulator,
        callback: Callable[..., None],
        *args: Any,
        period_fn: Callable[[], float],
        name: str = "timer",
    ) -> None:
        super().__init__(sim, callback, *args, name=name)
        self._period_fn = period_fn

    def start(self, period: Optional[float] = None) -> None:
        """Arm for ``period`` — or for ``period_fn()`` when omitted."""
        super().start(period if period is not None else self._period_fn())

    def restart(self, period: Optional[float] = None) -> None:
        """Alias of :meth:`start`; reads better at re-arming call sites."""
        self.start(period)


class AdaptiveTimerBank(TimerBank):
    """A :class:`TimerBank` whose per-key periods come from a callable.

    ``period_fn(key)`` is consulted whenever :meth:`start` is called
    without an explicit period, letting each key's timer back off
    independently.  Given a fixed ``period`` instead, the bank arms at
    it and calls nothing, as a fixed-timer sender's bank does.
    """

    def __init__(
        self,
        sim: Simulator,
        callback: Callable[[Any], None],
        period_fn: Optional[Callable[[Any], float]] = None,
        name: str = "timerbank",
        period: Optional[float] = None,
    ) -> None:
        if (period_fn is None) == (period is None):
            raise ValueError("AdaptiveTimerBank takes one of period_fn and period")
        if period is not None and not 0.0 <= period < _INF:
            raise ValueError(_period_error(period))
        super().__init__(sim, callback, name=name)
        self._period = period
        self._period_fn = period_fn

    def _default_period(self, key: Any) -> float:
        period = self._period_fn(key)
        if not 0.0 <= period < _INF:
            raise ValueError(_period_error(period))
        return period
