"""Restartable timers on top of the event engine.

Protocol endpoints need timers that can be started, stopped, and restarted
many times (retransmission timers above all).  Wrapping raw
:class:`~repro.sim.engine.Event` handles in a :class:`Timer` keeps the
endpoint code free of cancel-and-reschedule boilerplate and of the classic
bug where a stale timer event fires after the timer was logically stopped.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.sim.engine import Event, Simulator

__all__ = ["Timer", "TimerBank", "AdaptiveTimer", "AdaptiveTimerBank"]


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
        """Arm the timer ``period`` from now.  Restarts if already running."""
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
    """The timer a :class:`TimerBank` keeps for one key.

    A bank builds one of these per sent sequence number, but only timer
    observers read its name, ``"<bank>[<key!r>]"``: the causal
    recorder's timer nodes when they are materialized, flight dumps and
    Perfetto tracks.  The name is fixed at construction, from the
    bank's name and the key, but formatted on first read and cached.
    The constructor fills the fields :meth:`Timer.__init__` fills;
    start, stop and fire are :class:`Timer`'s own.
    """

    __slots__ = ("_bank_name", "_name")

    def __init__(self, bank: "TimerBank", key: Any) -> None:
        self._sim = bank._sim
        self._callback = bank._callback
        self._args = (key,)
        self._event = None
        self.expires_at = None
        self._bank_name = bank.name
        self._name: Optional[str] = None
        self.key = key

    @property
    def name(self) -> str:
        name = self._name
        if name is None:
            name = self._name = f"{self._bank_name}[{self.key!r}]"
        return name


class TimerBank:
    """A keyed collection of independent timers.

    The sophisticated-timeout sender (paper Section IV) keeps one
    retransmission timer per outstanding sequence number; a ``TimerBank``
    maps keys (sequence numbers) to timers, creates them on demand and
    forgets them on :meth:`stop`, so it holds only keys started since
    they were last stopped.
    """

    def __init__(
        self,
        sim: Simulator,
        callback: Callable[[Any], None],
        name: str = "timerbank",
    ) -> None:
        self._sim = sim
        self._callback = callback
        self._timers: dict[Any, Timer] = {}
        self.name = name

    def start(self, key: Any, period: float) -> None:
        """Arm (or re-arm) the timer for ``key``."""
        timers = self._timers
        timer = timers.get(key)
        if timer is None:
            timer = timers[key] = _BankTimer(self, key)
        timer.start(period)

    def stop(self, key: Any) -> None:
        """Disarm and forget the timer for ``key``.  Safe if the key is unknown."""
        timer = self._timers.pop(key, None)
        if timer is not None:
            timer.stop()

    def stop_all(self) -> None:
        """Disarm and forget every timer in the bank."""
        for timer in self._timers.values():
            timer.stop()
        self._timers.clear()

    def running(self, key: Any) -> bool:
        """True if the timer for ``key`` is armed."""
        timer = self._timers.get(key)
        return timer is not None and timer.running

    def active_keys(self) -> list:
        """Keys whose timers are currently armed."""
        return [key for key, timer in self._timers.items() if timer.running]


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
    independently.
    """

    def __init__(
        self,
        sim: Simulator,
        callback: Callable[[Any], None],
        period_fn: Callable[[Any], float],
        name: str = "timerbank",
    ) -> None:
        super().__init__(sim, callback, name=name)
        self._period_fn = period_fn

    def start(self, key: Any, period: Optional[float] = None) -> None:
        """Arm (or re-arm) ``key`` — for ``period_fn(key)`` when omitted."""
        if period is None:
            period = self._period_fn(key)
        TimerBank.start(self, key, period)
