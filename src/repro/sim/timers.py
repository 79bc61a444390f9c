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
    """

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
        self._expires_at: Optional[float] = None
        self.name = name
        self.key: Any = None  # TimerBank stamps its key here

    @property
    def running(self) -> bool:
        """True if the timer is armed and has not yet fired."""
        return self._event is not None and self._event.pending

    @property
    def expires_at(self) -> Optional[float]:
        """Virtual time at which the timer will fire, or None if idle."""
        return self._expires_at if self.running else None

    def start(self, period: float) -> None:
        """Arm the timer ``period`` from now.  Restarts if already running."""
        self.stop()
        self._expires_at = self._sim.now + period
        self._event = self._sim.schedule(period, self._fire)
        observer = getattr(self._sim, "timer_observer", None)
        if observer is not None:
            observer("arm", self)

    def restart(self, period: float) -> None:
        """Alias of :meth:`start`; reads better at call sites that re-arm."""
        self.start(period)

    def stop(self) -> None:
        """Disarm the timer.  Safe to call when idle."""
        if self._event is not None:
            self._event.cancel()
            self._event = None
            observer = getattr(self._sim, "timer_observer", None)
            if observer is not None:
                observer("cancel", self)
        self._expires_at = None

    def _fire(self) -> None:
        self._event = None
        self._expires_at = None
        observer = getattr(self._sim, "timer_observer", None)
        if observer is not None:
            observer("fire", self)
        self._callback(*self._args)


class TimerBank:
    """A keyed collection of independent timers.

    The sophisticated-timeout sender (paper Section IV) keeps one
    retransmission timer per outstanding sequence number; a ``TimerBank``
    maps keys (sequence numbers) to timers and creates them on demand.
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
        timer = self._timers.get(key)
        if timer is None:
            timer = Timer(
                self._sim, self._callback, key, name=f"{self.name}[{key!r}]"
            )
            timer.key = key
            self._timers[key] = timer
        timer.start(period)

    def stop(self, key: Any) -> None:
        """Disarm the timer for ``key``.  Safe if the key is unknown."""
        timer = self._timers.get(key)
        if timer is not None:
            timer.stop()

    def stop_all(self) -> None:
        """Disarm every timer in the bank."""
        for timer in self._timers.values():
            timer.stop()

    def running(self, key: Any) -> bool:
        """True if the timer for ``key`` is armed."""
        timer = self._timers.get(key)
        return timer is not None and timer.running

    def active_keys(self) -> list:
        """Keys whose timers are currently armed."""
        return [key for key, timer in self._timers.items() if timer.running]

    def prune(self) -> None:
        """Drop idle timers to keep the bank small on long runs."""
        self._timers = {
            key: timer for key, timer in self._timers.items() if timer.running
        }


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
        super().start(key, period if period is not None else self._period_fn(key))
