"""A wall-clock scheduler with the simulator's scheduling interface.

Everything in this library — senders, receivers, timers, ack policies —
talks to a scheduler through ``schedule(delay, fn, *args)`` returning a
cancellable handle, the ``now`` property, and, for timer banks,
``reserve()`` and ``schedule_reserved(time, seq, fn, *args)``.
:class:`RealtimeScheduler` implements that same surface over
``time.monotonic`` and a worker thread, so **the exact protocol endpoint
objects that run in simulation run unchanged over real transports**
(:mod:`repro.transport.udp`).

Concurrency model: one worker thread owns every callback.  ``schedule``
may be called from any thread (the UDP receive thread, the application);
callbacks themselves always execute serialized on the worker, which is
the same single-threaded discipline the simulation provides — endpoint
code needs no locks.
"""

from __future__ import annotations

import heapq
import itertools
import threading
import time
from typing import Any, Callable, List, Optional, Tuple

from repro.sim.engine import Event

__all__ = ["RealtimeScheduler"]


class RealtimeScheduler:
    """Wall-clock event loop compatible with the simulator's interface.

    Use as a context manager, or call :meth:`start` / :meth:`stop`::

        with RealtimeScheduler() as clock:
            clock.call_soon(wire_endpoints, clock)
            done = clock.run_while(lambda: not finished(), max_time=30.0)
    """

    def __init__(self) -> None:
        self._heap: List[Event] = []
        self._lock = threading.Condition()
        self._counter = itertools.count()
        self._origin = time.monotonic()
        self._thread: Optional[threading.Thread] = None
        self._running = False
        self._exceptions: List[BaseException] = []
        # run_while's predicate and the event its caller waits on
        self._watch: Optional[Tuple[Callable[[], bool], threading.Event]] = None

    # -- the simulator-compatible surface ---------------------------------

    @property
    def now(self) -> float:
        """Seconds since the scheduler was created."""
        return time.monotonic() - self._origin

    def schedule(
        self, delay: float, callback: Callable[..., None], *args: Any
    ) -> Event:
        """Schedule ``callback(*args)`` on the worker, ``delay`` from now.

        Thread-safe; a zero delay runs as soon as the worker is free.  A
        negative or NaN delay raises ValueError.
        """
        if not delay >= 0:
            raise ValueError(f"cannot schedule an event {delay}s from now")
        event = Event(self.now + delay, next(self._counter), callback, args)
        with self._lock:
            heapq.heappush(self._heap, event)
            self._lock.notify()
        return event

    def reserve(self) -> int:
        """Take the tie-break number the next :meth:`schedule` would take."""
        return next(self._counter)

    def schedule_reserved(
        self, time: float, seq: int, callback: Callable[..., None], *args: Any
    ) -> Event:
        """Schedule ``callback(*args)`` at ``time`` (on :attr:`now`'s scale)
        under ``seq``, a number :meth:`reserve` returned.

        Thread-safe; a ``time`` already past runs as soon as the worker is
        free.  A NaN ``time`` raises ValueError.
        """
        if not time >= 0:
            raise ValueError(f"cannot schedule an event at {time}s")
        event = Event(time, seq, callback, args)
        with self._lock:
            heapq.heappush(self._heap, event)
            self._lock.notify()
        return event

    def call_soon(self, callback: Callable[..., None], *args: Any) -> Event:
        """Run ``callback`` on the worker thread as soon as possible."""
        return self.schedule(0.0, callback, *args)

    def run_while(
        self, keep_going: Callable[[], bool], max_time: Optional[float] = None
    ) -> bool:
        """Block while ``keep_going()`` is true, at most until ``max_time``.

        The wall-clock :meth:`repro.sim.engine.Simulator.run_while`: the
        worker evaluates ``keep_going()`` once at entry and after every
        callback, on the one thread that runs endpoint code.  Returns True
        when it turned false, False when :attr:`now` reached ``max_time``
        or a callback raised (re-raised on :meth:`stop`), even before the
        call.  Raises RuntimeError on a scheduler that is not running.
        """
        finished = threading.Event()
        with self._lock:
            if not self._running:
                if self._exceptions:
                    return False  # a callback already raised
                raise RuntimeError("run_while needs a running scheduler")
            self._watch = (keep_going, finished)
        # a no-op callback: the worker evaluates keep_going after it
        self.call_soon(lambda: None)
        timeout = None if max_time is None else max(0.0, max_time - self.now)
        try:
            return finished.wait(timeout) and not self._exceptions
        finally:
            self._watch = None

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "RealtimeScheduler":
        if self._running:
            raise RuntimeError("scheduler already running")
        self._running = True
        self._thread = threading.Thread(
            target=self._run, name="repro-clock", daemon=True
        )
        self._thread.start()
        return self

    def stop(self, drain_timeout: float = 1.0) -> None:
        """Stop the worker; raises the first callback exception, if any."""
        with self._lock:
            self._running = False
            self._lock.notify()
        if self._thread is not None:
            self._thread.join(timeout=drain_timeout)
            self._thread = None
        if self._exceptions:
            raise self._exceptions[0]

    def __enter__(self) -> "RealtimeScheduler":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    @property
    def failed(self) -> bool:
        """True if a callback raised (the exception re-raises on stop)."""
        return bool(self._exceptions)

    # -- worker --------------------------------------------------------------

    def _run(self) -> None:
        while True:
            with self._lock:
                while self._running:
                    while self._heap and self._heap[0].cancelled:
                        heapq.heappop(self._heap)
                    if not self._heap:
                        self._lock.wait(timeout=0.1)
                        continue
                    wait = self._heap[0].time - self.now
                    if wait <= 0:
                        event = heapq.heappop(self._heap)
                        break
                    self._lock.wait(timeout=min(wait, 0.1))
                else:
                    return
            try:
                event.callback(*event.args)
                watch = self._watch
                if watch is not None and not watch[0]():
                    watch[1].set()
            except BaseException as error:  # noqa: BLE001 - surfaced on stop
                self._exceptions.append(error)
                with self._lock:
                    self._running = False
                    if self._watch is not None:
                        self._watch[1].set()  # ends run_while's wait
                    return
