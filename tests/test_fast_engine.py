"""Engine edge cases first written for the calendar-queue engine.

That engine is gone; its edge cases stay, now run against the heap
engine.  Parametrized cases run on every entry of ``ENGINE_VARIANTS``
(the bare engine and the instrumented one, test ids ``default`` and
``fast``); the rest run on :class:`InstrumentedSimulator` and, where
they compare, against a bare :class:`Simulator`.  Covered: peeking
across cancelled heads, a callback cancelling a same-timestamp event,
zero-delay and same-time ties, large fan-outs scheduled mid-drain,
instrument swaps between the lean and instrumented drain loops,
exceptions raised by callbacks, cross-process determinism, and the
``use_engine`` helper that the end-to-end ``fast`` variants rely on.
"""

import subprocess
import sys

import pytest

from repro.sim.engine import Simulator

from .conftest import ENGINE_VARIANTS, InstrumentedSimulator, use_engine


class TestPeekAcrossCancelledHeads:
    def test_peek_skips_cancelled_head(self):
        sim = InstrumentedSimulator()
        first = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        first.cancel()
        assert sim.peek_time() == 2.0

    def test_peek_skips_run_of_cancelled_heads_across_buckets(self):
        # a long run of cancelled heads at distinct times: peek has to
        # discard every one of them before it finds the live event
        sim = InstrumentedSimulator()
        doomed = [sim.schedule(float(i), lambda: None) for i in range(50)]
        survivor = sim.schedule(50.0, lambda: None)
        for event in doomed:
            event.cancel()
        assert sim.peek_time() == 50.0
        assert survivor.pending
        sim.run()
        assert sim.now == 50.0
        # cancelled events are discarded, not fired
        assert sim.events_processed == 1

    def test_peek_empty_after_all_cancelled(self):
        sim = InstrumentedSimulator()
        events = [sim.schedule(float(i), lambda: None) for i in range(10)]
        for event in events:
            event.cancel()
        assert sim.peek_time() is None
        sim.run()
        assert sim.events_processed == 0


class TestIntraBatchCancel:
    """A callback cancelling a same-timestamp, not-yet-fired event.

    The engine must skip the cancelled event although it already sits
    at the head of the queue when the earlier callback runs.
    """

    def test_cancel_later_event_in_same_batch(self, sim):
        seen = []
        victim_box = []

        def assassin():
            seen.append("assassin")
            victim_box[0].cancel()

        # assassin has the earlier seq, so it fires first at t=1 and
        # cancels the victim queued for the same instant
        sim.schedule(1.0, assassin)
        victim_box.append(sim.schedule(1.0, seen.append, "victim"))
        sim.run()
        assert seen == ["assassin"]
        assert not victim_box[0].pending

    def test_cancelled_batch_member_not_counted_as_processed(self, sim):
        victim_box = []

        def assassin():
            victim_box[0].cancel()

        sim.schedule(1.0, assassin)
        victim_box.append(sim.schedule(1.0, lambda: None))
        sim.schedule(1.0, lambda: None)
        sim.run()
        # assassin + trailing noop fire; the victim must not be counted
        assert sim.events_processed == 2

    def test_double_cancel_is_idempotent(self, sim):
        victim_box = []

        def assassin():
            victim_box[0].cancel()
            victim_box[0].cancel()

        sim.schedule(1.0, assassin)
        victim_box.append(sim.schedule(1.0, lambda: None))
        sim.run()
        assert sim.events_processed == 1
        assert not victim_box[0].pending


class TestZeroDelayTies:
    def test_zero_delay_self_reschedule_preserves_fifo(self, sim):
        """Zero-delay rescheduling at the current timestamp: new events
        run after every event already queued for that instant."""
        order = []

        def ping(tag, remaining):
            order.append(tag)
            if remaining:
                sim.schedule(0.0, ping, tag, remaining - 1)

        sim.schedule(1.0, ping, "a", 2)
        sim.schedule(1.0, ping, "b", 2)
        sim.run()
        assert order == ["a", "b", "a", "b", "a", "b"]
        assert sim.now == 1.0

    def test_schedule_at_into_current_bucket(self):
        """schedule_at a hair after the instant currently being drained."""
        sim = InstrumentedSimulator()
        seen = []

        def first():
            seen.append(("first", sim.now))
            sim.schedule_at(1.0 + 1e-9, lambda: seen.append(("second", sim.now)))

        sim.schedule_at(1.0, first)
        sim.run()
        assert [tag for tag, _ in seen] == ["first", "second"]
        times = [t for _, t in seen]
        assert times[0] == 1.0 and times[1] > 1.0

    def test_same_time_schedule_at_from_callback_joins_batch(self):
        sim = InstrumentedSimulator()
        seen = []

        def first():
            seen.append("first")
            sim.schedule_at(sim.now, lambda: seen.append("tail"))

        sim.schedule_at(1.0, first)
        sim.schedule_at(1.0, lambda: seen.append("middle"))
        sim.run()
        assert seen == ["first", "middle", "tail"]


class TestResizeMidRun:
    def test_growth_through_many_resizes_keeps_order(self):
        """Fan thousands of events out from inside callbacks while the
        drain is running; the instrumented engine must fire exactly the
        sequence the bare engine fires."""

        def fan_out(sim):
            fired = []

            def burst(base):
                fired.append(base)
                if base < 5:
                    for offset in range(400):
                        sim.schedule(
                            0.5 + (offset % 7) * 0.125,
                            fired.append,
                            (base, offset),
                        )
                    sim.schedule(10.0, burst, base + 1)

            sim.schedule(0.0, burst, 0)
            sim.run()
            return fired

        sim = InstrumentedSimulator()
        fired = fan_out(sim)
        assert sim.pending_count == 0
        assert len(fired) == 6 + 5 * 400
        ref_sim = Simulator()
        assert fired == fan_out(ref_sim)
        assert sim.now == ref_sim.now
        assert sim.events_processed == ref_sim.events_processed


class TestInstrumentSwap:
    class _Instruments:
        def __init__(self):
            self.schedules = []
            self.fires = []
            self.discards = 0

        def on_schedule(self, queue_len):
            self.schedules.append(queue_len)

        def on_fire(self, queue_len):
            self.fires.append(queue_len)

        def on_cancel_discard(self):
            self.discards += 1

    def test_install_remove_reinstall_and_spare_remove(self):
        """``schedule`` is the lean method exactly while no instruments
        are installed; a swap keeps the twin, and removing with none
        installed is a no-op."""
        sim = Simulator()
        lean, twin = Simulator.schedule, Simulator._schedule_instrumented
        first, second = self._Instruments(), self._Instruments()
        assert sim.schedule.__func__ is lean
        sim.set_instruments(first)
        assert sim.schedule.__func__ is twin
        sim.set_instruments(None)
        assert sim.schedule.__func__ is lean
        sim.set_instruments(first)
        sim.set_instruments(second)
        assert sim.schedule.__func__ is twin
        sim.schedule(1.0, lambda: None)
        assert (len(first.schedules), len(second.schedules)) == (0, 1)
        sim.set_instruments(None)
        sim.set_instruments(None)
        assert sim.schedule.__func__ is lean
        sim.schedule(1.0, lambda: None)
        sim.run()
        assert len(second.schedules) == 1 and second.fires == []

    def test_mid_run_attach_defers_drain_hooks_to_next_run(self, sim):
        """The drain body is bound once per ``run()`` call: a mid-run
        attach does not reach the current drain, but the *schedule*
        hook — swapped as an instance attribute — is live immediately,
        and the next drain call reports to the new instruments."""
        instruments = self._Instruments()
        seen = []

        def attach():
            seen.append("attach")
            sim.set_instruments(instruments)
            # schedule() already reports to the new instruments here
            sim.schedule(1.0, seen.append, "post-attach")

        sim.schedule(1.0, attach)
        sim.schedule(2.0, seen.append, "observed-a")
        sim.run()
        assert seen == ["attach", "observed-a", "post-attach"]
        assert sim.events_processed == 3
        assert len(instruments.schedules) == 1  # the post-attach schedule
        assert instruments.fires == []  # this drain kept its instruments

        sim.schedule(1.0, seen.append, "next-run")
        sim.run()
        assert seen[-1] == "next-run"
        assert len(instruments.fires) == 1  # fresh drain is instrumented

    def test_mid_run_detach_keeps_current_drain_instrumented(self, sim):
        instruments = self._Instruments()
        sim.set_instruments(instruments)
        seen = []

        def detach():
            seen.append("detach")
            sim.set_instruments(None)

        sim.schedule(1.0, detach)
        sim.schedule(2.0, seen.append, "after")
        sim.run()
        assert seen == ["detach", "after"]
        assert sim.events_processed == 2
        # the in-flight drain captured the instruments at entry...
        assert len(instruments.fires) == 2
        assert len(instruments.schedules) == 2
        # ...but the next drain (and schedule) runs lean again
        sim.schedule(1.0, seen.append, "lean")
        sim.run()
        assert len(instruments.fires) == 2
        assert len(instruments.schedules) == 2


class TestExceptionPropagation:
    def test_exception_preserves_pending_events(self, sim):
        """A raising callback leaves the rest of the queue intact and
        resumable, and counts the raising event as processed."""
        seen = []

        def boom():
            seen.append("boom")
            raise RuntimeError("bang")

        sim.schedule(1.0, seen.append, "before")
        sim.schedule(2.0, boom)
        sim.schedule(2.0, seen.append, "same-time-later")
        sim.schedule(3.0, seen.append, "after")
        with pytest.raises(RuntimeError):
            sim.run()
        assert seen == ["before", "boom"]
        assert sim.events_processed == 2
        assert sim.pending_count == 2
        sim.run()  # resumable: the queued events still fire in order
        assert seen == ["before", "boom", "same-time-later", "after"]
        assert sim.events_processed == 4

    def test_exception_with_cancelled_batch_member(self, sim):
        victim_box = []

        def boom():
            victim_box[0].cancel()
            raise RuntimeError("bang")

        sim.schedule(1.0, boom)
        victim_box.append(sim.schedule(1.0, lambda: None))
        sim.schedule(1.0, lambda: None)
        with pytest.raises(RuntimeError):
            sim.run()
        # boom fired (and is counted); victim was cancelled, not fired
        assert sim.events_processed == 1
        assert sim.pending_count == 1


def test_use_engine_reaches_every_simulator_site(monkeypatch):
    """``use_engine`` must swap the engine that ``run_transfer``,
    ``run_flows`` and the bench workloads build, or every ``fast``
    end-to-end variant silently reruns the bare engine."""
    from repro.perf.bench import _engine_chain, _transfer
    from repro.sim.host import run_flows, uniform_flows

    built = []

    class Recording(InstrumentedSimulator):
        def __init__(self):
            super().__init__()
            built.append(self)

    monkeypatch.setitem(ENGINE_VARIANTS, "fast", Recording)
    use_engine(monkeypatch, "fast")
    _engine_chain(10)
    _transfer(10)
    run_flows(uniform_flows("blockack", 2, 4, 5), seed=1)
    assert len(built) == 3


_DETERMINISM_SNIPPET = """
import json
from repro.obs import MetricsRegistry
from repro.obs.session import SimInstruments
from repro.sim.engine import Simulator

sim = Simulator()
sim.set_instruments(SimInstruments(MetricsRegistry()))
log = []

def tick(tag, n):
    log.append((sim.now, tag))
    if n:
        sim.schedule(0.25 + (n % 5) * 0.125, tick, tag, n - 1)

for tag in ("a", "b", "c"):
    sim.schedule(1.0, tick, tag, 40)
sim.run()
print(json.dumps([sim.events_processed, sim.now, log]))
"""


def test_fast_engine_deterministic_across_hash_seeds():
    """The instrumented engine must not depend on hash ordering:
    identical runs under different PYTHONHASHSEED values produce
    identical logs."""
    outputs = set()
    for hash_seed in ("0", "1", "424242"):
        result = subprocess.run(
            [sys.executable, "-c", _DETERMINISM_SNIPPET],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": "src", "PYTHONHASHSEED": hash_seed},
            check=True,
        )
        outputs.add(result.stdout)
    assert len(outputs) == 1
