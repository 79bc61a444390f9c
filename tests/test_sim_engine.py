"""Unit tests for the discrete-event engine."""

import pytest

from repro.sim.engine import ScheduleInPastError, SimulationError


class TestScheduling:
    def test_clock_starts_at_zero(self, sim):
        assert sim.now == 0.0

    def test_callback_runs_at_scheduled_time(self, sim):
        seen = []
        sim.schedule(5.0, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [5.0]

    def test_args_are_passed(self, sim):
        seen = []
        sim.schedule(1.0, lambda a, b: seen.append((a, b)), "x", 2)
        sim.run()
        assert seen == [("x", 2)]

    def test_events_run_in_time_order(self, sim):
        order = []
        sim.schedule(3.0, order.append, "c")
        sim.schedule(1.0, order.append, "a")
        sim.schedule(2.0, order.append, "b")
        sim.run()
        assert order == ["a", "b", "c"]

    def test_ties_broken_by_insertion_order(self, sim):
        order = []
        for tag in "abcde":
            sim.schedule(1.0, order.append, tag)
        sim.run()
        assert order == list("abcde")

    def test_zero_delay_allowed(self, sim):
        seen = []
        sim.schedule(0.0, seen.append, 1)
        sim.run()
        assert seen == [1]

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(ScheduleInPastError):
            sim.schedule(-0.1, lambda: None)

    def test_schedule_at_absolute_time(self, sim):
        seen = []
        sim.schedule(2.0, lambda: sim.schedule_at(7.0, lambda: seen.append(sim.now)))
        sim.run()
        assert seen == [7.0]

    def test_reentrant_scheduling_from_callback(self, sim):
        seen = []

        def first():
            sim.schedule(1.5, lambda: seen.append(sim.now))

        sim.schedule(1.0, first)
        sim.run()
        assert seen == [2.5]

    def test_chain_of_events(self, sim):
        count = [0]

        def tick():
            count[0] += 1
            if count[0] < 10:
                sim.schedule(1.0, tick)

        sim.schedule(1.0, tick)
        sim.run()
        assert count[0] == 10
        assert sim.now == 10.0


class TestCancellation:
    def test_cancelled_event_does_not_fire(self, sim):
        seen = []
        event = sim.schedule(1.0, seen.append, "nope")
        event.cancel()
        sim.run()
        assert seen == []

    def test_cancel_is_idempotent(self, sim):
        event = sim.schedule(1.0, lambda: None)
        event.cancel()
        event.cancel()
        assert not event.pending

    def test_cancel_one_of_many(self, sim):
        seen = []
        sim.schedule(1.0, seen.append, "a")
        doomed = sim.schedule(2.0, seen.append, "b")
        sim.schedule(3.0, seen.append, "c")
        doomed.cancel()
        sim.run()
        assert seen == ["a", "c"]

    def test_pending_count_excludes_cancelled(self, sim):
        sim.schedule(1.0, lambda: None)
        event = sim.schedule(2.0, lambda: None)
        event.cancel()
        assert sim.pending_count == 1

    def test_peek_time_skips_cancelled_head(self, sim):
        first = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        first.cancel()
        assert sim.peek_time() == 2.0

    def test_peek_time_empty_queue(self, sim):
        assert sim.peek_time() is None


class TestRunControl:
    def test_run_until_stops_before_later_events(self, sim):
        seen = []
        sim.schedule(1.0, seen.append, "a")
        sim.schedule(5.0, seen.append, "b")
        sim.run(until=3.0)
        assert seen == ["a"]
        assert sim.now == 3.0  # clock advanced to the horizon

    def test_run_until_resumes(self, sim):
        seen = []
        sim.schedule(1.0, seen.append, "a")
        sim.schedule(5.0, seen.append, "b")
        sim.run(until=3.0)
        sim.run()
        assert seen == ["a", "b"]

    def test_max_events_bound(self, sim):
        def forever():
            sim.schedule(1.0, forever)

        sim.schedule(1.0, forever)
        sim.run(max_events=50)
        assert sim.events_processed == 50

    def test_step_returns_false_on_empty_queue(self, sim):
        assert sim.step() is False

    def test_step_runs_exactly_one_event(self, sim):
        seen = []
        sim.schedule(1.0, seen.append, "a")
        sim.schedule(2.0, seen.append, "b")
        assert sim.step() is True
        assert seen == ["a"]

    def test_run_not_reentrant(self, sim):
        def evil():
            sim.run()

        sim.schedule(1.0, evil)
        with pytest.raises(SimulationError):
            sim.run()

    def test_run_until_idle_raises_on_livelock(self, sim):
        def forever():
            sim.schedule(1.0, forever)

        sim.schedule(1.0, forever)
        with pytest.raises(SimulationError):
            sim.run_until_idle(max_events=100)

    def test_run_until_idle_completes(self, sim):
        seen = []
        sim.schedule(1.0, seen.append, 1)
        sim.run_until_idle()
        assert seen == [1]

    def test_events_processed_counter(self, sim):
        for delay in (1.0, 2.0, 3.0):
            sim.schedule(delay, lambda: None)
        sim.run()
        assert sim.events_processed == 3

    def test_clock_never_goes_backwards(self, sim):
        stamps = []
        for delay in (5.0, 1.0, 3.0, 1.0, 4.0):
            sim.schedule(delay, lambda: stamps.append(sim.now))
        sim.run()
        assert stamps == sorted(stamps)


class TestRunWhile:
    def test_drains_while_predicate_holds(self, sim):
        seen = []
        for delay in (1.0, 2.0, 3.0, 4.0):
            sim.schedule(delay, lambda: seen.append(sim.now))
        processed = sim.run_while(lambda: len(seen) < 2)
        assert seen == [1.0, 2.0]
        assert processed == 2

    def test_resumes_after_predicate_flips(self, sim):
        seen = []
        for delay in (1.0, 2.0, 3.0):
            sim.schedule(delay, lambda: seen.append(sim.now))
        sim.run_while(lambda: len(seen) < 1)
        sim.run_while(lambda: True)
        assert seen == [1.0, 2.0, 3.0]

    def test_stops_on_empty_queue(self, sim):
        sim.schedule(1.0, lambda: None)
        assert sim.run_while(lambda: True) == 1

    def test_max_time_head_peek_boundary(self, sim):
        # head-peek semantics (aligned with run(until=)): an event
        # strictly past max_time stays queued, one exactly at the bound
        # fires, and the clock settles at max_time when the bound is
        # what stopped the drain
        seen = []
        sim.schedule(1.0, seen.append, "a")
        sim.schedule(3.0, seen.append, "b")
        sim.schedule(5.0, seen.append, "c")
        processed = sim.run_while(lambda: True, max_time=3.0)
        assert seen == ["a", "b"]
        assert processed == 2
        assert sim.now == 3.0
        # the crossing event is still queued and fires on the next drain
        sim.run_while(lambda: True)
        assert seen == ["a", "b", "c"]
        assert sim.now == 5.0

    def test_max_events_bound(self, sim):
        def forever():
            sim.schedule(1.0, forever)

        sim.schedule(1.0, forever)
        assert sim.run_while(lambda: True, max_events=25) == 25
        assert sim.events_processed == 25

    def test_skips_cancelled_events(self, sim):
        seen = []
        doomed = sim.schedule(1.0, seen.append, "nope")
        sim.schedule(2.0, seen.append, "a")
        doomed.cancel()
        processed = sim.run_while(lambda: True)
        assert seen == ["a"]
        assert processed == 1

    def test_ties_broken_by_insertion_order(self, sim):
        order = []
        for tag in "abcde":
            sim.schedule(1.0, order.append, tag)
        sim.run_while(lambda: True)
        assert order == list("abcde")

    def test_not_reentrant(self, sim):
        def evil():
            sim.run_while(lambda: True)

        sim.schedule(1.0, evil)
        with pytest.raises(SimulationError):
            sim.run_while(lambda: True)
