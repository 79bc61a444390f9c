"""Unit tests for restartable timers and timer banks."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.channel.delay import UniformDelay
from repro.channel.impairments import BernoulliLoss
from repro.protocols.registry import make_pair
from repro.sim.runner import LinkSpec, run_transfer
from repro.sim.timers import AdaptiveTimer, AdaptiveTimerBank, Timer, TimerBank
from repro.workloads.sources import GreedySource

from .conftest import ENGINE_VARIANTS


class TestTimer:
    def test_fires_after_period(self, sim):
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.start(3.0)
        sim.run()
        assert fired == [3.0]

    def test_callback_args(self, sim):
        fired = []
        timer = Timer(sim, lambda a, b: fired.append((a, b)), "x", 9)
        timer.start(1.0)
        sim.run()
        assert fired == [("x", 9)]

    def test_stop_prevents_firing(self, sim):
        fired = []
        timer = Timer(sim, fired.append, 1)
        timer.start(3.0)
        sim.schedule(1.0, timer.stop)
        sim.run()
        assert fired == []

    def test_restart_supersedes_previous_arming(self, sim):
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.start(2.0)
        sim.schedule(1.0, lambda: timer.restart(5.0))
        sim.run()
        assert fired == [6.0]  # not 2.0

    def test_running_property(self, sim):
        timer = Timer(sim, lambda: None)
        assert not timer.running
        timer.start(1.0)
        assert timer.running
        timer.stop()
        assert not timer.running
        timer.start(1.0)
        sim.run()
        assert not timer.running

    def test_expires_at(self, sim):
        timer = Timer(sim, lambda: None)
        timer.start(4.0)
        assert timer.expires_at == 4.0
        timer.stop()
        assert timer.expires_at is None
        timer.start(2.0)
        sim.run()
        assert timer.expires_at is None

    def test_observer_reads_state_at_each_report(self, sim):
        # arm sees the new deadline; cancel and fire see an idle timer;
        # a restart cancels before it arms; an idle stop reports nothing
        seen = []
        sim.timer_observer = lambda op, timer: seen.append(
            (op, sim.now, timer.running, timer.expires_at)
        )
        timer = Timer(sim, lambda: None)
        timer.stop()
        timer.start(2.0)
        timer.restart(3.0)
        sim.run()
        timer.stop()
        assert seen == [
            ("arm", 0.0, True, 2.0),
            ("cancel", 0.0, False, None),
            ("arm", 0.0, True, 3.0),
            ("fire", 3.0, False, None),
        ]

    def test_stop_idle_timer_is_safe(self, sim):
        Timer(sim, lambda: None).stop()  # must not raise

    def test_timer_can_rearm_itself_from_callback(self, sim):
        fired = []

        def on_fire():
            fired.append(sim.now)
            if len(fired) < 3:
                timer.start(2.0)

        timer = Timer(sim, on_fire)
        timer.start(2.0)
        sim.run()
        assert fired == [2.0, 4.0, 6.0]

    def test_one_shot_does_not_repeat(self, sim):
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.start(1.0)
        sim.run()
        assert len(fired) == 1


class TestTimerBank:
    def test_independent_keys(self, sim):
        fired = []
        bank = TimerBank(sim, fired.append)
        bank.start("a", 1.0)
        bank.start("b", 2.0)
        sim.run()
        assert fired == ["a", "b"]

    def test_restart_same_key(self, sim):
        fired = []
        bank = TimerBank(sim, lambda k: fired.append((k, sim.now)))
        bank.start(7, 2.0)
        sim.schedule(1.0, lambda: bank.start(7, 3.0))
        sim.run()
        assert fired == [(7, 4.0)]

    def test_stop_specific_key(self, sim):
        fired = []
        bank = TimerBank(sim, fired.append)
        bank.start("keep", 2.0)
        bank.start("drop", 2.0)
        bank.stop("drop")
        sim.run()
        assert fired == ["keep"]

    def test_stop_unknown_key_is_safe(self, sim):
        TimerBank(sim, lambda k: None).stop("ghost")  # must not raise

    def test_stop_all(self, sim):
        fired = []
        bank = TimerBank(sim, fired.append)
        for key in range(5):
            bank.start(key, 1.0)
        bank.stop_all()
        sim.run()
        assert fired == []

    def test_running_query(self, sim):
        bank = TimerBank(sim, lambda k: None)
        bank.start("x", 1.0)
        assert bank.running("x")
        assert not bank.running("y")
        sim.run()
        assert not bank.running("x")

    def test_active_keys(self, sim):
        bank = TimerBank(sim, lambda k: None)
        bank.start("a", 1.0)
        bank.start("b", 2.0)
        bank.stop("a")
        assert bank.active_keys() == ["b"]

    def test_stop_and_stop_all_forget_keys(self, sim):
        fired = []
        bank = TimerBank(sim, fired.append)
        bank.start("a", 1.0)
        sim.run()
        bank.start("b", 5.0)
        bank.stop("a")
        assert bank.active_keys() == ["b"]
        assert not bank.running("a") and bank.running("b")
        bank.start("c", 5.0)
        bank.stop_all()
        assert bank.active_keys() == []
        assert not bank.running("b") and not bank.running("c")
        sim.run()
        assert fired == ["a"]

    def test_bank_is_empty_after_a_completed_transfer(self):
        # one timer per outstanding message, not per message ever sent
        sender, receiver = make_pair("blockack", window=8)
        link = lambda: LinkSpec(
            delay=UniformDelay(0.5, 1.5), loss=BernoulliLoss(0.05)
        )
        result = run_transfer(
            sender, receiver, GreedySource(3000),
            forward=link(), reverse=link(), seed=1,
        )
        assert result.completed and result.in_order
        assert result.sender_stats["retransmissions"] > 0
        bank = sender._timers
        assert bank.active_keys() == []
        assert not any(bank.running(seq) for seq in range(3000))
        # no key and no stopped arming is left behind in the bank's heap
        assert not bank._live and not bank._heap


class TestBankTimerNames:
    """A bank timer's name is ``"<bank>[<key!r>]"`` wherever it is read.

    Timer observers read it on arm, cancel and fire; the causal recorder
    makes it the actor of timer nodes, flight dumps and Perfetto tracks.
    """

    @staticmethod
    def observe(sim):
        seen = []
        sim.timer_observer = lambda op, timer: seen.append((op, timer.name))
        return seen

    def test_timer_bank_names_on_arm_cancel_and_fire(self, sim):
        seen = self.observe(sim)
        bank = TimerBank(sim, lambda key: None, name="retx")
        bank.start(4, 1.0)
        bank.start("a", 2.0)
        bank.start((1, 2), 3.0)
        bank.start(4, 1.5)  # re-arm: cancels the first arming
        bank.stop("a")
        sim.run()
        assert seen == [
            ("arm", "retx[4]"),
            ("arm", "retx['a']"),
            ("arm", "retx[(1, 2)]"),
            ("cancel", "retx[4]"),
            ("arm", "retx[4]"),
            ("cancel", "retx['a']"),
            ("fire", "retx[4]"),
            ("fire", "retx[(1, 2)]"),
        ]

    def test_adaptive_timer_bank_names_on_arm_cancel_and_fire(self, sim):
        seen = self.observe(sim)
        bank = AdaptiveTimerBank(
            sim, lambda key: None, period_fn=lambda key: 2.0, name="seq"
        )
        bank.start(0)
        bank.start("x")
        bank.stop(0)
        sim.run()
        bank.start(0)
        bank.stop_all()
        assert seen == [
            ("arm", "seq[0]"),
            ("arm", "seq['x']"),
            ("cancel", "seq[0]"),
            ("fire", "seq['x']"),
            ("arm", "seq[0]"),
            ("cancel", "seq[0]"),
        ]

    def test_default_bank_name(self, sim):
        seen = self.observe(sim)
        TimerBank(sim, lambda key: None).start(7, 1.0)
        assert seen == [("arm", "timerbank[7]")]


class TestStaleArming:
    """A superseded arming must never fire — the backoff-critical property.

    Adaptive retransmission re-arms timers with periods that grow
    (backoff) and *shrink* (estimate convergence, backoff reset on
    progress).  Whatever the period does between re-arms, only the most
    recent arming may produce a callback.
    """

    def test_stop_then_restart_with_shorter_period(self, sim):
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.start(10.0)
        sim.schedule(1.0, timer.stop)
        sim.schedule(2.0, lambda: timer.restart(1.0))
        sim.run()
        assert fired == [3.0]  # the stale t=10 arming never fires

    def test_rapid_rearm_sequence_fires_once(self, sim):
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        # shrink, grow, shrink again — all before anything fires
        timer.start(8.0)
        timer.restart(2.0)
        timer.restart(6.0)
        timer.restart(1.5)
        sim.run()
        assert fired == [1.5]

    def test_bank_rearm_with_shrinking_period(self, sim):
        fired = []
        bank = TimerBank(sim, lambda k: fired.append((k, sim.now)))
        bank.start("a", 5.0)
        sim.schedule(1.0, lambda: bank.start("a", 1.0))  # shrink: 5 -> 1
        sim.run()
        assert fired == [("a", 2.0)]  # not (a, 5.0)

    def test_bank_stop_between_rearms(self, sim):
        fired = []
        bank = TimerBank(sim, lambda k: fired.append((k, sim.now)))
        bank.start(3, 4.0)
        sim.schedule(1.0, lambda: bank.stop(3))
        sim.schedule(2.0, lambda: bank.start(3, 0.5))
        sim.run()
        assert fired == [(3, 2.5)]


class TestAdaptiveTimer:
    def test_uses_period_fn_when_no_argument(self, sim):
        fired = []
        timer = AdaptiveTimer(
            sim, lambda: fired.append(sim.now), period_fn=lambda: 2.5
        )
        timer.start()
        sim.run()
        assert fired == [2.5]

    def test_explicit_period_overrides_period_fn(self, sim):
        fired = []
        timer = AdaptiveTimer(
            sim, lambda: fired.append(sim.now), period_fn=lambda: 99.0
        )
        timer.start(1.0)
        sim.run()
        assert fired == [1.0]

    def test_period_fn_consulted_at_each_arming(self, sim):
        periods = [4.0, 1.0]  # backoff collapsing after progress
        fired = []
        timer = AdaptiveTimer(
            sim, lambda: fired.append(sim.now), period_fn=lambda: periods.pop(0)
        )
        timer.start()  # arms for 4.0
        sim.schedule(2.0, timer.restart)  # re-arms for 1.0: shrinks past t=4
        sim.run()
        assert fired == [3.0]  # stale t=4 arming is gone

    def test_restart_is_argless_alias(self, sim):
        fired = []
        timer = AdaptiveTimer(
            sim, lambda: fired.append(sim.now), period_fn=lambda: 1.0
        )
        timer.restart()
        sim.run()
        assert fired == [1.0]


class TestAdaptiveTimerBank:
    def test_per_key_period_fn(self, sim):
        fired = []
        bank = AdaptiveTimerBank(
            sim,
            lambda k: fired.append((k, sim.now)),
            period_fn=lambda key: 1.0 if key == "fast" else 3.0,
        )
        bank.start("fast")
        bank.start("slow")
        sim.run()
        assert fired == [("fast", 1.0), ("slow", 3.0)]

    def test_rearm_with_shrunk_period_fn(self, sim):
        periods = {"x": 10.0}
        fired = []
        bank = AdaptiveTimerBank(
            sim, lambda k: fired.append((k, sim.now)), period_fn=periods.__getitem__
        )
        bank.start("x")  # arms for 10.0

        def shrink_and_rearm():
            periods["x"] = 1.0  # RTO estimate collapsed between re-arms
            bank.start("x")

        sim.schedule(2.0, shrink_and_rearm)
        sim.run()
        assert fired == [("x", 3.0)]  # exactly once, from the new arming

    def test_explicit_period_still_accepted(self, sim):
        fired = []
        bank = AdaptiveTimerBank(
            sim, lambda k: fired.append(sim.now), period_fn=lambda key: 50.0
        )
        bank.start("k", 2.0)
        sim.run()
        assert fired == [2.0]


BAD_PERIODS = (-1.0, float("nan"), float("inf"))


class TestInvalidPeriods:
    """A bad period is refused before it touches the running arming."""

    @pytest.mark.parametrize("period", BAD_PERIODS)
    def test_timer_restart_keeps_the_running_arming(self, sim, period):
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.start(2.0)
        with pytest.raises(ValueError):
            timer.restart(period)
        assert timer.running and timer.expires_at == 2.0
        sim.run()
        assert fired == [2.0]

    @pytest.mark.parametrize("period", BAD_PERIODS)
    def test_bank_rearm_keeps_the_running_arming(self, sim, period):
        fired = []
        bank = TimerBank(sim, lambda key: fired.append((key, sim.now)))
        bank.start("a", 2.0)
        with pytest.raises(ValueError):
            bank.start("a", period)
        with pytest.raises(ValueError):
            bank.start("b", period)
        assert bank.active_keys() == ["a"]
        sim.run()
        assert fired == [("a", 2.0)]

    @pytest.mark.parametrize("period", BAD_PERIODS)
    def test_bank_rejects_bad_default_periods(self, sim, period):
        with pytest.raises(ValueError):
            AdaptiveTimerBank(sim, lambda key: None, period=period)
        bank = AdaptiveTimerBank(sim, lambda key: None, period_fn=lambda key: period)
        with pytest.raises(ValueError):
            bank.start(0)
        assert bank.active_keys() == []

    def test_bank_without_a_period_of_its_own_needs_one(self, sim):
        with pytest.raises(TypeError):
            TimerBank(sim, lambda key: None).start(0)
        with pytest.raises(ValueError):
            AdaptiveTimerBank(sim, lambda key: None)


class _TimerPerKey:
    """The reference for :class:`TimerBank`: one plain :class:`Timer` per key.

    Keys are known from their first arm until they are stopped, and
    ``stop_all`` stops them in that order, as the bank's contract says.
    """

    def __init__(self, sim, callback, name, period):
        self._sim = sim
        self._callback = callback
        self._name = name
        self._period = period
        self._timers = {}

    def start(self, key, period=None):
        timer = self._timers.get(key)
        if timer is None:
            timer = Timer(
                self._sim, self._callback, key, name=f"{self._name}[{key!r}]"
            )
            timer.key = key
            self._timers[key] = timer
        timer.start(self._period if period is None else period)

    def stop(self, key):
        timer = self._timers.pop(key, None)
        if timer is not None:
            timer.stop()

    def stop_many(self, keys):
        for key in keys:
            self.stop(key)

    def stop_all(self):
        for timer in self._timers.values():
            timer.stop()
        self._timers.clear()

    def running(self, key):
        timer = self._timers.get(key)
        return timer is not None and timer.running

    def active_keys(self):
        return [key for key, timer in self._timers.items() if timer.running]


_KEYS = st.integers(0, 5)
#: every time is a sum of these, so deadlines, events and run bounds meet
_STEPS = (0.0, 0.5, 1.0, 2.0, 4.0)
_PROGRAM = st.lists(
    st.one_of(
        st.tuples(st.just("arm"), _KEYS),
        st.tuples(st.just("arm"), _KEYS, st.sampled_from((0.0, 0.5, 1.0, 3.5))),
        st.tuples(st.just("stop"), _KEYS),
        st.tuples(st.just("stop_many"), st.lists(_KEYS, max_size=4)),
        st.tuples(st.just("stop_all")),
        st.tuples(st.just("event"), st.sampled_from(_STEPS)),
        st.tuples(st.just("run"), st.sampled_from(_STEPS)),
        st.tuples(st.just("step")),
    ),
    max_size=40,
)


class _Side:
    """One simulator driven through a program, with what it reports."""

    PERIOD = 4.0

    def __init__(self, variant, make_bank, observed):
        self.sim = sim = ENGINE_VARIANTS[variant]()
        self.log = []
        self.stream = []
        self.refires = 0
        if observed:
            sim.timer_observer = lambda op, timer: self.stream.append(
                (op, sim.now, timer.name, timer.expires_at)
            )
        self.bank = make_bank(sim, self._on_fire, "retx", self.PERIOD)

    def _on_fire(self, key):
        self.log.append(("fire", key, self.sim.now))
        if key == 0 and self.refires < 2:  # a timeout handler re-arming
            self.refires += 1
            self.bank.start(key, 1.0)

    def apply(self, op, index):
        sim, bank = self.sim, self.bank
        kind = op[0]
        if kind == "arm":
            bank.start(*op[1:])
        elif kind == "stop":
            bank.stop(op[1])
        elif kind == "stop_many":
            bank.stop_many(op[1])
        elif kind == "stop_all":
            bank.stop_all()
        elif kind == "event":
            sim.schedule(op[1], lambda: self.log.append(("event", index, sim.now)))
        elif kind == "run":
            sim.run(until=None if op[1] is None else sim.now + op[1])
        else:
            sim.step()

    def state(self):
        sim, bank = self.sim, self.bank
        return (
            self.log, self.stream, sim.events_processed, sim.now,
            sim.peek_time(), bank.active_keys(),
            [bank.running(key) for key in range(6)],
        )


class TestBankActsAsTimerPerKey:
    """A bank fires, reports and schedules exactly like one Timer per key."""

    @pytest.mark.parametrize("variant", sorted(ENGINE_VARIANTS))
    @settings(max_examples=150, deadline=None)
    @given(program=_PROGRAM, observed=st.booleans())
    def test_same_program_same_run(self, variant, program, observed):
        bank = _Side(
            variant,
            lambda sim, callback, name, period: AdaptiveTimerBank(
                sim, callback, name=name, period=period
            ),
            observed,
        )
        reference = _Side(variant, _TimerPerKey, observed)
        for index, op in enumerate(program + [("run", None)]):
            bank.apply(op, index)
            reference.apply(op, index)
            assert bank.state() == reference.state(), (index, op)
