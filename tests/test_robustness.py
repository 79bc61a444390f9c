"""Unit and integration tests for the adaptive-retransmission layer.

Covers the :mod:`repro.robustness` building blocks (RTT estimation,
retry budget, the controller binding them with backoff) at their fixed
constants, and the end-to-end behavior of senders running with
``adaptive=True``: correctness under loss, the RTO floor at the
sender's ``timeout_period``, graceful degradation, and the link-dead
verdict on a black-holed channel.
"""

import hashlib
import json

import pytest

from repro.channel.delay import UniformDelay
from repro.channel.impairments import BernoulliLoss
from repro.experiments.common import lossy_link
from repro.protocols.registry import make_pair
from repro.robustness.budget import RetryBudget, RetryVerdict
from repro.robustness.controller import RetransmissionController
from repro.robustness.faults import FaultPlan
from repro.robustness.rtt import RttEstimator
from repro.sim.runner import LinkSpec, run_transfer
from repro.trace.events import EventKind
from repro.workloads.sources import GreedySource


class TestRttEstimator:
    def test_initial_rto_before_any_sample(self):
        assert RttEstimator(3.0).rto == 3.0

    def test_first_sample_initializes_rfc6298(self):
        est = RttEstimator(1.0)
        est.sample(2.0)
        assert est.srtt == 2.0
        assert est.rttvar == 1.0  # s/2
        assert est.rto == 2.0 + 4.0 * 1.0

    def test_ewma_update(self):
        est = RttEstimator(1.0)
        est.sample(2.0)
        est.sample(4.0)
        # rttvar: 1 + 1/4*(|2-4| - 1) = 1.25 ; srtt: 2 + 1/8*(4-2) = 2.25
        assert est.rttvar == 1.25
        assert est.srtt == 2.25
        assert est.rto == 2.25 + 4 * 1.25

    def test_converges_toward_stable_rtt(self):
        est = RttEstimator(1.0)
        for _ in range(200):
            est.sample(2.0)
        assert est.srtt == pytest.approx(2.0)
        assert est.rto == pytest.approx(2.0, abs=0.01)  # variance decays

    def test_min_rto_floor(self):
        est = RttEstimator(3.0)
        for _ in range(50):
            est.sample(0.1)
        assert est.rto == 3.0

    def test_no_cap(self):
        est = RttEstimator(5.0)
        est.sample(100.0)
        assert est.rto == 100.0 + 4.0 * 50.0

    def test_reset_forgets_samples(self):
        est = RttEstimator(7.0)
        est.sample(1.0)
        est.reset()
        assert est.samples == 0
        assert est.rto == 7.0

    def test_validation(self):
        with pytest.raises(ValueError):
            RttEstimator(0.0)
        with pytest.raises(ValueError):
            RttEstimator(1.0).sample(-1.0)


class TestBackoffPolicy:
    """The controller's backoff ladder: x2 per consecutive expiry of a
    timer key, capped at x8."""

    def test_exponential_growth(self):
        retx = RetransmissionController(4.0)
        periods = []
        for _ in range(4):
            periods.append(retx.period(7))
            retx.on_timeout(7)
        assert periods == [4.0, 8.0, 16.0, 32.0]

    def test_cap(self):
        retx = RetransmissionController(4.0)
        retx._attempts[7] = 10
        assert retx.period(7) == 32.0
        # the rtt corruption site plants counts up to 1e9: the period
        # stays at the cap, without overflow, until repair clears it
        retx._attempts[7] = 10**6
        assert retx.period(7) == 32.0
        assert retx.repair()
        assert retx.period(7) == 4.0

    def test_validation(self):
        # one configuration: the sender's period is the only input
        for knob in ("multiplier", "cap", "jitter", "rng"):
            with pytest.raises(TypeError):
                RetransmissionController(4.0, **{knob: 2.0})
        for knob in ("alpha", "beta", "k", "min_rto", "max_rto"):
            with pytest.raises(TypeError):
                RttEstimator(4.0, **{knob: 0.5})


class TestRetryBudget:
    def test_escalation_sequence(self):
        budget = RetryBudget()
        verdicts = [budget.on_timeout() for _ in range(13)]
        retry, degrade, dead = (
            RetryVerdict.RETRY, RetryVerdict.DEGRADE, RetryVerdict.LINK_DEAD
        )
        # a DEGRADE every 3 consecutive timeouts, dead from the 12th on
        assert verdicts == [
            retry, retry, degrade,
            retry, retry, degrade,
            retry, retry, degrade,
            retry, retry, dead,
            dead,
        ]
        assert budget.exhausted
        assert budget.degrades == 3

    def test_progress_resets_run(self):
        budget = RetryBudget()
        budget.on_timeout()
        budget.on_timeout()
        budget.on_progress()
        assert budget.consecutive == 0
        # a healthy link never degrades
        assert budget.on_timeout() is RetryVerdict.RETRY

    def test_total_timeouts_survive_progress(self):
        budget = RetryBudget()
        budget.on_timeout()
        budget.on_progress()
        budget.on_timeout()
        assert budget.total_timeouts == 2

    def test_reset_clears_exhaustion(self):
        budget = RetryBudget()
        for _ in range(12):
            budget.on_timeout()
        assert budget.exhausted
        budget.reset()
        assert not budget.exhausted
        assert budget.consecutive == 0

    def test_validation(self):
        # the thresholds are constants: 3 per degrade, dead at 12
        with pytest.raises(TypeError):
            RetryBudget(degrade_after=2)
        with pytest.raises(TypeError):
            RetryBudget(dead_after=5)


class TestRetransmissionController:
    def make(self):
        return RetransmissionController(4.0)

    def test_initial_period_is_fallback(self):
        # the sender's timeout_period
        assert self.make().period() == 4.0

    def test_period_backs_off_per_key(self):
        retx = self.make()
        retx.on_timeout(7)
        retx.on_timeout(7)
        assert retx.period(7) == 4.0 * 4.0  # two expiries -> x4
        assert retx.period(8) == 4.0  # other keys unaffected

    def test_ack_resets_backoff_and_budget(self):
        retx = self.make()
        retx.on_timeout(7)
        retx.on_ack([7], now=10.0)
        assert retx.period(7) == 4.0
        assert retx.budget.consecutive == 0

    def test_rtt_sampled_from_clean_send(self):
        retx = self.make()
        retx.on_send(1, now=0.0, retransmit=False)
        retx.on_ack([1], now=2.0)
        assert retx.estimator.samples == 1
        assert retx.estimator.srtt == 2.0

    def test_karns_rule_discards_retransmitted_samples(self):
        retx = self.make()
        retx.on_send(1, now=0.0, retransmit=False)
        retx.on_send(1, now=5.0, retransmit=True)  # tainted
        retx.on_ack([1], now=6.0)  # ambiguous: which copy answered?
        assert retx.estimator.samples == 0

    def test_min_rto_floor_defaults_to_fallback(self):
        retx = self.make()
        for _ in range(50):
            retx.on_send(1, now=0.0, retransmit=False)
            retx.on_ack([1], now=0.01)  # rtt far below the safe period
        assert retx.estimator.samples == 50
        assert retx.period() == 4.0  # adaptivity only lengthens timers

    def _time_out(self, retx, key, times):
        return [retx.on_timeout(key, now=now) for now in times]

    def test_link_dead_verdict(self):
        retx = self.make()
        verdicts = self._time_out(retx, None, [None] * 12)
        assert RetryVerdict.LINK_DEAD not in verdicts[:-1]
        assert verdicts[-1] is RetryVerdict.LINK_DEAD
        assert retx.link_dead
        assert retx.verdict == "dead"
        assert retx.degrades == 3

    def test_link_dead_records_triggering_key_and_time(self):
        retx = self.make()
        self._time_out(retx, 7, [float(t) for t in range(1, 12)])
        assert retx.on_timeout(7, now=12.5) is RetryVerdict.LINK_DEAD
        assert retx.dead_key == 7 and retx.dead_at == 12.5
        # later expiries never overwrite the first culprit
        retx.on_timeout(9, now=20.0)
        assert retx.dead_key == 7 and retx.dead_at == 12.5
        stats = retx.stats_dict()
        assert stats["dead_key"] == 7 and stats["dead_at"] == 12.5

    def test_link_dead_labels_reach_the_metrics_registry(self):
        from repro.obs.metrics import MetricsRegistry
        from repro.obs.session import ControllerInstruments

        registry = MetricsRegistry(name="test")
        retx = self.make()
        retx.bind_instruments(ControllerInstruments(registry))
        self._time_out(retx, 7, [float(t) for t in range(1, 12)] + [12.5])
        snapshot = registry.snapshot()
        samples = snapshot["link_dead_declared_total"]["samples"]
        assert samples == [
            {"labels": {"seq": "7", "at": "12.5"}, "value": 1}
        ]

    def test_reset_volatile(self):
        retx = self.make()
        retx.on_send(1, now=0.0, retransmit=False)
        retx.on_timeout(1)
        retx.reset_volatile()
        assert retx.period(1) == 4.0
        retx.on_ack([1], now=9.0)
        assert retx.estimator.samples == 0  # pre-crash send time forgotten

    def test_stats_dict_keys(self):
        stats = self.make().stats_dict()
        assert set(stats) == {
            "rto", "srtt", "rttvar", "rtt_samples", "degrades",
            "budget_timeouts", "verdict", "dead_key", "dead_at",
        }

    def test_config_requires_some_rto(self):
        with pytest.raises(ValueError):
            RetransmissionController(0.0)


PROTOCOLS_WITH_ADAPTIVE = [
    ("blockack", {"timeout_mode": "simple"}),
    ("blockack", {"timeout_mode": "per_message_safe"}),
    ("blockack-bounded", {}),
    ("gobackn", {}),
    ("selective-repeat", {}),
]


def _black_hole_run(window, total):
    sender, receiver = make_pair(
        "blockack", window=window, timeout_mode="simple", adaptive=True
    )
    result = run_transfer(
        sender,
        receiver,
        GreedySource(total),
        forward=LinkSpec(loss=BernoulliLoss(1.0)),
        reverse=LinkSpec(),
        seed=1,
        max_time=100_000.0,
        trace=True,
    )
    return sender, result


class TestAdaptiveEndToEnd:
    @pytest.mark.parametrize("name,kwargs", PROTOCOLS_WITH_ADAPTIVE)
    def test_lossy_transfer_completes_in_order(self, name, kwargs):
        sender, receiver = make_pair(name, window=4, adaptive=True, **kwargs)
        result = run_transfer(
            sender,
            receiver,
            GreedySource(120),
            forward=lossy_link(0.05),
            reverse=lossy_link(0.05),
            seed=3,
            max_time=20_000.0,
        )
        assert result.completed and result.in_order
        assert result.sender_stats["adaptive"]["rtt_samples"] > 0
        assert result.sender_stats["link_dead"] is False

    def test_adaptive_keeps_invariants_under_loss(self):
        sender, receiver = make_pair(
            "blockack",
            window=6,
            timeout_mode="per_message_safe",
            adaptive=True,
        )
        result = run_transfer(
            sender,
            receiver,
            GreedySource(150),
            forward=lossy_link(0.1),
            reverse=lossy_link(0.1),
            seed=11,
            max_time=20_000.0,
            monitor_invariants=True,
        )
        assert result.completed and result.in_order
        assert result.monitor.violations == []

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_bounded_wire_rto_never_falls_below_the_derived_period(self, seed):
        # the benchmark's bounded-wire w=8 sender, adaptive: an RTO below
        # the derived 3.05 tu would resend while a copy is still in
        # transit (assertion 8) and could deliver out of order mod 2w
        sender, receiver = make_pair(
            "blockack", window=8, bounded_wire=True, adaptive=True
        )

        def link():
            return LinkSpec(
                delay=UniformDelay(0.5, 1.5), loss=BernoulliLoss(0.05)
            )

        result = run_transfer(
            sender, receiver, GreedySource(1000), forward=link(),
            reverse=link(), seed=seed, monitor_invariants=True,
        )
        assert sender.timeout_period == pytest.approx(3.05)
        assert result.completed and result.in_order
        assert result.monitor.violations == []
        assert result.sender_stats["adaptive"]["rto"] >= sender.timeout_period

    def test_black_hole_degrades_then_declares_link_dead(self):
        sender, result = _black_hole_run(window=8, total=20)
        assert not result.completed
        assert sender.link_dead
        assert result.sender_stats["link_dead"] is True
        assert result.sender_stats["adaptive"]["verdict"] == "dead"
        # the verdict pins down which expiry killed the link and when
        assert result.sender_stats["adaptive"]["dead_at"] is not None
        # degraded in steps, every 3 timeouts, before giving up
        notes = [
            event.detail
            for event in result.trace.events
            if event.kind is EventKind.NOTE
        ]
        assert notes[:3] == [
            "degrade window 8 -> 4",
            "degrade window 4 -> 2",
            "degrade window 2 -> 1",
        ]
        assert sender.window.w == 1
        assert result.sender_stats["adaptive"]["degrades"] == 3
        # the budget stopped the retry loop at the hard limit
        assert result.sender_stats["timeouts_fired"] == 12
        # ... and the simulation drained instead of retrying forever
        assert result.duration < 100_000.0

    def test_backoff_spaces_out_retries(self):
        sender, result = _black_hole_run(window=2, total=5)
        times = [
            event.time
            for event in result.trace.events
            if event.kind is EventKind.TIMEOUT
        ]
        period = sender.timeout_period
        gaps = [later - earlier for earlier, later in zip(times, times[1:])]
        # the first expiry comes one period after the sends; each later
        # one after 2, 4, then 8 periods, where the ladder stops
        assert times[0] == pytest.approx(period)
        assert len(gaps) == 11
        assert gaps == pytest.approx([2 * period, 4 * period] + [8 * period] * 9)

    def test_adaptive_off_is_the_default(self):
        sender, _ = make_pair("blockack", window=4)
        assert sender.adaptive is False
        assert sender._retx is None

#: forward loss ramps to 100% for 35 tu, then back to the base 5%
BROWNOUT = ((20.0, 0.0), (25.0, 1.0), (60.0, 1.0), (65.0, 0.0))


def _adaptive_brownout_run(name, kwargs):
    sender, receiver = make_pair(name, window=8, adaptive=True, **kwargs)
    return run_transfer(
        sender,
        receiver,
        GreedySource(150),
        forward=lossy_link(0.05),
        reverse=lossy_link(0.05),
        seed=1,
        max_time=20_000.0,
        trace=True,
        fault_plan=FaultPlan(forward_brownout=BROWNOUT, seed=1),
    )


class TestAdaptivePins:
    """Literal digests of adaptive transfers through a brownout.

    Each digest covers the decision trace, the trace's NOTE details
    (window degrades, the link-dead verdict), the controller's stats and
    the timeout counts, so any change to the estimator, the backoff
    ladder or the retry budget moves it.
    """

    # case -> (final verdict, sha256 of the pinned fields)
    PINS = {
        "blockack/per_message_safe": (
            "degraded",
            "1cd4886c56e17a5d7fed8ff261944db9"
            "b9869015f3a26627eedc364c3b7f86ba",
        ),
        "blockack/simple": (
            "degraded",
            "9b930158f8e15b3b73d62c9a4c89a8ad"
            "7ed40964e412aa0f16b0a8e9ccabf440",
        ),
        "blockack-bounded": (
            "degraded",
            "2159b2013d2d80b5e9dcc934079796d3"
            "747e3b4831efd4384b38f041db2f5632",
        ),
        "gobackn": (
            "degraded",
            "66b1197236185b7a484c765e7c16b389"
            "ad3efde86287ef4f9137cedfdb80a83f",
        ),
        "selective-repeat": (
            "dead",
            "43aa32e491c8e8f6fd6468e2d19c7513"
            "0dda9ecdd2d6353b869e3a9be57ef068",
        ),
    }

    @pytest.mark.parametrize("case", sorted(PINS))
    def test_brownout_digest(self, case):
        name, _, mode = case.partition("/")
        kwargs = {"timeout_mode": mode} if mode else {}
        result = _adaptive_brownout_run(name, kwargs)
        adaptive = result.sender_stats["adaptive"]
        pinned = {
            "decisions": [
                [time, actor, kind.value, seq, seq_hi]
                for time, actor, kind, seq, seq_hi
                in result.trace.decision_trace()
            ],
            "notes": [
                event.detail
                for event in result.trace.events
                if event.kind is EventKind.NOTE
            ],
            "adaptive": adaptive,
            "timeouts_fired": result.sender_stats["timeouts_fired"],
        }
        verdict, digest = self.PINS[case]
        assert adaptive["verdict"] == verdict
        text = json.dumps(pinned, sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == digest
