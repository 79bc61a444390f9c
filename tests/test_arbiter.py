"""Unit and property tests for the send-side link arbiter.

The arbiter (:mod:`repro.channel.arbiter`) is the tentpole of the
capacity-limited-link refactor, so its contract is tested directly,
below the mux/host layers: token-bucket pacing, droptail accounting,
scheduler ordering (fifo / wrr / drr), and — via hypothesis — DRR's
grant-conservation and equal-weight fairness properties, and grant for
grant equality with a plainly written reference arbiter.  Every test
runs on the bare and the instrumented engine (``ENGINE_VARIANTS``).
"""

from __future__ import annotations

import random
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.channel.arbiter import (
    ArbiterConfig,
    DrrScheduler,
    FifoScheduler,
    FlowQueueStats,
    LinkArbiter,
    WrrScheduler,
    make_scheduler,
)
from repro.channel.channel import Channel
from repro.channel.mux import FlowMux
from .conftest import ENGINE_VARIANTS, drain


def build(sim, **config):
    """Arbiter whose downstream send records (time, message) grants."""
    grants = []
    arbiter = LinkArbiter(
        sim,
        lambda message: grants.append((sim.now, message)),
        ArbiterConfig(**config),
    )
    return arbiter, grants


class TestConfig:
    def test_inactive_by_default(self):
        config = ArbiterConfig()
        assert config.rate is None and not config.active

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            ArbiterConfig(rate=0.0)
        with pytest.raises(ValueError):
            ArbiterConfig(rate=1.0, burst=0.5)
        with pytest.raises(ValueError):
            ArbiterConfig(rate=1.0, scheduler="edf")
        with pytest.raises(ValueError):
            ArbiterConfig(rate=1.0, queue_limit=0)
        # NaN slips past every comparison, and an infinite rate re-arms
        # the wake at zero delay: each would hang or unbound the link
        for field in ("rate", "burst"):
            for value in (float("nan"), float("inf")):
                config = {"rate": 1.0, field: value}
                with pytest.raises(ValueError, match=field):
                    ArbiterConfig(**config)

    @pytest.mark.parametrize("scheduler", ["wrr", "drr"])
    @pytest.mark.parametrize("weight", [float("nan"), float("inf")])
    def test_register_rejects_non_finite_weight(self, sim, scheduler, weight):
        arbiter, _ = build(sim, rate=1.0, scheduler=scheduler)
        with pytest.raises(ValueError, match="weight"):
            arbiter.register(0, weight)

    @pytest.mark.parametrize("scheduler", ["wrr", "drr"])
    def test_rejected_weight_registers_nothing(self, sim, scheduler):
        """A retry after a rejected weight is scheduled like any flow.

        A half-registered flow has a queue WRR and DRR never visit, and
        once it holds the only backlog ``select()`` never returns.
        """
        arbiter, grants = build(sim, rate=1.0, burst=1.0, scheduler=scheduler)
        arbiter.register(0, 1.0)
        with pytest.raises(ValueError, match="weight"):
            arbiter.register(1, float("nan"))
        with pytest.raises(KeyError):
            arbiter.flow_stats(1)
        arbiter.register(1, 1.0)
        arbiter.submit(0, "a")
        arbiter.submit(1, "b")
        drain(sim, max_events=100)
        assert [message for _, message in grants] == ["a", "b"]

    @pytest.mark.parametrize("scheduler", ["wrr", "drr"])
    def test_port_retry_after_rejected_weight(self, sim, scheduler):
        config = ArbiterConfig(rate=1.0, burst=1.0, scheduler=scheduler)
        mux = FlowMux(Channel(sim, rng=random.Random(7)), config)
        delivered = []
        mux.port(0).connect(delivered.append)
        with pytest.raises(ValueError, match="weight"):
            mux.port(1, float("nan"))
        with pytest.raises(KeyError):
            mux.arbiter.flow_stats(1)
        mux.port(1, 1.0).connect(delivered.append)
        mux.port(0).send("a")
        mux.port(1).send("b")
        drain(sim, max_events=100)
        assert sorted(delivered) == ["a", "b"]

    def test_arbiter_refuses_inactive_config(self, sim):
        with pytest.raises(ValueError):
            LinkArbiter(sim, lambda m: None, ArbiterConfig())

    def test_make_scheduler_dispatch(self):
        backlog = lambda flow: 0  # noqa: E731 - trivial stub
        config = ArbiterConfig(rate=1.0)
        assert isinstance(make_scheduler(config, backlog), FifoScheduler)
        wrr = ArbiterConfig(rate=1.0, scheduler="wrr")
        assert isinstance(make_scheduler(wrr, backlog), WrrScheduler)
        drr = ArbiterConfig(rate=1.0, scheduler="drr")
        assert isinstance(make_scheduler(drr, backlog), DrrScheduler)


class TestTokenPacing:
    def test_burst_then_rate_paced(self, sim):
        """burst=2 sends two frames at t=0, then one per 1/rate."""
        arbiter, grants = build(sim, rate=2.0, burst=2.0)
        arbiter.register(0)
        for n in range(6):
            arbiter.submit(0, f"m{n}")
        drain(sim)
        times = [t for t, _ in grants]
        assert times == pytest.approx([0.0, 0.0, 0.5, 1.0, 1.5, 2.0])
        assert [m for _, m in grants] == [f"m{n}" for n in range(6)]

    def test_idle_time_refills_up_to_burst(self, sim):
        """Tokens accrue while idle but never beyond the burst ceiling."""
        arbiter, grants = build(sim, rate=1.0, burst=2.0)
        arbiter.register(0)
        arbiter.submit(0, "a")
        arbiter.submit(0, "b")  # drains the initial burst
        drain(sim)

        def late_burst():
            for n in range(3):
                arbiter.submit(0, f"late{n}")

        sim.schedule(100.0, late_burst)  # long idle: far more than 2 tokens
        drain(sim)
        late_times = [t for t, m in grants if m.startswith("late")]
        assert late_times == pytest.approx([100.0, 100.0, 101.0])

    def test_wait_accounting_matches_grant_times(self, sim):
        arbiter, grants = build(sim, rate=1.0, burst=1.0)
        arbiter.register(0)
        for n in range(4):
            arbiter.submit(0, n)  # granted at t = 0, 1, 2, 3
        drain(sim)
        stats = arbiter.flow_stats(0)
        assert stats.granted == 4
        assert stats.wait_total == pytest.approx(0.0 + 1.0 + 2.0 + 3.0)
        assert stats.as_dict()["mean_wait"] == pytest.approx(1.5)
        assert stats.max_depth == 3  # three waited behind the first


class TestDroptail:
    def test_overflow_drops_at_tail_and_counts(self, sim):
        arbiter, grants = build(sim, rate=1.0, burst=1.0, queue_limit=2)
        arbiter.register(0)
        accepted = [arbiter.submit(0, n) for n in range(5)]
        # first frame is granted instantly (burst token), then the queue
        # holds two; the last two submissions hit the droptail
        assert accepted == [True, True, True, False, False]
        assert arbiter.drops_total == 2
        assert arbiter.flow_stats(0).dropped == 2
        drain(sim)
        assert [m for _, m in grants] == [0, 1, 2]  # drops never send
        assert arbiter.flow_stats(0).granted == 3

    def test_queue_limit_is_per_flow(self, sim):
        arbiter, _ = build(sim, rate=0.5, burst=1.0, queue_limit=1)
        arbiter.register(0)
        arbiter.register(1)
        assert arbiter.submit(0, "a")  # granted (burst)
        assert arbiter.submit(0, "b")  # queued on flow 0
        assert not arbiter.submit(0, "c")  # flow 0 full
        assert arbiter.submit(1, "d")  # flow 1's queue is independent
        assert arbiter.queue_depth(0) == 1
        assert arbiter.queue_depth(1) == 1
        assert list(arbiter.queued(0)) == ["b"]


class TestSchedulerOrdering:
    def submit_backlog(self, arbiter, per_flow):
        """Saturate: one submit per (flow, n), arrival order by n."""
        for n in range(per_flow):
            for flow in sorted(f for f in (0, 1)):
                arbiter.submit(flow, (flow, n))

    def test_fifo_serves_global_arrival_order(self, sim):
        arbiter, grants = build(sim, rate=1.0, burst=1.0, scheduler="fifo")
        arbiter.register(0)
        arbiter.register(1)
        # flow 1 enqueues three frames before flow 0's first
        for n in range(3):
            arbiter.submit(1, ("one", n))
        arbiter.submit(0, ("zero", 0))
        drain(sim)
        assert [m for _, m in grants] == [
            ("one", 0), ("one", 1), ("one", 2), ("zero", 0)
        ]

    def test_drr_equal_weights_alternate_despite_skewed_backlog(self, sim):
        arbiter, grants = build(sim, rate=1.0, burst=1.0, scheduler="drr")
        arbiter.register(0, weight=1.0)
        arbiter.register(1, weight=1.0)
        # flow 1 floods 8 frames; flow 0 submits 4; all at t=0
        for n in range(8):
            arbiter.submit(1, ("one", n))
        for n in range(4):
            arbiter.submit(0, ("zero", n))
        drain(sim)
        flows = [m[0] for _, m in grants]
        # while both are backlogged (first 8 grants) service alternates
        # per-flow, not per-frame: 4 each, despite the 8:4 backlog skew
        assert sorted(flows[:8]) == ["one"] * 4 + ["zero"] * 4
        assert flows[8:] == ["one"] * 4  # remainder drains the flood

    def test_drr_weights_split_grants_proportionally(self, sim):
        arbiter, grants = build(sim, rate=1.0, burst=1.0, scheduler="drr")
        arbiter.register(0, weight=2.0)
        arbiter.register(1, weight=1.0)
        for n in range(12):
            arbiter.submit(0, ("heavy", n))
            arbiter.submit(1, ("light", n))
        drain(sim)
        flows = [m[0] for _, m in grants]
        # while both stay backlogged, weight 2:1 → grants 2:1
        window = flows[:9]
        assert window.count("heavy") == 6 and window.count("light") == 3

    def test_drr_drained_flow_forfeits_its_deficit(self, sim):
        # flow 0 (weight 3) empties its queue at its first grant, then
        # queues again before the next one: its turn ended with the drain,
        # so flow 1 is served next
        arbiter, grants = build(sim, rate=1.0, burst=1.0, scheduler="drr")
        arbiter.register(0, weight=3.0)
        arbiter.register(1, weight=1.0)
        for n in range(6):
            arbiter.submit(1, ("B", n))
        arbiter.submit(0, ("A", 0))
        for k in (1, 2, 3):
            sim.schedule(k + 0.1, arbiter.submit, 0, ("A", k))
        drain(sim)
        assert grants[:5] == [
            (0.0, ("B", 0)), (1.0, ("A", 0)), (2.0, ("B", 1)),
            (3.0, ("A", 1)), (4.0, ("A", 2)),
        ]

    def test_wrr_forfeits_unused_credit(self, sim):
        arbiter, grants = build(
            sim, rate=1.0, burst=1.0, scheduler="wrr"
        )
        arbiter.register(0, weight=3.0)
        arbiter.register(1, weight=1.0)
        # flow 0 has only one frame: it cannot bank its 3-credit turn
        arbiter.submit(0, ("zero", 0))
        for n in range(3):
            arbiter.submit(1, ("one", n))
        drain(sim)
        assert [m for _, m in grants] == [
            ("zero", 0), ("one", 0), ("one", 1), ("one", 2)
        ]


class TestStats:
    def test_stats_dict_uses_string_flow_keys(self, sim):
        """String keys: the dict must survive a JSON round-trip exactly."""
        arbiter, _ = build(sim, rate=1.0)
        arbiter.register(0)
        arbiter.register(1)
        arbiter.submit(0, "a")
        drain(sim)
        stats = arbiter.stats_dict()
        assert set(stats["per_flow"]) == {"0", "1"}
        assert stats["grants_total"] == 1
        assert stats["per_flow"]["0"]["granted"] == 1
        assert stats["per_flow"]["1"]["granted"] == 0

    def test_register_is_idempotent(self, sim):
        arbiter, _ = build(sim, rate=1.0)
        first = arbiter.register(0)
        arbiter.submit(0, "a")
        again = arbiter.register(0)
        assert again is first and again.enqueued == 1


class TestDrrProperties:
    """Hypothesis: DRR conserves grants and is fair under equal weights."""

    @settings(max_examples=40, deadline=None)
    @given(
        variant=st.sampled_from(sorted(ENGINE_VARIANTS)),
        nflows=st.integers(min_value=2, max_value=4),
        extra=st.lists(
            st.integers(min_value=0, max_value=25),
            min_size=2,
            max_size=4,
        ),
        rate=st.floats(min_value=0.5, max_value=8.0),
        burst=st.floats(min_value=1.0, max_value=6.0),
    )
    def test_drr_conserves_grants_and_splits_evenly(
        self, variant, nflows, extra, rate, burst
    ):
        sim = ENGINE_VARIANTS[variant]()
        grants = []
        arbiter = LinkArbiter(
            sim,
            lambda message: grants.append(message),
            ArbiterConfig(
                rate=rate, burst=burst, scheduler="drr", queue_limit=None
            ),
        )
        floor = 20  # every flow backlogs at least this many frames
        counts = [floor + extra[n % len(extra)] for n in range(nflows)]
        for flow in range(nflows):
            arbiter.register(flow, weight=1.0)
        # interleave submissions so the initial burst tokens don't all
        # land on one flow before the others have any backlog (the
        # fairness property is about scheduling, not arrival order)
        for n in range(max(counts)):
            for flow, count in enumerate(counts):
                if n < count:
                    arbiter.submit(flow, flow)
        drain(sim)

        # conservation: every submitted frame is granted exactly once
        # (no drops with queue_limit=None), in every flow's accounting
        assert arbiter.grants_total == sum(counts) == len(grants)
        assert arbiter.drops_total == 0
        for flow, count in enumerate(counts):
            stats = arbiter.flow_stats(flow)
            assert stats.enqueued == stats.granted == count
            assert arbiter.queue_depth(flow) == 0

        # equal-weight fairness: while every flow is still backlogged
        # (the first nflows*floor grants), shares are even — Jain >= 0.99
        window = grants[: nflows * floor]
        shares = [window.count(flow) for flow in range(nflows)]
        jain = sum(shares) ** 2 / (nflows * sum(s * s for s in shares))
        assert jain >= 0.99


class _ReferenceArbiter:
    """The arbiter spelled out plainly, as the equivalence oracle.

    It refills the token bucket before every grant and asks a callback
    for each flow's backlog, and it keeps the three schedulers' turn
    state in plain attributes.  :class:`LinkArbiter` must grant the same
    frames at the same instants and keep the same counters.
    """

    def __init__(self, sim, send, config):
        self.sim = sim
        self.send = send
        self.config = config
        self.frames = {}
        self.stats = {}
        self.order = []
        self.weights = {}
        self.deficit = {}
        self.arrivals = deque()
        self.idx = 0
        self.remaining = 0
        self.fresh = True
        self.tokens = float(config.burst)
        self.last_refill = sim.now
        self.wake = None
        self.pumping = False
        self.grants_total = 0
        self.drops_total = 0

    def backlog(self, flow):
        return len(self.frames[flow])

    def register(self, flow, weight=1.0):
        self.frames[flow] = deque()
        self.stats[flow] = FlowQueueStats()
        self.weights[flow] = weight
        self.deficit[flow] = 0.0
        self.order = sorted(self.order + [flow])
        self.idx = 0
        self.fresh = True
        self.remaining = max(1, int(self.weights[self.order[0]]))

    def submit(self, flow, message):
        frames, stats = self.frames[flow], self.stats[flow]
        limit = self.config.queue_limit
        if limit is not None and len(frames) >= limit:
            stats.dropped += 1
            self.drops_total += 1
            return False
        frames.append((message, self.sim.now))
        stats.enqueued += 1
        stats.max_depth = max(stats.max_depth, len(frames))
        self.arrivals.append(flow)
        self.pump()
        return True

    def select(self):
        scheduler = self.config.scheduler
        if scheduler == "fifo":
            return self.arrivals.popleft()
        while True:
            flow = self.order[self.idx]
            if scheduler == "wrr":
                if self.remaining > 0 and self.backlog(flow) > 0:
                    self.remaining -= 1
                    return flow
                self.idx = (self.idx + 1) % len(self.order)
                self.remaining = max(1, int(self.weights[self.order[self.idx]]))
                continue
            if self.backlog(flow) == 0:
                self.deficit[flow] = 0.0
            else:
                if self.fresh:
                    self.deficit[flow] += self.weights[flow]
                    self.fresh = False
                if self.deficit[flow] >= 1.0:
                    self.deficit[flow] -= 1.0
                    if self.backlog(flow) == 1:  # the frame drains the queue
                        self.deficit[flow] = 0.0
                        self.idx = (self.idx + 1) % len(self.order)
                        self.fresh = True
                    return flow
            self.idx = (self.idx + 1) % len(self.order)
            self.fresh = True

    def pump(self):
        if self.pumping:
            return
        self.pumping = True
        rate, burst = float(self.config.rate), float(self.config.burst)
        while any(self.frames.values()):
            now = self.sim.now
            if now > self.last_refill:
                elapsed = now - self.last_refill
                self.tokens = min(burst, self.tokens + elapsed * rate)
                self.last_refill = now
            if 0 < 1.0 - self.tokens < 1e-9:
                self.tokens = 1.0
            if self.tokens < 1.0:
                break
            flow = self.select()
            message, enqueued_at = self.frames[flow].popleft()
            self.tokens -= 1.0
            stats = self.stats[flow]
            stats.granted += 1
            stats.wait_total += now - enqueued_at
            self.grants_total += 1
            self.send(message)
        self.pumping = False
        if any(self.frames.values()) and self.wake is None:
            delay = (1.0 - self.tokens) / rate
            self.wake = self.sim.schedule(delay, self.on_wake)

    def on_wake(self):
        self.wake = None
        self.pump()

    def flow_stats(self, flow):
        return self.stats[flow]


class TestReferenceEquivalence:
    """Hypothesis: LinkArbiter grants exactly what the reference grants."""

    @staticmethod
    def run(make, variant, config, weights, submits, echo):
        """Drive one arbiter through ``submits``; return what it did.

        With ``echo``, every grant of an even-numbered frame submits a
        follow-up frame from inside the downstream send, the re-entrant
        path an endpoint reacting to a channel event takes.
        """
        sim = ENGINE_VARIANTS[variant]()
        grants = []
        nflows = len(weights)

        def send(message):
            grants.append((sim.now, message))
            flow, n = message
            if echo and n % 2 == 0 and n < 1000:
                arbiter.submit((flow + 1) % nflows, ((flow + 1) % nflows, n + 1001))

        arbiter = make(sim, send, config)
        for flow, weight in enumerate(weights):
            arbiter.register(flow, weight)
        for n, (when, flow) in enumerate(submits):
            sim.schedule(when, arbiter.submit, flow, (flow, n))
        drain(sim)
        per_flow = [arbiter.flow_stats(flow).as_dict() for flow in range(nflows)]
        return grants, per_flow, arbiter.grants_total, arbiter.drops_total

    @settings(max_examples=150, deadline=None)
    @given(
        variant=st.sampled_from(sorted(ENGINE_VARIANTS)),
        scheduler=st.sampled_from(["fifo", "wrr", "drr"]),
        rate=st.floats(min_value=0.1, max_value=8.0),
        burst=st.floats(min_value=1.0, max_value=6.0),
        queue_limit=st.one_of(st.none(), st.integers(min_value=1, max_value=4)),
        weights=st.lists(
            st.one_of(
                st.integers(min_value=1, max_value=4).map(float),
                st.floats(min_value=0.1, max_value=4.0),
            ),
            min_size=1,
            max_size=4,
        ),
        times=st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=20.0),
                st.integers(min_value=0, max_value=3),
            ),
            max_size=40,
        ),
        echo=st.booleans(),
    )
    def test_same_grants_and_counters_as_the_reference(
        self, variant, scheduler, rate, burst, queue_limit, weights,
        times, echo,
    ):
        config = ArbiterConfig(
            rate=rate, burst=burst, scheduler=scheduler,
            queue_limit=queue_limit,
        )
        submits = [(when, flow % len(weights)) for when, flow in times]
        args = (variant, config, weights, submits, echo)
        expected = self.run(_ReferenceArbiter, *args)
        actual = self.run(LinkArbiter, *args)
        assert actual[0] == expected[0]  # (time, message) per grant
        assert actual[1] == expected[1]  # per-flow counters, bit-equal
        assert actual[2:] == expected[2:]  # grants_total, drops_total
