"""Unit and property tests for the send-side link arbiter.

The arbiter (:mod:`repro.channel.arbiter`) is the tentpole of the
capacity-limited-link refactor, so its contract is tested directly,
below the mux/host layers: token-bucket pacing, droptail accounting,
scheduler ordering (fifo / wrr / drr), and — via hypothesis — DRR's
grant-conservation and equal-weight fairness properties.  Every test
runs on the bare and the instrumented engine (``ENGINE_VARIANTS``).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.channel.arbiter import (
    ArbiterConfig,
    DrrScheduler,
    FifoScheduler,
    LinkArbiter,
    WrrScheduler,
    make_scheduler,
)
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
        with pytest.raises(ValueError):
            ArbiterConfig(rate=1.0, quantum=0.0)
        # NaN slips past every comparison, and an infinite rate re-arms
        # the wake at zero delay: each would hang or unbound the link
        for field in ("rate", "burst", "quantum"):
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
