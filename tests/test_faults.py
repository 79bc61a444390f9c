"""Tests for scripted fault injection (repro.robustness.faults).

Brownout loss ramps, frame corruption, and endpoint crash/restart — each
checked in isolation and then end to end through ``run_transfer`` with
the invariant monitor watching.
"""

import random

import pytest

from repro.channel.impairments import (
    BernoulliLoss,
    BrownoutLoss,
    FrameCorruption,
    NoLoss,
)
from repro.experiments.common import lossy_link
from repro.protocols.registry import make_pair
from repro.robustness.faults import CrashRestart, FaultPlan
from repro.sim.runner import run_transfer
from repro.workloads.sources import GreedySource


class TestBrownoutLoss:
    RAMP = [(10.0, 0.0), (20.0, 1.0), (30.0, 1.0), (40.0, 0.0)]

    def test_zero_outside_scripted_range(self):
        loss = BrownoutLoss(self.RAMP)
        assert loss.probability_at(5.0) == 0.0
        assert loss.probability_at(45.0) == 0.0

    def test_linear_interpolation(self):
        loss = BrownoutLoss(self.RAMP)
        assert loss.probability_at(15.0) == pytest.approx(0.5)
        assert loss.probability_at(25.0) == 1.0
        assert loss.probability_at(35.0) == pytest.approx(0.5)

    def test_drops_at_honors_ramp(self, rng):
        loss = BrownoutLoss(self.RAMP)
        assert not any(loss.drops_at(rng, 5.0) for _ in range(100))
        assert all(loss.drops_at(rng, 25.0) for _ in range(100))

    def test_time_free_drops_entry_point_rejected(self, rng):
        with pytest.raises(RuntimeError):
            BrownoutLoss(self.RAMP).drops(rng)

    def test_composes_over_base_model(self, rng):
        always = BrownoutLoss(self.RAMP, base=BernoulliLoss(1.0))
        assert always.drops_at(rng, 5.0)  # base drops even outside the ramp
        never = BrownoutLoss(self.RAMP, base=NoLoss())
        assert not never.drops_at(rng, 5.0)

    def test_reset_delegates_to_base(self, rng):
        from repro.channel.impairments import ScriptedLoss

        base = ScriptedLoss([0])
        loss = BrownoutLoss(self.RAMP, base=base)
        assert loss.drops_at(rng, 5.0)  # consumes scripted index 0
        loss.reset()
        assert loss.drops_at(rng, 5.0)  # replays after reset

    def test_validation(self):
        with pytest.raises(ValueError):
            BrownoutLoss([])
        with pytest.raises(ValueError):
            BrownoutLoss([(10.0, 0.0), (5.0, 0.5)])  # times decrease
        with pytest.raises(ValueError):
            BrownoutLoss([(0.0, 1.5)])  # probability out of range


class TestFrameCorruption:
    def test_rate(self):
        rng = random.Random(9)
        corruption = FrameCorruption(0.3)
        hits = sum(corruption.corrupts(rng) for _ in range(10_000))
        assert 0.27 < hits / 10_000 < 0.33

    def test_zero_never_corrupts(self, rng):
        assert not any(FrameCorruption(0.0).corrupts(rng) for _ in range(100))

    def test_validation(self):
        with pytest.raises(ValueError):
            FrameCorruption(1.5)


class TestCrashRestart:
    def test_validation(self):
        with pytest.raises(ValueError):
            CrashRestart(at=-1.0)
        with pytest.raises(ValueError):
            CrashRestart(at=1.0, outage=-0.5)
        with pytest.raises(ValueError):
            CrashRestart(at=1.0, endpoint="router")


def run_with_plan(plan, total=150, seed=11, **pair_kwargs):
    sender, receiver = make_pair(
        "blockack",
        window=6,
        timeout_mode=pair_kwargs.pop("timeout_mode", "per_message_safe"),
        **pair_kwargs,
    )
    result = run_transfer(
        sender,
        receiver,
        GreedySource(total),
        forward=lossy_link(0.02),
        reverse=lossy_link(0.02),
        seed=seed,
        max_time=50_000.0,
        monitor_invariants=True,
        fault_plan=plan,
    )
    return result


class TestFaultPlan:
    def test_corruption_counted_and_survived(self):
        plan = FaultPlan(
            forward_corruption=FrameCorruption(0.05),
            reverse_corruption=FrameCorruption(0.05),
            seed=4,
        )
        result = run_with_plan(plan)
        assert result.completed and result.in_order
        assert result.monitor.violations == []
        assert plan.stats.corrupt_forward > 0
        assert plan.stats.corrupt_reverse > 0
        assert result.fault_stats == plan.stats.as_dict()

    def test_sender_crash_restart_recovers(self):
        plan = FaultPlan(
            crashes=[CrashRestart(at=30.0, outage=8.0, endpoint="sender")]
        )
        result = run_with_plan(plan)
        assert result.completed and result.in_order
        assert result.monitor.violations == []
        assert plan.stats.crashes == 1 and plan.stats.restarts == 1

    def test_receiver_crash_restart_recovers(self):
        plan = FaultPlan(
            crashes=[CrashRestart(at=30.0, outage=8.0, endpoint="receiver")]
        )
        result = run_with_plan(plan)
        assert result.completed and result.in_order
        assert result.monitor.violations == []
        assert plan.stats.crashes == 1 and plan.stats.restarts == 1

    def test_deliveries_into_crashed_endpoint_are_dropped(self):
        # long outage on a busy transfer: something must arrive at the
        # dead receiver and be discarded
        plan = FaultPlan(
            crashes=[CrashRestart(at=20.0, outage=15.0, endpoint="receiver")]
        )
        result = run_with_plan(plan, total=200)
        assert result.completed and result.in_order
        assert plan.stats.dropped_while_down > 0

    def test_brownout_installed_over_existing_loss(self):
        plan = FaultPlan(
            forward_brownout=[(20.0, 0.0), (30.0, 0.8), (40.0, 0.8), (50.0, 0.0)],
            seed=2,
        )
        result = run_with_plan(plan)
        assert result.completed and result.in_order
        assert result.monitor.violations == []
        # the composed model kept the base Bernoulli loss active
        assert result.forward_stats["lost"] > 0

    def test_crash_with_adaptive_sender(self):
        plan = FaultPlan(
            forward_brownout=[(20.0, 0.0), (25.0, 0.6), (35.0, 0.6), (40.0, 0.0)],
            crashes=[CrashRestart(at=45.0, outage=5.0, endpoint="sender")],
        )
        result = run_with_plan(plan, adaptive=True)
        assert result.completed and result.in_order
        assert result.monitor.violations == []
        # crash wiped the estimator: samples restarted from zero after t=45
        assert result.sender_stats["adaptive"]["rtt_samples"] > 0

    def test_simple_mode_survives_sender_crash(self):
        plan = FaultPlan(
            crashes=[CrashRestart(at=40.0, outage=5.0, endpoint="sender")]
        )
        result = run_with_plan(plan, timeout_mode="simple", total=80)
        assert result.completed and result.in_order
        assert result.monitor.violations == []


class TestCrashTargets:
    @pytest.mark.parametrize(
        "protocol",
        ["gobackn", "selective-repeat", "tcp-sack", "stenning", "blockack-bounded"],
    )
    def test_crash_on_endpoint_without_crash_rejected_before_the_run(
        self, protocol
    ):
        sender, receiver = make_pair(protocol, window=4)
        plan = FaultPlan(crashes=[CrashRestart(at=20.0, outage=5.0)])
        name = type(sender).__name__
        with pytest.raises(ValueError, match=f"t=20 targets the sender {name}"):
            run_transfer(
                sender, receiver, GreedySource(60), seed=1,
                max_time=50_000.0, fault_plan=plan,
            )
        # rejected while wiring: the source never sent a thing
        assert sender.stats.submitted == 0
        assert sender.stats.data_sent == 0


class TestPlanInstallLifecycle:
    """One plan wires into one transfer; the runner always unwires it."""

    BROWNOUT = [(20.0, 0.0), (30.0, 0.9), (40.0, 0.9), (50.0, 0.0)]

    def _wired(self):
        from repro.channel.channel import Channel
        from repro.sim.engine import Simulator

        sim = Simulator()
        forward = Channel(sim, rng=random.Random(1), name="fwd")
        reverse = Channel(sim, rng=random.Random(2), name="rev")
        sender, receiver = make_pair("blockack", window=4)
        forward.connect(receiver.on_message)
        reverse.connect(sender.on_message)
        return sim, forward, reverse, sender, receiver

    def test_reinstall_raises(self):
        sim, forward, reverse, sender, receiver = self._wired()
        plan = FaultPlan(forward_brownout=self.BROWNOUT)
        plan.install(sim, forward, reverse, sender, receiver)
        with pytest.raises(RuntimeError):
            plan.install(sim, forward, reverse, sender, receiver)

    def test_uninstall_restores_original_loss_models(self):
        sim, forward, reverse, sender, receiver = self._wired()
        original_forward, original_reverse = forward.loss, reverse.loss
        plan = FaultPlan(forward_brownout=self.BROWNOUT)
        plan.install(sim, forward, reverse, sender, receiver)
        assert isinstance(forward.loss, BrownoutLoss)
        plan.uninstall()
        assert forward.loss is original_forward
        assert reverse.loss is original_reverse

    def test_runner_uninstalls_after_the_transfer(self):
        # crash scheduled inside the brownout ramp: the regression this
        # pins is the runner leaving the plan's wrapped loss model on the
        # channel after such a run, so a later Channel.reset would replay
        # a different rng stream
        plan = FaultPlan(
            forward_brownout=self.BROWNOUT,
            crashes=[CrashRestart(at=32.0, outage=6.0, endpoint="sender")],
            seed=2,
        )
        result = run_with_plan(plan)
        assert result.completed
        assert plan.stats.crashes == 1 and plan.stats.restarts == 1
        assert not plan._installed
        forward, reverse = plan._channels
        assert not isinstance(forward.loss, BrownoutLoss)
        assert not isinstance(reverse.loss, BrownoutLoss)

    def test_crash_during_brownout_restores_deterministic_stream(self):
        # a crash/restart scheduled inside the brownout ramp, then the
        # channel is reset and reused: the repeat run must replay the
        # channel's own (stateful, scripted) loss stream exactly as a
        # twin channel that never saw the faults — i.e. uninstall+reset
        # leave no trace of the wrapped model
        from repro.channel.channel import Channel
        from repro.channel.impairments import ScriptedLoss
        from repro.sim.engine import Simulator

        def replay(fault_first):
            sim = Simulator()
            channel = Channel(
                sim,
                loss=ScriptedLoss([3, 9, 17]),
                rng=random.Random(7),
                name="fwd",
            )
            channel.connect(lambda message: None)
            if fault_first:
                reverse = Channel(sim, rng=random.Random(8), name="rev")
                sender, receiver = make_pair("blockack", window=4)
                reverse.connect(sender.on_message)
                plan = FaultPlan(
                    forward_brownout=self.BROWNOUT,
                    crashes=[CrashRestart(at=32.0, outage=6.0)],
                    seed=2,
                )
                plan.install(sim, channel, reverse, sender, receiver)
                # probes stand in for protocol traffic: bypass the
                # interceptor (we only exercise the loss-model state)
                channel.connect(lambda message: None)
                for t in range(45):
                    sim.schedule_at(float(t), channel.send, f"probe-{t}")
                sim.run(until=60.0)
                assert plan.stats.crashes == 1 and plan.stats.restarts == 1
                plan.uninstall()
                channel.reset()
                channel.sim = Simulator()  # repeat harness: fresh clock
            delivered = []
            channel.connect(delivered.append)
            for i in range(30):  # sends land inside the old ramp times
                channel.sim.schedule_at(float(i), channel.send, i)
            channel.sim.run()
            return delivered, channel.stats.lost

        assert replay(fault_first=True) == replay(fault_first=False)
