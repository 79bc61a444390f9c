"""Tests for the invariant monitor's obs reporting and the Observability session."""

import hashlib
import json

import pytest

from repro.channel.channel import Channel
from repro.channel.delay import UniformDelay
from repro.channel.impairments import BernoulliLoss
from repro.core.messages import BlockAck, DataMessage
from repro.obs.metrics import MetricsRegistry
from repro.protocols.registry import make_pair
from repro.sim.runner import LinkSpec, run_transfer
from repro.trace.events import EventKind
from repro.trace.recorder import TraceRecorder
from repro.verify.runtime import InvariantMonitor
from repro.workloads.sources import GreedySource


def lossy_transfer(total=80, **obs_kwargs):
    sender, receiver = make_pair("blockack", window=8, bounded_wire=True)
    return run_transfer(
        sender,
        receiver,
        GreedySource(total),
        forward=LinkSpec(delay=UniformDelay(0.5, 1.5), loss=BernoulliLoss(0.1)),
        reverse=LinkSpec(delay=UniformDelay(0.5, 1.5)),
        seed=7,
        max_time=100_000.0,
        obs=True,
        **obs_kwargs,
    )


#: channel_events_total outcome -> the link counter it must equal
OUTCOME_COUNTERS = (
    ("send", "sent"),
    ("deliver", "delivered"),
    ("lose", "lost"),
    ("age", "aged_out"),
    ("duplicate", "duplicated"),
)


def assert_channel_events_match(registry, links):
    """``channel_events_total{link,outcome}`` equals every link's counters.

    ``links`` maps each observed link name to its final counters, as the
    run's result reports them; the counter must cover exactly these.
    """
    samples = registry.snapshot()["channel_events_total"]["samples"]
    assert {sample["labels"]["link"] for sample in samples} == set(links)
    counter = registry.get("channel_events_total")
    for link, stats in links.items():
        for outcome, stat in OUTCOME_COUNTERS:
            assert counter.value_for(link=link, outcome=outcome) == stats[stat], (
                link, outcome,
            )


def _aged_duplicated_transfer():
    def link():
        return LinkSpec(
            delay=UniformDelay(0.5, 1.5), loss=BernoulliLoss(0.1),
            max_lifetime=1.4, duplicate_probability=0.05,
        )

    sender, receiver = make_pair("blockack", window=8)
    result = run_transfer(
        sender, receiver, GreedySource(80), forward=link(), reverse=link(),
        seed=7, max_time=100_000.0, obs=True,
    )
    assert result.forward_stats["aged_out"] > 0
    assert result.forward_stats["duplicated"] > 0
    return result


def _framed_transfer():
    class ByteSource(GreedySource):
        def _make_payload(self):
            return f"chunk-{len(self.submitted):05d}".encode()

    def link():
        return LinkSpec(max_lifetime=8.0, bit_error_rate=2e-4)

    sender, receiver = make_pair("blockack", window=8)
    result = run_transfer(
        sender, receiver, ByteSource(120), forward=link(), reverse=link(),
        seed=5, obs=True,
    )
    assert result.forward_stats["discarded"] > 0
    return result


def _arbitrated_session():
    from repro.channel.arbiter import ArbiterConfig
    from repro.experiments.common import lossy_link
    from repro.sim.host import run_flows, uniform_flows

    session = run_flows(
        uniform_flows("blockack", 2, 4, 40),
        forward=lossy_link(0.1), reverse=lossy_link(0.1), seed=5,
        arbiter=ArbiterConfig(rate=2.0, scheduler="drr"), obs=True,
    )
    assert session.completed and session.in_order
    links = {"SR": session.forward_stats, "RS": session.reverse_stats}
    for index, flow in enumerate(session.flows):
        links[f"SR.f{index}"] = flow.forward_stats
        links[f"RS.f{index}"] = flow.reverse_stats
    return session.obs.registry, links


def _faulted_transfer():
    from repro.robustness.faults import CrashRestart, FaultPlan

    plan = FaultPlan(
        forward_brownout=[(20.0, 0.0), (25.0, 0.6), (35.0, 0.6), (40.0, 0.0)],
        crashes=[CrashRestart(at=45.0, outage=5.0, endpoint="receiver")],
    )
    sender, receiver = make_pair("blockack", window=8)
    link = LinkSpec(delay=UniformDelay(0.5, 1.5), loss=BernoulliLoss(0.05))
    result = run_transfer(
        sender, receiver, GreedySource(150), forward=link, reverse=link,
        seed=3, max_time=100_000.0, fault_plan=plan, obs=True,
    )
    assert plan.stats.crashes == 1 and plan.stats.dropped_while_down > 0
    return result


def _single_flow(result):
    assert result.completed and result.in_order
    links = {"SR": result.forward_stats, "RS": result.reverse_stats}
    return result.obs.registry, links


#: case -> () -> (registry, {link: final counters}), one run each
CHANNEL_COUNT_CASES = {
    "lossy": lambda: _single_flow(lossy_transfer()),
    "aged_duplicated": lambda: _single_flow(_aged_duplicated_transfer()),
    "framed": lambda: _single_flow(_framed_transfer()),
    "arbitrated": _arbitrated_session,
    "faults": lambda: _single_flow(_faulted_transfer()),
}


@pytest.fixture(scope="module")
def violating_run(tmp_path_factory):
    """A below-safe-timeout transfer the monitor flags: it dumps a flight.

    Returns ``(obs_dir, result)``; the dump lands under ``obs_dir``.
    """
    obs_dir = tmp_path_factory.mktemp("violating")
    sender, receiver = make_pair(
        "blockack", window=8, bounded_wire=True,
        timeout_mode="aggressive", timeout_period=1.2,  # below safe
    )
    link = LinkSpec(
        delay=UniformDelay(0.2, 1.8), loss=BernoulliLoss(0.1),
        max_lifetime=3.0,
    )
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("REPRO_OBS_DIR", str(obs_dir))
        result = run_transfer(
            sender, receiver, GreedySource(100),
            forward=link, reverse=link, seed=3, max_time=2_000.0,
            trace=True, monitor_invariants=True, obs=True, causal=True,
            obs_run_id="violating",
        )
    return obs_dir, result


class TestProbeUnit:
    """The monitor reporting into a registry and a recorder, as under obs."""

    def make_monitor(self, sim, **kwargs):
        forward = Channel(sim)
        reverse = Channel(sim)
        forward.connect(lambda m: None)
        reverse.connect(lambda m: None)
        sender, receiver = make_pair("blockack", window=4)
        return (
            InvariantMonitor(sender, receiver, forward, reverse, **kwargs),
            forward,
            reverse,
        )

    def test_duplicate_data_flagged_as_metric_and_note(self, sim):
        registry = MetricsRegistry()
        recorder = TraceRecorder(sim)
        monitor, forward, _ = self.make_monitor(
            sim, registry=registry, recorder=recorder
        )
        forward.send(DataMessage(seq=5, payload=None))
        assert registry.get("invariant_violations_total") is None
        forward.send(DataMessage(seq=5, payload=None))  # same wire number
        assert not monitor.clean
        violations = registry.get("invariant_violations_total")
        assert violations.value_for(clause="8: duplicate data in transit") == 1
        notes = recorder.filter(kind=EventKind.NOTE, actor="monitor")
        assert notes and "duplicate data" in notes[0].detail

    def test_overlapping_acks_flagged(self, sim):
        registry = MetricsRegistry()
        recorder = TraceRecorder(sim)
        monitor, _, reverse = self.make_monitor(
            sim, registry=registry, recorder=recorder
        )
        reverse.send(BlockAck(lo=0, hi=3))
        reverse.send(BlockAck(lo=2, hi=5))
        assert [v.clause for v in monitor.violations] == [
            "8: overlapping acks in transit"
        ]
        assert "wire seq 2 " in monitor.violations[0].detail
        counter = registry.get("invariant_violations_total")
        assert counter.value_for(clause="8: overlapping acks in transit") == 1
        notes = recorder.filter(kind=EventKind.NOTE, actor="monitor")
        assert len(notes) == 1 and "overlapping acks" in notes[0].detail

    def test_probe_never_raises(self, sim):
        monitor, forward, _ = self.make_monitor(sim, registry=MetricsRegistry())
        forward.send(DataMessage(seq=1, payload=None))
        forward.send(DataMessage(seq=1, payload=None))
        # strict is off by default: violations collect, nothing raised
        assert monitor.strict is False
        assert len(monitor.violations) == 1


class TestProbeInTransfer:
    def test_clean_protocol_zero_violations(self):
        result = lossy_transfer(monitor_invariants=True)
        assert result.completed
        assert result.monitor is not None
        assert result.monitor.clean
        # declared at the first violation: a clean export has no series
        assert result.obs.registry.get("invariant_violations_total") is None

    def test_probe_off_by_default(self):
        result = lossy_transfer()
        assert result.monitor is None

    def test_violation_counts_notes_and_dumps_flight(self, violating_run):
        from repro.obs.schema import validate_file

        obs_dir, result = violating_run
        violations = result.monitor.violations
        assert violations
        counter = result.obs.registry.get("invariant_violations_total")
        assert sum(
            counter.value_for(clause=clause)
            for clause in {v.clause for v in violations}
        ) == len(violations)
        notes = result.trace.filter(kind=EventKind.NOTE, actor="monitor")
        assert len(notes) == len(violations)
        reasons = [reason for _, reason, _ in result.causal.triggers]
        assert "invariant_violation" in reasons
        assert result.flight_path == str(obs_dir / "flight" / "violating.jsonl")
        assert validate_file(result.flight_path) == []
        with open(result.flight_path, encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        meta = json.loads(lines[0])
        assert meta["labels"]["flight"] == "invariant_violation"
        # the whole dump, in stream order: ring, post-trigger nodes,
        # attributions and endpoint snapshots
        assert len(lines) == 89200
        assert hashlib.sha256(
            json.dumps(lines).encode()
        ).hexdigest() == (
            "e9832aa9b066c31f1c458a51377ab0a0"
            "d7cd6013855935c18205d414fd2709b6"
        )

    def test_flight_dump_report_and_perfetto_digest(self, violating_run):
        from repro.obs.analyze import perfetto_trace, render_report
        from repro.obs.sink import load_run

        _, result = violating_run
        dump = load_run(result.flight_path)
        report = render_report(dump).replace(result.flight_path, "<path>")
        assert "trigger @" in report and "root causes:" in report
        assert hashlib.sha256(report.encode()).hexdigest() == (
            "2ba592f087c7c1f05562840941d36122"
            "12eef57efbb73040a3a0a2356f43dd8a"
        )
        trace = json.dumps(perfetto_trace(dump), sort_keys=True)
        assert hashlib.sha256(trace.encode()).hexdigest() == (
            "a638dc8a45b19c3660393f375d8d64d6"
            "8f4779d6b454dbec8c4a151ae6ffba0d"
        )


class TestObservabilitySession:
    def test_scoped_sessions_do_not_share_series(self):
        a = lossy_transfer(obs_run_id="a")
        b = lossy_transfer(obs_run_id="b")
        assert a.obs.registry is not b.obs.registry

    def test_transfer_metrics_populated(self):
        result = lossy_transfer(obs_run_id="metrics")
        registry = result.obs.registry
        assert registry.get("sim_events_fired_total").value > 0
        assert registry.get("channel_events_total").value_for(
            link="SR", outcome="send"
        ) > 0
        assert registry.get("delivery_latency").count == result.delivered
        assert registry.get("transfer_completed").value == 1.0
        # the lossy link forced retransmissions, visible in the spans
        (tracker,) = result.obs.trackers
        resends = sum(s.resends for s in tracker.spans.values())
        assert resends > 0

    @pytest.mark.parametrize("case", sorted(CHANNEL_COUNT_CASES))
    def test_channel_events_equal_link_counters(self, case):
        registry, links = CHANNEL_COUNT_CASES[case]()
        assert_channel_events_match(registry, links)

    def test_rtt_telemetry_from_adaptive_controller(self):
        sender, receiver = make_pair("blockack", window=8, adaptive=True)
        result = run_transfer(
            sender,
            receiver,
            GreedySource(80),
            forward=LinkSpec(
                delay=UniformDelay(0.5, 1.5), loss=BernoulliLoss(0.1)
            ),
            reverse=LinkSpec(delay=UniformDelay(0.5, 1.5)),
            seed=7,
            max_time=100_000.0,
            obs=True,
            obs_run_id="rtt",
        )
        rtt = result.obs.registry.get("rtt_sample")
        assert rtt is not None and rtt.count > 0

    def test_fixed_timer_sender_has_no_rtt_series(self):
        result = lossy_transfer(obs_run_id="rtt_off")
        assert result.obs.registry.get("rtt_sample") is None

    def test_latencies_match_unobserved_run(self):
        observed = lossy_transfer(obs_run_id="obs_on")
        sender, receiver = make_pair("blockack", window=8, bounded_wire=True)
        plain = run_transfer(
            sender,
            receiver,
            GreedySource(80),
            forward=LinkSpec(
                delay=UniformDelay(0.5, 1.5), loss=BernoulliLoss(0.1)
            ),
            reverse=LinkSpec(delay=UniformDelay(0.5, 1.5)),
            seed=7,
            max_time=100_000.0,
        )
        # telemetry must not perturb the simulation: same seed, same
        # delivery schedule, same latencies
        assert observed.latencies == pytest.approx(plain.latencies)
        assert observed.duration == plain.duration

    @pytest.mark.parametrize("protocol", ["blockack", "blockack-bounded"])
    def test_obs_leaves_latencies_unchanged(self, protocol):
        # the Section V endpoints submit, trace and deliver wire numbers
        # taken mod 2w, so span keys repeat; latencies must not come
        # from the spans
        def transfer(obs):
            sender, receiver = make_pair(protocol, window=8)

            def link():
                return LinkSpec(
                    delay=UniformDelay(0.5, 1.5), loss=BernoulliLoss(0.05),
                    max_lifetime=3.0,
                )

            return run_transfer(
                sender, receiver, GreedySource(300),
                forward=link(), reverse=link(), seed=3, obs=obs,
            )

        observed, plain = transfer(True), transfer(False)
        assert plain.completed and len(plain.latencies) == 300
        assert min(plain.latencies) > 0
        assert observed.latencies == plain.latencies

    def test_export_is_schema_valid(self, tmp_path):
        from repro.obs.schema import validate_file
        from repro.obs.sink import load_run

        result = lossy_transfer(obs_run_id="export_test")
        path = result.obs.export(path=tmp_path / "export_test.jsonl")
        assert validate_file(path) == []
        dump = load_run(path)
        assert dump.run_id == "export_test"
        assert len(dump.spans) == 80
        assert "delivery_latency" in dump.snapshot
