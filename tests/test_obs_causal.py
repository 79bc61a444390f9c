"""Tests for the causal flight recorder, latency attribution, and analyze.

Covers the tentpole (causal graph + flight dumps + attribution exactness,
identical on the bare and instrumented engine, inert on decision traces) and the satellite
fixes that ride with it: sink durability across crash faults, per-flow
span summaries, and span lifecycles under composed faults.
"""

import json

import pytest

from repro.channel.delay import UniformDelay
from repro.channel.impairments import BernoulliLoss, BrownoutLoss
from repro.obs.analyze import (
    find_stalls,
    load_analysis,
    perfetto_trace,
    render_report,
    root_causes,
    seq_chains,
    write_perfetto,
)
from repro.obs.causal import (
    BACKOFF_TRIGGER_ATTEMPTS,
    node_record,
)
from repro.obs.schema import validate_file
from repro.obs.sink import JsonlSink, load_run, summarize_run
from repro.protocols.registry import make_pair
from repro.robustness.controller import AdaptiveConfig
from repro.robustness.corruption import StateCorruption
from repro.robustness.faults import CrashRestart, FaultPlan
from repro.sim.host import run_flows, uniform_flows
from repro.sim.runner import LinkSpec, run_transfer
from repro.workloads.sources import GreedySource

from .conftest import ENGINE_VARIANTS, use_engine


@pytest.fixture
def obs_dir(tmp_path, monkeypatch):
    """Point obs exports (and flight dumps) at a scratch directory."""
    monkeypatch.setenv("REPRO_OBS_DIR", str(tmp_path))
    return tmp_path


def lossy_transfer(total=150, seed=7, causal=True, **kw):
    sender, receiver = make_pair("blockack", window=8)
    return run_transfer(
        sender,
        receiver,
        GreedySource(total),
        forward=LinkSpec(delay=UniformDelay(0.5, 1.5), loss=BernoulliLoss(0.08)),
        reverse=LinkSpec(delay=UniformDelay(0.5, 1.5), loss=BernoulliLoss(0.04)),
        seed=seed,
        causal=causal,
        **kw,
    )


def dead_link_transfer(obs_dir, total=200, seed=7):
    """A link that goes permanently dead at t=30: every trigger fires."""
    sender, receiver = make_pair("blockack", window=8, adaptive=AdaptiveConfig())
    return run_transfer(
        sender,
        receiver,
        GreedySource(total),
        forward=LinkSpec(
            delay=UniformDelay(0.5, 1.5),
            loss=BrownoutLoss([(30.0, 1.0), (1e9, 1.0)]),
        ),
        reverse=LinkSpec(delay=UniformDelay(0.5, 1.5)),
        seed=seed,
        causal=True,
        max_time=100_000,
    )


class TestAttribution:
    def test_components_sum_exactly_to_total(self):
        result = lossy_transfer()
        attributions = result.causal.attributions
        assert len(attributions) == 150
        for record in attributions.values():
            parts = (
                record["queue_wait"]
                + record["timer_wait"]
                + record["retx_wait"]
                + record["propagation"]
            )
            assert record["total"] == pytest.approx(parts, abs=1e-9)
            assert record["queue_wait"] >= 0
            assert record["timer_wait"] >= 0
            assert record["retx_wait"] >= 0
            assert record["propagation"] >= 0

    def test_retransmitted_seqs_carry_wait_components(self):
        result = lossy_transfer()
        chains = {}
        for node in result.causal.nodes():
            if node[3] == "resend_data":
                chains[node[4]] = True
        attributions = result.causal.attributions
        resent = [
            attributions[(None, seq)] for seq in chains if (None, seq) in attributions
        ]
        assert resent, "lossy run produced no observed retransmissions"
        assert any(r["timer_wait"] + r["retx_wait"] > 0 for r in resent)

    def test_as_records_sorted_by_seq(self):
        result = lossy_transfer(total=40)
        records = result.causal.as_records()
        assert [r["seq"] for r in records] == sorted(r["seq"] for r in records)
        assert all(r["type"] == "attribution" for r in records)


class TestEngineIdentity:
    """The causal layer sees the same run on the bare and the
    instrumented engine (``ENGINE_VARIANTS`` in ``conftest.py``)."""

    def test_nodes_and_attributions_identical_across_engines(self, monkeypatch):
        default = lossy_transfer()
        use_engine(monkeypatch, "fast")
        fast = lossy_transfer()
        assert default.causal.nodes() == fast.causal.nodes()
        assert default.causal.attributions == fast.causal.attributions

    @pytest.mark.parametrize("variant", list(ENGINE_VARIANTS))
    def test_decision_trace_identical_with_causal_on_and_off(
        self, variant, monkeypatch
    ):
        use_engine(monkeypatch, variant)
        on = lossy_transfer(causal=True, trace=True)
        off = lossy_transfer(causal=False, trace=True)
        key_on = [e.decision_key() for e in on.trace.events]
        key_off = [e.decision_key() for e in off.trace.events]
        assert key_on == key_off


class TestFlightRecorder:
    def test_clean_run_triggers_nothing_and_writes_nothing(self, obs_dir):
        sender, receiver = make_pair("blockack", window=8)
        result = run_transfer(
            sender,
            receiver,
            GreedySource(60),
            forward=LinkSpec(delay=UniformDelay(0.5, 1.5)),
            reverse=LinkSpec(delay=UniformDelay(0.5, 1.5)),
            seed=3,
            causal=True,
        )
        assert not result.causal.triggered
        assert result.flight_path is None
        assert list(obs_dir.rglob("*.jsonl")) == []

    def test_ring_is_bounded(self):
        result = lossy_transfer(total=300)
        causal = result.causal
        assert len(causal.ring) == causal.ring_capacity
        assert causal.events_recorded > causal.ring_capacity

    def test_dead_link_escalates_backoff_to_link_dead(self, obs_dir):
        result = dead_link_transfer(obs_dir)
        reasons = [reason for _, reason, _ in result.causal.triggers]
        assert reasons[0] == "rto_backoff"
        assert "link_dead" in reasons
        first_detail = result.causal.triggers[0][2]
        assert f"attempts={BACKOFF_TRIGGER_ATTEMPTS}" in first_detail

    def test_flight_dump_is_schema_valid_and_well_formed(self, obs_dir):
        result = dead_link_transfer(obs_dir)
        assert result.flight_path is not None
        assert validate_file(result.flight_path) == []
        records = [
            json.loads(line) for line in open(result.flight_path, encoding="utf-8")
        ]
        assert records[0]["type"] == "meta"
        assert records[0]["labels"]["flight"] == "rto_backoff"
        assert records[-1]["type"] == "snapshot"
        by_type = {}
        for record in records:
            by_type.setdefault(record["type"], []).append(record)
        assert {"meta", "trigger", "state", "causal", "attribution"} <= set(by_type)
        # parent edges resolve inside the dump and point backwards
        ids = {r["id"] for r in by_type["causal"]}
        for record in by_type["causal"]:
            parent = record["parent"]
            assert parent is None or (parent in ids and parent < record["id"])
        # endpoint snapshots carry protocol state
        endpoints = {r["endpoint"] for r in by_type["state"]}
        assert {"sender", "receiver"} <= endpoints

    def test_post_trigger_events_stream_and_fault_boundaries_flush(self, obs_dir):
        sender, receiver = make_pair("blockack", window=8)
        plan = FaultPlan(
            crashes=[CrashRestart(at=40.0, outage=5.0, endpoint="sender")],
            corruptions=[StateCorruption(at=60.0, site="sender.window")],
        )
        result = lossy_transfer(
            total=120, causal=True, fault_plan=plan, monitor_invariants=False
        )
        causal = result.causal
        # inject a manual trigger early so the dump streams during faults
        if not causal.triggered:
            pass  # triggers may already have fired on this seed
        fault_kinds = {n[3] for n in causal.nodes() if n[3].startswith("fault.")}
        assert "fault.crash" in fault_kinds
        assert "fault.restart" in fault_kinds

    def test_manual_trigger_freezes_ring_once(self):
        result = lossy_transfer(total=30)
        causal = result.causal
        causal.trigger("link_dead", "manual")
        frozen_len = len(causal.frozen)
        causal.trigger("rto_backoff", "second trigger must not re-freeze")
        assert len(causal.frozen) == frozen_len
        assert [r for _, r, _ in causal.triggers] == ["link_dead", "rto_backoff"]
        path = causal.close_flight()
        assert path is not None and validate_file(path) == []

    def test_node_record_shape(self):
        record = node_record((3, 1.5, "sender", "send_data", 7, None, 1, 2, "x"))
        assert record == {
            "type": "causal",
            "id": 3,
            "time": 1.5,
            "actor": "sender",
            "kind": "send_data",
            "seq": 7,
            "seq_hi": None,
            "parent": 1,
            "flow": 2,
            "detail": "x",
        }


class TestHostCausal:
    def test_multi_flow_attributions_are_flow_stamped_and_exact(self):
        result = run_flows(
            uniform_flows("blockack", 3, 8, 40),
            forward=LinkSpec(
                delay=UniformDelay(0.5, 1.5), loss=BernoulliLoss(0.05)
            ),
            reverse=LinkSpec(delay=UniformDelay(0.5, 1.5)),
            seed=11,
            causal=True,
        )
        attributions = result.causal.attributions
        flows_seen = {key[0] for key in attributions}
        assert flows_seen == {0, 1, 2}
        assert len(attributions) == 120
        for record in attributions.values():
            parts = (
                record["queue_wait"]
                + record["timer_wait"]
                + record["retx_wait"]
                + record["propagation"]
            )
            assert record["total"] == pytest.approx(parts, abs=1e-9)
        # channel nodes see the flow id through the mux envelope
        flow_tagged = [n for n in result.causal.nodes() if n[7] is not None]
        assert any(n[3].startswith("channel.") for n in flow_tagged)


    def test_multi_flow_nodes_identical_across_engines(self, monkeypatch):
        kwargs = dict(
            forward=LinkSpec(
                delay=UniformDelay(0.5, 1.5), loss=BernoulliLoss(0.05)
            ),
            reverse=LinkSpec(delay=UniformDelay(0.5, 1.5)),
            seed=5,
            causal=True,
        )
        default = run_flows(uniform_flows("blockack", 2, 8, 30), **kwargs)
        use_engine(monkeypatch, "fast")
        fast = run_flows(uniform_flows("blockack", 2, 8, 30), **kwargs)
        assert default.causal.nodes() == fast.causal.nodes()
        assert default.causal.attributions == fast.causal.attributions


class TestSinkDurability:
    """Satellite: no truncated obs files when faults end a run mid-write."""

    def test_each_record_is_one_complete_line(self, tmp_path):
        path = tmp_path / "run.jsonl"
        sink = JsonlSink(path)
        sink.write({"type": "meta", "schema": "repro.obs/v2", "run_id": "x",
                    "labels": {}})
        sink.flush()
        # readable mid-run after a flush: exactly the lines written so far
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["type"] == "meta"
        sink.close()

    def test_flush_and_close_are_idempotent_after_close(self, tmp_path):
        sink = JsonlSink(tmp_path / "run.jsonl")
        sink.write({"type": "snapshot", "metrics": {}})
        sink.close()
        sink.flush()  # must not raise on a closed handle
        sink.close()

    def test_obs_export_complete_after_crash_restart(self, obs_dir):
        sender, receiver = make_pair("blockack", window=8)
        plan = FaultPlan(
            crashes=[CrashRestart(at=30.0, outage=4.0, endpoint="sender")]
        )
        result = run_transfer(
            sender,
            receiver,
            GreedySource(80),
            forward=LinkSpec(delay=UniformDelay(0.5, 1.5), loss=BernoulliLoss(0.05)),
            reverse=LinkSpec(delay=UniformDelay(0.5, 1.5)),
            seed=13,
            fault_plan=plan,
            obs=True,
            obs_run_id="crashy",
        )
        assert result.fault_stats["crashes"] == 1
        path = result.obs.export()
        assert validate_file(path) == []


class TestPerFlowSummary:
    """Satellite: ``blockack obs summarize`` shows per-flow percentiles."""

    def test_summarize_reports_per_flow_percentiles(self, obs_dir):
        result = run_flows(
            uniform_flows("blockack", 2, 8, 25),
            forward=LinkSpec(delay=UniformDelay(0.5, 1.5)),
            reverse=LinkSpec(delay=UniformDelay(0.5, 1.5)),
            seed=11,
            obs=True,
            obs_run_id="flowsum",
        )
        path = result.obs.export()
        text = summarize_run(load_run(path))
        assert "per-flow latency" in text
        assert "flow 0:" in text and "flow 1:" in text
        assert "p50=" in text and "p95=" in text and "p99=" in text


class TestSpanLifecyclesUnderFaults:
    """Satellite: span lifecycles stay coherent under composed faults."""

    def composed_run(self, seed=13):
        sender, receiver = make_pair(
            "blockack", window=8, adaptive=AdaptiveConfig()
        )
        plan = FaultPlan(
            forward_brownout=[(8.0, 0.0), (11.0, 1.0), (1e9, 0.0)],
            crashes=[CrashRestart(at=16.0, outage=2.0, endpoint="sender")],
            corruptions=[StateCorruption(at=22.0, site="sender.window")],
        )
        return run_transfer(
            sender,
            receiver,
            GreedySource(60),
            forward=LinkSpec(delay=UniformDelay(0.5, 1.5)),
            reverse=LinkSpec(delay=UniformDelay(0.5, 1.5)),
            seed=seed,
            fault_plan=plan,
            obs=True,
            obs_run_id="composed",
            causal=True,
            max_time=5_000,
        )

    def test_resent_chains_span_channel_reset_and_repairs(self, obs_dir):
        # the corruption wedges one seq hard enough that the adaptive
        # controller eventually declares the link dead: exactly the kind
        # of run the telemetry has to survive intact
        result = self.composed_run()
        assert result.fault_stats["crashes"] == 1
        assert result.fault_stats["restarts"] == 1
        assert result.fault_stats["state_corruptions"] == 1
        dump = load_run(result.obs.export())
        spans = {r["seq"]: r for r in dump.spans}
        assert spans
        # the brownout forces resends across the plan's Channel loss
        # wrap/reset; those spans keep coherent lifecycles
        resent = [s for s in spans.values() if s["resends"] > 0]
        assert resent
        for span in spans.values():
            if span["delivered"] is not None and span["first_sent"] is not None:
                assert span["delivered"] >= span["first_sent"]
            if span["resends"] > 0 and span["last_sent"] is not None:
                assert span["last_sent"] >= span["first_sent"]
        # the run died anomalous (link_dead): the flight recorder must
        # have fired and left a schema-valid dump alongside the export
        assert result.sender_stats.get("link_dead")
        assert result.flight_path is not None
        assert validate_file(result.flight_path) == []

    def test_causal_graph_records_fault_chain(self, obs_dir):
        result = self.composed_run()
        nodes = result.causal.nodes()
        kinds = [n[3] for n in nodes if n[3].startswith("fault.")]
        assert "fault.crash" in kinds and "fault.restart" in kinds
        # fault nodes chain per endpoint: restart's parent is the crash
        by_id = {n[0]: n for n in nodes}
        restarts = [n for n in nodes if n[3] == "fault.restart"]
        assert restarts
        for node in restarts:
            parent = node[6]
            assert parent is not None
            assert by_id[parent][3].startswith("fault.")


class TestAnalyze:
    def test_report_and_perfetto_from_dead_link_dump(self, obs_dir, tmp_path):
        result = dead_link_transfer(obs_dir)
        analysis = load_analysis(result.flight_path)
        assert analysis.run_id == "transfer"
        assert len(analysis.triggers) == len(result.causal.triggers)

        chains = seq_chains(analysis)
        assert chains  # per-seq chains reconstructed

        report = render_report(analysis)
        assert "root causes" in report
        assert "Karn backoff" in report
        assert "latency attribution" in report

        causes = root_causes(analysis)
        assert causes and "loss" in causes[0]

        stalls = find_stalls(analysis)
        assert isinstance(stalls, list)

        trace = perfetto_trace(analysis)
        phases = {event["ph"] for event in trace["traceEvents"]}
        assert {"M", "X", "i"} <= phases
        out = tmp_path / "trace.json"
        write_perfetto(analysis, out)
        loaded = json.load(open(out, encoding="utf-8"))
        assert loaded["displayTimeUnit"] == "ms"

    def test_analysis_reads_attributions_back(self, obs_dir):
        result = dead_link_transfer(obs_dir)
        analysis = load_analysis(result.flight_path)
        assert analysis.attributions
        for record in analysis.attributions:
            parts = (
                record["queue_wait"]
                + record["timer_wait"]
                + record["retx_wait"]
                + record["propagation"]
            )
            assert record["total"] == pytest.approx(parts, abs=1e-9)


class TestArbiterAttribution:
    """Link-arbiter queue wait folds into the attribution telescoping.

    With a finite link rate, a frame's causal chain gains a wait *before*
    the channel (the arbiter queue).  The recorder folds that gap into
    ``queue_wait`` (and reports it separately as ``link_wait``), so the
    four components must still telescope exactly to submit→deliver —
    arbitration moves latency between buckets, it never leaks any.
    """

    def _arbitrated_session(self, sched="drr"):
        from repro.channel.arbiter import ArbiterConfig
        from repro.sim.host import mixed_flows, run_flows

        return run_flows(
            mixed_flows("blockack", (4, 16), 400, timeout_modes=None),
            forward=LinkSpec(delay=UniformDelay(0.5, 1.5)),
            reverse=LinkSpec(delay=UniformDelay(0.5, 1.5)),
            seed=11,
            max_time=40.0,
            causal=True,
            arbiter=ArbiterConfig(rate=3.0, scheduler=sched),
        )

    @pytest.mark.parametrize("variant", list(ENGINE_VARIANTS))
    def test_components_sum_exactly_with_arbiter(self, variant, monkeypatch):
        use_engine(monkeypatch, variant)
        session = self._arbitrated_session()
        attributions = session.causal.attributions
        assert attributions, "arbitrated session recorded no deliveries"
        for record in attributions.values():
            parts = (
                record["queue_wait"]
                + record["timer_wait"]
                + record["retx_wait"]
                + record["propagation"]
            )
            assert record["total"] == pytest.approx(parts, abs=1e-9)
            assert record.get("link_wait", 0.0) >= 0
            # link_wait is a sub-component of queue_wait, never more
            assert record.get("link_wait", 0.0) <= record["queue_wait"] + 1e-9

    def test_saturated_link_shows_link_wait(self):
        session = self._arbitrated_session()
        attributions = session.causal.attributions
        waited = [
            record for record in attributions.values()
            if record.get("link_wait", 0.0) > 0
        ]
        # rate 3 against windows 4+16 of greedy demand: most delivered
        # frames queued at the arbiter before reaching the wire
        assert waited, "saturating arbiter produced no link_wait"

    def test_unarbitrated_records_omit_link_wait(self):
        result = lossy_transfer()
        for record in result.causal.attributions.values():
            assert "link_wait" not in record


class TestRecorderOverheadSeam:
    def test_timer_observer_default_is_none_on_both_engines(self):
        for engine_cls in ENGINE_VARIANTS.values():
            assert engine_cls.timer_observer is None
            assert engine_cls().timer_observer is None
