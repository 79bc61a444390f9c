"""Multi-flow session host: N=1 parity, shared-link sessions, sweep plumbing.

The acceptance contract of :mod:`repro.sim.host`:

* ``run_flows`` with one flow reproduces :func:`~repro.sim.runner
  .run_transfer` exactly — same ``TransferResult`` fields, same decision
  trace — on the E3 quick configurations for every refactored protocol;
* with N >= 2 flows over one shared lossy link pair, every flow delivers
  exactly-once in-order and the per-flow invariant monitors record zero
  violations;
* multi-flow results flow through the sweep runner (``RunConfig.flows``)
  with per-flow rows and the Jain fairness index surviving the
  serialize/deserialize round trip.
"""

import hashlib
import json

import pytest

from repro.analysis.stats import jain_fairness
from repro.channel.arbiter import ArbiterConfig
from repro.channel.delay import UniformDelay
from repro.channel.impairments import BernoulliLoss
from repro.experiments.common import lossy_link
from repro.obs.sink import load_run, summarize_run
from repro.perf.sweep import (
    RunConfig,
    deserialize_result,
    execute_config,
    serialize_result,
)
from repro.protocols.registry import make_pair
from repro.sim.host import (
    FlowSpec,
    run_flows,
    session_to_transfer,
    uniform_flows,
)
from repro.sim.runner import LinkSpec, run_transfer
from repro.workloads.sources import GreedySource

PROTOCOLS = ("blockack", "gobackn", "selective-repeat")
#: the E3 quick grid: window 8, FIFO-jitterless links, these loss rates
E3_WINDOW = 8
E3_LOSSES = (0.0, 0.05, 0.20)


def _shared_link(loss=0.1):
    return lossy_link(loss)


class TestSingleFlowParity:
    @pytest.mark.parametrize("protocol", PROTOCOLS)
    @pytest.mark.parametrize("loss", E3_LOSSES)
    def test_run_flows_n1_equals_run_transfer(self, protocol, loss):
        """E3 quick cells: identical results and decision traces."""
        sender, receiver = make_pair(protocol, window=E3_WINDOW)
        reference = run_transfer(
            sender, receiver, GreedySource(300),
            forward=lossy_link(loss, spread=0.0),
            reverse=lossy_link(loss, spread=0.0),
            seed=11, trace=True,
        )
        sender, receiver = make_pair(protocol, window=E3_WINDOW)
        session = run_flows(
            [FlowSpec(sender, receiver, GreedySource(300), label=protocol)],
            forward=lossy_link(loss, spread=0.0),
            reverse=lossy_link(loss, spread=0.0),
            seed=11, trace=True,
        )
        (flow,) = session.flows
        for field in ("completed", "duration", "delivered", "submitted",
                      "in_order", "forward_stats", "reverse_stats"):
            assert getattr(session, field) == getattr(reference, field), field
        for field in ("completed", "delivered", "submitted", "in_order",
                      "ordered_prefix", "sender_stats", "receiver_stats",
                      "forward_stats", "reverse_stats", "timeout_period",
                      "latencies"):
            assert getattr(flow, field) == getattr(reference, field), field
        assert (
            session.trace.decision_trace() == reference.trace.decision_trace()
        )
        assert session.fairness == 1.0
        assert len(session.flows) == 1
        assert session.delivered == reference.delivered

    def test_empty_flow_list_rejected(self):
        with pytest.raises(ValueError):
            run_flows([])

    def test_uniform_flows_validates_count(self):
        with pytest.raises(ValueError):
            uniform_flows("blockack", 0, 4, 10)


class TestSharedLinkSessions:
    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_every_flow_exactly_once_in_order(self, protocol):
        session = run_flows(
            uniform_flows(protocol, 4, 4, 40),
            forward=_shared_link(), reverse=_shared_link(),
            seed=23, monitor_invariants=True, collect_payloads=True,
        )
        assert session.completed and session.in_order
        assert len(session.flows) == 4
        for flow in session.flows:
            assert flow.completed and flow.in_order
            assert flow.delivered == flow.submitted == 40
            assert flow.delivered_payloads == [("msg", i) for i in range(40)]
            assert flow.violations == 0  # per-flow invariant 6 ∧ 7 ∧ 8
        assert session.violations == 0
        assert session.delivered == 160
        assert session.fairness == 1.0

    def test_shared_link_carries_all_flows(self):
        session = run_flows(
            uniform_flows("blockack", 3, 4, 25),
            forward=_shared_link(), reverse=_shared_link(), seed=5,
        )
        # the shared channel's counters are the sum of the per-flow views
        assert session.forward_stats["sent"] == sum(
            flow.forward_stats["sent"] for flow in session.flows
        )
        assert session.reverse_stats["delivered"] == sum(
            flow.reverse_stats["delivered"] for flow in session.flows
        )

    def test_no_derived_timeout_behind_an_unbounded_queue(self):
        # a frame may wait at the arbiter forever, so its lifetime has no
        # bound and no timeout derived from the link's is safe
        unbounded = ArbiterConfig(rate=2.0, scheduler="drr", queue_limit=None)
        with pytest.raises(ValueError, match=r"unbounded arbiter queue"):
            run_flows(
                uniform_flows("blockack", 2, 4, 10),
                forward=_shared_link(), reverse=_shared_link(), seed=5,
                arbiter=unbounded,
            )
        flows = uniform_flows("blockack", 2, 4, 10)
        for spec in flows:
            spec.sender.timeout_period = 12.0
        session = run_flows(
            flows, forward=_shared_link(), reverse=_shared_link(), seed=5,
            arbiter=unbounded,
        )
        assert session.completed and session.in_order
        assert session.delivered == 20

    def test_per_flow_actor_names_in_trace(self):
        session = run_flows(
            uniform_flows("blockack", 2, 4, 10),
            forward=LinkSpec(), reverse=LinkSpec(), seed=1, trace=True,
        )
        actors = {event.actor for event in session.trace.events}
        assert {"sender.f0", "receiver.f0", "sender.f1", "receiver.f1"} <= actors

    def test_horizon_cutoff_keeps_prefix_order(self):
        """Fixed-horizon fairness runs: incomplete but prefix-ordered."""
        session = run_flows(
            uniform_flows("blockack", 2, 4, 100_000),
            forward=_shared_link(), reverse=_shared_link(),
            seed=3, max_time=40.0,
        )
        assert not session.completed
        for flow in session.flows:
            assert not flow.completed  # the source never drained...
            assert flow.ordered_prefix  # ...but what arrived is exact
            assert 0 < flow.delivered < 100_000

    def test_framed_shared_link(self):
        """Envelopes as 0x03 frames: corruption is clean per-flow loss."""

        class _ByteSource(GreedySource):
            def _make_payload(self):
                return f"chunk-{len(self.submitted):05d}".encode()

        flows = [
            FlowSpec(*make_pair("blockack", window=4), _ByteSource(30))
            for _ in range(2)
        ]
        session = run_flows(
            flows,
            forward=LinkSpec(max_lifetime=8.0, bit_error_rate=1e-5),
            reverse=LinkSpec(max_lifetime=8.0, bit_error_rate=1e-5),
            seed=9, monitor_invariants=True,
        )
        assert session.completed and session.in_order
        assert session.violations == 0
        assert "discarded" in session.forward_stats  # framed counters kept

    def test_multi_flow_obs_with_probes(self, tmp_path):
        session = run_flows(
            uniform_flows("blockack", 2, 4, 30),
            forward=_shared_link(), reverse=_shared_link(), seed=13,
            obs=True, obs_run_id="host-test", monitor_invariants=True,
        )
        assert session.completed and session.in_order
        assert session.violations == 0  # one monitor per flow
        monitors = [flow.monitor for flow in session.flows]
        assert all(monitor is not None for monitor in monitors)
        assert monitors[0] is not monitors[1]
        for flow in session.flows:
            assert flow.latencies  # per-flow latencies
        names = set(session.obs.registry.snapshot())
        assert {"flow_stat", "session_fairness", "channel_events_total"} <= names
        path = session.obs.export(path=tmp_path / "host-test.jsonl")
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert records[0]["type"] == "meta"

    def test_multi_flow_obs_export_carries_every_trace_event(
        self, tmp_path, capsys
    ):
        from repro.obs.schema import main as schema_main

        session = run_flows(
            uniform_flows("blockack", 2, 4, 30),
            forward=_shared_link(), reverse=_shared_link(), seed=13,
            obs=True, trace=True, obs_run_id="host-trace",
        )
        path = session.obs.export(path=tmp_path / "host-trace.jsonl")
        records = [json.loads(line) for line in path.read_text().splitlines()]
        events = [record for record in records if record["type"] == "event"]
        assert session.trace.events
        assert len(events) == len(session.trace.events)
        assert schema_main(["--check", str(path)]) == 0
        assert "INVALID" not in capsys.readouterr().out


class TestSessionToTransfer:
    def test_aggregates_and_per_flow_rows(self):
        session = run_flows(
            uniform_flows("blockack", 3, 4, 20),
            forward=_shared_link(), reverse=_shared_link(),
            seed=2, monitor_invariants=True,
        )
        flat = session_to_transfer(session)
        assert flat.delivered == session.delivered == 60
        assert flat.fairness == session.fairness
        assert flat.ordered_prefix
        assert len(flat.per_flow) == 3
        assert flat.sender_stats["data_sent"] == sum(
            flow.sender_stats["data_sent"] for flow in session.flows
        )
        assert flat.monitor is not None and flat.monitor.ok
        for row in flat.per_flow:
            assert row["violations"] == 0
            assert row["in_order"] and row["ordered_prefix"]

    def test_n1_keeps_the_exact_transfer_result(self):
        sender, receiver = make_pair("blockack", window=4)
        session = run_flows(
            [FlowSpec(sender, receiver, GreedySource(15))],
            forward=LinkSpec(), reverse=LinkSpec(), seed=1,
        )
        flat = session_to_transfer(session)
        sender, receiver = make_pair("blockack", window=4)
        reference = run_transfer(
            sender, receiver, GreedySource(15),
            forward=LinkSpec(), reverse=LinkSpec(), seed=1,
        )
        for field in (
            "completed", "duration", "delivered", "submitted", "in_order",
            "ordered_prefix", "sender_stats", "receiver_stats",
            "forward_stats", "reverse_stats", "timeout_period", "latencies",
            "fault_stats", "arbiter_stats", "stabilization",
        ):
            assert getattr(flat, field) == getattr(reference, field), field
        assert len(flat.per_flow) == 1 and flat.fairness == 1.0
        assert reference.per_flow == [] and reference.fairness is None


class TestSweepPlumbing:
    def test_flows_config_runs_through_execute(self):
        config = RunConfig(
            protocol="selective-repeat", window=4, total=20,
            forward=_shared_link(), reverse=_shared_link(),
            seed=11, flows=3, monitor_invariants=True,
        )
        result = execute_config(config)
        assert result.completed and result.in_order
        assert result.delivered == 60  # total is per flow
        assert len(result.per_flow) == 3
        assert result.fairness == pytest.approx(
            jain_fairness([row["delivered"] for row in result.per_flow])
        )

    def test_per_flow_rows_survive_serialization(self):
        config = RunConfig(
            protocol="blockack", window=4, total=15,
            forward=_shared_link(), reverse=_shared_link(),
            seed=7, flows=2,
        )
        result = execute_config(config)
        payload = json.loads(json.dumps(serialize_result(result)))
        back = deserialize_result(payload)
        assert back.per_flow == result.per_flow
        assert back.fairness == result.fairness
        assert back.ordered_prefix == result.ordered_prefix

    def test_legacy_payload_still_deserializes(self):
        config = RunConfig(
            protocol="blockack", window=4, total=15,
            forward=LinkSpec(), reverse=LinkSpec(), seed=7,
        )
        payload = serialize_result(execute_config(config))
        for key in ("per_flow", "fairness", "ordered_prefix"):
            payload.pop(key, None)  # pre-multi-flow cache entry
        back = deserialize_result(payload)
        assert back.per_flow == [] and back.fairness is None
        assert back.ordered_prefix == back.in_order

    def test_flows_changes_cache_key_but_n1_format_is_stable(self):
        base = dict(
            protocol="blockack", window=4, total=15,
            forward=LinkSpec(), reverse=LinkSpec(), seed=7,
        )
        single = RunConfig(**base)
        multi = RunConfig(**base, flows=4)
        assert single.cache_key() != multi.cache_key()
        assert "flows" not in single.description()  # old keys unchanged
        assert "flows=4" in multi.description()
        assert "_f4_" in multi.run_id()

    def test_fault_plans_rejected_for_multi_flow(self):
        from repro.robustness.faults import CrashRestart, FaultPlan

        config = RunConfig(
            protocol="blockack", window=4, total=15,
            forward=_shared_link(), reverse=_shared_link(),
            seed=7, flows=2,
            fault_plan=FaultPlan(
                crashes=(CrashRestart(at=5.0, outage=2.0, endpoint="sender"),)
            ),
        )
        with pytest.raises(ValueError):
            execute_config(config)


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


#: the export series that count the engine's event-list traffic; how
#: timers reach the event list moves them while the simulation stays put
ENGINE_QUEUE_SERIES = (
    "sim_events_scheduled_total",
    "sim_events_cancelled_total",
    "sim_queue_depth",
)


def _masked_digest(lines) -> str:
    """Digest of export lines, in file order, without the engine-queue series."""
    records = [json.loads(line) for line in lines]
    for record in records:
        metrics = record.get("metrics", {})
        for name in ENGINE_QUEUE_SERIES:
            metrics.pop(name, None)
    return _digest(records)


class _ByteSource(GreedySource):
    def _make_payload(self):
        return f"chunk-{len(self.submitted):05d}".encode()


_PIN_BASE = dict(
    protocol="blockack", window=8, total=120,
    forward=lossy_link(0.1), reverse=lossy_link(0.1), seed=5,
)


def _pinned_configs():
    from repro.robustness.corruption import StateCorruption
    from repro.robustness.faults import CrashRestart, FaultPlan

    return {
        "lossy": RunConfig(**_PIN_BASE),
        "faults": RunConfig(
            **_PIN_BASE, max_time=50_000.0, monitor_invariants=True,
            protocol_kwargs={
                "timeout_mode": "per_message_safe",
                "adaptive": True,
            },
            fault_plan=FaultPlan(
                seed=5,
                crashes=(CrashRestart(at=20.0, outage=5.0, endpoint="sender"),),
                corruptions=(
                    StateCorruption(
                        at=40.0, site="sender.window", severity="bitflip"
                    ),
                ),
            ),
        ),
        "flow_windows": RunConfig(**_PIN_BASE, flow_windows=(8,)),
        "drr4": RunConfig(
            **{**_PIN_BASE, "total": 40}, flows=4, link_rate=2.0, sched="drr"
        ),
        "fifo4": RunConfig(
            **{**_PIN_BASE, "total": 40}, flows=4, link_rate=2.0,
            sched="fifo", flow_windows=(2, 4, 8, 16),
        ),
        "wrr4": RunConfig(
            **{**_PIN_BASE, "total": 40}, flows=4, link_rate=2.0,
            sched="wrr", flow_weights=(3.0, 1.0, 2.0, 1.0),
        ),
    }


class TestResultPins:
    """Literal digests of whole results, exports and traces.

    Any change to how a run is wired — channel build order, tee order,
    stat folding, timeout derivation — moves at least one of these.
    """

    RESULT_DIGESTS = {
        "lossy": "f74f5267ec098c4c05737246b82bb834"
                 "2362158747b004097fa82a5e1fd93c5b",
        "faults": "bf6c5d07c14a5c087c94b2dea533b9af"
                  "bbf1c19b1cdfafafdc94a46141872600",
        "flow_windows": "c80f2e5a2c094af6964bcc7b20491693"
                        "028c8016f8dcd1b6c345e6a70d8ee41f",
        "drr4": "28e43074559a1c15365e8e173e75ca21"
                "2ba9b3f5914cfad1bd1860118139d167",
        "fifo4": "89fec92a5370b91515fd4b3b8d955016"
                 "eaa3768053d9184e6cd0e438cc8ab3a6",
        "wrr4": "53ce87853112f8470f61f74226c52085"
                "c6380e5e9ee41090f633b2e99069879b",
    }

    @pytest.mark.parametrize("name", sorted(RESULT_DIGESTS))
    def test_sweep_result_digest(self, name):
        result = execute_config(_pinned_configs()[name])
        assert result.completed and result.in_order
        assert _digest(serialize_result(result)) == self.RESULT_DIGESTS[name]

    def test_framed_link_result_digest(self):
        sender, receiver = make_pair("blockack", window=8)
        result = run_transfer(
            sender, receiver, _ByteSource(120),
            forward=LinkSpec(max_lifetime=8.0, bit_error_rate=2e-4),
            reverse=LinkSpec(max_lifetime=8.0, bit_error_rate=2e-4),
            seed=5, monitor_invariants=True,
        )
        assert result.forward_stats["discarded"] > 0
        assert _digest(serialize_result(result)) == (
            "b2bcbc3c2e5e5ed318c9094dda3427fd"
            "2cb69dde4ae5e12add66444fdd16240e"
        )

    def test_two_flow_framed_session_digest(self):
        # the mux over checksummed byte frames: envelopes decoded from
        # the wire carry their per-flow counter mod 2**16
        def link():
            return LinkSpec(
                delay=UniformDelay(0.5, 1.5), max_lifetime=8.0,
                bit_error_rate=2e-4,
            )

        flows = [
            FlowSpec(*make_pair("blockack", window=window), _ByteSource(120))
            for window in (4, 8)
        ]
        session = run_flows(
            flows, forward=link(), reverse=link(), seed=5,
            monitor_invariants=True,
        )
        assert session.completed and session.in_order
        assert session.forward_stats["discarded"] > 0
        assert all(flow.forward_stats["reordered"] > 0 for flow in session.flows)
        assert _digest(serialize_result(session_to_transfer(session))) == (
            "3c4b15b190d50553a6b43b76a75901e7"
            "f98a5a96a079b7a92fb007c20b418d07"
        )

    def test_single_flow_obs_causal_export_digest(self, tmp_path):
        sender, receiver = make_pair("blockack", window=8)
        result = run_transfer(
            sender, receiver, GreedySource(60),
            forward=lossy_link(0.1), reverse=lossy_link(0.1), seed=5,
            trace=True, obs=True, causal=True, obs_run_id="pin",
            monitor_invariants=True,
        )
        path = result.obs.export(path=tmp_path / "pin.jsonl")
        lines = path.read_text().splitlines()
        assert len(lines) == 421
        assert _digest(sorted(lines)) == (
            "f3dc5bade2d74792b2d788b9b57933f4"
            "5221e765fb04287909f67c0821299e8a"
        )
        assert _masked_digest(lines) == (
            "8687c3bbc7a169464bfff548b45fc544"
            "1d58324629d63a584c3ecad8cd733f57"
        )

    # (export lines, export digest, causal.nodes() digest): Section V
    # wire numbers key the bounded spans and wrap every 2w; go-back-N's
    # cumulative acks reach its spans through WINDOW_OPEN
    OBS_CAUSAL_PINS = {
        "blockack-bounded": (
            603,
            "9157075be8244411845c5b220019b6ca"
            "aea9ef135f2ca6532ade1438511ff568",
            "3cc093545e8b62edbe7a1829083e813b"
            "356e2e65125a07adfd6507b7e08005dc",
        ),
        "gobackn": (
            2771,
            "10f34b848761598be5a20e16de90196e"
            "38a4bcfeadd61937bc9b1a7020a304ab",
            "ad3d2b7525548a34fe0e59b6acd0a7d3"
            "e94ff012811fe3eaf72e2b09a31ceecb",
        ),
    }

    @pytest.mark.parametrize("protocol", sorted(OBS_CAUSAL_PINS))
    def test_lossy_obs_causal_export_and_nodes_digest(
        self, protocol, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_OBS_DIR", str(tmp_path))
        sender, receiver = make_pair(protocol, window=8)
        result = run_transfer(
            sender, receiver, GreedySource(120),
            forward=lossy_link(0.1), reverse=lossy_link(0.1), seed=5,
            trace=True, obs=True, causal=True, obs_run_id=protocol,
        )
        assert result.completed and result.in_order
        assert result.flight_path is None
        path = result.obs.export(path=tmp_path / f"{protocol}.jsonl")
        lines = path.read_text().splitlines()
        count, export_digest, nodes_digest = self.OBS_CAUSAL_PINS[protocol]
        assert len(lines) == count
        assert _digest(lines) == export_digest
        assert _digest([list(node) for node in result.causal.nodes()]) == (
            nodes_digest
        )

    # causal.nodes() digests of runs whose retransmission timers are a
    # per-sequence bank: every timer arm, cancel and fire is a node with
    # the timer's name, the time and the expiry, so these pin the order
    # of the bank's observer stream (w=8, 60 messages, 10% loss each way)
    BANK_NODE_PINS = {
        "blockack": (
            741,
            "45607d5c9e2ca4d568ecdd6d6e981c11"
            "0a085d8bf18272f36fa0002ac178e892",
        ),
        "blockack-bounded-wire": (
            741,
            "a38448a5772e91a55184469da8854d73"
            "71e04fba1572f04d0568ddd30852a473",
        ),
        "selective-repeat": (
            822,
            "eecd32cb2bbb82d6e59d419e52a4f2b6"
            "b4256c8b6fe12dd64fc047e1d4c7b35c",
        ),
        "blockack-adaptive-brownout": (
            612,
            "d3295298d370567efcbc03313e0d5e1b"
            "d103c07c5fc54948c6796b39ec3bb274",
        ),
        "blockack-crash-restore": (
            769,
            "05e001da7d612552e681cbe0c95e55eb"
            "994110e04178d9da13ac3daab01bf0b9",
        ),
    }

    @staticmethod
    def _bank_node_run(case):
        from repro.robustness.faults import CrashRestart, FaultPlan

        protocol, kwargs, plan = {
            "blockack": ("blockack", {}, None),
            "blockack-bounded-wire": ("blockack", {"bounded_wire": True}, None),
            "selective-repeat": ("selective-repeat", {}, None),
            "blockack-adaptive-brownout": (
                "blockack", {"adaptive": True},
                FaultPlan(
                    forward_brownout=(
                        (20.0, 0.0), (25.0, 1.0), (60.0, 1.0), (65.0, 0.0)
                    ),
                    seed=1,
                ),
            ),
            "blockack-crash-restore": (
                "blockack", {},
                FaultPlan(
                    seed=5,
                    crashes=(
                        CrashRestart(at=20.0, outage=5.0, endpoint="sender"),
                    ),
                ),
            ),
        }[case]
        sender, receiver = make_pair(protocol, window=8, **kwargs)
        return run_transfer(
            sender, receiver, GreedySource(60),
            forward=lossy_link(0.1), reverse=lossy_link(0.1), seed=5,
            max_time=20_000.0, causal=True, fault_plan=plan,
        )

    @pytest.mark.parametrize("case", sorted(BANK_NODE_PINS))
    def test_bank_timer_nodes_digest(self, case):
        result = self._bank_node_run(case)
        assert result.completed and result.in_order
        nodes = result.causal.nodes()
        count, digest = self.BANK_NODE_PINS[case]
        # the ring holds the whole run, so every timer node is pinned
        assert len(nodes) == result.causal.events_recorded == count
        kinds = {node[3] for node in nodes}
        assert {"timer.arm", "timer.cancel", "timer.fire"} <= kinds
        assert _digest([list(node) for node in nodes]) == digest

    def test_crash_restore_pin_covers_stop_all_and_rearm(self):
        # the crash stops every running timer of the bank and the restore
        # re-arms every outstanding message: both are inside the pin
        nodes = self._bank_node_run("blockack-crash-restore").causal.nodes()
        (crash,) = [node for node in nodes if node[3] == "fault.crash"]
        (restore,) = [node for node in nodes if node[3] == "fault.restart"]
        at_crash = [node[2:4] for node in nodes
                    if node[1] == crash[1] and node[3].startswith("timer.")]
        at_restore = [node[2:4] for node in nodes
                      if node[1] == restore[1] and node[3].startswith("timer.")]
        assert at_crash == [("retx[31]", "timer.cancel"),
                            ("retx[32]", "timer.cancel")]
        assert at_restore == [("retx[31]", "timer.arm"),
                              ("retx[32]", "timer.arm"),
                              ("retx[38]", "timer.arm")]

    def test_observed_w8_shaped_export_digest(self, tmp_path, monkeypatch):
        # the benchmark's observed-w8 inputs with tracing off: the obs tee
        # over the causal tee over a NullRecorder
        monkeypatch.setenv("REPRO_OBS_DIR", str(tmp_path))

        def link():
            return LinkSpec(
                delay=UniformDelay(0.5, 1.5), loss=BernoulliLoss(0.05)
            )

        sender, receiver = make_pair("blockack", window=8, bounded_wire=True)
        result = run_transfer(
            sender, receiver, GreedySource(200),
            forward=link(), reverse=link(), seed=1,
            obs=True, causal=True, obs_run_id="observed",
        )
        assert result.completed and result.flight_path is None
        path = result.obs.export(path=tmp_path / "observed.jsonl")
        lines = path.read_text().splitlines()
        assert len(lines) == 402
        assert _digest(sorted(lines)) == (
            "857cf3ecb20c6e15d13fca315665bfe8"
            "a09351326f66a6f3b9783adea11cf788"
        )
        assert _masked_digest(lines) == (
            "088003b7cb6fe3e504b2675e4694d89e"
            "d6327cb38efc88ee009771e17e156f23"
        )

    def test_drr_sessions_obs_causal_export_digest(self, tmp_path, monkeypatch):
        # per-flow span trackers on one registry, one causal tee per flow,
        # and the causal channel observer unwrapping flow envelopes
        monkeypatch.setenv("REPRO_OBS_DIR", str(tmp_path))
        session = run_flows(
            uniform_flows("blockack", 4, 8, 40),
            forward=_shared_link(), reverse=_shared_link(), seed=5,
            arbiter=ArbiterConfig(rate=2.0, scheduler="drr"),
            obs=True, causal=True, obs_run_id="drr4",
        )
        assert session.completed and session.in_order
        assert session.flight_path is None
        path = session.obs.export(path=tmp_path / "drr4.jsonl")
        lines = path.read_text().splitlines()
        assert len(lines) == 322
        assert _digest(sorted(lines)) == (
            "a012f55f8855c88d0d0e62ab405aca47"
            "d0dbdb63e121b449151634d4f6b9eb70"
        )
        assert _masked_digest(lines) == (
            "905b0f76e01bc627eca1813388e26718"
            "b53fb0d7afbdb22718f43375b0634f32"
        )

    def test_single_flow_obs_trace_export_digest(self, tmp_path):
        # obs on with tracing on and causal off: the span tee straight over
        # the trace recorder, whose events the export writes in order
        sender, receiver = make_pair("blockack", window=8)
        result = run_transfer(
            sender, receiver, GreedySource(60),
            forward=lossy_link(0.1), reverse=lossy_link(0.1), seed=5,
            trace=True, obs=True, obs_run_id="obs-trace",
        )
        assert result.causal is None
        path = result.obs.export(path=tmp_path / "obs-trace.jsonl")
        lines = path.read_text().splitlines()
        assert len(lines) == 361
        assert _digest(lines) == (
            "7527b1bbecbfe16f27927e06494429b2"
            "ea1fe381ab24f2205c15eb269349528d"
        )
        assert _masked_digest(lines) == (
            "a33de7d5a2f10c236df3b5aad756f244"
            "416eeacabd9bb0743a623fffe4e197c1"
        )

    def test_one_flow_arbitrated_obs_export_digest(self, tmp_path):
        # an active arbiter muxes even one flow: its span records carry
        # flow 0, and its ports export their own channel series
        session = run_flows(
            uniform_flows("blockack", 1, 8, 60),
            forward=_shared_link(), reverse=_shared_link(), seed=5,
            arbiter=ArbiterConfig(rate=2.0, scheduler="drr"),
            trace=True, obs=True, obs_run_id="arb1",
        )
        assert session.completed and session.in_order
        path = session.obs.export(path=tmp_path / "arb1.jsonl")
        lines = path.read_text().splitlines()
        records = [json.loads(line) for line in lines]
        spans = [record for record in records if record["type"] == "span"]
        assert len(spans) == 60
        assert all(span["flow"] == 0 for span in spans)
        links = {
            sample["labels"]["link"]
            for sample in records[-1]["metrics"]["channel_events_total"][
                "samples"
            ]
        }
        assert links == {"SR", "RS", "SR.f0", "RS.f0"}
        assert len(lines) == 342
        assert _digest(lines) == (
            "4b36a73e628f8fd17c9bfebe96befcfc"
            "c8580c8042f3001ba556e9743328d4f5"
        )
        assert _masked_digest(lines) == (
            "31111048c0a1cc761e437cc055331701"
            "131bfbd2c64bae78eb629136016a4a07"
        )
        # the reader: per-flow latency lines come from the flow tag
        summary = summarize_run(load_run(path)).replace(str(path), "<path>")
        assert "flow 0: n=60" in summary
        assert _digest(summary) == (
            "89a87e18454cb48628782a56eecb03c8"
            "123a207bbd47a350f9e195027f32ac04"
        )

    def test_flows1_sweep_cell_export_digest(self, tmp_path, monkeypatch):
        # the file a flows=1 obs cell writes from inside execute_config
        monkeypatch.setenv("REPRO_OBS_DIR", str(tmp_path))
        config = RunConfig(**_PIN_BASE, obs=True)
        result = execute_config(config)
        assert result.per_flow == [] and result.fairness is None
        assert result.obs_path == str(tmp_path / f"{config.run_id()}.jsonl")
        with open(result.obs_path, encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        assert len(lines) == 122
        assert _digest(lines) == (
            "6d7b5f56c51d05c30e8b62dd4c898f0c"
            "0e7dc4044bda21413f2350eb0b3d2f30"
        )
        assert _masked_digest(lines) == (
            "ff88f3de68acd14241661f9a32a760ca"
            "49bd00dc49df57ec9f0846c74b21c1ff"
        )

    def test_trace_with_channel_drops_digest(self):
        sender, receiver = make_pair("blockack", window=8)
        result = run_transfer(
            sender, receiver, GreedySource(60),
            forward=lossy_link(0.1), reverse=lossy_link(0.1), seed=5,
            trace=True, record_channel_drops=True,
        )
        records = [event.as_record() for event in result.trace.events]
        assert len(records) == 306
        assert any(record["actor"].startswith("channel:") for record in records)
        assert _digest(records) == (
            "208f6ec7c2c1c9fb86c227bde193e066"
            "f84196a00d5187f369fa0f6e5b4d3545"
        )


class TestFairnessIndex:
    def test_equal_allocation_is_one(self):
        assert jain_fairness([5, 5, 5, 5]) == pytest.approx(1.0)

    def test_monopoly_is_one_over_n(self):
        assert jain_fairness([10, 0, 0, 0]) == pytest.approx(0.25)

    def test_all_zero_defined_as_fair(self):
        assert jain_fairness([0, 0]) == 1.0

    def test_empty_and_negative_rejected(self):
        with pytest.raises(ValueError):
            jain_fairness([])
        with pytest.raises(ValueError):
            jain_fairness([1, -1])
