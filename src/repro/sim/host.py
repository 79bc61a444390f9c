"""Multi-flow session host: N protocol flows over one shared link pair.

:func:`~repro.sim.runner.run_transfer` wires exactly one sender/receiver
pair to dedicated channels — the paper's setting.  A production-scale
deployment of the window protocol multiplexes *many* concurrent flows
over the same impaired links, which is where per-connection window
behaviour, link sharing, and fairness start to matter (Ghaderi &
Towsley; Jain — see PAPERS.md).  :class:`SessionHost` realises that
regime on the existing machinery:

* one **forward** and one **reverse** channel are built from the usual
  :class:`~repro.sim.runner.LinkSpec` descriptions — loss, delay,
  aging, and framing act on the *shared* link, not per-flow copies;
* a :class:`~repro.channel.mux.FlowMux` per direction tags each flow's
  traffic with its flow id and demultiplexes deliveries, so every
  endpoint pair sees an ordinary channel surface
  (:class:`~repro.channel.mux.FlowPort`, labelled ``SR.f<id>``);
* each flow gets its own trace actor names (``sender.f<id>``), span
  tracker, latency bookkeeping, and — when requested — its own
  :class:`~repro.verify.runtime.InvariantMonitor` or sampled
  :class:`~repro.obs.probes.InvariantProbe`, because the paper's
  invariant 6 ∧ 7 ∧ 8 is a *per-flow* statement: each flow's counters,
  in-flight data, and ack spans form an independent instance of the
  protocol over its slice of the link.

:func:`run_flows` is the entry point.  With one flow it delegates to
:func:`~repro.sim.runner.run_transfer` unchanged (byte-identical
results, same decision trace — ``run_transfer`` *is* the N=1 special
case); with N >= 2 it runs the shared-link session and returns a
:class:`SessionResult` holding per-flow :class:`FlowResult` rows plus
aggregate goodput and the Jain fairness index across flows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.analysis.stats import jain_fairness
from repro.channel.arbiter import ArbiterConfig
from repro.channel.mux import FlowMux
from repro.protocols.base import ReceiverEndpoint, SenderEndpoint
from repro.sim.engine import Simulator
from repro.sim.randomness import RandomStreams
from repro.sim.runner import (
    LinkSpec,
    TransferResult,
    _derive_timeout,
    run_transfer,
)
from repro.trace.recorder import NullRecorder, TraceRecorder
from repro.workloads.sources import GreedySource, Source

__all__ = [
    "FlowSpec",
    "FlowResult",
    "SessionResult",
    "SessionHost",
    "run_flows",
    "uniform_flows",
    "mixed_flows",
    "session_to_transfer",
]


@dataclass
class FlowSpec:
    """One flow: an endpoint pair plus the source that drives it.

    ``weight`` is the flow's scheduling weight at the link arbiter
    (WRR/DRR); it is ignored when the session has no arbiter or uses
    the ``fifo`` scheduler.
    """

    sender: SenderEndpoint
    receiver: ReceiverEndpoint
    source: Source
    label: str = ""  # cosmetic (protocol name etc.); not protocol state
    weight: float = 1.0  # arbiter scheduling weight (wrr/drr)


@dataclass
class FlowResult:
    """Everything measured for one flow of a multi-flow session."""

    flow: int
    label: str
    completed: bool
    delivered: int
    submitted: int
    in_order: bool  # complete AND exactly-once in-order
    ordered_prefix: bool  # delivered payloads form an in-order prefix
    duration: float  # session duration (shared clock)
    sender_stats: dict = field(default_factory=dict)
    receiver_stats: dict = field(default_factory=dict)
    forward_stats: dict = field(default_factory=dict)  # this flow's port
    reverse_stats: dict = field(default_factory=dict)
    latencies: List[float] = field(default_factory=list)
    timeout_period: float = 0.0
    monitor: Any = None  # per-flow InvariantMonitor / InvariantProbe
    delivered_payloads: List[Any] = field(default_factory=list)
    queue_stats: dict = field(default_factory=dict)  # arbiter counters

    @property
    def throughput(self) -> float:
        """This flow's goodput over the shared session duration."""
        return self.delivered / self.duration if self.duration > 0 else 0.0

    @property
    def violations(self) -> int:
        """Invariant violations observed for this flow (0 when unwatched)."""
        if self.monitor is None:
            return 0
        return len(self.monitor.violations)

    def as_dict(self) -> dict:
        """JSON-safe row (what the sweep serializer carries per flow)."""
        row = {
            "flow": self.flow,
            "label": self.label,
            "completed": self.completed,
            "delivered": self.delivered,
            "submitted": self.submitted,
            "in_order": self.in_order,
            "ordered_prefix": self.ordered_prefix,
            "sender_stats": self.sender_stats,
            "receiver_stats": self.receiver_stats,
            "forward_stats": self.forward_stats,
            "reverse_stats": self.reverse_stats,
            "timeout_period": self.timeout_period,
            "violations": self.violations,
        }
        if self.queue_stats:  # only arbitrated sessions carry the key
            row["queue_stats"] = self.queue_stats
        return row


@dataclass
class SessionResult:
    """Per-flow plus aggregate outcome of one multi-flow session."""

    completed: bool  # every flow finished
    duration: float
    delivered: int  # aggregate across flows
    submitted: int
    in_order: bool  # every flow delivered exactly-once in-order
    flows: List[FlowResult] = field(default_factory=list)
    fairness: float = 1.0  # Jain index over per-flow goodput
    forward_stats: dict = field(default_factory=dict)  # shared link
    reverse_stats: dict = field(default_factory=dict)
    arbiter_stats: dict = field(default_factory=dict)  # {} without one
    trace: Any = None
    obs: Any = None
    obs_path: Optional[str] = None
    causal: Any = None  # CausalRecorder when the causal layer was on
    flight_path: Optional[str] = None  # flight dump, when a trigger fired
    transfer: Optional[TransferResult] = None  # set on the N=1 path

    @property
    def throughput(self) -> float:
        """Aggregate goodput: payloads delivered per unit virtual time."""
        return self.delivered / self.duration if self.duration > 0 else 0.0

    @property
    def violations(self) -> int:
        """Total invariant violations across all watched flows."""
        return sum(flow.violations for flow in self.flows)

    def summary(self) -> str:
        status = "completed" if self.completed else "INCOMPLETE"
        order = "in-order" if self.in_order else "ORDER VIOLATION"
        return (
            f"{status}/{order}: {len(self.flows)} flow(s), "
            f"{self.delivered}/{self.submitted} delivered in "
            f"{self.duration:.2f}tu, aggregate throughput="
            f"{self.throughput:.4f}/tu, fairness={self.fairness:.3f}"
        )


def uniform_flows(
    protocol: str,
    count: int,
    window: int,
    total: int,
    **protocol_kwargs,
) -> List[FlowSpec]:
    """``count`` identical greedy flows of the named protocol.

    The homogeneous-population case every fairness experiment starts
    from; heterogeneous mixes come from :func:`mixed_flows` (or by
    composing :class:`FlowSpec` by hand).
    """
    from repro.protocols.registry import make_pair  # cycle guard

    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    specs = []
    for _ in range(count):
        sender, receiver = make_pair(
            protocol, window=window, **protocol_kwargs
        )
        specs.append(
            FlowSpec(
                sender=sender,
                receiver=receiver,
                source=GreedySource(total),
                label=protocol,
            )
        )
    return specs


def mixed_flows(
    protocol: str,
    windows: Sequence[int],
    total: int,
    timeout_modes: Optional[Sequence[Optional[str]]] = None,
    weights: Optional[Sequence[float]] = None,
    sources: Optional[Sequence[Source]] = None,
    **protocol_kwargs,
) -> List[FlowSpec]:
    """One flow per entry of ``windows``, heterogeneous on purpose.

    The genuinely-competing-sessions case E17 studies: flows of the
    same protocol but different window sizes (and optionally timeout
    modes, arbiter scheduling weights, or workload sources) contending
    for a shared link.  All optional sequences must match
    ``len(windows)``; ``None`` entries in ``timeout_modes`` keep the
    protocol's default, a ``sources`` default of ``None`` gives every
    flow a greedy source offering ``total`` payloads.
    """
    from repro.protocols.registry import make_pair  # cycle guard

    if not windows:
        raise ValueError("mixed_flows needs at least one window entry")
    for name, seq in (
        ("timeout_modes", timeout_modes),
        ("weights", weights),
        ("sources", sources),
    ):
        if seq is not None and len(seq) != len(windows):
            raise ValueError(
                f"{name} must match windows "
                f"({len(seq)} != {len(windows)})"
            )
    specs = []
    for index, window in enumerate(windows):
        kwargs = dict(protocol_kwargs)
        mode = timeout_modes[index] if timeout_modes is not None else None
        if mode is not None:
            kwargs["timeout_mode"] = mode
        sender, receiver = make_pair(protocol, window=window, **kwargs)
        specs.append(
            FlowSpec(
                sender=sender,
                receiver=receiver,
                source=(
                    sources[index]
                    if sources is not None
                    else GreedySource(total)
                ),
                label=f"{protocol}/w{window}",
                weight=weights[index] if weights is not None else 1.0,
            )
        )
    return specs


def _wire_domain(sender: Any) -> Optional[int]:
    numbering = getattr(sender, "numbering", None)
    domain = numbering.domain_size if numbering is not None else None
    if domain is None and hasattr(sender, "book"):
        domain = sender.book.domain.n  # byte-exact bounded endpoints
    return domain


def _session_from_transfer(
    spec: FlowSpec, result: TransferResult
) -> SessionResult:
    """Wrap the N=1 delegation's TransferResult as a session result."""
    flow = FlowResult(
        flow=0,
        label=spec.label,
        completed=result.completed,
        delivered=result.delivered,
        submitted=result.submitted,
        in_order=result.in_order,
        ordered_prefix=result.ordered_prefix,
        duration=result.duration,
        sender_stats=result.sender_stats,
        receiver_stats=result.receiver_stats,
        forward_stats=result.forward_stats,
        reverse_stats=result.reverse_stats,
        latencies=result.latencies,
        timeout_period=result.timeout_period,
        monitor=result.monitor,
        delivered_payloads=result.delivered_payloads,
    )
    return SessionResult(
        completed=result.completed,
        duration=result.duration,
        delivered=result.delivered,
        submitted=result.submitted,
        in_order=result.in_order,
        flows=[flow],
        fairness=1.0,
        forward_stats=result.forward_stats,
        reverse_stats=result.reverse_stats,
        trace=result.trace,
        obs=result.obs,
        obs_path=result.obs_path,
        causal=result.causal,
        flight_path=result.flight_path,
        transfer=result,
    )


class _FlowHarness:
    """Per-flow wiring state the host keeps while a session runs."""

    __slots__ = (
        "index",
        "spec",
        "forward_port",
        "reverse_port",
        "delivered_payloads",
        "submit_times",
        "latencies",
        "tracker",
        "monitor",
        "original_submit",
        "submit_was_instance_attr",
    )

    def __init__(self, index: int, spec: FlowSpec) -> None:
        self.index = index
        self.spec = spec
        self.forward_port = None
        self.reverse_port = None
        self.delivered_payloads: List[Any] = []
        self.submit_times: Dict[int, float] = {}
        self.latencies: List[float] = []
        self.tracker = None  # per-flow SpanTracker when obs is on
        self.monitor = None
        self.original_submit: Optional[Callable] = None
        self.submit_was_instance_attr = False

    @property
    def finished(self) -> bool:
        return (
            self.spec.source.exhausted
            and self.spec.sender.all_acknowledged
            and len(self.delivered_payloads) >= self.spec.source.total
        )


class SessionHost:
    """Build, run, and measure one multi-flow session.

    Parameters mirror :func:`~repro.sim.runner.run_transfer` where they
    make sense for a shared link; ``fault_plan`` is not supported here
    because its crash/restart scripting names a single endpoint pair —
    scripted link faults on multi-flow sessions are an open item
    (ROADMAP).
    """

    def __init__(
        self,
        flows: Sequence[FlowSpec],
        forward: Optional[LinkSpec] = None,
        reverse: Optional[LinkSpec] = None,
        seed: int = 0,
        max_time: Optional[float] = None,
        max_events: int = 20_000_000,
        collect_payloads: bool = False,
        trace: bool = False,
        trace_capacity: Optional[int] = None,
        monitor_invariants: bool = False,
        obs: Any = False,
        obs_run_id: Optional[str] = None,
        obs_labels: Optional[dict] = None,
        obs_sample_invariants_every: int = 0,
        causal: bool = False,
        arbiter: Optional[ArbiterConfig] = None,
    ) -> None:
        self.flows = [
            _FlowHarness(index, spec) for index, spec in enumerate(flows)
        ]
        if not self.flows:
            raise ValueError("a session needs at least one flow")
        self.forward_spec = forward if forward is not None else LinkSpec()
        self.reverse_spec = reverse if reverse is not None else LinkSpec()
        self.seed = seed
        self.max_time = max_time
        self.max_events = max_events
        self.collect_payloads = collect_payloads
        self.trace = trace
        self.trace_capacity = trace_capacity
        self.monitor_invariants = monitor_invariants
        self.obs = obs
        self.obs_run_id = obs_run_id
        self.obs_labels = obs_labels
        self.obs_sample_invariants_every = obs_sample_invariants_every
        self.causal = causal
        self.arbiter = (
            arbiter if arbiter is not None and arbiter.active else None
        )

    # ------------------------------------------------------------------

    def run(self) -> SessionResult:
        sim = Simulator()
        streams = RandomStreams(self.seed)

        causal_rec = None
        if self.causal:
            from repro.obs.causal import CausalRecorder  # cycle guard

            causal_rec = CausalRecorder(
                sim,
                run_id=self.obs_run_id or "session",
                labels=self.obs_labels,
            )
            sim.timer_observer = causal_rec.timer_observer()

        obs_session = None
        if self.obs:
            from repro.obs.session import Observability  # cycle guard

            if isinstance(self.obs, Observability):
                obs_session = self.obs
            else:
                obs_session = Observability(
                    run_id=self.obs_run_id or "session",
                    labels=self.obs_labels,
                    sample_invariants_every=self.obs_sample_invariants_every,
                )
            obs_session.attach_sim(sim)

        forward_channel = self.forward_spec.build(
            sim, streams.get("channel.forward"), "SR"
        )
        reverse_channel = self.reverse_spec.build(
            sim, streams.get("channel.reverse"), "RS"
        )
        # only the data direction is arbitrated: acks are the paper's
        # cheap control frames, so the reverse link keeps pure
        # loss/delay (see repro.channel.arbiter module docs)
        forward_mux = FlowMux(forward_channel, arbiter=self.arbiter)
        reverse_mux = FlowMux(reverse_channel)
        self._link_arbiter = forward_mux.arbiter
        if obs_session is not None:
            obs_session.attach_channel(forward_channel, forward_channel.name)
            obs_session.attach_channel(reverse_channel, reverse_channel.name)
        if causal_rec is not None:
            # observe the *shared* channels, where the FlowEnvelope is
            # still intact — the causal observer unwraps it, so transit
            # nodes carry the flow id of the message they touched
            forward_channel.add_observer(
                causal_rec.channel_observer(forward_channel.name)
            )
            reverse_channel.add_observer(
                causal_rec.channel_observer(reverse_channel.name)
            )

        recorder = (
            TraceRecorder(sim, capacity=self.trace_capacity)
            if self.trace
            else NullRecorder()
        )

        for flow in self.flows:
            self._wire_flow(flow, sim, forward_mux, reverse_mux, recorder,
                            obs_session, causal_rec)

        def unfinished() -> bool:
            return not all(flow.finished for flow in self.flows)

        try:
            for flow in self.flows:
                flow.spec.source.attach(sim, flow.spec.sender)
            sim.run_while(
                unfinished, max_time=self.max_time, max_events=self.max_events
            )
        finally:
            for flow in self.flows:
                self._restore_submit(flow)

        return self._collect(
            sim, forward_channel, reverse_channel, recorder, obs_session,
            causal_rec,
        )

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------

    def _wire_flow(
        self, flow, sim, forward_mux, reverse_mux, recorder, obs_session,
        causal_rec=None,
    ) -> None:
        sender, receiver = flow.spec.sender, flow.spec.receiver
        fid = flow.index
        flow.forward_port = forward_mux.port(fid, weight=flow.spec.weight)
        flow.reverse_port = reverse_mux.port(fid)

        # flow-aware identity: distinct trace actors per flow, and the
        # window-core endpoints carry their flow id for diagnostics
        sender.actor_name = f"sender.f{fid}"
        receiver.actor_name = f"receiver.f{fid}"
        if hasattr(sender, "flow_id"):
            sender.flow_id = fid
        if hasattr(receiver, "flow_id"):
            receiver.flow_id = fid

        flow_recorder = recorder
        if causal_rec is not None:
            # the causal tee sits beneath the obs tee so probe NOTE
            # records (recorded through the obs recorder) reach the
            # causal layer; every record is stamped with this flow id
            from repro.obs.causal import CausalTee  # cycle guard

            flow_recorder = CausalTee(sim, causal_rec, flow_recorder, flow=fid)
            causal_rec.watch_endpoints(
                (f"sender.f{fid}", sender), (f"receiver.f{fid}", receiver)
            )
        if obs_session is not None:
            # per-flow span tracker on the shared registry: instruments
            # (histograms/counters) merge into session aggregates while
            # each flow keeps its own span table and latency list
            from repro.obs.spans import ObsRecorder, SpanTracker

            flow.tracker = SpanTracker(obs_session.registry, flow=fid)
            obs_session.add_span_tracker(flow.tracker)
            flow_recorder = ObsRecorder(sim, flow.tracker, flow_recorder)
            obs_session.attach_channel(
                flow.forward_port, flow.forward_port.name
            )
            obs_session.attach_channel(
                flow.reverse_port, flow.reverse_port.name
            )

        _derive_timeout(sender, receiver, flow.forward_port, flow.reverse_port)

        if obs_session is not None:

            def on_deliver(seq, payload, flow=flow, sim=sim):
                flow.delivered_payloads.append(payload)
                flow.tracker.on_deliver(seq, sim.now)

        else:

            def on_deliver(seq, payload, flow=flow, sim=sim):
                flow.delivered_payloads.append(payload)
                submitted_at = flow.submit_times.pop(seq, None)
                if submitted_at is not None:
                    flow.latencies.append(sim.now - submitted_at)

        if causal_rec is not None:
            plain_deliver = on_deliver

            def on_deliver(
                seq, payload, flow=flow, sim=sim, fid=fid,
                causal_rec=causal_rec, plain_deliver=plain_deliver,
            ):
                plain_deliver(seq, payload)
                causal_rec.on_deliver(
                    seq, sim.now, flow=fid, actor=f"receiver.f{fid}"
                )

        receiver.on_deliver = on_deliver

        if self.monitor_invariants:
            from repro.verify.runtime import InvariantMonitor  # cycle guard

            flow.monitor = InvariantMonitor(
                sender, receiver, flow.forward_port, flow.reverse_port,
                domain=_wire_domain(sender),
            )
        elif (
            obs_session is not None
            and obs_session.sample_invariants_every
        ):
            from repro.obs.probes import InvariantProbe  # cycle guard

            flow.monitor = InvariantProbe(
                sender, receiver, flow.forward_port, flow.reverse_port,
                domain=_wire_domain(sender),
                sample_every=obs_session.sample_invariants_every,
                registry=obs_session.registry,
                recorder=(
                    flow_recorder if flow_recorder is not recorder else None
                ),
            )

        sender.attach(sim, flow.forward_port, flow_recorder)
        receiver.attach(sim, flow.reverse_port, flow_recorder)
        if obs_session is not None:
            controller = getattr(sender, "_retx", None)  # built during attach
            if controller is not None:
                obs_session.attach_controller(controller)
        if causal_rec is not None:
            controller = getattr(sender, "_retx", None)
            if controller is not None:
                # chained after any obs instruments bound just above
                causal_rec.attach_controller(controller, flow=fid)
        flow.forward_port.connect(receiver.on_message)
        flow.reverse_port.connect(sender.on_message)
        if (
            getattr(sender, "timeout_mode", None) == "oracle"
            and hasattr(sender, "enable_oracle")
        ):
            sender.enable_oracle(
                flow.forward_port, flow.reverse_port, receiver
            )

        # timestamp submits for per-flow latency (or per-flow spans)
        flow.submit_was_instance_attr = "submit" in vars(sender)
        flow.original_submit = sender.submit

        if obs_session is not None:

            def timed_submit(payload, flow=flow, sim=sim):
                seq = flow.original_submit(payload)
                flow.tracker.on_submit(seq, sim.now)
                return seq

        else:

            def timed_submit(payload, flow=flow, sim=sim):
                seq = flow.original_submit(payload)
                flow.submit_times[seq] = sim.now
                return seq

        if causal_rec is not None:
            plain_submit = timed_submit

            def timed_submit(
                payload, sim=sim, fid=fid, causal_rec=causal_rec,
                plain_submit=plain_submit,
            ):
                seq = plain_submit(payload)
                causal_rec.on_submit(seq, sim.now, flow=fid)
                return seq

        sender.submit = timed_submit

    @staticmethod
    def _restore_submit(flow) -> None:
        if flow.original_submit is None:
            return
        if flow.submit_was_instance_attr:
            flow.spec.sender.submit = flow.original_submit
        else:
            try:
                del flow.spec.sender.submit
            except AttributeError:
                pass

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------

    @staticmethod
    def _link_stats(channel) -> dict:
        stats = channel.stats.as_dict()
        if hasattr(channel, "discarded"):  # framed link corruption counters
            stats["corrupted"] = channel.corrupted
            stats["discarded"] = channel.discarded
            stats["bytes_sent"] = channel.bytes_sent
        return stats

    def _collect(
        self, sim, forward_channel, reverse_channel, recorder, obs_session,
        causal_rec=None,
    ) -> SessionResult:
        arbiter = getattr(self, "_link_arbiter", None)
        flow_results: List[FlowResult] = []
        for flow in self.flows:
            spec = flow.spec
            sender_stats = spec.sender.stats.as_dict()
            controller = getattr(spec.sender, "_retx", None)
            if controller is not None:
                sender_stats["adaptive"] = controller.stats_dict()
                sender_stats["link_dead"] = getattr(
                    spec.sender, "link_dead", False
                )
            latencies = (
                flow.tracker.latencies()
                if flow.tracker is not None
                else flow.latencies
            )
            ordered_prefix = (
                flow.delivered_payloads
                == spec.source.submitted[: len(flow.delivered_payloads)]
            )
            flow_results.append(
                FlowResult(
                    flow=flow.index,
                    label=spec.label,
                    completed=flow.finished,
                    delivered=len(flow.delivered_payloads),
                    submitted=len(spec.source.submitted),
                    in_order=(
                        ordered_prefix
                        and len(flow.delivered_payloads)
                        == len(spec.source.submitted)
                    ),
                    ordered_prefix=ordered_prefix,
                    duration=sim.now,
                    sender_stats=sender_stats,
                    receiver_stats=spec.receiver.stats.as_dict(),
                    forward_stats=flow.forward_port.stats.as_dict(),
                    reverse_stats=flow.reverse_port.stats.as_dict(),
                    latencies=latencies,
                    timeout_period=(
                        getattr(spec.sender, "timeout_period", 0.0) or 0.0
                    ),
                    monitor=flow.monitor,
                    delivered_payloads=(
                        flow.delivered_payloads
                        if self.collect_payloads
                        else []
                    ),
                    queue_stats=(
                        arbiter.flow_stats(flow.index).as_dict()
                        if arbiter is not None
                        else {}
                    ),
                )
            )

        result = SessionResult(
            completed=all(flow.completed for flow in flow_results),
            duration=sim.now,
            delivered=sum(flow.delivered for flow in flow_results),
            submitted=sum(flow.submitted for flow in flow_results),
            in_order=all(flow.in_order for flow in flow_results),
            flows=flow_results,
            fairness=jain_fairness(
                [flow.delivered for flow in flow_results]
            ),
            forward_stats=self._link_stats(forward_channel),
            reverse_stats=self._link_stats(reverse_channel),
            arbiter_stats=(
                arbiter.stats_dict() if arbiter is not None else {}
            ),
            trace=recorder if self.trace else None,
            obs=obs_session,
        )
        if causal_rec is not None:
            causal_rec.on_fairness(result.fairness)
            for flow in flow_results:
                if flow.sender_stats.get("link_dead") and not any(
                    reason == "link_dead"
                    for _, reason, _ in causal_rec.triggers
                ):
                    causal_rec.trigger(
                        "link_dead", f"flow {flow.flow} reports link_dead"
                    )
            result.causal = causal_rec
            result.flight_path = causal_rec.close_flight()
            if obs_session is not None:
                obs_session.causal = causal_rec
        if obs_session is not None:
            self._finalize_obs(obs_session, result)
        return result

    def _finalize_obs(self, obs_session, result: SessionResult) -> None:
        """Session aggregates + per-flow gauges into the obs registry."""
        gauge = obs_session.registry.gauge(
            "flow_stat",
            "final per-flow counters",
            labelnames=("flow", "stat"),
        )
        for flow in result.flows:
            labels = {"flow": str(flow.flow)}
            gauge.labels(stat="delivered", **labels).set(flow.delivered)
            gauge.labels(stat="submitted", **labels).set(flow.submitted)
            gauge.labels(stat="retransmissions", **labels).set(
                flow.sender_stats.get("retransmissions", 0)
            )
            gauge.labels(stat="violations", **labels).set(flow.violations)
            gauge.labels(stat="completed", **labels).set(
                1.0 if flow.completed else 0.0
            )
        obs_session.registry.gauge(
            "session_fairness", "Jain fairness index over per-flow goodput"
        ).set(result.fairness)
        obs_session.registry.gauge(
            "session_flows", "flows hosted by this session"
        ).set(len(result.flows))
        if result.arbiter_stats:
            depth_gauge = obs_session.registry.gauge(
                "link_queue_depth",
                "peak arbiter queue occupancy per flow (frames)",
                labelnames=("flow",),
            )
            drops = obs_session.registry.counter(
                "link_drops_total",
                "arbiter droptail rejections per flow",
                labelnames=("flow",),
            )
            grants = obs_session.registry.counter(
                "arbiter_grants_total",
                "frames granted onto the link per flow",
                labelnames=("flow",),
            )
            for flow_id, stats in result.arbiter_stats["per_flow"].items():
                labels = {"flow": str(flow_id)}
                depth_gauge.labels(**labels).set(stats["max_depth"])
                drops.labels(**labels).inc(stats["dropped"])
                grants.labels(**labels).inc(stats["granted"])
        obs_session.finalize(result)


def run_flows(
    flows: Sequence[FlowSpec],
    forward: Optional[LinkSpec] = None,
    reverse: Optional[LinkSpec] = None,
    seed: int = 0,
    max_time: Optional[float] = None,
    max_events: int = 20_000_000,
    collect_payloads: bool = False,
    trace: bool = False,
    trace_capacity: Optional[int] = None,
    monitor_invariants: bool = False,
    obs: Any = False,
    obs_run_id: Optional[str] = None,
    obs_labels: Optional[dict] = None,
    obs_sample_invariants_every: int = 0,
    causal: bool = False,
    arbiter: Optional[ArbiterConfig] = None,
) -> SessionResult:
    """Run N flows over one shared link pair and measure the session.

    ``flows`` with exactly one entry delegates to
    :func:`~repro.sim.runner.run_transfer` — no mux, identical wiring,
    byte-identical results and decision trace (the returned session's
    ``transfer`` field carries the underlying
    :class:`~repro.sim.runner.TransferResult`).  With N >= 2 the flows
    share one forward and one reverse channel through a
    :class:`~repro.channel.mux.FlowMux` per direction.

    An *active* ``arbiter`` (finite rate) disables the N=1 delegation:
    a capacity-limited run needs the mux/arbiter wiring even for one
    flow, so it always goes through :class:`SessionHost`.
    """
    flows = list(flows)
    if not flows:
        raise ValueError("run_flows needs at least one FlowSpec")
    arbitrated = arbiter is not None and arbiter.active
    if len(flows) == 1 and not arbitrated:
        spec = flows[0]
        result = run_transfer(
            spec.sender,
            spec.receiver,
            spec.source,
            forward=forward,
            reverse=reverse,
            seed=seed,
            max_time=max_time,
            max_events=max_events,
            collect_payloads=collect_payloads,
            trace=trace,
            trace_capacity=trace_capacity,
            monitor_invariants=monitor_invariants,
            obs=obs,
            obs_run_id=obs_run_id,
            obs_labels=obs_labels,
            obs_sample_invariants_every=obs_sample_invariants_every,
            causal=causal,
        )
        return _session_from_transfer(spec, result)
    host = SessionHost(
        flows,
        forward=forward,
        reverse=reverse,
        seed=seed,
        max_time=max_time,
        max_events=max_events,
        collect_payloads=collect_payloads,
        trace=trace,
        trace_capacity=trace_capacity,
        monitor_invariants=monitor_invariants,
        obs=obs,
        obs_run_id=obs_run_id,
        obs_labels=obs_labels,
        obs_sample_invariants_every=obs_sample_invariants_every,
        causal=causal,
        arbiter=arbiter if arbitrated else None,
    )
    return host.run()


def session_to_transfer(session: SessionResult) -> TransferResult:
    """Flatten a session into the sweep runner's TransferResult shape.

    The N=1 path already carries its exact ``TransferResult``.  For
    N >= 2 the top-level sender/receiver stats are numeric sums across
    flows (aggregate retransmissions, acks, deliveries), the link stats
    are the shared channels' aggregates, and the per-flow rows plus the
    fairness index ride the ``per_flow`` / ``fairness`` fields.
    """
    if session.transfer is not None:
        transfer = session.transfer
        transfer.per_flow = [flow.as_dict() for flow in session.flows]
        transfer.fairness = session.fairness
        return transfer

    def summed(dicts: List[dict]) -> dict:
        out: Dict[str, Any] = {}
        for stats in dicts:
            for key, value in stats.items():
                if isinstance(value, (int, float)) and not isinstance(
                    value, bool
                ):
                    out[key] = out.get(key, 0) + value
        return out

    latencies: List[float] = []
    for flow in session.flows:
        latencies.extend(flow.latencies)
    violations: List[str] = []
    monitored = False
    for flow in session.flows:
        if flow.monitor is not None:
            monitored = True
            violations.extend(
                f"flow {flow.flow}: {violation}"
                for violation in flow.monitor.violations
            )
    monitor = None
    if monitored:
        from repro.perf.sweep import MonitorSummary  # cycle guard

        monitor = MonitorSummary(violations)
    return TransferResult(
        completed=session.completed,
        duration=session.duration,
        delivered=session.delivered,
        submitted=session.submitted,
        in_order=session.in_order,
        ordered_prefix=all(
            flow.ordered_prefix for flow in session.flows
        ),
        sender_stats=summed([flow.sender_stats for flow in session.flows]),
        receiver_stats=summed(
            [flow.receiver_stats for flow in session.flows]
        ),
        forward_stats=session.forward_stats,
        reverse_stats=session.reverse_stats,
        trace=session.trace,
        timeout_period=max(
            flow.timeout_period for flow in session.flows
        ),
        monitor=monitor,
        latencies=latencies,
        obs=session.obs,
        obs_path=session.obs_path,
        causal=session.causal,
        flight_path=session.flight_path,
        per_flow=[flow.as_dict() for flow in session.flows],
        fairness=session.fairness,
        arbiter_stats=session.arbiter_stats,
    )
