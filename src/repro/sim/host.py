"""Session host: the one harness that builds, wires, drains and measures runs.

:class:`SessionHost` runs N protocol flows over one link pair.  It
builds the simulator and the two channels from :class:`~repro.sim.runner
.LinkSpec` descriptions, attaches each sender/receiver pair and its
traffic source, derives a provably safe timeout period when a sender
has none, wires the requested monitors and telemetry, drains the
simulation to completion (or a time/event budget), and collects one
:class:`FlowResult` per flow plus aggregate goodput and the Jain
fairness index (:class:`SessionResult`).

* **One flow, no active arbiter** is the paper's setting, and
  :func:`~repro.sim.runner.run_transfer` is exactly this case: the
  endpoints attach to the built ``SR``/``RS`` channels directly, with
  no mux and no envelope, so wire bytes, decision traces and
  telemetry exports are those of a dedicated link pair.  Only here may
  a :class:`~repro.robustness.faults.FaultPlan` be installed, because
  its crash/restart scripting names a single endpoint pair.
* **N >= 2 flows, or an active arbiter**, share the link through a
  :class:`~repro.channel.mux.FlowMux` per direction, which tags each
  flow's traffic with its flow id and demultiplexes deliveries, so
  every endpoint pair sees an ordinary channel surface
  (:class:`~repro.channel.mux.FlowPort`, labelled ``SR.f<id>``).  Loss,
  delay, aging and framing act on the *shared* link.  Each flow gets
  its own trace actor names (``sender.f<id>``), and obs counts each
  port's channel events as well as the shared link's.

Either way every flow is wired the same: its own latency bookkeeping,
one tap chain over the session's trace recorder (a causal tee when
``causal`` is on, then an obs tee feeding its own span tracker when
``obs`` is on, tagged with the flow id only when muxed), and — when
requested — its own :class:`~repro.verify.runtime.InvariantMonitor`,
because the paper's invariant 6 ∧ 7 ∧ 8 is a *per-flow* statement
(Ghaderi & Towsley; Jain — see PAPERS.md).

:func:`run_flows` is the entry point for sessions;
:func:`session_to_transfer` flattens a session into the sweep runner's
:class:`~repro.sim.runner.TransferResult` shape.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.analysis.stats import jain_fairness
from repro.channel.arbiter import ArbiterConfig
from repro.channel.mux import FlowMux
from repro.channel.surface import link_stats
from repro.core.messages import BlockAck, DataMessage
from repro.protocols.base import ReceiverEndpoint, SenderEndpoint
from repro.sim.engine import Simulator
from repro.sim.randomness import RandomStreams
from repro.sim.runner import LinkSpec, TransferResult
from repro.trace.events import EventKind
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
    """Everything measured for one flow of a session."""

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
    monitor: Any = None  # per-flow InvariantMonitor
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
    """Per-flow plus aggregate outcome of one session."""

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
    causal: Any = None  # CausalRecorder when the causal layer was on
    flight_path: Optional[str] = None  # flight dump, when a trigger fired
    fault_stats: dict = field(default_factory=dict)  # injected-fault counters
    stabilization: Optional[dict] = None  # corruption-recovery verdict

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


def _derive_timeout(sender, receiver, forward, reverse) -> None:
    """Give the sender a provably safe timeout period if it has none.

    Also fills in the sender's ``reverse_lifetime`` (the coverage-release
    drain wait of the per-message-safe mode) with the tight channel bound
    when the sender has the attribute and no explicit value.
    """
    from repro.protocols.blockack import safe_timeout_period  # cycle guard

    reverse_bound = reverse.effective_max_lifetime
    if (
        hasattr(sender, "reverse_lifetime")
        and sender.reverse_lifetime is None
        and reverse_bound is not None
    ):
        sender.reverse_lifetime = reverse_bound + 0.05
    if getattr(sender, "timeout_period", None) is not None:
        return

    forward_bound = forward.effective_max_lifetime
    if forward_bound is None or reverse_bound is None:
        raise ValueError(
            "cannot derive a safe timeout: a channel has unbounded message "
            "lifetime. Either a link has no LinkSpec.max_lifetime (the "
            "paper's aging mechanism), or an unbounded arbiter queue "
            "(queue_limit=None) lets a frame wait forever. Bound the link's "
            "lifetime, or pass an explicit timeout_period"
        )
    ack_latency = 0.0
    policy = getattr(receiver, "ack_policy", None)
    if policy is not None:
        ack_latency = policy.max_latency
    sender.timeout_period = safe_timeout_period(
        forward_bound, reverse_bound, ack_latency, margin=0.05
    )


def _drop_observer(recorder, actor: str) -> Callable[[str, Any], None]:
    """Channel loss/aging as DROP trace records.

    The refinement replay (:mod:`repro.verify.refinement`) needs them to
    account for every message that left the sender.
    """

    def observe(kind: str, message: Any) -> None:
        if kind not in ("lose", "age"):
            return
        if isinstance(message, DataMessage):
            recorder.record(actor, EventKind.DROP, seq=message.seq)
        elif isinstance(message, BlockAck):
            recorder.record(
                actor, EventKind.DROP, seq=message.lo, seq_hi=message.hi
            )

    return observe


class _FlowHarness:
    """Per-flow wiring state the host keeps while a session runs."""

    __slots__ = (
        "index", "spec", "forward_port", "reverse_port", "delivered_payloads",
        "latencies", "monitor", "timed_submit",
    )

    def __init__(self, index: int, spec: FlowSpec) -> None:
        self.index = index
        self.spec = spec
        self.forward_port: Any = None
        self.reverse_port: Any = None
        self.delivered_payloads: List[Any] = []
        self.latencies: List[float] = []
        self.monitor = None
        self.timed_submit: Optional[Callable[[Any], int]] = None

    @property
    def finished(self) -> bool:
        return (
            self.spec.source.exhausted
            and self.spec.sender.all_acknowledged
            and len(self.delivered_payloads) >= self.spec.source.total
        )


class SessionHost:
    """Build, run, and measure one session of one or more flows.

    ``fault_plan`` (a :class:`~repro.robustness.faults.FaultPlan`)
    installs scripted frame corruption, brownout loss ramps, endpoint
    crash/restart and state corruption on top of the links.  It needs
    the un-muxed one-flow session, so a plan on N >= 2 flows or behind
    an active arbiter raises :class:`ValueError`; scripted faults on
    shared links are an open item (ROADMAP).  ``record_channel_drops``
    (with ``trace``) records every channel loss/aging as a DROP trace
    record, the input the refinement replay needs.

    ``monitor_invariants`` gives every flow its own
    :class:`~repro.verify.runtime.InvariantMonitor`.  With ``obs`` on,
    each monitor also counts its violations in the session registry and
    records them as trace NOTEs through its flow's recorder, which the
    causal layer turns into an ``invariant_violation`` trigger.
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
        record_channel_drops: bool = False,
        fault_plan: Optional[Any] = None,
        obs: bool = False,
        obs_run_id: Optional[str] = None,
        obs_labels: Optional[dict] = None,
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
        self.record_channel_drops = record_channel_drops
        self.fault_plan = fault_plan
        self.obs = obs
        self.obs_run_id = obs_run_id
        self.obs_labels = obs_labels
        self.causal = causal
        self.arbiter = arbiter if arbiter is not None and arbiter.active else None
        # the mux is needed to share the link, and to put even one flow
        # behind a capacity-limited arbiter
        self.muxed = len(self.flows) > 1 or self.arbiter is not None
        if fault_plan is not None and self.muxed:
            raise ValueError(
                "fault plans script a single endpoint pair; multi-flow "
                "sessions do not support them yet (see ROADMAP open items)"
            )
        self._link_arbiter = None

    # ------------------------------------------------------------------

    def run(self) -> SessionResult:
        sim = Simulator()
        streams = RandomStreams(self.seed)
        run_id = self.obs_run_id or "session"
        recorder = (
            TraceRecorder(sim, capacity=self.trace_capacity)
            if self.trace
            else NullRecorder()
        )

        causal_rec = None
        if self.causal:
            from repro.obs.causal import CausalRecorder  # cycle guard

            causal_rec = CausalRecorder(sim, run_id=run_id, labels=self.obs_labels)
            sim.timer_observer = causal_rec.timer_observer()

        obs_session = None
        if self.obs:
            from repro.obs.session import Observability  # cycle guard

            obs_session = Observability(run_id=run_id, labels=self.obs_labels)
            obs_session.attach_sim(sim)
            # every flow records through its own tee over this recorder;
            # the export reads the events from here
            obs_session.recorder = recorder

        forward_channel = self.forward_spec.build(sim, streams.get("channel.forward"), "SR")
        reverse_channel = self.reverse_spec.build(sim, streams.get("channel.reverse"), "RS")
        forward: Any = forward_channel
        reverse: Any = reverse_channel
        if self.muxed:
            # only the data direction is arbitrated: acks are the paper's
            # cheap control frames, so the reverse link keeps pure
            # loss/delay (see repro.channel.arbiter module docs)
            forward = FlowMux(forward_channel, arbiter=self.arbiter)
            reverse = FlowMux(reverse_channel)
            self._link_arbiter = forward.arbiter
        if obs_session is not None:
            obs_session.attach_channel(forward_channel, forward_channel.name)
            obs_session.attach_channel(reverse_channel, reverse_channel.name)
        if causal_rec is not None:
            # observe the built channels: on a shared link the
            # FlowEnvelope is still intact there, and the causal observer
            # unwraps it, so transit nodes carry the flow id they touched
            forward_channel.add_observer(
                causal_rec.channel_observer(forward_channel.name)
            )
            reverse_channel.add_observer(
                causal_rec.channel_observer(reverse_channel.name)
            )

        for flow in self.flows:
            self._wire_flow(flow, sim, forward, reverse, recorder,
                            obs_session, causal_rec)

        # The drain predicate runs once per engine event, so it re-checks
        # only the last flow not yet seen finished and pops it once it
        # is: amortized O(1) per event for any number of flows.  A
        # finished flow stays finished in a muxed session (fault plans,
        # the only thing that could rewind it, are rejected there), and
        # a one-flow drain stops at its first finished check.  A source
        # still submitting answers first, without the full test.
        pending = [(flow, flow.spec.source) for flow in self.flows]

        def unfinished() -> bool:
            while pending:
                flow, source = pending[-1]
                if len(source.submitted) < source.total or not flow.finished:
                    return True
                pending.pop()
            return False

        try:
            for flow in self.flows:
                flow.spec.source.attach(sim, flow.spec.sender, flow.timed_submit)
            sim.run_while(
                unfinished, max_time=self.max_time, max_events=self.max_events
            )
        finally:
            if self.fault_plan is not None:
                # put the channels' own loss models back: a plan-wrapped
                # brownout left installed (e.g. one scheduled around a
                # crash/restart) would survive a later Channel.reset and
                # replay a different rng stream on a reused channel
                self.fault_plan.uninstall()

        return self._collect(
            sim, forward_channel, reverse_channel, recorder, obs_session,
            causal_rec,
        )

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------

    def _wire_flow(
        self, flow, sim, forward, reverse, recorder, obs_session, causal_rec,
    ) -> None:
        """Wire one endpoint pair to ``forward``/``reverse``.

        Those are the built channels themselves on the un-muxed one-flow
        path, and the two :class:`FlowMux` otherwise.
        """
        sender, receiver = flow.spec.sender, flow.spec.receiver
        fid: Optional[int] = None
        sender_name, receiver_name = "sender", "receiver"
        if self.muxed:
            fid = flow.index
            forward = forward.port(fid, weight=flow.spec.weight)
            reverse = reverse.port(fid)
            # flow-aware identity: distinct trace actors per flow, and the
            # window-core endpoints carry their flow id for diagnostics
            sender_name, receiver_name = f"sender.f{fid}", f"receiver.f{fid}"
            sender.actor_name = sender_name
            receiver.actor_name = receiver_name
            if hasattr(sender, "flow_id"):
                sender.flow_id = fid
            if hasattr(receiver, "flow_id"):
                receiver.flow_id = fid
        flow.forward_port, flow.reverse_port = forward, reverse

        flow_recorder = recorder
        if causal_rec is not None:
            # the causal tee sits beneath the obs tee so monitor NOTE
            # records (recorded through the obs recorder) reach the
            # causal layer; every record is stamped with this flow id
            from repro.obs.causal import CausalTee  # cycle guard

            flow_recorder = CausalTee(sim, causal_rec, flow_recorder, flow=fid)
            causal_rec.watch_endpoints(
                (sender_name, sender), (receiver_name, receiver)
            )
        tracker = None
        if obs_session is not None:
            # this flow's span tracker, fed by a tee over its recorder
            tracker, flow_recorder = obs_session.tap_flow(
                sim, flow_recorder, flow=fid
            )
            if self.muxed:
                obs_session.attach_channel(forward, forward.name)
                obs_session.attach_channel(reverse, reverse.name)
        if self.trace and self.record_channel_drops:
            for port in (forward, reverse):
                port.add_observer(
                    _drop_observer(flow_recorder, f"channel:{port.name}")
                )

        _derive_timeout(sender, receiver, forward, reverse)

        # closures over locals: each runs once per delivery/submission.
        # The latency list is the host's own submit/deliver bookkeeping
        # with telemetry on or off: Section V endpoints hand out wire
        # numbers taken mod 2w, which repeat as span keys
        delivered = flow.delivered_payloads
        latencies = flow.latencies
        submit_times: Dict[int, float] = {}
        # the telemetry taps, bound once: the only feed of submits and
        # deliveries into the span tracker and the causal recorder, with
        # or without a DELIVER record (which the trackers only count); a
        # receiver that records one does so right before this callback
        track_submit = track_deliver = causal_submit = causal_deliver = None
        if tracker is not None:
            track_submit, track_deliver = tracker.on_submit, tracker.on_deliver
        if causal_rec is not None:
            causal_submit = causal_rec.on_submit
            causal_deliver = causal_rec.on_deliver
        observed = tracker is not None or causal_rec is not None

        if observed:

            def on_deliver(seq: int, payload: Any) -> None:
                delivered.append(payload)  # kept for the ordering check
                now = sim.now
                submitted_at = submit_times.pop(seq, None)
                if submitted_at is not None:
                    latencies.append(now - submitted_at)
                if track_deliver is not None:
                    track_deliver(seq, now)
                if causal_deliver is not None:
                    causal_deliver(seq, now, fid, receiver_name)

        else:

            def on_deliver(seq: int, payload: Any) -> None:
                delivered.append(payload)  # kept for the ordering check
                submitted_at = submit_times.pop(seq, None)
                if submitted_at is not None:
                    latencies.append(sim.now - submitted_at)

        receiver.on_deliver = on_deliver

        self._attach_monitors(flow, forward, reverse, flow_recorder,
                              obs_session)

        sender.attach(sim, forward, flow_recorder)
        receiver.attach(sim, reverse, flow_recorder)
        controller = getattr(sender, "_retx", None)  # built during attach
        if controller is not None:
            if obs_session is not None:
                obs_session.attach_controller(controller)
            if causal_rec is not None:
                # chained after any obs instruments bound just above
                causal_rec.attach_controller(controller, flow=fid)
        forward.connect(receiver.on_message)
        reverse.connect(sender.on_message)
        if (
            getattr(sender, "timeout_mode", None) == "oracle"
            and hasattr(sender, "enable_oracle")
        ):
            sender.enable_oracle(forward, reverse, receiver)
        if self.fault_plan is not None:
            if causal_rec is not None:
                # fault nodes + flush-on-fault-boundary for a streaming dump
                self.fault_plan.observer = causal_rec.fault_observer()
            # must come after the connects above: the plan re-connects
            # each channel through its corruption/outage interceptor
            self.fault_plan.install(sim, forward, reverse, sender, receiver)

        # the source hands every payload to timed_submit, which
        # timestamps it around the sender's own submit: the host never
        # patches the sender, so a reused sender keeps its binding and
        # its attributes stay inline (DESIGN §10)
        sender_submit = sender.submit

        if observed:

            def timed_submit(payload: Any) -> int:
                seq = sender_submit(payload)
                now = submit_times[seq] = sim.now
                if track_submit is not None:
                    track_submit(seq, now)
                if causal_submit is not None:
                    causal_submit(seq, now, fid)
                return seq

        else:

            def timed_submit(payload: Any) -> int:
                seq = sender_submit(payload)
                submit_times[seq] = sim.now
                return seq

        flow.timed_submit = timed_submit

    def _attach_monitors(
        self, flow, forward, reverse, flow_recorder, obs_session
    ) -> None:
        sender, receiver = flow.spec.sender, flow.spec.receiver
        plan = self.fault_plan
        if plan is not None and getattr(plan, "corruptions", ()):
            # a corrupting fault plan always gets a StabilizationMonitor
            # (the convergence watchdog's scorekeeper); it subsumes the
            # plain invariant monitor, so monitor_invariants shares it.
            # Its violations are expected while repairs run, so they
            # report no telemetry and raise no flight-recorder trigger
            from repro.verify.runtime import StabilizationMonitor  # cycle guard

            plan.monitor = StabilizationMonitor(
                sender, receiver, forward, reverse,
                domain=_wire_domain(sender),
            )
            if self.monitor_invariants:
                flow.monitor = plan.monitor
        elif self.monitor_invariants:
            from repro.verify.runtime import InvariantMonitor  # cycle guard

            flow.monitor = InvariantMonitor(
                sender, receiver, forward, reverse,
                domain=_wire_domain(sender),
                registry=None if obs_session is None else obs_session.registry,
                recorder=None if obs_session is None else flow_recorder,
            )

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------

    def _collect(
        self, sim, forward_channel, reverse_channel, recorder, obs_session,
        causal_rec,
    ) -> SessionResult:
        arbiter = self._link_arbiter
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
                    forward_stats=link_stats(flow.forward_port),
                    reverse_stats=link_stats(flow.reverse_port),
                    latencies=flow.latencies,
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

        plan = self.fault_plan
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
            forward_stats=link_stats(forward_channel),
            reverse_stats=link_stats(reverse_channel),
            arbiter_stats=(
                arbiter.stats_dict() if arbiter is not None else {}
            ),
            trace=recorder if self.trace else None,
            obs=obs_session,
            fault_stats=plan.stats.as_dict() if plan is not None else {},
        )
        if plan is not None and getattr(plan, "corruptions", ()):
            result.stabilization = plan.monitor.summary(
                result.completed, result.in_order
            )
        if causal_rec is not None:
            if result.stabilization is not None:
                causal_rec.on_stabilization(result.stabilization["verdict"])
            causal_rec.on_fairness(result.fairness)
            for flow in flow_results:
                if flow.sender_stats.get("link_dead") and not any(
                    reason == "link_dead"
                    for _, reason, _ in causal_rec.triggers
                ):
                    # backstop: a sender can go link-dead without routing
                    # the verdict through controller instruments
                    who = f"flow {flow.flow}" if self.muxed else "sender"
                    causal_rec.trigger(
                        "link_dead", f"{who} reports link_dead"
                    )
            result.causal = causal_rec
            result.flight_path = causal_rec.close_flight()
            if obs_session is not None:
                obs_session.causal = causal_rec  # attributions ride the export
        if obs_session is not None:
            if self.muxed:
                self._flow_gauges(obs_session, result)
            obs_session.finalize(result)
        return result

    @staticmethod
    def _flow_gauges(obs_session, result: SessionResult) -> None:
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
    obs: bool = False,
    obs_run_id: Optional[str] = None,
    obs_labels: Optional[dict] = None,
    causal: bool = False,
    arbiter: Optional[ArbiterConfig] = None,
) -> SessionResult:
    """Run N flows over one link pair and measure the session.

    One flow without an active ``arbiter`` runs un-muxed over dedicated
    channels, exactly like :func:`~repro.sim.runner.run_transfer`.  With
    N >= 2 flows — or behind an active (finite-rate) ``arbiter``, which
    needs the mux even for one flow — the flows share one forward and
    one reverse channel through a :class:`~repro.channel.mux.FlowMux`
    per direction.
    """
    return SessionHost(
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
        causal=causal,
        arbiter=arbiter,
    ).run()


def session_to_transfer(session: SessionResult) -> TransferResult:
    """Flatten a session into the sweep runner's TransferResult shape.

    One flow's stats, monitor and payloads are copied verbatim.  For
    N >= 2 the top-level sender/receiver stats are numeric sums across
    flows (aggregate retransmissions, acks, deliveries) and the monitor
    is a summary of every flow's violations.  The link stats are the
    built channels' totals, and the per-flow rows plus the fairness
    index ride the ``per_flow`` / ``fairness`` fields.
    """
    flows = session.flows
    if len(flows) == 1:
        # a sum would drop the nested ``adaptive`` dict and bool ``link_dead``
        sender_stats = flows[0].sender_stats
        receiver_stats = flows[0].receiver_stats
        monitor = flows[0].monitor
        payloads = flows[0].delivered_payloads
    else:
        sender_stats = _summed([flow.sender_stats for flow in flows])
        receiver_stats = _summed([flow.receiver_stats for flow in flows])
        monitor = None
        if any(flow.monitor is not None for flow in flows):
            from repro.perf.sweep import MonitorSummary  # cycle guard

            monitor = MonitorSummary([
                f"flow {flow.flow}: {violation}"
                for flow in flows
                if flow.monitor is not None
                for violation in flow.monitor.violations
            ])
        payloads = []
    return TransferResult(
        completed=session.completed,
        duration=session.duration,
        delivered=session.delivered,
        submitted=session.submitted,
        in_order=session.in_order,
        ordered_prefix=all(flow.ordered_prefix for flow in flows),
        sender_stats=sender_stats,
        receiver_stats=receiver_stats,
        forward_stats=session.forward_stats,
        reverse_stats=session.reverse_stats,
        delivered_payloads=payloads,
        trace=session.trace,
        timeout_period=max(flow.timeout_period for flow in flows),
        monitor=monitor,
        latencies=[value for flow in flows for value in flow.latencies],
        fault_stats=session.fault_stats,
        obs=session.obs,
        per_flow=[flow.as_dict() for flow in flows],
        fairness=session.fairness,
        stabilization=session.stabilization,
        causal=session.causal,
        flight_path=session.flight_path,
        arbiter_stats=session.arbiter_stats,
    )


def _summed(dicts: List[dict]) -> dict:
    out: Dict[str, Any] = {}
    for stats in dicts:
        for key, value in stats.items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                out[key] = out.get(key, 0) + value
    return out
