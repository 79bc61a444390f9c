"""End-to-end transfer harness: wire endpoints, channels, and a source.

:func:`run_transfer` is the one entry point every experiment, example, and
integration test uses: it builds the two channels from :class:`LinkSpec`
descriptions, attaches a sender/receiver pair and a traffic source,
derives a provably safe timeout period when the sender has none, runs the
simulation to completion (or a time/event budget), and returns a
:class:`TransferResult` with full statistics and the end-to-end
correctness verdict (exactly-once, in-order delivery of every submitted
payload).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Optional

from repro.channel.channel import Channel
from repro.channel.delay import ConstantDelay, DelayModel
from repro.channel.impairments import LossModel, NoLoss
from repro.protocols.base import ReceiverEndpoint, SenderEndpoint
from repro.sim.engine import Simulator
from repro.sim.randomness import RandomStreams
from repro.trace.recorder import NullRecorder, TraceRecorder
from repro.workloads.sources import Source

__all__ = ["LinkSpec", "TransferResult", "run_transfer"]


@dataclass
class LinkSpec:
    """Description of one unidirectional link.

    With ``bit_error_rate > 0`` the link carries checksummed byte frames
    (see :mod:`repro.wire`): messages are serialized, bits flip in
    transit, and frames failing CRC validation are discarded — corruption
    becomes clean loss, as on a real link.  Framed links require byte
    payloads.
    """

    delay: Optional[DelayModel] = None  # default: ConstantDelay(1.0)
    loss: Optional[LossModel] = None  # default: NoLoss()
    max_lifetime: Optional[float] = None  # channel aging bound
    bit_error_rate: float = 0.0  # frames the link, flips bits in transit
    duplicate_probability: float = 0.0  # assumption-boundary ablations only

    def build(self, sim: Simulator, rng, name: str):
        """Build the channel stack for this link, named ``name``.

        Every channel object gets a unique, stable label: a framed link
        presents ``name`` on the wrapper while the raw byte channel
        underneath is labelled ``name.raw``, so traces and obs series
        never see two distinct channel objects sharing one label (flow
        ports over a built link extend it the same way: ``name.f<id>``).
        """
        framed = self.bit_error_rate > 0.0
        channel = Channel(
            sim,
            delay=self.delay if self.delay is not None else ConstantDelay(1.0),
            loss=self.loss if self.loss is not None else NoLoss(),
            rng=rng,
            max_lifetime=self.max_lifetime,
            duplicate_probability=self.duplicate_probability,
            name=f"{name}.raw" if framed else name,
        )
        if framed:
            from repro.wire.framed import FramedChannel  # cycle guard

            return FramedChannel(
                channel, self.bit_error_rate, rng=rng, name=name
            )
        return channel


@dataclass
class TransferResult:
    """Everything measured during one simulated transfer."""

    completed: bool  # source exhausted, all acked, all delivered
    duration: float  # virtual time at completion (or cutoff)
    delivered: int
    submitted: int
    in_order: bool  # payloads arrived exactly once, in order
    sender_stats: dict = field(default_factory=dict)
    receiver_stats: dict = field(default_factory=dict)
    forward_stats: dict = field(default_factory=dict)
    reverse_stats: dict = field(default_factory=dict)
    delivered_payloads: List[Any] = field(default_factory=list)
    trace: Any = None
    timeout_period: float = 0.0
    monitor: Any = None  # InvariantMonitor when monitor_invariants=True
    latencies: List[float] = field(default_factory=list)  # submit -> deliver
    fault_stats: dict = field(default_factory=dict)  # injected-fault counters
    obs: Any = None  # Observability session when obs= was requested
    obs_path: Optional[str] = None  # exported .jsonl (sweep-run telemetry)
    per_flow: List[dict] = field(default_factory=list)  # multi-flow rows
    fairness: Optional[float] = None  # Jain index when flows share the link
    ordered_prefix: bool = True  # delivered payloads form an in-order prefix
    stabilization: Optional[dict] = None  # corruption-recovery verdict
    causal: Any = None  # CausalRecorder when causal= was requested
    flight_path: Optional[str] = None  # flight dump, when a trigger fired
    arbiter_stats: dict = field(default_factory=dict)  # link-arbiter counters

    def latency_percentile(self, q: float) -> float:
        """Submit-to-deliver latency percentile (requires latencies)."""
        from repro.analysis.stats import percentile  # cycle guard

        return percentile(self.latencies, q)

    @property
    def mean_latency(self) -> float:
        """Mean submit-to-deliver latency across all payloads."""
        if not self.latencies:
            raise ValueError("no latencies recorded")
        return sum(self.latencies) / len(self.latencies)

    @property
    def throughput(self) -> float:
        """Delivered payloads per unit virtual time."""
        return self.delivered / self.duration if self.duration > 0 else 0.0

    @property
    def goodput_efficiency(self) -> float:
        """Delivered payloads per data transmission (retransmission waste)."""
        sent = self.sender_stats.get("data_sent", 0)
        return self.delivered / sent if sent else 0.0

    @property
    def acks_per_message(self) -> float:
        """Acknowledgment messages per delivered payload (E4 metric)."""
        acks = self.receiver_stats.get("acks_sent", 0)
        return acks / self.delivered if self.delivered else 0.0

    def summary(self) -> str:
        status = "completed" if self.completed else "INCOMPLETE"
        order = "in-order" if self.in_order else "ORDER VIOLATION"
        return (
            f"{status}/{order}: {self.delivered}/{self.submitted} delivered in "
            f"{self.duration:.2f}tu, throughput={self.throughput:.4f}/tu, "
            f"efficiency={self.goodput_efficiency:.3f}, "
            f"acks/msg={self.acks_per_message:.3f}"
        )


def _derive_timeout(sender, receiver, forward: Channel, reverse: Channel) -> None:
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
            "lifetime; set LinkSpec.max_lifetime (the paper's aging "
            "mechanism) or pass an explicit timeout_period"
        )
    ack_latency = 0.0
    policy = getattr(receiver, "ack_policy", None)
    if policy is not None:
        ack_latency = policy.max_latency
    sender.timeout_period = safe_timeout_period(
        forward_bound, reverse_bound, ack_latency, margin=0.05
    )


def run_transfer(
    sender: SenderEndpoint,
    receiver: ReceiverEndpoint,
    source: Source,
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
    obs: Any = False,
    obs_run_id: Optional[str] = None,
    obs_labels: Optional[dict] = None,
    obs_sample_invariants_every: int = 0,
    causal: bool = False,
) -> TransferResult:
    """Run one complete transfer and measure it.

    The simulation stops when the source is exhausted, every payload is
    acknowledged at the sender, and the channels have drained — or when
    ``max_time``/``max_events`` is hit, in which case the result is marked
    incomplete.

    With ``monitor_invariants=True`` an
    :class:`~repro.verify.runtime.InvariantMonitor` watches every channel
    event for breaches of the paper's invariant (returned as
    ``result.monitor``); safe configurations stay clean over arbitrarily
    long adversarial runs.

    ``fault_plan`` (a :class:`~repro.robustness.faults.FaultPlan`)
    installs scripted frame corruption, brownout loss ramps, and endpoint
    crash/restart on top of the links; injection counters come back in
    ``result.fault_stats``.  A sender running with ``adaptive=`` config
    additionally reports its controller under
    ``result.sender_stats["adaptive"]``.  A plan carrying
    :class:`~repro.robustness.corruption.StateCorruption` events attaches
    a :class:`~repro.verify.runtime.StabilizationMonitor` automatically
    and reports the recovery verdict (``converged`` / ``degraded`` /
    ``diverged``), repair counts, and time-to-reconvergence under
    ``result.stabilization``.

    ``obs`` turns on the unified telemetry layer (:mod:`repro.obs`):
    pass True for a fresh per-run :class:`~repro.obs.session.Observability`
    (optionally shaped by ``obs_run_id`` / ``obs_labels`` /
    ``obs_sample_invariants_every``), or an existing session to reuse its
    registry.  The session instruments the engine, both channels, the
    endpoints (per-seq lifecycle spans via the trace-record tee), and the
    adaptive controller; ``result.latencies`` then comes from the span
    tracker instead of the runner's submit-wrapping bookkeeping, and the
    session is returned as ``result.obs`` for snapshotting/export.  With
    ``obs`` falsy (the default) none of this code runs and no telemetry
    objects are allocated.

    ``causal`` turns on the causal diagnosis layer
    (:mod:`repro.obs.causal`): every protocol-relevant event becomes a
    node of a per-seq causal graph held in a bounded flight-recorder
    ring, delivery latencies are decomposed into exact
    queue/timer/retransmission/propagation components
    (``result.causal.attributions``), and an anomaly trigger (link-dead,
    degraded/diverged stabilization, deep RTO backoff, invariant-probe
    violation) dumps the ring to ``results/obs/flight/<run_id>.jsonl``
    (``result.flight_path``).  Independent of ``obs`` and composable
    with it; the graph never perturbs rng or scheduling, so decision
    traces are bit-identical with the layer on or off.
    """
    sim = Simulator()
    streams = RandomStreams(seed)

    causal_rec = None
    if causal:
        from repro.obs.causal import CausalRecorder, CausalTee  # cycle guard

        causal_rec = CausalRecorder(
            sim, run_id=obs_run_id or "transfer", labels=obs_labels
        )
        sim.timer_observer = causal_rec.timer_observer()

    obs_session = None
    if obs:
        from repro.obs.session import Observability  # cycle guard

        if isinstance(obs, Observability):
            obs_session = obs
        else:
            obs_session = Observability(
                run_id=obs_run_id or "transfer",
                labels=obs_labels,
                sample_invariants_every=obs_sample_invariants_every,
            )
        obs_session.attach_sim(sim)

    forward_spec = forward if forward is not None else LinkSpec()
    reverse_spec = reverse if reverse is not None else LinkSpec()
    forward_channel = forward_spec.build(sim, streams.get("channel.forward"), "SR")
    reverse_channel = reverse_spec.build(sim, streams.get("channel.reverse"), "RS")
    if obs_session is not None:
        obs_session.attach_channel(forward_channel, "SR")
        obs_session.attach_channel(reverse_channel, "RS")
    if causal_rec is not None:
        forward_channel.add_observer(causal_rec.channel_observer("SR"))
        reverse_channel.add_observer(causal_rec.channel_observer("RS"))
        causal_rec.watch_endpoints(("sender", sender), ("receiver", receiver))

    recorder = (
        TraceRecorder(sim, capacity=trace_capacity) if trace else NullRecorder()
    )
    if causal_rec is not None:
        # causal tee first, obs tee (below) on top: records the probe
        # emits through the obs recorder still reach the causal graph
        recorder = CausalTee(sim, causal_rec, recorder)
    if obs_session is not None:
        # the tee feeds every endpoint trace record into the span tracker
        # before forwarding; endpoints need no changes to be instrumented
        recorder = obs_session.make_recorder(sim, recorder)
    if trace and record_channel_drops:
        # channel loss/aging events appear in the trace as DROP records —
        # required by the refinement replay (repro.verify.refinement)
        from repro.core.messages import BlockAck, DataMessage
        from repro.trace.events import EventKind as _EK

        def drop_observer(channel_name):
            def observe(kind, message):
                if kind not in ("lose", "age"):
                    return
                if isinstance(message, DataMessage):
                    recorder.record(
                        f"channel:{channel_name}", _EK.DROP, seq=message.seq
                    )
                elif isinstance(message, BlockAck):
                    recorder.record(
                        f"channel:{channel_name}", _EK.DROP,
                        seq=message.lo, seq_hi=message.hi,
                    )

            return observe

        forward_channel.add_observer(drop_observer("SR"))
        reverse_channel.add_observer(drop_observer("RS"))

    delivered_payloads: List[Any] = []
    delivered_seqs: List[int] = []
    submit_times: dict = {}
    latencies: List[float] = []

    # submit is wrapped (to timestamp each payload for the latency stats)
    # for the duration of this call only; the original binding is restored
    # on exit so a sender endpoint reused across transfers does not stack
    # timed_submit wrappers.  With observability on the timestamps go to
    # the span tracker (per-seq lifecycle spans) and latencies are derived
    # from the spans; otherwise the original dict bookkeeping runs.
    submit_was_instance_attr = "submit" in vars(sender)
    original_submit = sender.submit

    if obs_session is not None:
        tracker = obs_session.span_tracker

        def timed_submit(payload: Any) -> int:
            seq = original_submit(payload)
            tracker.on_submit(seq, sim.now)
            return seq

        def on_deliver(seq: int, payload: Any) -> None:
            delivered_seqs.append(seq)
            delivered_payloads.append(payload)  # kept for the ordering check
            # idempotent: protocols that emit DELIVER trace records have
            # already stamped this span through the recorder tee
            tracker.on_deliver(seq, sim.now)

    else:

        def timed_submit(payload: Any) -> int:
            seq = original_submit(payload)
            submit_times[seq] = sim.now
            return seq

        def on_deliver(seq: int, payload: Any) -> None:
            delivered_seqs.append(seq)
            delivered_payloads.append(payload)  # kept for the ordering check
            submitted_at = submit_times.pop(seq, None)
            if submitted_at is not None:
                latencies.append(sim.now - submitted_at)

    if causal_rec is not None:
        plain_submit, plain_deliver = timed_submit, on_deliver

        def timed_submit(payload: Any) -> int:
            seq = plain_submit(payload)
            causal_rec.on_submit(seq, sim.now)
            return seq

        def on_deliver(seq: int, payload: Any) -> None:
            plain_deliver(seq, payload)
            # idempotent with the DELIVER trace record (attribution keyed)
            causal_rec.on_deliver(seq, sim.now)

    receiver.on_deliver = on_deliver
    _derive_timeout(sender, receiver, forward_channel, reverse_channel)

    def wire_domain() -> Optional[int]:
        numbering = getattr(sender, "numbering", None)
        domain = numbering.domain_size if numbering is not None else None
        if domain is None and hasattr(sender, "book"):
            domain = sender.book.domain.n  # byte-exact bounded endpoints
        return domain

    monitor = None
    stab_monitor = None
    if fault_plan is not None and getattr(fault_plan, "corruptions", ()):
        # a corrupting fault plan always gets a StabilizationMonitor (the
        # convergence watchdog's scorekeeper); it subsumes the plain
        # invariant monitor, so monitor_invariants shares the instance
        from repro.verify.runtime import StabilizationMonitor  # cycle guard

        stab_monitor = StabilizationMonitor(
            sender, receiver, forward_channel, reverse_channel,
            domain=wire_domain(),
        )
        fault_plan.monitor = stab_monitor
        if monitor_invariants:
            monitor = stab_monitor
    elif monitor_invariants:
        from repro.verify.runtime import InvariantMonitor  # cycle guard

        monitor = InvariantMonitor(
            sender, receiver, forward_channel, reverse_channel,
            domain=wire_domain(),
        )
    if obs_session is not None:
        obs_session.install_probe(
            sender, receiver, forward_channel, reverse_channel,
            domain=wire_domain(),
        )

    sender.attach(sim, forward_channel, recorder)
    receiver.attach(sim, reverse_channel, recorder)
    if obs_session is not None:
        controller = getattr(sender, "_retx", None)  # built during attach
        if controller is not None:
            obs_session.attach_controller(controller)
    if causal_rec is not None:
        controller = getattr(sender, "_retx", None)
        if controller is not None:
            # chains on top of any obs instruments bound just above
            causal_rec.attach_controller(controller)
    forward_channel.connect(receiver.on_message)
    reverse_channel.connect(sender.on_message)
    if (
        getattr(sender, "timeout_mode", None) == "oracle"
        and hasattr(sender, "enable_oracle")
    ):
        sender.enable_oracle(forward_channel, reverse_channel, receiver)
    if fault_plan is not None:
        if causal_rec is not None:
            # fault nodes + flush-on-fault-boundary for a streaming dump
            fault_plan.observer = causal_rec.fault_observer()
        # must come after the connects above: the plan re-connects each
        # channel through its corruption/outage interceptor
        fault_plan.install(
            sim, forward_channel, reverse_channel, sender, receiver
        )

    def finished() -> bool:
        return (
            source.exhausted
            and sender.all_acknowledged
            and len(delivered_payloads) >= source.total
        )

    def unfinished() -> bool:
        return not (
            source.exhausted
            and sender.all_acknowledged
            and len(delivered_payloads) >= source.total
        )

    sender.submit = timed_submit
    try:
        source.attach(sim, sender)
        # drain inside the engine (one predicate call per event) instead
        # of sim.step() + finished() through Python-level indirection
        sim.run_while(unfinished, max_time=max_time, max_events=max_events)
    finally:
        if submit_was_instance_attr:
            sender.submit = original_submit
        else:
            try:
                del sender.submit
            except AttributeError:
                pass
        if fault_plan is not None:
            # put the channels' own loss models back: a plan-wrapped
            # brownout left installed (e.g. one scheduled around a
            # crash/restart) would survive a later Channel.reset and
            # replay a different rng stream on a reused channel
            fault_plan.uninstall()

    forward_stats = forward_channel.stats.as_dict()
    reverse_stats = reverse_channel.stats.as_dict()
    for channel, stats in (
        (forward_channel, forward_stats),
        (reverse_channel, reverse_stats),
    ):
        if hasattr(channel, "discarded"):  # framed link: corruption counters
            stats["corrupted"] = channel.corrupted
            stats["discarded"] = channel.discarded
            stats["bytes_sent"] = channel.bytes_sent

    sender_stats = sender.stats.as_dict()
    controller = getattr(sender, "_retx", None)
    if controller is not None:
        sender_stats["adaptive"] = controller.stats_dict()
        sender_stats["link_dead"] = getattr(sender, "link_dead", False)

    if obs_session is not None:
        # span-derived submit->deliver latencies (seq order; identical to
        # the delivery-order list for these in-order protocols)
        latencies = obs_session.span_tracker.latencies()

    in_order = delivered_payloads == source.submitted[: len(delivered_payloads)]
    result = TransferResult(
        completed=finished(),
        duration=sim.now,
        delivered=len(delivered_payloads),
        submitted=len(source.submitted),
        in_order=in_order and len(delivered_payloads) == len(source.submitted),
        ordered_prefix=in_order,
        sender_stats=sender_stats,
        receiver_stats=receiver.stats.as_dict(),
        forward_stats=forward_stats,
        reverse_stats=reverse_stats,
        delivered_payloads=delivered_payloads if collect_payloads else [],
        trace=recorder if trace else None,
        timeout_period=getattr(sender, "timeout_period", 0.0) or 0.0,
        monitor=monitor,
        latencies=latencies,
        fault_stats=fault_plan.stats.as_dict() if fault_plan is not None else {},
        obs=obs_session,
    )
    if stab_monitor is not None:
        result.stabilization = stab_monitor.summary(
            result.completed, result.in_order
        )
    if causal_rec is not None:
        if result.stabilization is not None:
            causal_rec.on_stabilization(result.stabilization["verdict"])
        if sender_stats.get("link_dead") and not any(
            reason == "link_dead" for _, reason, _ in causal_rec.triggers
        ):
            # backstop: a sender can go link-dead without routing the
            # verdict through controller instruments (custom endpoints)
            causal_rec.trigger("link_dead", "sender reports link_dead")
        result.causal = causal_rec
        result.flight_path = causal_rec.close_flight()
        if obs_session is not None:
            obs_session.causal = causal_rec  # attributions ride the export
    if obs_session is not None:
        obs_session.finalize(result)
    return result
