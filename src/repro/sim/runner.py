"""End-to-end transfer: one sender/receiver pair over dedicated links.

:func:`run_transfer` is the entry point every experiment, example, and
integration test uses: it describes the two channels as
:class:`LinkSpec` values and runs the pair with its traffic source as
the one-flow case of :class:`~repro.sim.host.SessionHost`, which builds,
wires, drains and measures every run.  The result is a
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

    def build(self, sim, rng, name: str):
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
    obs: bool = False,
    obs_run_id: Optional[str] = None,
    obs_labels: Optional[dict] = None,
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
    long adversarial runs.  With ``obs`` on as well, each violation is
    also counted in ``invariant_violations_total{clause}`` and recorded
    as a trace NOTE from actor ``monitor``.

    ``fault_plan`` (a :class:`~repro.robustness.faults.FaultPlan`)
    installs scripted frame corruption, brownout loss ramps, and endpoint
    crash/restart on top of the links; injection counters come back in
    ``result.fault_stats``.  A sender running with ``adaptive=True``
    additionally reports its controller under
    ``result.sender_stats["adaptive"]``.  A plan carrying
    :class:`~repro.robustness.corruption.StateCorruption` events attaches
    a :class:`~repro.verify.runtime.StabilizationMonitor` automatically
    and reports the recovery verdict (``converged`` / ``degraded`` /
    ``diverged``), repair counts, and time-to-reconvergence under
    ``result.stabilization``.

    ``obs=True`` turns on the unified telemetry layer (:mod:`repro.obs`):
    a fresh per-run :class:`~repro.obs.session.Observability` (shaped by
    ``obs_run_id`` / ``obs_labels``) instruments the engine, both
    channels, the endpoints (per-seq lifecycle spans via the
    trace-record tee), and the adaptive controller, and is returned as
    ``result.obs`` for snapshotting/export.  ``result.latencies`` is the
    host's own submit/deliver bookkeeping either way, so telemetry never
    changes it.  With ``obs`` off (the default) none of this code runs
    and no telemetry objects are allocated.

    ``causal`` turns on the causal diagnosis layer
    (:mod:`repro.obs.causal`): every protocol-relevant event becomes a
    node of a per-seq causal graph held in a bounded flight-recorder
    ring, delivery latencies are decomposed into exact
    queue/timer/retransmission/propagation components
    (``result.causal.attributions``), and an anomaly trigger (link-dead,
    degraded/diverged stabilization, deep RTO backoff, a violation found
    by the invariant monitor with ``obs`` on) dumps the ring to
    ``results/obs/flight/<run_id>.jsonl`` (``result.flight_path``).
    Independent of ``obs`` and composable with it; the graph never
    perturbs rng or scheduling, so decision traces are bit-identical
    with the layer on or off.
    """
    from repro.sim.host import FlowSpec, SessionHost, session_to_transfer  # cycle guard

    session = SessionHost(
        [FlowSpec(sender, receiver, source)],
        forward=forward,
        reverse=reverse,
        seed=seed,
        max_time=max_time,
        max_events=max_events,
        collect_payloads=collect_payloads,
        trace=trace,
        trace_capacity=trace_capacity,
        monitor_invariants=monitor_invariants,
        record_channel_drops=record_channel_drops,
        fault_plan=fault_plan,
        obs=obs,
        obs_run_id=obs_run_id or "transfer",
        obs_labels=obs_labels,
        causal=causal,
    ).run()
    result = session_to_transfer(session)
    # a one-pair transfer carries no per-flow rows or fairness index, so
    # flows=1 sweep payloads match the entries already in result caches
    result.per_flow, result.fairness = [], None
    return result
