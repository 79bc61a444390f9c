"""Refinement checking: timed runs are executions of the abstract spec.

The model checker (E8) verifies the *abstract* protocol; the timed
implementations realize its guards with timers.  The missing link is the
claim that every behaviour the timed implementation exhibits is one the
abstract protocol allows — a simulation/refinement relation.  This module
checks it mechanically:

1. run a timed transfer with full tracing (endpoint events **and**
   channel loss events);
2. replay the trace, record by record, as a path of the model checker's
   own :class:`~repro.verify.actions.AbstractProtocolModel`: each record
   is the action instance it claims to be, and the replay takes that
   transition or reports the conjunct that refuses it.  A send is action
   0, a retransmission the Section-IV ``timeout(i)`` action 2', a
   reception action 3 (with the ``(v,v)`` ack it answers a duplicate
   with), an emitted acknowledgment action 4 run to its end and then
   action 5, an acknowledgment's arrival action 1 and a channel drop the
   matching loss — with the invariant (assertions 6 ∧ 7 ∧ 8 ∧ 9–11)
   checked after every step.

A safe timer configuration must replay cleanly: any step the abstract
guard forbids is a protocol bug (this check retroactively catches the
coverage-release bug documented in ``protocols/blockack.py``).  The
``aggressive`` mode fails the replay at its first premature
retransmission, which is the expected shape.

The replay consumes traces from runs with **unbounded numbering** (so
trace sequence numbers are the abstract ones); bounded variants are tied
to unbounded ones by the E7 equivalence instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.trace.events import EventKind, TraceEvent
from repro.verify.actions import AbstractProtocolModel
from repro.verify.invariants import check_invariant
from repro.verify.state import SystemState

__all__ = ["RefinementReport", "replay_trace", "check_refinement"]


@dataclass
class RefinementReport:
    """Outcome of replaying one trace against the abstract semantics."""

    steps: int = 0
    errors: List[str] = field(default_factory=list)
    invariant_violations: List[str] = field(default_factory=list)
    final_state: Optional[SystemState] = None

    @property
    def ok(self) -> bool:
        return not self.errors and not self.invariant_violations

    def summary(self) -> str:
        status = "REFINES" if self.ok else "VIOLATES"
        return (
            f"{status}: {self.steps} abstract steps, "
            f"{len(self.errors)} guard errors, "
            f"{len(self.invariant_violations)} invariant violations"
        )


def replay_trace(events: List[TraceEvent], window: int) -> RefinementReport:
    """Replay a timed-run trace as a path of the abstract model's actions.

    Each record maps to the action instance it claims to be, and the
    replay takes that transition from :class:`AbstractProtocolModel`'s
    one definition (:meth:`~AbstractProtocolModel.step`) or reports the
    conjunct that refuses it.  Every retransmission is checked against
    the Section IV guard 2', which the runs of every safe timer mode
    satisfy.
    """
    model = AbstractProtocolModel(window, "per_message")
    report = RefinementReport()
    state = model.initial()
    index = 0
    while index < len(events) and len(report.errors) < 10:
        event = events[index]
        index += 1
        kind = event.kind
        pair = (event.seq, event.seq_hi)
        if kind is EventKind.SEND_DATA:
            taken, refusal = model.step(state, "0:send", event.seq)
        elif kind is EventKind.RECV_ACK:
            taken, refusal = model.step(state, "1:recv_ack", pair)
        elif kind is EventKind.RESEND_DATA:
            taken, refusal = model.step(state, model.timeout_action, event.seq)
        elif kind is EventKind.RECV_DATA:
            # action 3 answers a duplicate with (v,v), and the receiver
            # records that ack right after the reception
            answered = (
                index < len(events)
                and events[index].kind is EventKind.RESEND_ACK
                and events[index].seq == event.seq
            )
            if answered:
                index += 1
            taken, refusal = model.step(state, "3:recv_data", event.seq)
            if taken is not None and answered != (
                len(taken.target.c_rs) > len(state.c_rs)
            ):
                taken, refusal = None, (
                    f"fresh data {event.seq} answered as duplicate"
                    if answered
                    else f"duplicate {event.seq} accepted without a (v,v) ack"
                )
        elif kind is EventKind.SEND_ACK:
            # the receiver slides vr over its whole run (action 4) before
            # it acknowledges the block (action 5)
            after = state
            advanced, _ = model.step(after, "4:advance_vr")
            while advanced is not None:
                after = advanced.target
                advanced, _ = model.step(after, "4:advance_vr")
            taken, refusal = model.step(after, "5:send_ack", pair)
        elif kind is EventKind.DROP:
            if event.seq_hi is None:
                taken, refusal = model.step(state, "env:lose_data", event.seq)
            else:
                taken, refusal = model.step(state, "env:lose_ack", pair)
        else:  # TIMEOUT, DELIVER, WINDOW_OPEN, ACCEPT, NOTE: bookkeeping
            continue
        if taken is None:
            report.errors.append(f"{event.format().strip()}: {refusal}")
            continue
        state = taken.target
        report.steps += 1
        clauses = check_invariant(state, window)
        if clauses:
            report.invariant_violations.append(
                f"after {event.format().strip()}: {'; '.join(clauses)}"
            )
    report.final_state = state
    return report


def check_refinement(
    window: int,
    total: int,
    seed: int,
    timeout_mode: str = "per_message_safe",
    loss: float = 0.08,
    spread: float = 1.2,
) -> RefinementReport:
    """Run one traced timed transfer and replay it against the spec."""
    from repro.channel.delay import UniformDelay
    from repro.channel.impairments import BernoulliLoss, NoLoss
    from repro.protocols.blockack import BlockAckReceiver, BlockAckSender
    from repro.sim.runner import LinkSpec, run_transfer
    from repro.workloads.sources import GreedySource

    sender = BlockAckSender(window, timeout_mode=timeout_mode)
    if timeout_mode == "oracle":
        sender.timeout_period = 0.25
    receiver = BlockAckReceiver(window)
    low = max(0.0, 1.0 - spread / 2)
    link = lambda: LinkSpec(
        delay=UniformDelay(low, 1.0 + spread / 2),
        loss=BernoulliLoss(loss) if loss > 0 else NoLoss(),
    )
    result = run_transfer(
        sender, receiver, GreedySource(total),
        forward=link(), reverse=link(), seed=seed,
        trace=True, record_channel_drops=True, max_time=1_000_000.0,
    )
    if not (result.completed and result.in_order):
        report = RefinementReport()
        report.errors.append(f"transfer itself failed: {result.summary()}")
        return report
    return replay_trace(result.trace.events, window)
