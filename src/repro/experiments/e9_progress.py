"""E9 — progress: the potential function grows in every execution.

Claim (Section III-B): the sum ``na + ns + nr + vr`` is incremented
infinitely often — the sender sends new messages and the receiver accepts
new messages forever — under action fairness, provided (Section III-C)
"there are long periods of time during which no sent message is lost".

The experiment reads E8's graphs and checks that no state is a deadlock,
that no edge (loss included) lowers the sum, and that no loss-free cycle
leaves ``na`` in place.  An execution with finitely many losses is
eventually loss-free and never stops, so in a finite graph without such
a cycle it advances ``na``, and with it (assertion 6) the sum, forever,
with no fairness needed among the protocol's actions.  The ablation, a
*deaf receiver* that consumes data without recording it, loops forever,
and the check reports that cycle with a witness.
"""

from __future__ import annotations

from typing import Iterator

from repro.analysis.report import render_table
from repro.experiments.common import ExperimentResult, ExperimentSpec
from repro.verify.actions import AbstractProtocolModel, Transition
from repro.verify.explorer import Explorer
from repro.verify.state import SystemState

__all__ = ["EXPERIMENT", "DeafReceiverModel"]


class DeafReceiverModel(AbstractProtocolModel):
    """Ablation: action 3 consumes a data message and records nothing."""

    def _recv_data(self, state: SystemState) -> Iterator[Transition]:
        for seq in sorted(set(state.c_sr)):
            yield Transition(
                "3!:deaf_recv", f"data {seq}", state.with_sr_removed(seq)
            )


def _explore(label: str, model: AbstractProtocolModel, rows: list):
    """Explore ``model`` and add its row to ``rows``; return the report."""
    report = Explorer(model, stop_at_first_violation=False).run()
    rows.append(
        (label, report.states_explored, report.transitions_explored,
         len(report.deadlocks), report.potential_drops,
         bool(report.stall_cycle))
    )
    return report


def run(quick: bool = False) -> ExperimentResult:
    windows = range(1, 3 if quick else 6)

    rows = []
    data = {}
    for window in windows:
        for mode in ("simple", "per_message"):
            label = f"w={window} {mode} +loss"
            report = _explore(label, AbstractProtocolModel(window, mode), rows)
            data[label] = report.ok and not report.truncated
    deaf = _explore("w=2 deaf receiver (ablation)", DeafReceiverModel(2), rows)

    table = render_table(
        ["configuration", "states", "edges", "deadlocks",
         "potential-lowering edges", "loss-free cycle leaving na"],
        rows,
        title="progress over every reachable state, normalised by na",
    )
    witness = "\n".join(
        ["", "deaf-receiver cycle witness:"]
        + [f"  {line}" for line in deaf.stall_cycle]
    )
    findings = [
        f"no reachable state is a deadlock (w = 1-{windows[-1]}, both "
        "timeout variants, loss enabled)",
        "no edge, loss included, lowers the potential function "
        "na+ns+nr+vr — the paper's progress measure never falls",
        "the loss-free edges that leave na in place form no cycle, so "
        "every execution with finitely many losses (the paper's 'long "
        "periods with no loss') advances na, and the sum, forever",
        "ablation: a receiver that consumes data without recording it "
        "loops without loss and without advancing na; the check reports "
        "the cycle (witness below)",
    ]
    return ExperimentResult(
        exp_id="E9",
        title="Progress in every execution with finitely many losses",
        claim=EXPERIMENT.claim,
        table=table + witness,
        data=data,
        findings=findings,
        reproduced=all(data.values()) and bool(deaf.stall_cycle),
    )


EXPERIMENT = ExperimentSpec(
    exp_id="E9",
    title="The sum na+ns+nr+vr increments infinitely often",
    claim=(
        "Section III-B/C: the protocol makes progress — actions 0 and 5 "
        "execute infinitely often under fairness, provided loss is not "
        "continuous; the proof's potential function is na+ns+nr+vr."
    ),
    run=run,
)
