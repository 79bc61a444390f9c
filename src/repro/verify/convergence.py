"""Corrupted-initial-state convergence checking (self-stabilization, E16's twin).

The runtime half of the self-stabilization story injects
:class:`~repro.robustness.corruption.StateCorruption` into live endpoints
and watches the guard/repair hooks recover (see
:mod:`repro.robustness.corruption` and PROTOCOL.md §9).  This module is
the exhaustive half: it replays the same corruption model against the
*abstract* protocol of :mod:`repro.verify.actions` and proves, for small
windows, that every corrupted state the fault injector can produce is
driven back into the legitimate set — Dolev-style closure plus
convergence, checked by explicit-state search instead of sampled by
simulation.

The method runs the runtime repair rules themselves:

1. the states of the :class:`~repro.verify.explorer.Explorer` graph with
   loss on are the **legitimate set** and the **origins** (corruption
   strikes a running system; the payload/buffer stores survive);
2. each origin, moved to an even and an odd offset of at least ``2w``,
   is corrupted at the runtime model's sites — the sender's ``na``
   cursor, its ``ackd`` record, the receiver's ``vr`` cursor and buffer;
3. the **repair** loads the corrupted state into a
   :class:`~repro.core.window.SenderWindow` and a
   :class:`~repro.core.window.ReceiverWindow` and runs their own
   ``repair``, the rules E16's endpoints run.  The sender's payload store
   is a witness ledger both ways (a held payload proves its number
   unacknowledged, an absent one below the send horizon proves it
   acknowledged).  The receiver's store bounds ``vr`` from above, and
   the receiver drops a held payload that ``rcvd`` does not list;
4. a repaired state converges if, normalised, it is legitimate, or if
   every loss-free execution from it (the fairness assumption) reaches
   the legitimate set without meeting a terminal state outside it.
   Transient invariant violations on the way are counted, not flagged.

Run the checker from the command line (the CI ``verify`` job does, at
w = 2 and 3)::

    python -m repro.verify.convergence --window 2
"""

from __future__ import annotations

import argparse
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from repro.core.window import ReceiverWindow, SenderWindow
from repro.verify.actions import TIMEOUT_MODES, AbstractProtocolModel
from repro.verify.explorer import Explorer
from repro.verify.invariants import check_invariant
from repro.verify.state import SystemState

__all__ = [
    "CorruptionScenario",
    "ConvergenceReport",
    "sender_witness",
    "receiver_witness",
    "repair_state",
    "corrupt_scenarios",
    "check_convergence",
    "main",
]


# ----------------------------------------------------------------------
# witnesses: what the payload stores prove about the truth
# ----------------------------------------------------------------------


def sender_witness(state: SystemState) -> frozenset:
    """Sequence numbers whose payloads the sender still holds.

    Every concrete sender releases a payload exactly when its number is
    acknowledged, so the held set *is* the unacknowledged set — the
    witness the runtime repair rules consult.  Cursor corruption never
    touches the store, so the witness is computed from the origin truth.
    """
    return frozenset(
        s for s in range(state.na, state.ns) if not state.is_ackd(s)
    )


def receiver_witness(state: SystemState) -> frozenset:
    """Sequence numbers whose payloads the receiver has buffered.

    The accepted run ``[nr, vr)`` plus the out-of-order ``rcvd`` entries:
    everything received but not yet taken by a block acknowledgment.
    """
    return frozenset(range(state.nr, state.vr)) | frozenset(state.rcvd)


# ----------------------------------------------------------------------
# the repair: the endpoints' own rules, run on the abstract state
# ----------------------------------------------------------------------


def repair_state(
    state: SystemState,
    unacked: frozenset,
    buffered: frozenset,
) -> Tuple[SystemState, List[str]]:
    """Run the shipping guard/repair rules on an abstract state.

    The state's counters and records are loaded into a
    :class:`~repro.core.window.SenderWindow` and a
    :class:`~repro.core.window.ReceiverWindow`, with ``unacked`` and
    ``buffered`` as their payload stores (corruption mutates cursors and
    records, never the stores).  Their own ``repair`` methods run, as
    E16's endpoints run them, and the repaired state is read back.
    Returns it with the repairs the two windows report.
    """
    # neither repair reads the window size
    sender = SenderWindow(1)
    sender.na, sender.ns = state.na, state.ns
    sender._ackd = set(state.ackd)
    receiver = ReceiverWindow(1)
    receiver.nr, receiver.vr = state.nr, state.vr
    receiver._rcvd = set(state.rcvd)
    receiver._payloads = dict.fromkeys(buffered)
    repairs = sender.repair(unacked) + receiver.repair()
    repaired = state.replace(
        na=sender.na,
        ns=sender.ns,
        ackd=frozenset(sender._ackd),
        nr=receiver.nr,
        vr=receiver.vr,
        rcvd=frozenset(receiver._rcvd),
    )
    return repaired, repairs


# ----------------------------------------------------------------------
# the corruption model (mirrors repro.robustness.corruption's sites)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class CorruptionScenario:
    """One corrupted-initial-state scenario: origin, mutation, repair."""

    origin: SystemState
    site: str
    detail: str
    corrupted: SystemState
    repaired: SystemState
    repairs: tuple


def corrupt_scenarios(
    state: SystemState, window: int
) -> Iterator[CorruptionScenario]:
    """All corruptions of ``state`` at the runtime injector's sites."""
    unacked = sender_witness(state)
    buffered = receiver_witness(state)

    def scenario(site: str, detail: str, corrupted: SystemState):
        repaired, repairs = repair_state(corrupted, unacked, buffered)
        return CorruptionScenario(
            origin=state,
            site=site,
            detail=detail,
            corrupted=corrupted,
            repaired=repaired,
            repairs=tuple(repairs),
        )

    # sender.window: bit-flip, randomized-in-domain extremes, worst-case
    na_variants = {state.na ^ 1, 0, state.ns, state.ns + window}
    for bad in sorted(na_variants - {state.na}):
        if bad < 0:
            continue
        yield scenario(
            "sender.window", f"na={bad}", state.replace(na=bad)
        )

    # sender.acks: every single-flag flip, all-set, all-clear
    for seq in range(state.na, state.ns):
        flipped = set(state.ackd) ^ {seq}
        yield scenario(
            "sender.acks",
            f"flip ackd[{seq}]",
            state.replace(ackd=frozenset(flipped)),
        )
    if state.ns > state.na:
        yield scenario(
            "sender.acks",
            "ackd all set",
            state.replace(ackd=frozenset(range(state.na, state.ns))),
        )
        if state.ackd:
            yield scenario(
                "sender.acks", "ackd wiped", state.replace(ackd=frozenset())
            )

    # receiver.window: vr jumps and a buffer wipe
    vr_variants = {state.vr ^ 1, state.nr, state.nr + window}
    for bad in sorted(vr_variants - {state.vr}):
        if bad < 0:
            continue
        yield scenario(
            "receiver.window", f"vr={bad}", state.replace(vr=bad)
        )
    if state.rcvd:
        yield scenario(
            "receiver.window",
            "buffers wiped",
            state.replace(rcvd=frozenset()),
        )


# ----------------------------------------------------------------------
# convergence checking
# ----------------------------------------------------------------------


@dataclass
class ConvergenceReport:
    """Outcome of one corrupted-initial-state convergence sweep."""

    window: int = 0
    timeout_mode: str = ""
    origins: int = 0
    scenarios: int = 0
    unique_repaired: int = 0
    already_legitimate: int = 0  # unique repaired states in the legitimate set
    states_explored: int = 0
    transient_violations: int = 0  # expected: re-convergence is not atomic
    diverged: List[Tuple[CorruptionScenario, SystemState]] = field(
        default_factory=list
    )
    truncated: bool = False

    @property
    def ok(self) -> bool:
        return not self.diverged and not self.truncated

    def summary(self) -> str:
        status = "OK" if self.ok else "FAILED"
        return (
            f"{status} [{self.timeout_mode}]: w={self.window}, "
            f"{self.origins} origins, "
            f"{self.scenarios} corruption scenarios, "
            f"{self.unique_repaired} unique repaired states "
            f"({self.already_legitimate} already legitimate), "
            f"{self.states_explored} states explored, "
            f"{self.transient_violations} transient violations, "
            f"{len(self.diverged)} divergences"
            + (" (truncated)" if self.truncated else "")
        )


def check_convergence(
    window: int,
    timeout_mode: str = "per_message",
    max_states: int = 2_000_000,
) -> ConvergenceReport:
    """Prove every injectable corruption re-converges, exhaustively.

    Origins and the legitimate set are the explorer's graph under the
    full fault model (loss allowed); re-convergence runs under the
    paper's fairness assumption (no loss), matching the runtime
    watchdog's premise that repairs outpace fresh faults.  A scenario
    **diverges** when some execution from its repaired state reaches a
    terminal state outside the legitimate set (a deadlock, or a wedged
    configuration the repair rules missed).
    """
    report = ConvergenceReport(window=window, timeout_mode=timeout_mode)
    explorer = Explorer(
        AbstractProtocolModel(window, timeout_mode, allow_loss=True),
        max_states=max_states,
        stop_at_first_violation=False,
    )
    report.truncated = explorer.run().truncated
    legitimate = explorer.reached
    report.origins = len(legitimate)
    recovery_model = AbstractProtocolModel(
        window, timeout_mode, allow_loss=False
    )

    # many corruptions repair to the same normalised state; one search
    # from every repaired state outside the legitimate set covers them all
    recovered_from: Dict[SystemState, CorruptionScenario] = {}
    frontier: deque = deque()
    for origin in legitimate:
        for offset in (2 * window, 2 * window + 1):
            for scenario in corrupt_scenarios(origin.shifted(offset), window):
                report.scenarios += 1
                repaired = scenario.repaired.shifted(-scenario.repaired.na)
                if repaired not in recovered_from:
                    recovered_from[repaired] = scenario
                    report.unique_repaired += 1
                    if repaired in legitimate:
                        report.already_legitimate += 1
                    else:
                        frontier.append(repaired)

    while frontier:
        if report.states_explored >= max_states:
            report.truncated = True
            break
        state = frontier.popleft()
        report.states_explored += 1
        if check_invariant(state, window):
            report.transient_violations += 1
        enabled = recovery_model.protocol_transitions(state)
        if not enabled:
            report.diverged.append((recovered_from[state], state))
        for transition in enabled:
            target = transition.target
            successor = target.shifted(-target.na)
            if successor not in legitimate and successor not in recovered_from:
                recovered_from[successor] = recovered_from[state]
                frontier.append(successor)
    return report


# ----------------------------------------------------------------------
# command-line entry point (the CI verify job)
# ----------------------------------------------------------------------


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=(
            "exhaustively check convergence from corrupted initial states"
        )
    )
    parser.add_argument("--window", type=int, default=2)
    parser.add_argument(
        "--timeout-mode",
        choices=TIMEOUT_MODES[:2] + ("both",),
        default="both",
        help="which timeout guard to check (default: both safe modes)",
    )
    parser.add_argument("--max-states", type=int, default=2_000_000)
    args = parser.parse_args(argv)

    modes = (
        ("simple", "per_message")
        if args.timeout_mode == "both"
        else (args.timeout_mode,)
    )
    ok = True
    for mode in modes:
        report = check_convergence(
            args.window, timeout_mode=mode, max_states=args.max_states
        )
        print(report.summary())
        for scenario, terminal in report.diverged[:5]:
            print(
                f"  diverged: {scenario.site}[{scenario.detail}] from "
                f"{scenario.origin.describe()}"
            )
            print(f"    wedged at {terminal.describe()}")
        ok = ok and report.ok
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
