"""Explicit-state exploration of every execution of the abstract protocol.

:class:`Explorer` performs breadth-first search from the initial state of
an :class:`~repro.verify.actions.AbstractProtocolModel`, storing each
successor shifted by ``-na``.  The model is shift-invariant, so the graph
of these normalised states is finite and holds every reachable state of
the *unbounded* protocol, up to a shift.  One pass reports the paper's
invariant (assertions 6 ∧ 7 ∧ 8 and the Section-V ranges 9-11) and
deadlocks in every state, the ranges of in-transit numbers (E8), and
progress (E9): the edges that lower ``na + ns + nr + vr``, and a
loss-free cycle that leaves ``na`` in place, if any.  With neither, and
no deadlock, every execution with finitely many losses advances ``na``
forever.  Every violation, deadlock and cycle comes with a witness that
re-runs the model from the initial state in absolute numbers.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from graphlib import CycleError, TopologicalSorter
from typing import Dict, KeysView, List, Optional, Sequence, Tuple

from repro.verify.actions import AbstractProtocolModel, Transition
from repro.verify.invariants import check_invariant
from repro.verify.state import SystemState

__all__ = ["Explorer", "ExplorationReport"]


@dataclass
class ExplorationReport:
    """Outcome of one exhaustive state-space exploration."""

    states_explored: int = 0
    transitions_explored: int = 0
    invariant_violations: List[Tuple[SystemState, List[str]]] = field(
        default_factory=list
    )
    deadlocks: List[SystemState] = field(default_factory=list)
    truncated: bool = False  # hit max_states before exhausting the space
    max_channel_occupancy: int = 0
    data_range: Optional[Tuple[int, int]] = None  # in-transit data - nr
    ack_range: Optional[Tuple[int, int]] = None  # in-transit ack bounds - na
    potential_drops: int = 0  # edges along which na+ns+nr+vr falls
    # witness of a loss-free cycle that leaves na in place, if any
    stall_cycle: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """No violation, deadlock, falling potential or stalling cycle."""
        return not (
            self.invariant_violations
            or self.deadlocks
            or self.potential_drops
            or self.stall_cycle
        )

    def summary(self) -> str:
        status = "OK" if self.ok else "FAILED"
        cycle = "a" if self.stall_cycle else "no"
        return (
            f"{status}: {self.states_explored} states, "
            f"{self.transitions_explored} transitions, "
            f"{len(self.invariant_violations)} invariant violations, "
            f"{len(self.deadlocks)} deadlocks, "
            f"{self.potential_drops} potential-lowering edges, "
            f"{cycle} loss-free cycle that leaves na in place"
            + (" (truncated)" if self.truncated else "")
        )


def _find_cycle(
    edges: Dict[SystemState, List[Transition]]
) -> Optional[Tuple[SystemState, List[Transition]]]:
    """One cycle of the graph ``edges`` as (its first state, its steps)."""
    # the sorter reads each list as predecessors, so it reports the
    # cycle backwards
    graph = {state: [t.target for t in out] for state, out in edges.items()}
    try:
        TopologicalSorter(graph).prepare()
    except CycleError as error:
        states = error.args[1][::-1]
        steps = [
            next(t for t in edges[state] if t.target == after)
            for state, after in zip(states, states[1:])
        ]
        return states[0], steps
    return None


class Explorer:
    """Breadth-first explicit-state model checker over normalised states."""

    def __init__(
        self,
        model: AbstractProtocolModel,
        max_states: int = 2_000_000,
        stop_at_first_violation: bool = True,
    ) -> None:
        self.model = model
        self.max_states = max_states
        self.stop_at_first_violation = stop_at_first_violation
        self._parent: Dict[SystemState, Optional[Tuple[SystemState, Transition]]] = {}

    @property
    def reached(self) -> KeysView[SystemState]:
        """The normalised states the last :meth:`run` reached."""
        return self._parent.keys()

    def run(self) -> ExplorationReport:
        """Explore all reachable states; return the report."""
        report = ExplorationReport()
        start = self.model.initial()
        frontier = deque([start])
        self._parent = {start: None}
        stalls: Dict[SystemState, List[Transition]] = {}

        while frontier:
            if report.states_explored >= self.max_states:
                report.truncated = True
                break
            state = frontier.popleft()
            report.states_explored += 1

            clauses = check_invariant(state, self.model.window)
            if clauses:
                report.invariant_violations.append((state, clauses))
                if self.stop_at_first_violation:
                    break
                continue  # don't expand corrupted states

            transitions = list(self.model.transitions(state))
            if all(t.is_environment for t in transitions):
                report.deadlocks.append(state)
                if self.stop_at_first_violation:
                    break

            potential = state.na + state.ns + state.nr + state.vr
            for transition in transitions:
                report.transitions_explored += 1
                target = transition.target
                if target.na + target.ns + target.nr + target.vr < potential:
                    report.potential_drops += 1
                if target.na == state.na and not transition.is_environment:
                    stalls.setdefault(state, []).append(transition)
                successor = target.shifted(-target.na)
                if successor not in self._parent:
                    self._parent[successor] = (state, transition)
                    frontier.append(successor)

        # the explored states: the frontier pops in discovery order
        states = list(self._parent)[: report.states_explored]
        report.max_channel_occupancy = max(
            (len(s.c_sr) + len(s.c_rs) for s in states), default=0
        )
        data = [m - s.nr for s in states for m in s.c_sr]
        acks = [bound - s.na for s in states for pair in s.c_rs for bound in pair]
        report.data_range = (min(data), max(data)) if data else None
        report.ack_range = (min(acks), max(acks)) if acks else None
        cycle = _find_cycle(stalls)
        if cycle is not None:
            report.stall_cycle = self._replay(*cycle)
        return report

    def witness(self, state: SystemState) -> List[str]:
        """Replayable trace from the initial state to ``state``.

        Each line is ``action[detail]  =>  state description``, in absolute
        numbers, ending at ``state`` shifted by its ``na`` on that path.
        Raises KeyError for a state the most recent :meth:`run` did not
        reach.
        """
        return self._replay(state)

    def _replay(
        self, state: SystemState, loop: Sequence[Transition] = ()
    ) -> List[str]:
        """Lines re-running the path to ``state``, then ``loop``, if any.

        Each stored step left a normalised state: its target, moved by the
        current ``na``, picks the model's own transition, whose label
        carries absolute numbers.
        """
        path: List[Transition] = []
        link = self._parent[state]
        while link is not None:
            state, step = link
            path.append(step)
            link = self._parent[state]
        path.reverse()
        current = self.model.initial()
        lines = [f"initial  =>  {current.describe()}"]
        for n, step in enumerate(path + list(loop)):
            if n == len(path):
                lines.append("-- loss-free cycle, na stays --")
            target = step.target.shifted(current.na)
            taken = next(
                t
                for t in self.model.transitions(current)
                if t.action == step.action and t.target == target
            )
            lines.append(f"{taken}  =>  {target.describe()}")
            current = target
        return lines
