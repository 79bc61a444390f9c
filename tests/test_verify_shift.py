"""Shift invariance of the abstract model, which normalising by ``na`` needs.

Moving every number of a state by the same ``k`` changes neither the
invariant's verdict nor the successors, up to the same move.  So the
reachable states of the unbounded protocol, each shifted by ``-na``,
form a finite graph.  The states checked here are those that E8's
bounded configurations reach: ``SendBounded`` rebuilds them with a plain
breadth-first search.
"""

from collections import deque

import pytest

from repro.verify.actions import TIMEOUT_MODES, AbstractProtocolModel
from repro.verify.explorer import Explorer
from repro.verify.invariants import check_invariant
from repro.verify.state import SystemState

#: (window, send bound, timeout mode, loss) and the states each reaches
BOUNDED_CONFIGS = {
    (1, 3, "simple", True): 25,
    (1, 3, "per_message", True): 25,
    (2, 4, "simple", True): 138,
    (2, 4, "per_message", True): 147,
    (2, 5, "simple", True): 181,
    (3, 5, "simple", False): 195,
}

SHIFTS = (1, 2, 7)


def shift(state, k):
    """``state`` with every counter, record entry and in-transit number + k."""
    return SystemState(
        na=state.na + k,
        ns=state.ns + k,
        nr=state.nr + k,
        vr=state.vr + k,
        ackd=frozenset(m + k for m in state.ackd),
        rcvd=frozenset(m + k for m in state.rcvd),
        c_sr=tuple(m + k for m in state.c_sr),
        c_rs=tuple((lo + k, hi + k) for lo, hi in state.c_rs),
    )


def model(window, mode, allow_loss=True, cls=AbstractProtocolModel):
    """The model with no send bound that any state here can reach."""
    return cls(window, timeout_mode=mode, allow_loss=allow_loss)


class SendBounded(AbstractProtocolModel):
    """The model with the old send bound: action 0 also needs ``ns < bound``."""

    bound = 0

    def _send(self, state):
        if state.ns < self.bound:
            yield from super()._send(state)


def reach(model, limit=None):
    """Every state reachable from the initial one, by plain BFS."""
    start = model.initial()
    seen = {start: None}
    frontier = deque([start])
    while frontier and (limit is None or len(seen) < limit):
        for transition in model.transitions(frontier.popleft()):
            if transition.target not in seen:
                seen[transition.target] = None
                frontier.append(transition.target)
    return list(seen)


def bounded_states(window, bound, mode, allow_loss):
    bounded = model(window, mode, allow_loss, cls=SendBounded)
    bounded.bound = bound
    return reach(bounded)


@pytest.fixture(scope="module")
def reached():
    """E8's bounded configurations, each with the states it reaches."""
    return {
        config: bounded_states(*config) for config in BOUNDED_CONFIGS
    }


def test_bounded_reference_reproduces_e8_counts(reached):
    counts = {config: len(states) for config, states in reached.items()}
    assert counts == BOUNDED_CONFIGS


def test_invariant_verdict_is_shift_invariant(reached):
    # the impatient ablation's first states include violating ones, so
    # both verdicts are exercised
    impatient = reach(model(2, "impatient"), limit=300)
    assert any(check_invariant(state, 2) for state in impatient)
    cases = [(2, state) for state in impatient]
    for (window, *_), states in reached.items():
        cases.extend((window, state) for state in states)
    for window, state in cases:
        verdict = bool(check_invariant(state, window))
        assert bool(check_invariant(shift(state, -state.na), window)) == verdict
        for k in SHIFTS:
            assert bool(check_invariant(shift(state, k), window)) == verdict


@pytest.mark.parametrize("mode", TIMEOUT_MODES)
def test_successors_of_a_shifted_state_are_the_shifted_successors(
    reached, mode
):
    states = {
        (window, allow_loss, state)
        for (window, _, _, allow_loss), found in reached.items()
        for state in found
    }
    models = {}
    for window, allow_loss, state in states:
        key = (window, allow_loss)
        if key not in models:
            models[key] = model(window, mode, allow_loss)
        checked = models[key]
        successors = [
            (t.action, t.target) for t in checked.transitions(state)
        ]
        for k in (-state.na,) + SHIFTS:
            moved = [
                (t.action, t.target)
                for t in checked.transitions(shift(state, k))
            ]
            assert moved == [
                (action, shift(target, k)) for action, target in successors
            ]


def test_shifted_moves_every_number(reached):
    for states in reached.values():
        for state in states:
            for k in (-state.na,) + SHIFTS:
                assert state.shifted(k) == shift(state, k)


def test_bounded_states_lie_in_the_normalised_graph(reached):
    for (window, _, mode, allow_loss), states in reached.items():
        explorer = Explorer(
            AbstractProtocolModel(window, mode, allow_loss),
            stop_at_first_violation=False,
        )
        assert explorer.run().ok
        graph = explorer.reached
        assert all(state.shifted(-state.na) in graph for state in states)
