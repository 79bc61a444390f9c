"""Paper assertions 6, 7, 8 — the protocol's safety invariant, verbatim.

Each assertion is a predicate over a :class:`~repro.verify.state.SystemState`;
:func:`check_invariant` evaluates all three and returns the list of
violated clauses (empty when the state satisfies the invariant).  The
explorer calls it at every reachable state of its graph, the one that
E8, E9 and ``blockack check`` read; the refinement replay calls it
after every replayed trace step, and the convergence checker at every
state of a recovery search, where it counts transient violations.

Assertion 6 — counter ordering and window bound::

    na <= nr <= vr <= ns <= na + w

Assertion 7 — record bookkeeping::

    (∀m: ¬ackd[m] : m >= na)        -- everything below na is acked
    (∀m: ackd[m]  : m < nr)         -- only accepted messages are acked
    ¬ackd[na]                       -- na itself is never acked
    (∀m: rcvd[m]  : m < ns)         -- only sent messages are received
    (∀m: ¬rcvd[m] : m >= vr)        -- everything below vr is received

Assertion 8 — channel contents::

    (∀m: *SR^m + *RS^m <= 1)                          -- at most one copy
    (∀m: *SR^m > 0 : m < ns ∧ ¬ackd[m]
                       ∧ (m < nr ∨ ¬rcvd[m]))          -- data in transit
    (∀m: *RS^m > 0 : m < nr ∧ ¬ackd[m])               -- acks in transit

Quantifiers range over all sequence numbers, but with the canonical state
representation only finitely many values can violate any clause, so each
check is a bounded scan.
"""

from __future__ import annotations

from typing import List

from repro.verify.state import SystemState

__all__ = [
    "assertion_6",
    "assertion_7",
    "assertion_8",
    "assertion_9_10_11",
    "check_invariant",
    "InvariantViolation",
]


class InvariantViolation(AssertionError):
    """Raised by :func:`require_invariant` when a state breaks the invariant."""

    def __init__(self, state: SystemState, clauses: List[str]) -> None:
        self.state = state
        self.clauses = clauses
        super().__init__(
            f"invariant violated: {'; '.join(clauses)} in state {state.describe()}"
        )


def assertion_6(state: SystemState, window: int) -> List[str]:
    """Counter ordering ``na <= nr <= vr <= ns <= na + w``."""
    failures = []
    if not state.na <= state.nr:
        failures.append(f"6: na={state.na} > nr={state.nr}")
    if not state.nr <= state.vr:
        failures.append(f"6: nr={state.nr} > vr={state.vr}")
    if not state.vr <= state.ns:
        failures.append(f"6: vr={state.vr} > ns={state.ns}")
    if not state.ns <= state.na + window:
        failures.append(f"6: ns={state.ns} > na+w={state.na + window}")
    return failures


def assertion_7(state: SystemState) -> List[str]:
    """Record bookkeeping for ``ackd`` and ``rcvd``."""
    failures = []
    # ∀m: ¬ackd[m] : m >= na  — canonical form guarantees entries >= na, but
    # the clause also demands everything below na IS acked, which the
    # canonical representation makes true by construction; what remains
    # checkable is the explicit entries.
    if any(m < state.na for m in state.ackd):  # defensive: canonical breach
        failures.append("7: ackd entry below na")
    if any(m >= state.nr for m in state.ackd) or state.na > state.nr:
        failures.append("7: ackd[m] for m >= nr (only accepted may be acked)")
    if state.na in state.ackd:
        failures.append(f"7: ackd[na] with na={state.na}")
    if any(m >= state.ns for m in state.rcvd) or state.vr > state.ns:
        failures.append("7: rcvd[m] for m >= ns (only sent may be received)")
    if any(m < state.vr for m in state.rcvd):  # defensive: canonical breach
        failures.append("7: rcvd entry below vr")
    return failures


def assertion_8(state: SystemState) -> List[str]:
    """Channel-content constraints."""
    failures = []
    touched = set(state.c_sr)
    for lo, hi in state.c_rs:
        touched.update(range(lo, hi + 1))
    for m in sorted(touched):
        copies = state.count_sr(m) + state.count_rs(m)
        if copies > 1:
            failures.append(f"8: {copies} copies of {m} in transit")
        if state.count_sr(m) > 0:
            if not (m < state.ns and not state.is_ackd(m)):
                failures.append(
                    f"8: data {m} in C_SR but ns={state.ns}, ackd={state.is_ackd(m)}"
                )
            if not (m < state.nr or not state.is_rcvd(m)):
                failures.append(f"8: data {m} in C_SR but rcvd and m >= nr")
        if state.count_rs(m) > 0:
            if not (m < state.nr and not state.is_ackd(m)):
                failures.append(
                    f"8: ack for {m} in C_RS but nr={state.nr}, ackd={state.is_ackd(m)}"
                )
    return failures


def assertion_9_10_11(state: SystemState, window: int) -> List[str]:
    """The Section V decode preconditions, checked directly.

    The paper derives these from 6 ∧ 8; checking them verbatim in every
    reachable state validates the exact ranges that make the mod-2w
    reconstruction function ``f`` correct:

    * 9/10 — every ack pair ``(i, j)`` in transit satisfies
      ``na <= i`` and ``j < na + w`` (the sender decodes with reference
      ``na``);
    * 11 — every data number ``v`` in transit satisfies
      ``max(0, nr - w) <= v < nr + w`` (the receiver decodes with
      reference ``max(0, nr - w)``).
    """
    failures = []
    for lo, hi in state.c_rs:
        if not (state.na <= lo and hi < state.na + window):
            failures.append(
                f"9/10: ack ({lo},{hi}) outside [na, na+w) = "
                f"[{state.na}, {state.na + window})"
            )
    low = max(0, state.nr - window)
    for v in state.c_sr:
        if not (low <= v < state.nr + window):
            failures.append(
                f"11: data {v} outside [max(0,nr-w), nr+w) = "
                f"[{low}, {state.nr + window})"
            )
    return failures


def check_invariant(state: SystemState, window: int) -> List[str]:
    """Evaluate 6 ∧ 7 ∧ 8 plus the Section-V decode ranges (9-11).

    Returns the violated clauses (empty = the full invariant holds).
    """
    return (
        assertion_6(state, window)
        + assertion_7(state)
        + assertion_8(state)
        + assertion_9_10_11(state, window)
    )


def require_invariant(state: SystemState, window: int) -> None:
    """Raise :class:`InvariantViolation` unless the invariant holds."""
    clauses = check_invariant(state, window)
    if clauses:
        raise InvariantViolation(state, clauses)
