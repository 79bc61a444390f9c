"""The paper's guarded-command actions as explorable transitions.

:class:`AbstractProtocolModel` is the Section-II/Section-IV system verbatim:
six protocol actions (0-5) plus environment actions for message loss.
Given a state it enumerates every enabled transition, in absolute numbers;
the explorer consumes that enumeration, and keeps the unbounded protocol's
reachable set finite by shifting every state by ``-na``.

Timeout modes
-------------

``simple``
    Paper Section II, action 2::

        timeout ≡ (na ≠ ns) ∧ (C_SR = {}) ∧ (C_RS = {}) ∧ ¬rcvd[nr]

    The four conjuncts: something is outstanding; nothing is in transit in
    either direction; and the receiver cannot make progress on its own
    (``¬rcvd[nr]`` is false whenever action 4 or 5 of the receiver is
    enabled, because ``rcvd`` is never cleared).  Only then may the sender
    retransmit ``na``.

``per_message``
    Paper Section IV, action 2'::

        timeout(i) ≡ (na ≤ i < ns) ∧ ¬ackd[i] ∧ (*SR^i = 0)
                     ∧ (i < nr ∨ ¬rcvd[i]) ∧ (*RS^i = 0)

    One virtual timer per outstanding message; distinct messages can be
    retransmitted without serialized timeout periods between them.

``impatient``
    A deliberately broken guard — retransmit whenever anything is
    outstanding.  Violates assertion 8 (two copies of one message in
    transit); exists so the model checker can show the invariant is not
    vacuous (E8 ablation).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.verify.state import SystemState, initial_state

__all__ = ["Transition", "AbstractProtocolModel", "TIMEOUT_MODES"]

TIMEOUT_MODES = ("simple", "per_message", "impatient")


@dataclass(frozen=True)
class Transition:
    """One enabled action instance: a label plus the successor state."""

    action: str  # which paper action (e.g. "0:send", "3:recv_data")
    detail: str  # instance detail (which message), for witness traces
    target: SystemState
    is_environment: bool = False  # loss actions: environment, not protocol

    def __str__(self) -> str:
        return f"{self.action}[{self.detail}]" if self.detail else self.action


class AbstractProtocolModel:
    """The abstract block-acknowledgment protocol as a transition system.

    Parameters
    ----------
    window:
        The paper's ``w``.
    timeout_mode:
        One of :data:`TIMEOUT_MODES`; see module docstring.
    allow_loss:
        If True, environment transitions that lose any in-transit message
        are included (the paper's fault model).
    """

    def __init__(
        self,
        window: int,
        timeout_mode: str = "simple",
        allow_loss: bool = True,
    ) -> None:
        if window <= 0:
            raise ValueError(f"window must be positive, got {window}")
        if timeout_mode not in TIMEOUT_MODES:
            raise ValueError(
                f"timeout_mode must be one of {TIMEOUT_MODES}, got {timeout_mode!r}"
            )
        self.window = window
        self.timeout_mode = timeout_mode
        self.allow_loss = allow_loss

    def initial(self) -> SystemState:
        return initial_state()

    # ------------------------------------------------------------------
    # transition enumeration
    # ------------------------------------------------------------------

    def transitions(self, state: SystemState) -> Iterator[Transition]:
        """All enabled transitions (protocol first, then environment)."""
        yield from self._send(state)
        yield from self._recv_ack(state)
        yield from self._timeout(state)
        yield from self._recv_data(state)
        yield from self._advance_vr(state)
        yield from self._send_ack(state)
        if self.allow_loss:
            yield from self._losses(state)

    def protocol_transitions(self, state: SystemState) -> list[Transition]:
        """Enabled protocol actions only (deadlock is judged on these)."""
        return [t for t in self.transitions(state) if not t.is_environment]

    # -- action 0: send a new data message -------------------------------

    def _send(self, state: SystemState) -> Iterator[Transition]:
        if state.ns < state.na + self.window:
            target = state.with_sr_added(state.ns).replace(ns=state.ns + 1)
            yield Transition("0:send", f"data {state.ns}", target)

    # -- action 1: receive a block acknowledgment ------------------------

    def _recv_ack(self, state: SystemState) -> Iterator[Transition]:
        seen = set()
        for pair in state.c_rs:
            if pair in seen:  # identical pairs yield identical successors
                continue
            seen.add(pair)
            lo, hi = pair
            after = state.with_rs_removed(pair)
            ackd = set(after.ackd)
            ackd.update(range(lo, hi + 1))
            na = after.na
            while na in ackd:  # paper: do ackd[na] -> na := na + 1 od
                na += 1
            target = after.replace(na=na, ackd=frozenset(ackd))
            yield Transition("1:recv_ack", f"ack ({lo},{hi})", target)

    # -- action 2 / 2': timeout retransmission ---------------------------

    def _timeout(self, state: SystemState) -> Iterator[Transition]:
        if self.timeout_mode == "simple":
            enabled = (
                state.na != state.ns
                and not state.c_sr
                and not state.c_rs
                and not state.is_rcvd(state.nr)
            )
            if enabled:
                yield Transition(
                    "2:timeout", f"resend {state.na}", state.with_sr_added(state.na)
                )
        elif self.timeout_mode == "per_message":
            for seq in range(state.na, state.ns):
                enabled = (
                    not state.is_ackd(seq)
                    and state.count_sr(seq) == 0
                    and (seq < state.nr or not state.is_rcvd(seq))
                    and state.count_rs(seq) == 0
                )
                if enabled:
                    yield Transition(
                        "2':timeout(i)", f"resend {seq}", state.with_sr_added(seq)
                    )
        else:  # impatient: deliberately unsafe
            if state.na != state.ns:
                yield Transition(
                    "2!:impatient", f"resend {state.na}", state.with_sr_added(state.na)
                )

    # -- action 3: receive a data message ---------------------------------

    def _recv_data(self, state: SystemState) -> Iterator[Transition]:
        seen = set()
        for seq in state.c_sr:
            if seq in seen:
                continue
            seen.add(seq)
            after = state.with_sr_removed(seq)
            if seq < after.nr:
                target = after.with_rs_added((seq, seq))
                yield Transition("3:recv_data", f"dup data {seq}", target)
            else:
                target = after.replace(rcvd=after.rcvd | {seq})
                yield Transition("3:recv_data", f"data {seq}", target)

    # -- action 4: slide vr over the received run -------------------------

    def _advance_vr(self, state: SystemState) -> Iterator[Transition]:
        if state.is_rcvd(state.vr):
            target = state.replace(vr=state.vr + 1)
            yield Transition("4:advance_vr", f"vr -> {state.vr + 1}", target)

    # -- action 5: emit the pending block acknowledgment ------------------

    def _send_ack(self, state: SystemState) -> Iterator[Transition]:
        if state.nr < state.vr:
            pair = (state.nr, state.vr - 1)
            target = state.with_rs_added(pair).replace(nr=state.vr)
            yield Transition("5:send_ack", f"ack {pair}", target)

    # -- environment: message loss ----------------------------------------

    def _losses(self, state: SystemState) -> Iterator[Transition]:
        seen = set()
        for seq in state.c_sr:
            if seq in seen:
                continue
            seen.add(seq)
            yield Transition(
                "env:lose_data",
                f"data {seq}",
                state.with_sr_removed(seq),
                is_environment=True,
            )
        seen_pairs = set()
        for pair in state.c_rs:
            if pair in seen_pairs:
                continue
            seen_pairs.add(pair)
            yield Transition(
                "env:lose_ack",
                f"ack {pair}",
                state.with_rs_removed(pair),
                is_environment=True,
            )
