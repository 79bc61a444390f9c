"""The paper's guarded-command actions as explorable transitions.

:class:`AbstractProtocolModel` is the Section-II/Section-IV system verbatim:
six protocol actions (0-5) plus environment actions for message loss.
:meth:`~AbstractProtocolModel.step` writes each action instance's guard
and successor once, and names the conjunct that refuses an instance.
Given a state, the model enumerates every enabled transition through it,
in absolute numbers; the explorer consumes that enumeration, and keeps the
unbounded protocol's reachable set finite by shifting every state by
``-na``.  The refinement replay steps the same definition, one trace
record at a time.

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
from typing import Any, Callable, Dict, Iterable, Iterator, Optional, Tuple

from repro.verify.state import AckPair, SystemState, initial_state

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


#: one action instance taken: the transition, or a refusal naming the
#: conjunct of the guard that fails
Step = Tuple[Optional[Transition], Optional[str]]


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
        #: the label of this mode's action 2, as witness lines print it
        self.timeout_action = {
            "simple": "2:timeout",
            "per_message": "2':timeout(i)",
            "impatient": "2!:impatient",
        }[timeout_mode]
        self._rules: Dict[str, Callable[[SystemState, Any], Step]] = {
            "0:send": self._send_step,
            "1:recv_ack": self._recv_ack_step,
            self.timeout_action: (
                self._timeout_i_step if timeout_mode == "per_message"
                else self._timeout_step
            ),
            "3:recv_data": self._recv_data_step,
            "4:advance_vr": self._advance_vr_step,
            "5:send_ack": self._send_ack_step,
        }
        if allow_loss:
            self._rules["env:lose_data"] = self._lose_data_step
            self._rules["env:lose_ack"] = self._lose_ack_step

    def initial(self) -> SystemState:
        return initial_state()

    # ------------------------------------------------------------------
    # transition enumeration and the one definition of each instance
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

    def step(self, state: SystemState, action: str, message: Any = None) -> Step:
        """Take the instance of ``action`` on ``message`` from ``state``.

        ``message`` is the data number or the ``(lo, hi)`` ack pair the
        instance acts on; action 4 acts on none.  Returns the transition
        and ``None`` when the instance's guard holds, else ``None`` and a
        refusal that names the first conjunct that fails.  This is the one
        definition of every guard and successor: :meth:`transitions`
        enumerates instances through it, and the refinement replay
        (:mod:`repro.verify.refinement`) steps it record by record.
        """
        rule = self._rules.get(action)
        if rule is None:
            raise ValueError(f"this model has no action {action!r}")
        return rule(state, message)

    def _enabled(
        self, state: SystemState, action: str, messages: Iterable[Any]
    ) -> Iterator[Transition]:
        """The instances of ``action`` on ``messages`` whose guards hold."""
        rule = self._rules[action]
        for message in messages:
            transition, _ = rule(state, message)
            if transition is not None:
                yield transition

    # Each action below has a generator that names the instances a state
    # can enable, which subclasses override to change the action, and a
    # rule that writes an instance's guard and successor.  Copies of one
    # message in transit have one successor, so each distinct message is
    # one instance.

    # -- action 0: send a new data message -------------------------------

    def _send(self, state: SystemState) -> Iterator[Transition]:
        return self._enabled(state, "0:send", (state.ns,))

    def _send_step(self, state: SystemState, seq: int) -> Step:
        if seq != state.ns:
            return None, f"sent {seq}, abstract ns={state.ns}"
        if not state.ns < state.na + self.window:
            return None, "action 0 guard: window full"
        target = state.with_sr_added(seq).replace(ns=seq + 1)
        return Transition("0:send", f"data {seq}", target), None

    # -- action 1: receive a block acknowledgment ------------------------

    def _recv_ack(self, state: SystemState) -> Iterator[Transition]:
        return self._enabled(state, "1:recv_ack", dict.fromkeys(state.c_rs))

    def _recv_ack_step(self, state: SystemState, pair: AckPair) -> Step:
        if pair not in state.c_rs:
            return None, f"received ack {pair} not in C_RS"
        lo, hi = pair
        after = state.with_rs_removed(pair)
        ackd = set(after.ackd)
        ackd.update(range(lo, hi + 1))
        na = after.na
        while na in ackd:  # paper: do ackd[na] -> na := na + 1 od
            na += 1
        target = after.replace(na=na, ackd=frozenset(ackd))
        return Transition("1:recv_ack", f"ack ({lo},{hi})", target), None

    # -- action 2 / 2' / 2!: timeout retransmission ------------------------

    def _timeout(self, state: SystemState) -> Iterator[Transition]:
        if self.timeout_mode == "per_message":
            seqs: Iterable[int] = range(state.na, state.ns)
        else:
            seqs = (state.na,)
        return self._enabled(state, self.timeout_action, seqs)

    def _timeout_step(self, state: SystemState, seq: int) -> Step:
        # action 2 resends na; the impatient ablation drops its channel
        # and receiver conjuncts
        if seq != state.na:
            return None, f"resend {seq}: action 2 resends only na={state.na}"
        if state.na == state.ns:
            return None, f"resend {seq}: nothing outstanding"
        if self.timeout_mode == "simple":
            if state.c_sr:
                return None, f"resend {seq}: C_SR is not empty"
            if state.c_rs:
                return None, f"resend {seq}: C_RS is not empty"
            if state.is_rcvd(state.nr):
                return None, f"resend {seq}: rcvd[nr] holds"
        target = state.with_sr_added(seq)
        return Transition(self.timeout_action, f"resend {seq}", target), None

    def _timeout_i_step(self, state: SystemState, seq: int) -> Step:
        if not state.na <= seq < state.ns:
            return None, f"resend {seq} outside [na, ns)"
        if state.is_ackd(seq):
            return None, f"resend {seq}: already acknowledged"
        if seq in state.c_sr:
            return None, f"resend {seq}: a copy is still in C_SR"
        if seq >= state.nr and state.is_rcvd(seq):
            return None, f"resend {seq}: buffered at the receiver"
        if state.count_rs(seq) != 0:
            return None, f"resend {seq}: a covering ack is in C_RS"
        target = state.with_sr_added(seq)
        return Transition("2':timeout(i)", f"resend {seq}", target), None

    # -- action 3: receive a data message ---------------------------------

    def _recv_data(self, state: SystemState) -> Iterator[Transition]:
        return self._enabled(state, "3:recv_data", dict.fromkeys(state.c_sr))

    def _recv_data_step(self, state: SystemState, seq: int) -> Step:
        if seq not in state.c_sr:
            return None, f"received data {seq} not in C_SR"
        after = state.with_sr_removed(seq)
        if seq < after.nr:  # a duplicate, answered by the ack (seq, seq)
            target = after.with_rs_added((seq, seq))
            return Transition("3:recv_data", f"dup data {seq}", target), None
        target = after.replace(rcvd=after.rcvd | {seq})
        return Transition("3:recv_data", f"data {seq}", target), None

    # -- action 4: slide vr over the received run -------------------------

    def _advance_vr(self, state: SystemState) -> Iterator[Transition]:
        return self._enabled(state, "4:advance_vr", (None,))

    def _advance_vr_step(self, state: SystemState, _: None = None) -> Step:
        if not state.is_rcvd(state.vr):
            return None, f"rcvd[vr] is false at vr={state.vr}"
        target = state.replace(vr=state.vr + 1)
        return Transition("4:advance_vr", f"vr -> {state.vr + 1}", target), None

    # -- action 5: emit the pending block acknowledgment ------------------

    def _send_ack(self, state: SystemState) -> Iterator[Transition]:
        return self._enabled(state, "5:send_ack", ((state.nr, state.vr - 1),))

    def _send_ack_step(self, state: SystemState, pair: AckPair) -> Step:
        if pair != (state.nr, state.vr - 1) or not state.nr < state.vr:
            # a receiver acknowledges once action 4 has run to its end,
            # so the block it owes is what actions 4 and then 5 produce
            lo, hi = pair
            return None, (
                f"ack ({lo},{hi}) but actions 4+5 would produce "
                f"({state.nr},{state.vr - 1})"
            )
        target = state.with_rs_added(pair).replace(nr=state.vr)
        return Transition("5:send_ack", f"ack {pair}", target), None

    # -- environment: message loss ----------------------------------------

    def _losses(self, state: SystemState) -> Iterator[Transition]:
        yield from self._enabled(state, "env:lose_data", dict.fromkeys(state.c_sr))
        yield from self._enabled(state, "env:lose_ack", dict.fromkeys(state.c_rs))

    def _lose_data_step(self, state: SystemState, seq: int) -> Step:
        if seq not in state.c_sr:
            return None, f"lost data {seq} not in C_SR"
        target = state.with_sr_removed(seq)
        return Transition("env:lose_data", f"data {seq}", target, is_environment=True), None

    def _lose_ack_step(self, state: SystemState, pair: AckPair) -> Step:
        if pair not in state.c_rs:
            return None, f"lost ack {pair} not in C_RS"
        target = state.with_rs_removed(pair)
        return Transition("env:lose_ack", f"ack {pair}", target, is_environment=True), None
