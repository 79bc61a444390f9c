"""Runtime invariant monitoring for live simulations.

The model checker (E8) verifies assertions 6 ∧ 7 ∧ 8 exhaustively, but
only for small windows and short transfers.  :class:`InvariantMonitor`
complements it at full scale: it observes a *running* timed simulation —
every channel send, delivery, loss — and checks the observable
consequences of the paper's invariant continuously:

* **one wire per number (assertion 8 + 6).**  In-flight data messages
  occupy true sequence numbers in ``[na, ns)``, a range narrower than the
  wire domain, so no two in-flight data messages may carry the same wire
  number; likewise no sequence number may be covered by two in-flight
  acknowledgments, and no in-flight data message's number may be covered
  by any in-flight acknowledgment.
* **counter ordering (assertion 6).**  ``na <= nr <= vr`` across the two
  endpoints, sampled at every channel event.

A safe protocol configuration produces zero violations over arbitrarily
long adversarial runs; the ``aggressive`` timeout mode produces them
readily — which is how this monitor earns its keep in the test suite (it
detects, at runtime and at scale, exactly the class of bug whose
exhaustive form E8 catches in the small).

Note the deliberate scope: the monitor checks *wire-level multiplicity*,
which the invariant implies but which requires no decoding.  It therefore
works identically for unbounded and mod-2w numbering, and cannot itself
be fooled by the decode ambiguity that broken configurations create.

Every check is incremental, so the monitor can watch every event of a
long wide-window run: beside the in-flight data count per wire number it
keeps, per wire number, the count of in-flight acknowledgments covering
it, updated as acks enter and leave the reverse channel.  A data send is
then one lookup, and an ack send or removal touches only its own span.
With an obs registry and recorder attached, each violation also counts
in ``invariant_violations_total{clause}`` and lands in the trace as a
``NOTE`` from actor ``monitor``, where the causal layer turns it into
an ``invariant_violation`` flight-recorder trigger.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.core.messages import BlockAck, DataMessage
from repro.trace.events import EventKind

__all__ = [
    "InvariantMonitor",
    "MonitorViolation",
    "StabilizationMonitor",
    "span_wires",
]


def span_wires(span, domain: Optional[int]) -> set:
    """The set of wire numbers an ack span ``(lo, hi)`` covers.

    With a finite wire-number ``domain`` the span may wrap; unbounded
    numbering never wraps.  :class:`InvariantMonitor` walks this set to
    update its per-wire ack cover counts; its iteration order decides
    which wire a violation report names.
    """
    lo, hi = span
    if domain is None or hi >= lo:
        return set(range(lo, hi + 1))
    return set(range(lo, domain)) | set(range(0, hi + 1))


@dataclass
class MonitorViolation:
    """One observed breach of the invariant's runtime consequences."""

    time: float
    clause: str
    detail: str

    def __str__(self) -> str:
        return f"t={self.time:.4f} {self.clause}: {self.detail}"


class InvariantMonitor:
    """Attach to a sender/receiver pair and its channels; collect violations.

    Parameters
    ----------
    sender, receiver:
        Block-ack endpoints (reference or bounded); used for the counter-
        ordering check when they expose ``window``/``book`` state.
    forward, reverse:
        The two :class:`~repro.channel.channel.Channel` objects.
    domain:
        Wire-number domain size (``2*K*w``), needed to interpret wrapped
        ack spans; None for unbounded numbering.
    strict:
        If True, raise ``AssertionError`` at the first violation instead
        of collecting.
    registry:
        Optional metrics registry; each violation increments
        ``invariant_violations_total{clause}``, declared at the first
        violation so a clean run adds no series.
    recorder:
        Optional trace recorder; each violation is recorded as a ``NOTE``
        from actor ``monitor``.
    """

    def __init__(
        self,
        sender: Any,
        receiver: Any,
        forward: Any,
        reverse: Any,
        domain: Optional[int] = None,
        strict: bool = False,
        registry: Any = None,
        recorder: Any = None,
    ) -> None:
        self.sender = sender
        self.receiver = receiver
        self.domain = domain
        self.strict = strict
        self.violations: List[MonitorViolation] = []
        self._registry = registry
        self._recorder = recorder
        # in-flight occupancy; a key is present only while its count > 0
        self._data_wires: Dict[int, int] = {}  # wire -> data copies
        self._ack_spans: Dict[Tuple[int, int], int] = {}  # span -> ack copies
        self._ack_cover: Dict[int, int] = {}  # wire -> acks covering it
        self._sim = forward.sim
        forward.add_observer(self._on_forward_event)
        reverse.add_observer(self._on_reverse_event)

    # ------------------------------------------------------------------
    # channel observers
    # ------------------------------------------------------------------

    def _on_forward_event(self, kind: str, message: Any) -> None:
        if not isinstance(message, DataMessage):
            return
        wires = self._data_wires
        wire = message.seq
        if kind in ("send", "duplicate"):
            count = wires[wire] = wires.get(wire, 0) + 1
            if count > 1:
                self._flag(
                    "8: duplicate data in transit",
                    f"two in-flight data messages carry wire seq {wire}",
                )
            if wire in self._ack_cover:
                self._flag(
                    "8: data coexists with covering ack",
                    f"data wire seq {wire} sent while an in-flight "
                    "acknowledgment covers it",
                )
        else:  # deliver / lose / age all remove the copy
            count = wires.get(wire, 0) - 1
            if count <= 0:
                wires.pop(wire, None)
            else:
                wires[wire] = count
        self._check_counters()

    def _on_reverse_event(self, kind: str, message: Any) -> None:
        if not isinstance(message, BlockAck):
            return
        spans = self._ack_spans
        cover = self._ack_cover
        span = (message.lo, message.hi)
        if kind in ("send", "duplicate"):
            covered = span_wires(span, self.domain)
            if not cover.keys().isdisjoint(covered):
                wire = next(wire for wire in covered if wire in cover)
                self._flag(
                    "8: overlapping acks in transit",
                    f"wire seq {wire} covered by two in-flight acks",
                )
            data = self._data_wires
            if not data.keys().isdisjoint(covered):
                wire = next(wire for wire in covered if wire in data)
                self._flag(
                    "8: ack coexists with covered data",
                    f"ack {span} sent while data wire seq {wire} in flight",
                )
            spans[span] = spans.get(span, 0) + 1
            for wire in covered:
                cover[wire] = cover.get(wire, 0) + 1
        elif span in spans:
            count = spans.pop(span) - 1
            if count:
                spans[span] = count
            for wire in span_wires(span, self.domain):
                count = cover[wire] - 1
                if count:
                    cover[wire] = count
                else:
                    del cover[wire]
        self._check_counters()

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------

    def _check_counters(self) -> None:
        if self.domain is not None:
            return  # wrapped counters are not directly comparable
        sender_state = getattr(self.sender, "window", None) or getattr(
            self.sender, "book", None
        )
        receiver_state = getattr(self.receiver, "window", None) or getattr(
            self.receiver, "book", None
        )
        if sender_state is None or receiver_state is None:
            return
        na = sender_state.na
        nr = receiver_state.nr
        vr = receiver_state.vr
        if not na <= nr <= vr:
            self._flag("6: counter ordering", f"na={na} nr={nr} vr={vr}")

    def _flag(self, clause: str, detail: str) -> None:
        violation = MonitorViolation(self._sim.now, clause, detail)
        self.violations.append(violation)
        if self._registry is not None:
            self._registry.counter(
                "invariant_violations_total",
                "observed breaches of invariant 6 ∧ 7 ∧ 8, by clause",
                labelnames=("clause",),
            ).labels(clause=clause).inc()
        if self._recorder is not None:
            self._recorder.record(
                "monitor", EventKind.NOTE, detail=f"invariant {clause}: {detail}"
            )
        if self.strict:
            raise AssertionError(str(violation))

    @property
    def clean(self) -> bool:
        """True if no violation has been observed."""
        return not self.violations

    def report(self, limit: int = 10) -> str:
        """Human-readable summary of observed violations."""
        if self.clean:
            return "invariant monitor: clean"
        lines = [f"invariant monitor: {len(self.violations)} violation(s)"]
        lines += [f"  {v}" for v in self.violations[:limit]]
        if len(self.violations) > limit:
            lines.append(f"  ... ({len(self.violations) - limit} more)")
        return "\n".join(lines)


class StabilizationMonitor(InvariantMonitor):
    """An :class:`InvariantMonitor` that judges recovery from corruption.

    The fault plan reports every :class:`StateCorruption` it applies and
    every guard/repair rule that fires; the inherited channel observers
    keep flagging invariant violations (counter ordering, wire-level
    multiplicity) throughout.  From those three series the monitor
    measures **time-to-reconvergence** — how long after the last
    corruption the system kept violating or repairing — and renders the
    three-way verdict of the self-stabilization literature:

    ``converged``
        The transfer completed, delivered in order, and the final state
        satisfies every locally checkable invariant.
    ``degraded``
        The final state is consistent but the corruption cost user-visible
        damage (an out-of-order or corrupted delivery — e.g. a mutated
        payload the protocol cannot distinguish from real data).
    ``diverged``
        The transfer never completed, or the final state still violates
        an invariant: the corruption escaped the repair rules.
    """

    def __init__(
        self,
        sender: Any,
        receiver: Any,
        forward: Any,
        reverse: Any,
        domain: Optional[int] = None,
        strict: bool = False,
    ) -> None:
        super().__init__(
            sender, receiver, forward, reverse, domain=domain, strict=strict
        )
        self.corruptions: List[dict] = []
        self.repairs: List[dict] = []

    # ------------------------------------------------------------------
    # fault-plan callbacks
    # ------------------------------------------------------------------

    def note_corruption(self, time: float, spec: Any, mutations: List[str]) -> None:
        self.corruptions.append(
            {
                "time": time,
                "site": spec.site,
                "severity": spec.severity,
                "mutations": list(mutations),
            }
        )

    def note_repairs(self, time: float, endpoint: str, repairs: List[str]) -> None:
        self.repairs.append(
            {"time": time, "endpoint": endpoint, "repairs": list(repairs)}
        )

    # ------------------------------------------------------------------
    # final-state sweep and the verdict
    # ------------------------------------------------------------------

    def final_state_violations(self) -> List[str]:
        """Locally checkable invariant breaches in the *final* state."""
        out: List[str] = []
        for name, endpoint in (
            ("sender", self.sender),
            ("receiver", self.receiver),
        ):
            state = getattr(endpoint, "window", None) or getattr(
                endpoint, "book", None
            )
            if state is None:
                continue
            check = getattr(state, "check_invariant", None)
            if check is not None:
                try:
                    check()
                except AssertionError as exc:
                    out.append(f"{name}: {exc}")
            repair = getattr(state, "repair", None)
            if repair is not None:
                # a repair rule that still wants to fire is a violation;
                # probe a deep copy so the sweep itself never mutates
                pending = copy.deepcopy(state).repair()
                if pending:
                    out.append(f"{name}: unrepaired state ({'; '.join(pending)})")
        if self.domain is None:
            sender_state = getattr(self.sender, "window", None)
            receiver_state = getattr(self.receiver, "window", None)
            if sender_state is not None and receiver_state is not None:
                na, nr, vr = (
                    sender_state.na,
                    receiver_state.nr,
                    receiver_state.vr,
                )
                if not na <= nr <= vr:
                    out.append(f"6: counter ordering na={na} nr={nr} vr={vr}")
        return out

    @property
    def reconvergence_time(self) -> Optional[float]:
        """Virtual time from the first corruption to the last disturbance.

        The last disturbance is the final violation flagged or repair
        applied at-or-after the first corruption; 0.0 when corruption
        caused no observable disturbance at all.  None before any
        corruption fired.
        """
        if not self.corruptions:
            return None
        t0 = self.corruptions[0]["time"]
        times = [r["time"] for r in self.repairs if r["time"] >= t0]
        times += [v.time for v in self.violations if v.time >= t0]
        times += [c["time"] for c in self.corruptions]
        return max(times) - t0

    def verdict(self, completed: bool, in_order: bool) -> str:
        final = self.final_state_violations()
        if final or not completed:
            return "diverged"
        if not in_order:
            return "degraded"
        return "converged"

    def summary(self, completed: bool, in_order: bool) -> dict:
        """The ``TransferResult.stabilization`` payload."""
        t0 = self.corruptions[0]["time"] if self.corruptions else None
        return {
            "verdict": self.verdict(completed, in_order),
            "corruptions": len(self.corruptions),
            "repairs": sum(len(r["repairs"]) for r in self.repairs),
            "reconvergence_time": self.reconvergence_time,
            "violations_after_corruption": sum(
                1 for v in self.violations if t0 is not None and v.time >= t0
            ),
            "final_state_violations": self.final_state_violations(),
            "events": {
                "corruptions": self.corruptions,
                "repairs": self.repairs,
            },
        }
