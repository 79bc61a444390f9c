"""Causal event graph, flight recorder, and exact latency attribution.

Counters say *that* a run went wrong; this module records *why*.  A
:class:`CausalRecorder` turns every protocol-relevant event — submit,
send/resend, channel transit outcomes (deliver/lose/age/duplicate),
acks, timer arm/fire/cancel, RTO verdicts, state-corruption injection,
guard/repair firings, endpoint crash/restart, invariant-monitor findings —
into a node of a per-seq causal graph with parent edges (timer-fire →
retransmit → delivery).  Nodes come from the existing instrument seams
only (the trace-recorder tee, the session host's submit and delivery
callbacks, channel observers, the controller instruments duck-type, the
fault-plan observer, and the timers' sim-level observer), and every hook
here fires synchronously inside the callback that caused it, so
recording never perturbs the decision trace.

Three products sit on the graph:

* **flight recorder** — an always-on bounded ring
  (:data:`FLIGHT_RING_CAPACITY` nodes).  When an anomaly trigger fires
  (link-dead verdict, stabilization ``degraded``/``diverged`` grade, RTO
  backoff ladder >= :data:`BACKOFF_TRIGGER_ATTEMPTS`, a violation NOTE
  from the invariant monitor, Jain fairness below
  :data:`FAIRNESS_TRIGGER_THRESHOLD`) the ring is frozen, endpoint-state
  snapshots are taken, and a dump streams to
  ``results/obs/flight/<run_id>.jsonl`` under ``repro.obs/v2`` — the
  file keeps growing with post-trigger events and is flushed at every
  fault boundary, so even a run killed mid-flight leaves a parseable
  record.  Clean runs write nothing.

* **latency attribution** — each delivered seq's latency decomposed into
  ``queue_wait`` (submit → first send, plus any link-arbiter hold
  between a send decision and the frame actually entering the wire;
  the arbiter part is also reported separately as ``link_wait``),
  ``timer_wait`` (last send → timeout, per retransmission round),
  ``retx_wait`` (timeout → resend; the whole inter-send gap when no
  timeout was observed for the seq), and ``propagation`` (last wire
  entry before delivery → delivery).  The four components telescope:
  they sum *exactly* to ``delivered - submitted`` up to float addition
  error.

* **root-cause analysis** — :mod:`repro.obs.analyze` reconstructs stall
  timelines and Perfetto traces from the dump (``blockack analyze``).

Hot-path design
---------------

The recorder rides *every* causal-enabled run, so the per-event cost is
engineered down to one tuple build plus one deque append: raw nodes are
``(time, actor, kind, seq, seq_hi, flow, detail)`` with **no** ids and
**no** parent edges.  Node ids and the per-(flow, seq) parent chain are
deterministic functions of stream order, so they are materialized
lazily — at trigger time for the frozen ring, incrementally for
post-trigger streamed nodes, and on demand in :meth:`nodes`.  A timer
node's raw actor is the timer object itself, with the deadline read
straight off its ``expires_at`` slot: the materializer names it
(``timer.name``, ``"<bank>[<key!r>]"`` for a bank timer) only when the
node is read, and since a timer's name is fixed at construction the
resolved actor is the one an eager read would have given.  Latency
attribution likewise keeps only a tiny per-seq fold (:class:`_SeqState`)
inline and builds the record dicts as a lazy pass in
:attr:`CausalRecorder.attributions`.
"""

from __future__ import annotations

import pathlib
from collections import deque
from typing import Any, Dict, List, Optional, Tuple

from repro.core.messages import (
    BlockAck,
    CumulativeAck,
    DataMessage,
    FlowEnvelope,
)
from repro.trace.events import EventKind
from repro.trace.recorder import NullRecorder

__all__ = [
    "FLIGHT_RING_CAPACITY",
    "BACKOFF_TRIGGER_ATTEMPTS",
    "FAIRNESS_TRIGGER_THRESHOLD",
    "CausalRecorder",
    "CausalTee",
    "CausalControllerHook",
    "node_record",
]

#: Ring capacity of the always-on flight recorder (causal nodes kept).
FLIGHT_RING_CAPACITY = 1024

#: Backoff-ladder position (consecutive expiries of one timer key) at
#: which the flight recorder considers the run anomalous.  The default
#: sits above anything a few-percent-loss run produces and below the
#: ladder a brownout or dead link climbs
#: (:data:`repro.robustness.budget.DEAD_AFTER` is 12).
BACKOFF_TRIGGER_ATTEMPTS = 6

#: Jain fairness index below which a multi-flow session is anomalous.
FAIRNESS_TRIGGER_THRESHOLD = 0.5

# bound once: on Python 3.11 every ``EventKind.<member>`` read, every
# ``kind.value`` and every dict lookup keyed by a member runs Python code
# (~110-170 ns), and on_trace runs per trace record; node kinds are taken
# from ``kind._value_``
_SEND_DATA = EventKind.SEND_DATA
_RESEND_DATA = EventKind.RESEND_DATA
_DELIVER = EventKind.DELIVER
_TIMEOUT = EventKind.TIMEOUT
_NOTE = EventKind.NOTE

_TIMER_KIND = {"arm": "timer.arm", "fire": "timer.fire", "cancel": "timer.cancel"}


def node_record(node: tuple) -> dict:
    """JSON-safe ``{"type": "causal", ...}`` record for one graph node."""
    eid, time, actor, kind, seq, seq_hi, parent, flow, detail = node
    record = {
        "type": "causal",
        "id": eid,
        "time": time,
        "actor": actor,
        "kind": kind,
        "seq": seq,
        "seq_hi": seq_hi,
        "parent": parent,
    }
    if flow is not None:
        record["flow"] = flow
    if detail is not None:
        record["detail"] = detail
    return record


class _SeqState:
    """Per-(flow, seq) fold state for the attribution pass."""

    __slots__ = (
        "flow",
        "seq",
        "submitted",
        "first_sent",
        "prev_send",
        "pending_timeout",
        "delivered",
        "queue_wait",
        "timer_wait",
        "retx_wait",
        "link_wait",
    )

    def __init__(self, flow: Optional[int], seq: int) -> None:
        self.flow = flow
        self.seq = seq
        self.submitted: Optional[float] = None
        self.first_sent: Optional[float] = None
        self.prev_send: Optional[float] = None
        self.pending_timeout: Optional[float] = None
        self.delivered: Optional[float] = None
        self.queue_wait = 0.0
        self.timer_wait = 0.0
        self.retx_wait = 0.0
        self.link_wait = 0.0  # arbiter hold; a sub-part of queue_wait


class CausalRecorder:
    """Per-run causal graph + flight ring + latency attribution.

    One instance per run (like :class:`~repro.obs.session.Observability`),
    built by ``run_transfer(..., causal=True)`` or the session host.  The
    hot path appends one raw tuple per event to a bounded deque — no ids,
    no parent lookups, no metric objects — everything derivable from
    stream order is reconstructed lazily (see the module docstring).

    Materialized graph nodes are ``(id, time, actor, kind, seq, seq_hi,
    parent, flow, detail)`` tuples; ``parent`` is the id of the previous
    node touching the same ``(flow, seq)`` (or the previous fault on the
    same endpoint for fault nodes), which chains submit → send →
    channel.send → timer.fire → timeout → resend → channel.deliver →
    deliver per seq.
    """

    def __init__(
        self,
        sim,
        run_id: str = "transfer",
        labels: Optional[Dict[str, str]] = None,
    ) -> None:
        self._sim = sim
        self.run_id = run_id
        self.labels: Dict[str, str] = dict(labels or {})
        self.ring: deque = deque(maxlen=FLIGHT_RING_CAPACITY)  # raw 7-tuples
        self._ring_append = self.ring.append
        self.frozen: Optional[List[tuple]] = None  # materialized @ 1st trigger
        self.triggers: List[tuple] = []  # (time, reason, detail)
        self.snapshots: List[dict] = []  # endpoint states at 1st trigger
        self.events_recorded = 0
        self.flight_path: Optional[pathlib.Path] = None
        self._sink = None  # open JsonlSink while a flight dump streams
        self._stream = None  # [next_id, last_map] materializer continuation
        self._state: Dict[Any, _SeqState] = {}  # seq | (flow, seq) -> fold
        self._endpoints: List[tuple] = []  # (name, endpoint)

    # ------------------------------------------------------------------
    # lazy id / parent materialization (cold path)
    # ------------------------------------------------------------------

    def _materialize(
        self, raw, start_id: int = 0, last: Optional[dict] = None
    ) -> Tuple[List[tuple], int, dict]:
        """Assign ids and parent edges to a raw-node stream.

        ``last`` maps ``(flow, seq)`` — or the ``fault:<endpoint>`` actor
        for fault nodes — to the id of the previous node on that chain;
        passing it back in continues a materialization across calls.
        A raw timer node's actor is the timer object; it is named here.
        """
        if last is None:
            last = {}
        nodes: List[tuple] = []
        eid = start_id
        for time, actor, kind, seq, seq_hi, flow, detail in raw:
            if type(actor) is not str:
                actor = actor.name
            if seq is not None:
                key = (flow, seq)
                parent = last.get(key)
                last[key] = eid
            elif kind.startswith("fault."):
                parent = last.get(actor)
                last[actor] = eid
            else:
                parent = None
            nodes.append(
                (eid, time, actor, kind, seq, seq_hi, parent, flow, detail)
            )
            eid += 1
        return nodes, eid, last

    def _stream_node(self, raw: tuple) -> None:
        """Materialize and write one post-trigger node to the open sink."""
        cont = self._stream
        (node,), cont[0], _ = self._materialize((raw,), cont[0], cont[1])
        self._sink.write(node_record(node))

    # ------------------------------------------------------------------
    # seam hooks (the hot paths: one tuple + one append each)
    # ------------------------------------------------------------------

    def on_submit(
        self, seq: int, now: float, flow: Optional[int] = None
    ) -> None:
        """The application handed ``seq`` to the sender (runner hook)."""
        node = (now, "source", "submit", seq, None, flow, None)
        self._ring_append(node)
        self.events_recorded += 1
        if self._sink is not None:
            self._stream_node(node)
        states = self._state
        key = seq if flow is None else (flow, seq)
        state = states.get(key)
        if state is None:
            state = states[key] = _SeqState(flow, seq)
        state.submitted = now

    def on_deliver(
        self,
        seq: int,
        now: float,
        flow: Optional[int] = None,
        actor: str = "receiver",
    ) -> None:
        """``seq`` released in order; closes the attribution (idempotent)."""
        states = self._state
        key = seq if flow is None else (flow, seq)
        state = states.get(key)
        if state is None:
            state = states[key] = _SeqState(flow, seq)
        elif state.delivered is not None:
            return
        state.delivered = now
        node = (now, actor, "deliver", seq, None, flow, None)
        self._ring_append(node)
        self.events_recorded += 1
        if self._sink is not None:
            self._stream_node(node)

    def on_trace(
        self,
        now: float,
        actor: str,
        kind: EventKind,
        seq: Optional[int],
        seq_hi: Optional[int],
        detail: Any,
        flow: Optional[int] = None,
    ) -> None:
        """One endpoint trace record (via :class:`CausalTee`).

        A DELIVER record adds no node: the session host's delivery
        callback calls :meth:`on_deliver` for every delivery, recorded or
        not, right after the receiver's DELIVER record, with the same
        actor and flow.
        """
        if kind is _DELIVER:
            return
        node = (now, actor, kind._value_, seq, seq_hi, flow, None)
        self._ring_append(node)
        self.events_recorded += 1
        if self._sink is not None:
            self._stream_node(node)
        if seq is None:
            if kind is _NOTE and actor == "monitor":
                self.trigger("invariant_violation", detail)
            return
        if kind is _SEND_DATA:
            states = self._state
            key = seq if flow is None else (flow, seq)
            state = states.get(key)
            if state is None:
                state = states[key] = _SeqState(flow, seq)
            elif state.delivered is not None:
                return  # attribution closed; lost-ack resends don't reopen it
            if state.first_sent is None:
                state.first_sent = now
                if state.submitted is not None:
                    state.queue_wait = now - state.submitted
            state.prev_send = now
        elif kind is _RESEND_DATA:
            states = self._state
            key = seq if flow is None else (flow, seq)
            state = states.get(key)
            if state is None:
                state = states[key] = _SeqState(flow, seq)
            elif state.delivered is not None:
                return
            prev = state.prev_send
            if prev is not None:
                pending = state.pending_timeout
                if pending is not None and pending >= prev:
                    # split the inter-send gap at the observed timeout:
                    # armed-and-waiting before it, retransmission wait after
                    state.timer_wait += pending - prev
                    state.retx_wait += now - pending
                else:
                    # no per-seq timeout observed (single-timer modes put
                    # the seq on the TIMEOUT record of the window base, or
                    # none at all): the whole gap is retransmission wait
                    state.retx_wait += now - prev
            state.pending_timeout = None
            state.prev_send = now
        elif kind is _TIMEOUT:
            states = self._state
            key = seq if flow is None else (flow, seq)
            state = states.get(key)
            if state is None:
                state = states[key] = _SeqState(flow, seq)
            elif state.delivered is not None:
                return
            state.pending_timeout = now

    def channel_observer(self, link: str):
        """An ``add_observer`` callback recording transit outcomes."""
        actor = f"channel:{link}"
        sim = self._sim
        ring_append = self._ring_append
        kind_cache: Dict[str, str] = {}

        def observe(kind: str, message: Any) -> None:
            kindstr = kind_cache.get(kind)
            if kindstr is None:
                kindstr = kind_cache[kind] = "channel." + kind
            flow = None
            # one type read per frame; the message classes have no
            # subclasses, so identity tests suffice
            cls = type(message)
            if cls is FlowEnvelope:
                flow = message.flow
                message = message.message
                cls = type(message)
            if cls is DataMessage:
                seq, seq_hi = message.seq, None
            elif cls is BlockAck:
                seq, seq_hi = message.lo, message.hi
            elif cls is CumulativeAck:
                seq, seq_hi = message.seq, None
            else:
                seq = seq_hi = None
            now = sim.now
            node = (now, actor, kindstr, seq, seq_hi, flow, None)
            ring_append(node)
            self.events_recorded += 1
            if self._sink is not None:
                self._stream_node(node)
            if cls is DataMessage and kind == "send":
                # a data frame actually entered the wire.  Without a link
                # arbiter this is synchronous with SEND_DATA/RESEND_DATA
                # (zero gap); with one, the enqueue->grant hold lands in
                # queue_wait (and its link_wait sub-component) and
                # prev_send advances to the true wire-entry time, so the
                # four attribution components keep telescoping exactly.
                state = self._state.get(seq if flow is None else (flow, seq))
                if state is not None and state.delivered is None:
                    prev = state.prev_send
                    if prev is not None and now > prev:
                        gap = now - prev
                        state.queue_wait += gap
                        state.link_wait += gap
                    state.prev_send = now

        return observe

    def timer_observer(self):
        """The sim-level timer hook (``sim.timer_observer``).

        :class:`repro.sim.timers.Timer` invokes it synchronously from
        ``start``/``stop``/``_fire``, so the arm/cancel/fire stream
        follows the simulator's event order exactly.  The raw node keeps
        the timer itself as its actor (named when materialized) and its
        ``expires_at``, which is the deadline on an arm and None on a
        cancel or fire.
        """
        sim = self._sim
        ring_append = self._ring_append
        timer_kind = _TIMER_KIND

        def observe(op: str, timer: Any) -> None:
            key = timer.key
            node = (
                sim.now,
                timer,
                timer_kind.get(op) or "timer." + op,
                key if type(key) is int else None,
                None,
                None,
                timer.expires_at,
            )
            ring_append(node)
            self.events_recorded += 1
            if self._sink is not None:
                self._stream_node(node)

        return observe

    def attach_controller(self, controller, flow: Optional[int] = None) -> None:
        """Hook RTO verdicts, preserving any obs instruments already bound."""
        inner = getattr(controller, "_instruments", None)
        controller.bind_instruments(
            CausalControllerHook(self, inner=inner, flow=flow)
        )

    def on_retry_verdict(
        self,
        attempts: int,
        verdict: str,
        key: Any = None,
        now: Any = None,
        flow: Optional[int] = None,
    ) -> None:
        time = now if now is not None else self._sim.now
        node = (
            time,
            "controller",
            "rto.verdict",
            key if type(key) is int else None,
            None,
            flow,
            f"{verdict} attempts={attempts}",
        )
        self._ring_append(node)
        self.events_recorded += 1
        if self._sink is not None:
            self._stream_node(node)
        if verdict == "link_dead":
            self.trigger("link_dead", f"key={key} attempts={attempts}")
        elif attempts >= BACKOFF_TRIGGER_ATTEMPTS:
            self.trigger("rto_backoff", f"key={key} attempts={attempts}")

    def fault_observer(self):
        """The :class:`~repro.robustness.faults.FaultPlan` observer hook.

        Fault nodes chain per endpoint (crash → restart, corrupt →
        repair) through the materializer's actor-keyed chain.  Every
        fault boundary flushes a streaming flight dump, so a run that
        dies inside an outage still leaves complete lines.
        """

        def observe(kind: str, endpoint: str, detail: Any = None) -> None:
            node = (
                self._sim.now,
                "fault:" + endpoint,
                "fault." + kind,
                None,
                None,
                None,
                detail,
            )
            self._ring_append(node)
            self.events_recorded += 1
            if self._sink is not None:
                self._stream_node(node)
                self._sink.flush()

        return observe

    def watch_endpoints(self, *named: Tuple[str, Any]) -> None:
        """Register endpoints whose state is snapshotted at trigger time."""
        self._endpoints.extend(named)

    # ------------------------------------------------------------------
    # the attribution pass (lazy: built from the per-seq fold state)
    # ------------------------------------------------------------------

    @property
    def attributions(self) -> Dict[tuple, dict]:
        """``(flow, seq) -> attribution record`` for every delivered seq.

        Computed on access from the inline fold state; the hot path never
        builds these dicts.
        """
        out: Dict[tuple, dict] = {}
        for state in self._state.values():
            now = state.delivered
            if now is None or state.submitted is None:
                continue
            # the interval [prev_send, delivered] was not yet accounted;
            # it is pure propagation, so the four components telescope to
            # delivered - submitted
            prev = state.prev_send
            record = {
                "type": "attribution",
                "seq": state.seq,
                "total": now - state.submitted,
                "queue_wait": state.queue_wait,
                "timer_wait": state.timer_wait,
                "retx_wait": state.retx_wait,
                "propagation": now - prev if prev is not None else 0.0,
            }
            if state.link_wait:
                # arbiter hold: already inside queue_wait (the components
                # above still telescope); reported so congestion can be
                # separated from window-availability wait
                record["link_wait"] = state.link_wait
            if state.flow is not None:
                record["flow"] = state.flow
            out[(state.flow, state.seq)] = record
        return out

    # ------------------------------------------------------------------
    # triggers and the flight dump
    # ------------------------------------------------------------------

    @property
    def triggered(self) -> bool:
        return bool(self.triggers)

    def on_stabilization(self, verdict: str) -> None:
        """Finalize hook: degraded/diverged recovery grades are anomalies."""
        if verdict in ("degraded", "diverged"):
            self.trigger(f"stabilization_{verdict}")

    def on_fairness(self, fairness: float) -> None:
        """Finalize hook (sessions): a collapsed Jain index is an anomaly."""
        if fairness < FAIRNESS_TRIGGER_THRESHOLD:
            self.trigger("fairness", f"jain={fairness:.3f}")

    def trigger(self, reason: str, detail: Any = None) -> None:
        """An anomaly fired; freeze the ring and start the flight dump."""
        now = self._sim.now
        self.triggers.append((now, reason, detail))
        first = self.frozen is None
        if first:
            nodes, next_id, last = self._materialize(self.ring)
            self.frozen = nodes
            self._stream = [next_id, last]
            self.snapshots = [
                self._endpoint_state(name, endpoint)
                for name, endpoint in self._endpoints
            ]
            self._open_flight()
        if self._sink is not None and not first:
            self._sink.write(self._trigger_record(self.triggers[-1]))
            self._sink.flush()

    @staticmethod
    def _trigger_record(trigger: tuple) -> dict:
        time, reason, detail = trigger
        record = {"type": "trigger", "time": time, "reason": reason}
        if detail is not None:
            record["detail"] = detail
        return record

    @staticmethod
    def _endpoint_state(name: str, endpoint: Any) -> dict:
        """Best-effort JSON-safe snapshot of one endpoint's visible state."""
        state: Dict[str, Any] = {}
        stats = getattr(endpoint, "stats", None)
        if stats is not None and hasattr(stats, "as_dict"):
            state["stats"] = stats.as_dict()
        for attr in ("link_dead", "timeout_period"):
            value = getattr(endpoint, attr, None)
            if isinstance(value, (bool, int, float)):
                state[attr] = value
        controller = getattr(endpoint, "_retx", None)
        if controller is not None:
            state["adaptive"] = controller.stats_dict()
        window = getattr(endpoint, "window", None) or getattr(
            endpoint, "book", None
        )
        if window is not None:
            try:
                attrs = vars(window)
            except TypeError:  # slotted window books
                attrs = {
                    slot: getattr(window, slot, None)
                    for slot in getattr(type(window), "__slots__", ())
                }
            state["window"] = {
                key.lstrip("_"): value
                for key, value in attrs.items()
                if isinstance(value, (bool, int, float))
            }
        return {"type": "state", "endpoint": name, "state": state}

    def _open_flight(self) -> None:
        from repro.obs.session import default_obs_dir  # cycle guard
        from repro.obs.sink import SCHEMA_VERSION, JsonlSink  # cycle guard

        path = default_obs_dir() / "flight" / f"{self.run_id}.jsonl"
        sink = JsonlSink(path)
        trigger = self.triggers[0]
        labels = dict(self.labels)
        labels["flight"] = trigger[1]
        sink.write({
            "type": "meta",
            "schema": SCHEMA_VERSION,
            "run_id": self.run_id,
            "labels": labels,
        })
        sink.write(self._trigger_record(trigger))
        for snapshot in self.snapshots:
            sink.write(snapshot)
        for node in self.frozen:
            sink.write(node_record(node))
        sink.flush()
        self._sink = sink
        self.flight_path = pathlib.Path(path)

    def close_flight(self) -> Optional[str]:
        """Finish a streaming flight dump (attributions + final snapshot).

        Returns the written path as a string, or None when no trigger
        fired (clean runs leave no flight file at all).
        """
        if self._sink is None:
            return None
        sink, self._sink = self._sink, None
        try:
            attributions = self.attributions
            for key in sorted(
                attributions, key=lambda k: (k[0] is not None, k)
            ):
                sink.write(attributions[key])
            for name, endpoint in self._endpoints:
                sink.write(self._endpoint_state(name, endpoint))
            sink.write({"type": "snapshot", "metrics": {}})
        finally:
            sink.close()
        return str(self.flight_path)

    # ------------------------------------------------------------------
    # reading the graph back (tests, analyze)
    # ------------------------------------------------------------------

    def nodes(self) -> List[tuple]:
        """Current ring contents, materialized, as a list (newest last)."""
        return self._materialize(self.ring)[0]

    def as_records(self) -> List[dict]:
        """Attribution records in seq order (single-flow first)."""
        attributions = self.attributions
        return [
            attributions[key]
            for key in sorted(
                attributions, key=lambda k: (k[0] is not None, k)
            )
        ]


class CausalTee:
    """Write-only recorder tee: causal graph first, then the inner recorder.

    It has the ``record`` signature of
    :class:`~repro.trace.recorder.TraceRecorder`, exactly like
    :class:`~repro.obs.spans.ObsRecorder`, and chains with it (the obs
    tee wraps this tee when both layers are on).  The host builds one
    per flow, stamping every record with the flow id.

    When the wrapped recorder is a :class:`NullRecorder` the forward call
    is skipped entirely — its ``record`` is a no-op, and this tee sits on
    the per-event hot path.
    """

    __slots__ = ("_sim", "_flow", "_on_trace", "_fwd")

    def __init__(
        self, sim, causal: CausalRecorder, inner, flow: Optional[int] = None
    ) -> None:
        self._sim = sim
        self._flow = flow
        self._on_trace = causal.on_trace
        self._fwd = None if isinstance(inner, NullRecorder) else inner.record

    def record(self, actor, kind, seq=None, seq_hi=None, detail=None) -> None:
        self._on_trace(
            self._sim.now, actor, kind, seq, seq_hi, detail, self._flow
        )
        fwd = self._fwd
        if fwd is not None:
            fwd(actor, kind, seq, seq_hi, detail)


class CausalControllerHook:
    """Controller-instruments fan-out: causal verdicts + inner telemetry.

    :meth:`RetransmissionController.bind_instruments` holds a single
    slot; this hook takes the slot and forwards every call to whatever
    was bound before it (the obs
    :class:`~repro.obs.session.ControllerInstruments`, or nothing).
    """

    __slots__ = ("_causal", "_inner", "_flow")

    def __init__(
        self,
        causal: CausalRecorder,
        inner: Any = None,
        flow: Optional[int] = None,
    ) -> None:
        self._causal = causal
        self._inner = inner
        self._flow = flow

    def on_rtt_sample(self, rtt: float, rto: float) -> None:
        if self._inner is not None:
            self._inner.on_rtt_sample(rtt, rto)

    def on_timeout(
        self, attempts: int, verdict: str, key: Any = None, now: Any = None
    ) -> None:
        self._causal.on_retry_verdict(attempts, verdict, key, now, self._flow)
        if self._inner is not None:
            self._inner.on_timeout(attempts, verdict, key=key, now=now)
