"""Flow multiplexing: N endpoint pairs over one shared impaired link.

The paper's model (and this repo's :func:`~repro.sim.runner.run_transfer`)
wires one sender/receiver pair to dedicated channels.  A production
deployment of the window protocol looks different: *many* concurrent
flows share the same physical link, and loss, delay, aging, and fault
plans act on the link — not on per-flow copies of it.  :class:`FlowMux`
provides exactly that:

* every message a :class:`FlowPort` sends is wrapped in a
  :class:`~repro.core.messages.FlowEnvelope` tagging it with the port's
  flow id (plus a per-flow envelope counter for reorder accounting);
* the mux owns the shared channel's receiver slot and demultiplexes each
  delivered envelope to the destination flow's connected endpoint;
* each port exposes the full harness channel surface
  (:class:`~repro.channel.surface.ChannelSurface`) — per-flow stats,
  observers that see *unwrapped* protocol messages (so invariant
  monitors work per flow unchanged), in-flight iteration
  filtered to the flow — while the shared link keeps the aggregate view.

The shared link may be a raw :class:`~repro.channel.channel.Channel`
(envelopes travel as objects) or a :class:`~repro.wire.framed
.FramedChannel` (envelopes serialize as ``0x03`` frames carrying the
inner frame; a bit flip anywhere discards the envelope whole, so a
damaged frame is never misdelivered to the wrong flow).

When the mux is built with an *active*
:class:`~repro.channel.arbiter.ArbiterConfig`, sends additionally pass
through a :class:`~repro.channel.arbiter.LinkArbiter` — a token-bucket
capacity model with pluggable per-flow scheduling — before reaching the
link.  With no arbiter (or ``rate=None``) the send path is exactly the
historical direct call, byte-identical to the pre-arbiter stack.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterator, List, Optional

from repro.channel.arbiter import ArbiterConfig, LinkArbiter
from repro.channel.channel import ChannelStats
from repro.channel.surface import ChannelSurface
from repro.core.messages import FlowEnvelope
from repro.wire.codec import MAX_FLOW_ID, MAX_WIRE_SEQ

__all__ = ["FlowMux", "FlowPort"]


class FlowMux:
    """Demultiplexer owning one shared channel's delivery path.

    Construction claims the link's receiver slot (``link.connect``); all
    subsequent endpoint wiring goes through per-flow ports obtained with
    :meth:`port`.  Messages arriving without a flow envelope, or for a
    flow with no connected receiver, raise — silent cross-flow delivery
    would invalidate every per-flow invariant.

    ``arbiter`` takes an :class:`~repro.channel.arbiter.ArbiterConfig`;
    when it is active (finite ``rate``) every port's sends are queued
    and paced by a shared :class:`~repro.channel.arbiter.LinkArbiter`.
    """

    def __init__(
        self, link: Any, arbiter: Optional[ArbiterConfig] = None
    ) -> None:
        self.link = link
        self._ports: Dict[int, FlowPort] = {}
        self.arbiter: Optional[LinkArbiter] = None
        if arbiter is not None and arbiter.active:
            self.arbiter = LinkArbiter(
                link.sim, link.send, arbiter, name=link.name
            )
        link.connect(self._demux)
        link.add_observer(self._observe)

    @property
    def sim(self):
        return self.link.sim

    @property
    def name(self) -> str:
        return self.link.name

    def port(self, flow: int, weight: float = 1.0) -> "FlowPort":
        """The (created-on-first-use) port for ``flow``.

        ``weight`` is the flow's scheduling weight at the arbiter
        (ignored without one, and on repeat lookups of an existing
        port — weights are fixed at registration).
        """
        if not 0 <= flow <= MAX_FLOW_ID:
            raise ValueError(
                f"flow id {flow} outside the 16-bit wire domain"
            )
        existing = self._ports.get(flow)
        if existing is not None:
            return existing
        if self.arbiter is not None:
            self.arbiter.register(flow, weight)
        port = FlowPort(self, flow)
        self._ports[flow] = port
        return port

    def ports(self) -> List["FlowPort"]:
        """All created ports, in flow-id order."""
        return [self._ports[flow] for flow in sorted(self._ports)]

    # -- delivery path -----------------------------------------------------

    def _demux(self, envelope: Any) -> None:
        # ``type() is``: FlowEnvelope has no subclasses (obs/causal.py
        # relies on that too), and the exact test costs no call
        if type(envelope) is not FlowEnvelope:
            raise TypeError(
                f"flow mux on {self.name!r} received an untagged message: "
                f"{envelope!r}"
            )
        port = self._ports.get(envelope.flow)
        if port is None or port._receiver is None:
            raise RuntimeError(
                f"no receiver connected for flow {envelope.flow} on "
                f"{self.name!r}"
            )
        port._receiver(envelope.message)

    def _observe(self, kind: str, message: Any) -> None:
        # every frame on the shared link passes here, so the port's
        # counters are kept inline rather than behind a call into it
        if type(message) is not FlowEnvelope:
            return
        port = self._ports.get(message.flow)
        if port is None:
            return
        stats = port.stats
        if kind == "send":
            stats.sent += 1
        elif kind == "deliver":
            stats.delivered += 1
            # an overtake lands less than half the 16-bit space behind
            # the mark (RFC 1982 serial order): framed links carry
            # ``fseq`` mod 2**16, so raw values would break at the wrap
            last = port._last_delivered_fseq
            if last is not None and 0 < (last - message.fseq) & MAX_WIRE_SEQ < 0x8000:
                stats.reordered += 1
            else:
                port._last_delivered_fseq = message.fseq
        elif kind == "lose":
            stats.lost += 1
        elif kind == "age":
            stats.aged_out += 1
        elif kind == "duplicate":
            stats.duplicated += 1
        if port._observers:
            for observer in port._observers:
                observer(kind, message.message)


class FlowPort:
    """One flow's channel-shaped view of the shared link.

    Implements the complete :class:`~repro.channel.surface.ChannelSurface`
    so endpoints, monitors, and obs sessions attach to a port
    exactly as they would to a dedicated channel.  ``stats`` counts this
    flow's envelopes only; ``reordered`` uses the per-flow envelope
    counter, so link-level reordering between *different* flows (harmless
    to each) is not charged to either.
    """

    def __init__(self, mux: FlowMux, flow: int) -> None:
        self._mux = mux
        self.flow = flow
        self._receiver: Optional[Callable[[Any], None]] = None
        self._observers: List[Callable[[str, Any], None]] = []
        self.stats = ChannelStats()
        self._next_fseq = 0
        self._last_delivered_fseq: Optional[int] = None

    @property
    def sim(self):
        return self._mux.sim

    @property
    def name(self) -> str:
        return f"{self._mux.name}.f{self.flow}"

    def connect(self, receiver: Callable[[Any], None]) -> None:
        self._receiver = receiver

    def send(self, message: Any) -> None:
        fseq = self._next_fseq
        self._next_fseq = fseq + 1
        envelope = FlowEnvelope(self.flow, fseq, message)
        arbiter = self._mux.arbiter
        if arbiter is None:
            self._mux.link.send(envelope)
        else:
            arbiter.submit(self.flow, envelope)

    def add_observer(self, observer: Callable[[str, Any], None]) -> None:
        """Observers see this flow's *unwrapped* protocol messages.

        The mux keeps this port's ``stats`` and calls these observers
        from its own link observer (``FlowMux._observe``).
        """
        self._observers.append(observer)

    # -- arbiter view ------------------------------------------------------

    @property
    def queue_depth(self) -> int:
        """Frames waiting at the arbiter for this flow (0 without one)."""
        arbiter = self._mux.arbiter
        return arbiter.queue_depth(self.flow) if arbiter is not None else 0

    @property
    def queue_stats(self) -> Optional[dict]:
        """This flow's arbiter counters as a dict; None without one."""
        arbiter = self._mux.arbiter
        if arbiter is None:
            return None
        return arbiter.flow_stats(self.flow).as_dict()

    # -- in-flight inspection ----------------------------------------------

    def in_flight(self) -> Iterator[Any]:
        """This flow's in-flight messages, unwrapped.

        From the endpoints' perspective a frame is in transit from the
        moment ``send`` accepts it, so arbiter-queued (not yet granted)
        frames are included ahead of the link's own in-flight set — the
        invariant monitors and oracle senders keep a coherent view with
        and without a bottleneck.
        """
        arbiter = self._mux.arbiter
        if arbiter is not None:
            for envelope in arbiter.queued(self.flow):
                yield envelope.message
        for message in self._mux.link.in_flight():
            if isinstance(message, FlowEnvelope) and message.flow == self.flow:
                yield message.message

    @property
    def in_flight_count(self) -> int:
        return sum(1 for _ in self.in_flight())

    @property
    def is_empty(self) -> bool:
        return next(self.in_flight(), None) is None

    def count_matching(self, predicate: Callable[[Any], bool]) -> int:
        return sum(1 for message in self.in_flight() if predicate(message))

    @property
    def effective_max_lifetime(self) -> Optional[float]:
        """The link's lifetime bound; None behind an unbounded arbiter queue.

        A frame waits at the arbiter before the link takes it.  With
        ``queue_limit=None`` nothing bounds that wait, so nothing bounds
        the frame's lifetime.  A bounded queue's wait is not yet added
        (ROADMAP item 5).
        """
        arbiter = self._mux.arbiter
        if arbiter is not None and arbiter.config.queue_limit is None:
            return None
        return self._mux.link.effective_max_lifetime

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FlowPort({self.name!r}, in_flight={self.in_flight_count})"


ChannelSurface.register(FlowPort)
