"""Wire message types shared by all protocol implementations.

The paper abstracts a data message to *just its sequence number*; we keep
an optional payload so the examples can move real bytes, but protocol logic
never inspects it.  Acknowledgments come in two shapes:

* :class:`BlockAck` — the paper's contribution: a pair ``(lo, hi)``
  acknowledging every data message with sequence number in ``lo..hi``
  inclusive.
* :class:`CumulativeAck` — the traditional go-back-N acknowledgment: a
  single number meaning "everything up to and including this".

:class:`SackAck` (TCP-SACK's cumulative ack plus blocks) and the link
layer's wrappers, :class:`FlowEnvelope` and :class:`DuplexFrame`, live
here too, so the byte codec of :mod:`repro.wire.codec` can frame every
message kind without importing the packages that send them.

All message types are frozen dataclasses: channel code treats messages as
immutable values, so a retransmission is a *new* message object and the
in-flight multiset semantics of the paper carry over unchanged.  The
dataclass machinery supplies equality, hashing, ``repr``, ``fields`` and
``replace``, and assignment raises ``FrozenInstanceError``.

Every frame a transfer sends builds one of these values, so the data,
ack and envelope types have a hand-written ``__init__`` with the
generated one's parameters that fills ``self.__dict__`` directly; the
generated frozen ``__init__`` pays one ``object.__setattr__`` call per
field.  They are deliberately not ``NamedTuple``s: tuple equality would
make ``BlockAck(1, 2)`` equal to ``(1, 2, False)`` and to any other wire
type with the same fields.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional, Tuple

__all__ = [
    "DataMessage",
    "BlockAck",
    "CumulativeAck",
    "SackAck",
    "FlowEnvelope",
    "DuplexFrame",
    "is_data",
    "is_ack",
]


@dataclass(frozen=True, init=False)
class DataMessage:
    """A data message.

    Attributes
    ----------
    seq:
        The sequence number *as carried on the wire*.  For unbounded
        protocol variants this is the true sequence number; for the
        Section-V bounded variants it is the true number mod ``2w`` and
        the receiver reconstructs the rest.
    payload:
        Opaque application data; never inspected by protocol logic.
    attempt:
        0 for the first transmission, incremented per retransmission.
        Diagnostic only — the paper's messages carry no such field and no
        protocol decision may depend on it (tests enforce this by checking
        behaviour is invariant under it).
    """

    seq: int
    payload: Any = None
    attempt: int = 0

    def __init__(self, seq: int, payload: Any = None, attempt: int = 0) -> None:
        fields = self.__dict__
        fields["seq"] = seq
        fields["payload"] = payload
        fields["attempt"] = attempt

    def __str__(self) -> str:
        suffix = f"#{self.attempt}" if self.attempt else ""
        return f"DATA({self.seq}){suffix}"


@dataclass(frozen=True, init=False)
class BlockAck:
    """The paper's block acknowledgment: acks sequence numbers ``lo..hi``.

    Invariant: ``lo <= hi`` for unbounded numbering.  For bounded (mod-n)
    numbering the pair may wrap, e.g. ``(6, 1)`` in a domain of 8, so the
    constructor does not enforce ordering; the numbering scheme in
    :mod:`repro.core.seqnum` gives the pair its meaning.

    ``urgent`` marks acknowledgments that answer a retransmission (the
    paper's duplicate ``(v, v)`` ack from action 3).  It is endpoint
    metadata, not wire content: the byte codec does not serialize it,
    equality ignores it, and no protocol decision depends on it — it only
    tells transmission schedulers (e.g. the duplex piggyback mux) that
    delaying this ack would stretch a peer's loss recovery.
    """

    lo: int
    hi: int
    urgent: bool = field(default=False, compare=False)

    def __init__(self, lo: int, hi: int, urgent: bool = False) -> None:
        fields = self.__dict__
        fields["lo"] = lo
        fields["hi"] = hi
        fields["urgent"] = urgent

    @property
    def is_singleton(self) -> bool:
        """True if this ack covers exactly one sequence number."""
        return self.lo == self.hi

    def spans(self, seq: int) -> bool:
        """True if ``seq`` lies in ``lo..hi`` (unbounded numbering only)."""
        return self.lo <= seq <= self.hi

    def __str__(self) -> str:
        return f"ACK({self.lo},{self.hi})"


@dataclass(frozen=True, init=False)
class CumulativeAck:
    """Traditional cumulative acknowledgment: everything ``<= seq``.

    Used only by the go-back-N and alternating-bit baselines.
    """

    seq: int

    def __init__(self, seq: int) -> None:
        self.__dict__["seq"] = seq

    def __str__(self) -> str:
        return f"CACK({self.seq})"


@dataclass(frozen=True)
class SackAck:
    """Cumulative acknowledgment plus selective-acknowledgment blocks.

    ``cum`` acknowledges everything ``<= cum`` (-1 when nothing in-order
    has arrived yet); ``blocks`` are disjoint ``(lo, hi)`` ranges of
    buffered out-of-order data, most relevant first.
    """

    cum: int
    blocks: Tuple[Tuple[int, int], ...] = ()

    def __str__(self) -> str:
        blocks = ",".join(f"{lo}-{hi}" for lo, hi in self.blocks)
        return f"SACK(cum={self.cum}{';' + blocks if blocks else ''})"


@dataclass(frozen=True, init=False)
class FlowEnvelope:
    """A flow-tagged wrapper around one protocol message on a shared link.

    :class:`~repro.channel.mux.FlowMux` wraps every message a flow port
    sends into one of these so N independent endpoint pairs can share a
    single impaired channel; the mux strips the envelope again before the
    destination endpoint sees the message.  Protocol logic never inspects
    envelopes — they are link-layer addressing, exactly like the flow
    label of a real multiplexed link.

    Attributes
    ----------
    flow:
        The flow identifier (16 bits on the wire).
    fseq:
        Per-flow envelope counter stamped at send time, used for
        per-flow reorder accounting.  Diagnostic only; carried mod
        ``2**16`` on framed links.
    message:
        The wrapped protocol message (data or acknowledgment).
    """

    flow: int
    fseq: int
    message: Any

    def __init__(self, flow: int, fseq: int, message: Any) -> None:
        fields = self.__dict__
        fields["flow"] = flow
        fields["fseq"] = fseq
        fields["message"] = message

    def __str__(self) -> str:
        return f"f{self.flow}:{self.message}"


@dataclass(frozen=True)
class DuplexFrame:
    """One frame on a duplex link: data, acknowledgment, or both."""

    data: Optional[DataMessage] = None
    ack: Optional[BlockAck] = None

    def __str__(self) -> str:
        parts = [str(p) for p in (self.data, self.ack) if p is not None]
        return "+".join(parts) if parts else "EMPTY"


def is_data(message: Any) -> bool:
    """True if ``message`` is a data message."""
    return isinstance(message, DataMessage)


def is_ack(message: Any) -> bool:
    """True if ``message`` is an acknowledgment of any kind."""
    return isinstance(message, (BlockAck, CumulativeAck))
