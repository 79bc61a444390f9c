"""Full-duplex operation with piggybacked acknowledgments.

The paper develops the protocol for one data direction; real deployments
run data both ways and carry acknowledgments inside reverse-direction
data messages ("piggybacking") instead of as separate packets.  This
package composes two independent block-acknowledgment machines — each
direction is exactly the paper's protocol — behind a piggyback
multiplexer, without modifying the protocol logic at all:

* each :class:`DuplexEndpoint` owns a :class:`BlockAckSender` (for its
  outgoing data) and a :class:`BlockAckReceiver` (for incoming data);
* both halves "send" into a :class:`PiggybackMux` instead of a raw
  channel.  The mux combines an outgoing data message with the newest
  pending acknowledgment into one :class:`DuplexFrame`; an acknowledgment
  with no data to ride on is flushed alone after ``standalone_delay``;
* on reception the frame is split: the ack part feeds the local sender
  half, the data part feeds the local receiver half.

Because each direction is the unmodified paper protocol, all safety
results carry over — the mux only changes *how acknowledgments travel*,
and its ``standalone_delay`` is accounted into the senders' safe timeout
like any other acknowledgment latency.

Holding discipline: only the *newest* block acknowledgment is held.  That
is safe because a receiver's block acks are cumulative-disjoint —
superseding an unsent ``(nr, vr-1)`` with a later one never skips
coverage: the later block starts where the earlier ended, and the two are
merged into one span when both are pending.  Duplicate acks ``(v, v)``
are never merged or delayed (they answer a retransmission; delaying them
would stretch recovery).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, List, Optional

from repro.core.messages import BlockAck, DataMessage, DuplexFrame
from repro.core.numbering import Numbering
from repro.protocols.blockack import BlockAckReceiver, BlockAckSender
from repro.sim.engine import Simulator
from repro.sim.timers import Timer

__all__ = ["DuplexFrame", "PiggybackMux", "DuplexEndpoint", "DuplexStats"]


@dataclass
class DuplexStats:
    """Frame accounting for one direction of a duplex link."""

    frames_sent: int = 0
    piggybacked_acks: int = 0  # acks that rode on data frames
    standalone_acks: int = 0  # acks that needed their own frame
    data_only_frames: int = 0

    @property
    def piggyback_ratio(self) -> float:
        """Share of acknowledgments that travelled for free."""
        total = self.piggybacked_acks + self.standalone_acks
        return self.piggybacked_acks / total if total else 0.0


class PiggybackMux:
    """Combines a direction's data and acknowledgments into frames.

    Looks like a channel (``send``) to both protocol halves; writes
    :class:`DuplexFrame` objects to the real channel.
    """

    def __init__(
        self,
        sim: Simulator,
        channel: Any,
        standalone_delay: float = 0.5,
        merge_spans: Optional[Callable[[BlockAck, BlockAck], Optional[BlockAck]]] = None,
    ) -> None:
        if standalone_delay < 0:
            raise ValueError(
                f"standalone_delay must be non-negative, got {standalone_delay}"
            )
        self.sim = sim
        self.channel = channel
        self.standalone_delay = standalone_delay
        self.stats = DuplexStats()
        self._pending_ack: Optional[BlockAck] = None
        self._merge = merge_spans
        self._flush_timer = Timer(sim, self._flush_standalone, name="pg-flush")

    # -- the facade both protocol halves write into ------------------------

    def send(self, message: Any) -> None:
        if isinstance(message, DataMessage):
            ack, self._pending_ack = self._pending_ack, None
            if ack is not None:
                self._flush_timer.stop()
                self.stats.piggybacked_acks += 1
            else:
                self.stats.data_only_frames += 1
            self._emit(DuplexFrame(data=message, ack=ack))
        elif isinstance(message, BlockAck):
            if message.urgent:
                # duplicate acks answer retransmissions: never delay them
                # (flush anything already held first, preserving order)
                self._flush_standalone()
                self.stats.standalone_acks += 1
                self._emit(DuplexFrame(ack=message))
                return
            self._hold_ack(message)
        else:
            raise TypeError(f"piggyback mux got {message!r}")

    def _hold_ack(self, ack: BlockAck) -> None:
        merged = None
        if self._pending_ack is not None and self._merge is not None:
            merged = self._merge(self._pending_ack, ack)
        if merged is not None:
            self._pending_ack = merged
        else:
            # nothing held, or disjoint blocks: flush any held one now
            self._flush_standalone()
            self._pending_ack = ack
        if not self._flush_timer.running:
            self._flush_timer.start(self.standalone_delay)

    def _flush_standalone(self) -> None:
        if self._pending_ack is None:
            return
        self.stats.standalone_acks += 1
        self._emit(DuplexFrame(ack=self._pending_ack))
        self._pending_ack = None

    def _emit(self, frame: DuplexFrame) -> None:
        self.stats.frames_sent += 1
        self.channel.send(frame)


class DuplexEndpoint:
    """One end of a full-duplex block-acknowledgment connection."""

    def __init__(
        self,
        name: str,
        window: int,
        numbering: Optional[Numbering] = None,
        timeout_mode: str = "per_message_safe",
        standalone_delay: float = 0.5,
    ) -> None:
        self.name = name
        self.numbering = numbering
        self.sender = BlockAckSender(
            window, numbering=numbering, timeout_mode=timeout_mode
        )
        self.sender.actor_name = f"{name}.sender"
        self.receiver = BlockAckReceiver(window, numbering=numbering)
        self.receiver.actor_name = f"{name}.receiver"
        self.standalone_delay = standalone_delay
        self.mux: Optional[PiggybackMux] = None
        self.delivered: List[Any] = []

    # -- wiring ---------------------------------------------------------

    def attach(
        self,
        sim: Simulator,
        out_channel: Any,
        timeout_period: float,
        trace=None,
    ) -> None:
        """Bind to the simulator and this endpoint's outgoing channel.

        ``timeout_period`` must cover: forward lifetime + receiver ack
        latency + mux holding delay + reverse lifetime (the duplex
        variant of :func:`repro.protocols.blockack.safe_timeout_period`).
        """
        self.mux = PiggybackMux(
            sim,
            out_channel,
            standalone_delay=self.standalone_delay,
            merge_spans=self._merge_adjacent,
        )
        self.sender.timeout_period = timeout_period
        self.sender.attach(sim, self.mux, trace)
        self.receiver.attach(sim, self.mux, trace)
        self.receiver.on_deliver = lambda seq, payload: self.delivered.append(
            payload
        )

    def _merge_adjacent(self, old: BlockAck, new: BlockAck) -> Optional[BlockAck]:
        """Merge two held block acks when they form one contiguous span.

        Receiver blocks are emitted in order — ``new.lo`` continues where
        ``old.hi`` ended (mod the wire domain, for bounded numbering) —
        so successive held blocks merge exactly.  Returns None when not
        adjacent (the caller flushes the older one instead).
        """
        domain = (
            self.numbering.domain_size if self.numbering is not None else None
        )
        successor = old.hi + 1 if domain is None else (old.hi + 1) % domain
        if new.lo == successor:
            return BlockAck(lo=old.lo, hi=new.hi)
        return None

    # -- frame reception ---------------------------------------------------

    def on_frame(self, frame: DuplexFrame) -> None:
        """Channel delivery callback: split and route the frame.

        The data half is processed *before* the ack half: the data part
        generates this side's acknowledgment into the mux first, so when
        the ack part opens the send window and new data goes out, the
        fresh acknowledgment rides along.  (Routing order affects only
        piggybacking efficiency, never correctness — the halves are
        independent protocol machines.)
        """
        if frame.data is not None:
            self.receiver.on_message(frame.data)
        if frame.ack is not None:
            self.sender.on_message(frame.ack)

    # -- convenience -------------------------------------------------------

    @property
    def all_done(self) -> bool:
        """All outgoing data acknowledged and nothing pending in the mux."""
        return (
            self.sender.all_acknowledged
            and (self.mux is None or self.mux._pending_ack is None)
        )
