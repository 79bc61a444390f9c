"""High-level helper: ship a list of byte payloads over UDP, reliably.

:func:`transfer_over_udp` wires two block-acknowledgment endpoints (the
same objects the simulator runs) to two UDP sockets on loopback-or-
anywhere, feeds the sender the payloads in order, and blocks until every
payload is delivered in order and acknowledged — or a wall-clock deadline
passes.

This is the zero-to-reliable-transport path for library users::

    stats = transfer_over_udp([b"one", b"two", b"three"], loss=0.2)
    assert stats.delivered == [b"one", b"two", b"three"]
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence

from repro.core.numbering import ModularNumbering
from repro.protocols.blockack import BlockAckReceiver, BlockAckSender
from repro.transport.clock import RealtimeScheduler
from repro.transport.udp import UdpTransport
from repro.workloads.sources import ListSource

__all__ = ["transfer_over_udp", "UdpTransferStats", "bytes_source"]


class UdpTransferStats:
    """What a UDP transfer did, for reporting."""

    def __init__(self) -> None:
        self.delivered: List[bytes] = []
        self.data_sent = 0
        self.retransmissions = 0
        self.acks_sent = 0
        self.duration = 0.0
        self.completed = False
        self.sender_transport: dict = {}  # datagram counters, sender socket
        self.receiver_transport: dict = {}  # ... and receiver socket
        self.corrupt_frames = 0  # frames discarded on arrival, both sockets


def bytes_source(payloads: Sequence[bytes]) -> ListSource:
    """A greedy source over ``payloads``; UDP frames carry bytes only."""
    for payload in payloads:
        if not isinstance(payload, (bytes, bytearray)):
            kind = type(payload).__name__
            raise TypeError(f"UDP payloads must be bytes, got {kind}")
    return ListSource(payloads)


def transfer_over_udp(
    payloads: Sequence[bytes],
    window: int = 8,
    loss: float = 0.0,
    timeout_period: float = 0.25,
    deadline: float = 30.0,
    seed: Optional[int] = None,
    timeout_mode: str = "per_message_safe",
) -> UdpTransferStats:
    """Reliably deliver ``payloads`` over loopback UDP; return statistics.

    ``loss`` injects egress drops on both directions (loopback itself is
    effectively lossless).  ``timeout_period`` is in wall-clock seconds
    and must exceed the realistic round trip plus scheduling slack; the
    0.25 s default is very conservative for loopback.  The ``oracle``
    timeout mode reads the simulator's channels, so it is rejected here.
    """
    if timeout_mode == "oracle":
        raise ValueError(
            "timeout_mode 'oracle' reads the simulated channels and "
            "cannot run over UDP"
        )
    source = bytes_source(payloads)
    stats = UdpTransferStats()
    numbering = ModularNumbering(window)
    sender = BlockAckSender(
        window,
        numbering=numbering,
        timeout_mode=timeout_mode,
        timeout_period=timeout_period,
        reverse_lifetime=timeout_period,
    )
    receiver = BlockAckReceiver(window, numbering=numbering)
    receiver.on_deliver = lambda seq, payload: stats.delivered.append(payload)
    rng = random.Random(seed)

    def busy() -> bool:
        return len(stats.delivered) < source.total or not sender.all_acknowledged

    with RealtimeScheduler() as clock:
        # two bidirectional sockets: each endpoint sends AND receives on
        # its own (data out / acks in for the sender, and vice versa)
        sender_socket = UdpTransport(clock, drop_probability=loss, rng=rng)
        receiver_socket = UdpTransport(clock, drop_probability=loss, rng=rng)
        sender_socket.set_remote(receiver_socket.local_address)
        receiver_socket.set_remote(sender_socket.local_address)

        def wire() -> None:
            sender.attach(clock, sender_socket)
            receiver.attach(clock, receiver_socket)
            sender_socket.connect(sender.on_message)  # acks arrive here
            receiver_socket.connect(receiver.on_message)  # data arrives here
            source.attach(clock, sender)

        with sender_socket, receiver_socket:
            start = clock.now
            clock.call_soon(wire)
            stats.completed = clock.run_while(busy, max_time=start + deadline)
            stats.duration = clock.now - start

    stats.data_sent = sender.stats.data_sent
    stats.retransmissions = sender.stats.retransmissions
    stats.acks_sent = receiver.stats.acks_sent
    stats.sender_transport = sender_socket.stats.as_dict()
    stats.receiver_transport = receiver_socket.stats.as_dict()
    stats.corrupt_frames = (
        sender_socket.stats.corrupt_frames
        + receiver_socket.stats.corrupt_frames
    )
    return stats
