"""UDP transport: the protocol endpoints on real sockets.

:class:`UdpTransport` presents the channel surface the endpoints expect
(``send`` / ``connect``) over a UDP socket, using the byte codec from
:mod:`repro.wire`.  UDP supplies genuine loss, duplication-free datagram
semantics, and (across real networks) reordering — the paper's channel
model, as shipped by the operating system.  An optional egress drop
probability injects loss deterministically for demos and tests on
loopback, where the kernel rarely loses anything.

All decoded messages are handed to the endpoint on the
:class:`~repro.transport.clock.RealtimeScheduler` worker thread, so the
protocol code keeps its single-threaded discipline.
"""

from __future__ import annotations

import random
import socket
import threading
from dataclasses import asdict, dataclass
from typing import Any, Callable, Optional, Tuple

from repro.transport.clock import RealtimeScheduler
from repro.wire.codec import CorruptFrame, decode_message, encode_message

__all__ = ["TransportStats", "UdpTransport"]

Address = Tuple[str, int]


@dataclass
class TransportStats:
    """Datagram-level counters for one UDP socket.

    ``corrupt_frames`` counts arriving frames that failed codec/CRC
    validation (:class:`~repro.wire.codec.CorruptFrame`) and were
    discarded in the receive loop — real-link corruption the protocol
    layer never sees, reported alongside the endpoints' own stats.  A
    harness whose endpoint takes one kind of message counts valid
    frames of any other kind here too.
    """

    sent: int = 0
    dropped: int = 0  # egress loss injection
    received: int = 0  # decoded and dispatched to the endpoint
    corrupt_frames: int = 0  # discarded: failed frame validation

    def as_dict(self) -> dict:
        return asdict(self)


class UdpTransport:
    """One direction-pair of UDP communication for a protocol endpoint.

    Parameters
    ----------
    scheduler:
        The realtime scheduler whose worker thread runs the endpoint.
    local:
        ``(host, port)`` to bind; port 0 picks a free port (see
        :attr:`local_address`).
    remote:
        Peer address to send to; may be set later via :meth:`set_remote`.
    drop_probability:
        Egress loss injection for tests/demos (loopback does not lose).
    """

    def __init__(
        self,
        scheduler: RealtimeScheduler,
        local: Address = ("127.0.0.1", 0),
        remote: Optional[Address] = None,
        drop_probability: float = 0.0,
        rng: Optional[random.Random] = None,
    ) -> None:
        if not 0.0 <= drop_probability <= 1.0:
            raise ValueError(
                f"drop_probability must be in [0, 1], got {drop_probability}"
            )
        self.scheduler = scheduler
        self.remote = remote
        self.drop_probability = drop_probability
        self.rng = rng if rng is not None else random.Random()
        self._receiver: Optional[Callable[[Any], None]] = None
        self._socket = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self._socket.bind(local)
        self._socket.settimeout(0.1)
        self._closed = threading.Event()
        self._rx_thread = threading.Thread(
            target=self._receive_loop, name="repro-udp-rx", daemon=True
        )
        self.stats = TransportStats()

    @property
    def local_address(self) -> Address:
        return self._socket.getsockname()

    def set_remote(self, remote: Address) -> None:
        self.remote = remote

    # -- the channel surface the endpoints expect ---------------------------

    def connect(self, receiver: Callable[[Any], None]) -> None:
        """Set the delivery callback and start receiving."""
        self._receiver = receiver
        if not self._rx_thread.is_alive():
            self._rx_thread.start()

    def send(self, message: Any) -> None:
        if self.remote is None:
            raise RuntimeError("remote address not set")
        self.stats.sent += 1
        if self.drop_probability and self.rng.random() < self.drop_probability:
            self.stats.dropped += 1
            return
        self._socket.sendto(encode_message(message), self.remote)

    # -- reception -------------------------------------------------------------

    def _receive_loop(self) -> None:
        while not self._closed.is_set():
            try:
                frame, _ = self._socket.recvfrom(65536 + 64)
            except socket.timeout:
                continue
            except OSError:
                return  # socket closed
            try:
                message = decode_message(frame)
            except CorruptFrame:
                # corruption on the wire: count it, drop the frame
                self.stats.corrupt_frames += 1
                continue
            self.stats.received += 1
            # hand off to the scheduler's worker: endpoints stay
            # single-threaded
            self.scheduler.call_soon(self._dispatch, message)

    def _dispatch(self, message: Any) -> None:
        if self._receiver is not None:
            self._receiver(message)

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        self._closed.set()
        try:
            self._socket.close()
        except OSError:  # pragma: no cover - close is best-effort
            pass

    def __enter__(self) -> "UdpTransport":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
