"""Real transports: the simulator's endpoints on wall clocks and sockets."""

from repro.transport.clock import RealtimeScheduler
from repro.transport.session import UdpTransferStats, transfer_over_udp
from repro.transport.udp import UdpTransport

__all__ = [
    "RealtimeScheduler",
    "UdpTransport",
    "transfer_over_udp",
    "UdpTransferStats",
]
