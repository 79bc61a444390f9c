"""Harnesses for full-duplex transfers: simulated and over real UDP."""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.duplex.endpoint import DuplexEndpoint
from repro.sim.engine import Simulator
from repro.sim.randomness import RandomStreams
from repro.sim.runner import LinkSpec
from repro.workloads.sources import Source

__all__ = ["DuplexResult", "run_duplex", "duplex_over_udp"]


@dataclass
class DuplexResult:
    """Measurements from one bidirectional transfer."""

    completed: bool
    duration: float
    a_to_b_delivered: int
    b_to_a_delivered: int
    a_in_order: bool
    b_in_order: bool
    a_stats: dict = field(default_factory=dict)
    b_stats: dict = field(default_factory=dict)
    a_mux: dict = field(default_factory=dict)
    b_mux: dict = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return self.completed and self.a_in_order and self.b_in_order

    def piggyback_ratio(self) -> float:
        """Overall share of acknowledgments that rode on data frames."""
        rode = self.a_mux["piggybacked_acks"] + self.b_mux["piggybacked_acks"]
        alone = self.a_mux["standalone_acks"] + self.b_mux["standalone_acks"]
        total = rode + alone
        return rode / total if total else 0.0

    def summary(self) -> str:
        status = "completed" if self.completed else "INCOMPLETE"
        order = (
            "in-order"
            if self.a_in_order and self.b_in_order
            else "ORDER VIOLATION"
        )
        return (
            f"{status}/{order}: A->B {self.a_to_b_delivered}, "
            f"B->A {self.b_to_a_delivered} in {self.duration:.2f}tu; "
            f"piggyback ratio {self.piggyback_ratio():.0%}"
        )


def run_duplex(
    endpoint_a: DuplexEndpoint,
    endpoint_b: DuplexEndpoint,
    source_a: Source,
    source_b: Source,
    link_ab: Optional[LinkSpec] = None,
    link_ba: Optional[LinkSpec] = None,
    seed: int = 0,
    max_time: Optional[float] = None,
    max_events: int = 20_000_000,
) -> DuplexResult:
    """Run a bidirectional transfer between two duplex endpoints.

    ``source_a`` drives A's outgoing data (delivered at B) and vice
    versa.  Timeout periods are derived from the channel bounds plus each
    mux's acknowledgment-holding delay.
    """
    sim = Simulator()
    streams = RandomStreams(seed)
    spec_ab = link_ab if link_ab is not None else LinkSpec()
    spec_ba = link_ba if link_ba is not None else LinkSpec()
    channel_ab = spec_ab.build(sim, streams.get("channel.ab"), "AB")
    channel_ba = spec_ba.build(sim, streams.get("channel.ba"), "BA")

    bound_ab = channel_ab.effective_max_lifetime
    bound_ba = channel_ba.effective_max_lifetime
    if bound_ab is None or bound_ba is None:
        raise ValueError(
            "duplex timeout derivation needs bounded channels; set "
            "LinkSpec.max_lifetime for unbounded delay models"
        )
    # each direction's ack returns on the opposite channel and may sit in
    # the peer's mux for its standalone delay first
    timeout_a = (
        bound_ab + endpoint_b.standalone_delay + bound_ba + 0.05
    )
    timeout_b = (
        bound_ba + endpoint_a.standalone_delay + bound_ab + 0.05
    )

    endpoint_a.attach(sim, channel_ab, timeout_period=timeout_a)
    endpoint_b.attach(sim, channel_ba, timeout_period=timeout_b)
    channel_ab.connect(endpoint_b.on_frame)
    channel_ba.connect(endpoint_a.on_frame)

    source_a.attach(sim, endpoint_a.sender)
    source_b.attach(sim, endpoint_b.sender)

    def finished() -> bool:
        return (
            source_a.exhausted
            and source_b.exhausted
            and endpoint_a.all_done
            and endpoint_b.all_done
            and len(endpoint_b.delivered) >= source_a.total
            and len(endpoint_a.delivered) >= source_b.total
        )

    # the host's boundary rule: an event at max_time fires, later ones
    # do not, and the clock stops at max_time
    sim.run_while(
        lambda: not finished(), max_time=max_time, max_events=max_events
    )

    return DuplexResult(
        completed=finished(),
        duration=sim.now,
        a_to_b_delivered=len(endpoint_b.delivered),
        b_to_a_delivered=len(endpoint_a.delivered),
        a_in_order=endpoint_b.delivered
        == source_a.submitted[: len(endpoint_b.delivered)],
        b_in_order=endpoint_a.delivered
        == source_b.submitted[: len(endpoint_a.delivered)],
        a_stats=endpoint_a.sender.stats.as_dict(),
        b_stats=endpoint_b.sender.stats.as_dict(),
        a_mux={
            "frames_sent": endpoint_a.mux.stats.frames_sent,
            "piggybacked_acks": endpoint_a.mux.stats.piggybacked_acks,
            "standalone_acks": endpoint_a.mux.stats.standalone_acks,
            "data_only_frames": endpoint_a.mux.stats.data_only_frames,
        },
        b_mux={
            "frames_sent": endpoint_b.mux.stats.frames_sent,
            "piggybacked_acks": endpoint_b.mux.stats.piggybacked_acks,
            "standalone_acks": endpoint_b.mux.stats.standalone_acks,
            "data_only_frames": endpoint_b.mux.stats.data_only_frames,
        },
    )


def duplex_over_udp(
    payloads_a: Sequence[bytes],
    payloads_b: Sequence[bytes],
    window: int = 8,
    loss: float = 0.0,
    timeout_period: float = 0.25,
    standalone_delay: float = 0.02,
    deadline: float = 30.0,
    seed: Optional[int] = None,
) -> "DuplexResult":
    """Bidirectional transfer over two real loopback UDP sockets.

    The duplex endpoints (including the piggyback mux) run unchanged on
    the wall-clock scheduler; frames travel as checksummed bytes using
    the combo codec of :mod:`repro.duplex.codec`.  ``loss`` injects
    egress drops both ways.  Returns the same :class:`DuplexResult` shape
    as the simulated harness (with wall-clock ``duration`` in seconds).
    """
    import random as _random

    from repro.core.numbering import ModularNumbering
    from repro.duplex.codec import decode_frame, encode_frame
    from repro.transport.clock import RealtimeScheduler
    from repro.transport.udp import UdpTransport

    for payload in list(payloads_a) + list(payloads_b):
        if not isinstance(payload, (bytes, bytearray)):
            raise TypeError("UDP duplex payloads must be bytes")

    endpoint_a = DuplexEndpoint(
        "A", window, numbering=ModularNumbering(window),
        standalone_delay=standalone_delay,
    )
    endpoint_b = DuplexEndpoint(
        "B", window, numbering=ModularNumbering(window),
        standalone_delay=standalone_delay,
    )
    rng = _random.Random(seed)
    done = threading.Event()

    with RealtimeScheduler() as clock:
        socket_a = UdpTransport(
            clock, drop_probability=loss, rng=rng,
            encode=encode_frame, decode=decode_frame,
        )
        socket_b = UdpTransport(
            clock, drop_probability=loss, rng=rng,
            encode=encode_frame, decode=decode_frame,
        )
        socket_a.set_remote(socket_b.local_address)
        socket_b.set_remote(socket_a.local_address)
        try:
            endpoint_a.attach(clock, socket_a, timeout_period=timeout_period)
            endpoint_b.attach(clock, socket_b, timeout_period=timeout_period)
            socket_a.connect(endpoint_a.on_frame)
            socket_b.connect(endpoint_b.on_frame)

            pending_a = list(payloads_a)
            pending_b = list(payloads_b)

            def pump(endpoint: DuplexEndpoint, pending: list) -> None:
                while pending and endpoint.sender.can_accept:
                    endpoint.sender.submit(pending.pop(0))

            endpoint_a.sender.on_window_open = lambda: pump(endpoint_a, pending_a)
            endpoint_b.sender.on_window_open = lambda: pump(endpoint_b, pending_b)

            def watch() -> None:
                if (
                    not pending_a
                    and not pending_b
                    and endpoint_a.all_done
                    and endpoint_b.all_done
                    and len(endpoint_b.delivered) >= len(payloads_a)
                    and len(endpoint_a.delivered) >= len(payloads_b)
                ):
                    done.set()
                else:
                    clock.schedule(0.02, watch)

            start = clock.now
            clock.call_soon(pump, endpoint_a, pending_a)
            clock.call_soon(pump, endpoint_b, pending_b)
            clock.call_soon(watch)
            completed = done.wait(timeout=deadline)
            elapsed = clock.now - start
        finally:
            socket_a.close()
            socket_b.close()

    return DuplexResult(
        completed=completed,
        duration=elapsed,
        a_to_b_delivered=len(endpoint_b.delivered),
        b_to_a_delivered=len(endpoint_a.delivered),
        a_in_order=list(endpoint_b.delivered) == list(payloads_a)[: len(endpoint_b.delivered)],
        b_in_order=list(endpoint_a.delivered) == list(payloads_b)[: len(endpoint_a.delivered)],
        a_stats=endpoint_a.sender.stats.as_dict(),
        b_stats=endpoint_b.sender.stats.as_dict(),
        a_mux={
            "frames_sent": endpoint_a.mux.stats.frames_sent,
            "piggybacked_acks": endpoint_a.mux.stats.piggybacked_acks,
            "standalone_acks": endpoint_a.mux.stats.standalone_acks,
            "data_only_frames": endpoint_a.mux.stats.data_only_frames,
        },
        b_mux={
            "frames_sent": endpoint_b.mux.stats.frames_sent,
            "piggybacked_acks": endpoint_b.mux.stats.piggybacked_acks,
            "standalone_acks": endpoint_b.mux.stats.standalone_acks,
            "data_only_frames": endpoint_b.mux.stats.data_only_frames,
        },
    )
