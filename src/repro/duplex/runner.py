"""Harnesses for full-duplex transfers: simulated and over real UDP.

Both harnesses wire the two endpoints the same way, stop on the same
completion predicate and report the same :class:`DuplexResult`; they
differ only in the clock, the links and where the timeouts come from.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Optional, Sequence, Tuple

from repro.core.numbering import ModularNumbering
from repro.duplex.endpoint import DuplexEndpoint, DuplexFrame
from repro.protocols.blockack import safe_timeout_period
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


@dataclass
class _Session:
    """Two duplex endpoints and the sources that drive them, on any clock."""

    a: DuplexEndpoint
    b: DuplexEndpoint
    source_a: Source
    source_b: Source

    def wire(
        self,
        clock: Any,
        outbound: Tuple[Any, Any],
        inbound: Tuple[Any, Any],
        timeouts: Tuple[float, float],
    ) -> None:
        """Attach both endpoints, connect their inbound links, then
        attach both sources; each pair is ``(for A, for B)``.

        Attaching a source submits its first payloads, and simulated
        results depend on this order.
        """
        self.a.attach(clock, outbound[0], timeout_period=timeouts[0])
        self.b.attach(clock, outbound[1], timeout_period=timeouts[1])
        inbound[0].connect(self.a.on_frame)
        inbound[1].connect(self.b.on_frame)
        self.source_a.attach(clock, self.a.sender)
        self.source_b.attach(clock, self.b.sender)

    def finished(self) -> bool:
        return (
            self.source_a.exhausted
            and self.source_b.exhausted
            and self.a.all_done
            and self.b.all_done
            and len(self.b.delivered) >= self.source_a.total
            and len(self.a.delivered) >= self.source_b.total
        )

    def result(self, completed: bool, duration: float) -> DuplexResult:
        a, b = self.a, self.b
        return DuplexResult(
            completed=completed,
            duration=duration,
            a_to_b_delivered=len(b.delivered),
            b_to_a_delivered=len(a.delivered),
            a_in_order=b.delivered
            == self.source_a.submitted[: len(b.delivered)],
            b_in_order=a.delivered
            == self.source_b.submitted[: len(a.delivered)],
            a_stats=a.sender.stats.as_dict(),
            b_stats=b.sender.stats.as_dict(),
            a_mux=asdict(a.mux.stats),
            b_mux=asdict(b.mux.stats),
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
    session = _Session(endpoint_a, endpoint_b, source_a, source_b)
    session.wire(
        sim,
        outbound=(channel_ab, channel_ba),
        inbound=(channel_ba, channel_ab),
        # each direction's ack returns on the opposite channel and may sit
        # in the peer's mux for its standalone delay first
        timeouts=(
            safe_timeout_period(
                bound_ab, bound_ba, endpoint_b.standalone_delay, margin=0.05
            ),
            safe_timeout_period(
                bound_ba, bound_ab, endpoint_a.standalone_delay, margin=0.05
            ),
        ),
    )
    # the host's boundary rule: an event at max_time fires, later ones
    # do not, and the clock stops at max_time
    sim.run_while(
        lambda: not session.finished(),
        max_time=max_time,
        max_events=max_events,
    )
    return session.result(session.finished(), sim.now)


@dataclass
class _DuplexOnly:
    """A UDP socket as a duplex endpoint's inbound link: the peer sends
    only duplex frames, so a valid frame of any other kind is outside
    input, counted as a corrupt frame and dropped before the endpoint."""

    socket: Any

    def connect(self, on_frame: Callable[[Any], None]) -> None:
        def receive(frame: Any) -> None:
            if isinstance(frame, DuplexFrame):
                on_frame(frame)
            else:
                self.socket.stats.corrupt_frames += 1

        self.socket.connect(receive)


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
    the wall-clock scheduler, each on its own socket; frames travel as
    the checksummed ``0x04`` frames of :mod:`repro.wire.codec`.  ``loss``
    injects egress drops both ways.  Returns the same
    :class:`DuplexResult` shape as the simulated harness (with
    wall-clock ``duration`` in seconds).
    """
    from repro.transport.clock import RealtimeScheduler
    from repro.transport.session import bytes_source
    from repro.transport.udp import UdpTransport

    endpoints = [
        DuplexEndpoint(
            name, window, numbering=ModularNumbering(window),
            standalone_delay=standalone_delay,
        )
        for name in "AB"
    ]
    session = _Session(
        *endpoints, bytes_source(payloads_a), bytes_source(payloads_b)
    )
    rng = random.Random(seed)

    with RealtimeScheduler() as clock:
        socket_a = UdpTransport(clock, drop_probability=loss, rng=rng)
        socket_b = UdpTransport(clock, drop_probability=loss, rng=rng)
        with socket_a, socket_b:
            socket_a.set_remote(socket_b.local_address)
            socket_b.set_remote(socket_a.local_address)
            start = clock.now
            # wiring submits the first payloads: it runs on the worker,
            # the one thread that runs endpoint code
            clock.call_soon(
                session.wire, clock, (socket_a, socket_b),
                (_DuplexOnly(socket_a), _DuplexOnly(socket_b)),
                (timeout_period, timeout_period),
            )
            completed = clock.run_while(
                lambda: not session.finished(), max_time=start + deadline
            )
            elapsed = clock.now - start

    return session.result(completed, elapsed)
