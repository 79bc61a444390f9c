"""Wrapper parity: every channel-shaped object carries the full surface.

The harness (runner, monitors, probes, obs sessions, oracle senders)
talks to channels through one implicit surface.  These tests make that
surface explicit (:mod:`repro.channel.surface`) and check every wrapper
— :class:`~repro.wire.framed.FramedChannel` and
:class:`~repro.channel.mux.FlowPort` — against it, so a new wrapper
cannot silently drop a capability and fail only deep inside a harness
run.  Also pins the link-label scheme: no two channel objects in a run
ever share a trace/obs ``channel=`` label.
"""

import random

import pytest

from repro.channel.arbiter import ArbiterConfig
from repro.channel.channel import Channel
from repro.channel.mux import FlowMux
from repro.channel.surface import (
    CHANNEL_SURFACE_ATTRS,
    CHANNEL_SURFACE_METHODS,
    ChannelSurface,
    missing_surface,
)
from repro.core.messages import DataMessage
from repro.sim.runner import LinkSpec
from repro.wire.framed import FramedChannel


def _raw_channel(sim, **kwargs):
    return Channel(sim, rng=random.Random(1), **kwargs)


class TestSurfaceContract:
    def test_channel_is_reference_implementation(self, sim):
        channel = _raw_channel(sim)
        assert isinstance(channel, ChannelSurface)
        assert missing_surface(channel) == []

    def test_framed_channel_complete(self, sim):
        framed = FramedChannel(_raw_channel(sim), 0.0)
        assert isinstance(framed, ChannelSurface)
        assert missing_surface(framed) == []

    def test_flow_port_complete(self, sim):
        port = FlowMux(_raw_channel(sim)).port(0)
        assert isinstance(port, ChannelSurface)
        assert missing_surface(port) == []

    def test_queued_flow_port_complete(self, sim):
        """An arbitrated (queue-backed) port carries the same surface."""
        mux = FlowMux(
            _raw_channel(sim), arbiter=ArbiterConfig(rate=2.0, burst=1.0)
        )
        port = mux.port(0)
        assert isinstance(port, ChannelSurface)
        assert missing_surface(port) == []

    def test_incomplete_wrapper_is_caught(self, sim):
        class Bare:
            def connect(self, receiver):
                pass

            def send(self, message):
                pass

        missing = missing_surface(Bare())
        for name in ("add_observer", "in_flight", "count_matching"):
            assert name in missing
        for name in CHANNEL_SURFACE_ATTRS:
            assert name in missing

    def test_surface_names_cover_harness_usage(self):
        # the names the runner/monitor/obs layers actually touch
        assert set(CHANNEL_SURFACE_METHODS) >= {
            "connect", "send", "add_observer", "in_flight", "count_matching"
        }
        assert set(CHANNEL_SURFACE_ATTRS) >= {
            "stats", "in_flight_count", "effective_max_lifetime", "name"
        }


class TestFramedForwarding:
    """FramedChannel must forward, not shadow, the inner channel's view."""

    def test_stats_are_the_inner_stats(self, sim):
        inner = _raw_channel(sim)
        framed = FramedChannel(inner, 0.0)
        assert framed.stats is inner.stats

    def test_in_flight_count_and_lifetime_forward(self, sim):
        inner = _raw_channel(sim, max_lifetime=7.5)
        framed = FramedChannel(inner, 0.0)
        framed.connect(lambda message: None)
        framed.send(DataMessage(seq=0, payload=b"x"))
        assert framed.in_flight_count == inner.in_flight_count == 1
        assert framed.effective_max_lifetime == inner.effective_max_lifetime

    def test_observer_sees_decoded_messages(self, sim):
        framed = FramedChannel(_raw_channel(sim), 0.0)
        framed.connect(lambda message: None)
        seen = []
        framed.add_observer(lambda kind, message: seen.append((kind, message)))
        framed.send(DataMessage(seq=3, payload=b"hi"))
        sim.run()
        kinds = [kind for kind, _ in seen]
        assert kinds == ["send", "deliver"]
        assert all(
            isinstance(message, DataMessage) and message.seq == 3
            for _, message in seen
        )


class TestLinkNaming:
    """Regression: unique, stable labels for every channel object."""

    def test_plain_link_uses_the_label(self, sim):
        channel = LinkSpec().build(sim, random.Random(1), "SR")
        assert channel.name == "SR"

    def test_framed_link_wrapper_owns_label_raw_gets_suffix(self, sim):
        framed = LinkSpec(bit_error_rate=1e-6).build(sim, random.Random(1), "SR")
        assert isinstance(framed, FramedChannel)
        assert framed.name == "SR"
        assert framed.inner.name == "SR.raw"

    def test_flow_ports_extend_the_link_label(self, sim):
        mux = FlowMux(LinkSpec().build(sim, random.Random(1), "SR"))
        assert [mux.port(i).name for i in range(3)] == [
            "SR.f0", "SR.f1", "SR.f2"
        ]

    def test_no_two_objects_share_a_label(self, sim):
        """The full stack of one run: two framed links, two flows each."""
        labels = []
        for link_name in ("SR", "RS"):
            framed = LinkSpec(bit_error_rate=1e-6).build(
                sim, random.Random(1), link_name
            )
            labels.extend([framed.name, framed.inner.name])
            mux = FlowMux(framed)
            labels.extend(mux.port(i).name for i in range(2))
        assert len(labels) == len(set(labels)), labels

    def test_framed_name_falls_back_to_inner(self, sim):
        framed = FramedChannel(_raw_channel(sim, name="X"), 0.0)
        assert framed.name == "X"


class TestFlowPortSurfaceBehaviour:
    def test_port_stats_and_inflight_are_per_flow(self, sim):
        mux = FlowMux(_raw_channel(sim))
        a, b = mux.port(0), mux.port(1)
        a.connect(lambda message: None)
        b.connect(lambda message: None)
        a.send(DataMessage(seq=0, payload="a"))
        a.send(DataMessage(seq=1, payload="a"))
        b.send(DataMessage(seq=0, payload="b"))
        assert a.in_flight_count == 2
        assert b.in_flight_count == 1
        assert mux.link.in_flight_count == 3
        assert a.count_matching(lambda m: m.seq == 0) == 1
        sim.run()
        assert a.stats.sent == a.stats.delivered == 2
        assert b.stats.sent == b.stats.delivered == 1
        assert a.is_empty and b.is_empty

    def test_port_lifetime_forwards(self, sim):
        link = _raw_channel(sim, max_lifetime=4.0)
        mux = FlowMux(link)
        assert mux.port(0).effective_max_lifetime == link.effective_max_lifetime

    def test_port_lifetime_unbounded_behind_an_unbounded_queue(self, sim):
        link = _raw_channel(sim, max_lifetime=4.0)
        bounded = FlowMux(link, arbiter=ArbiterConfig(rate=2.0, queue_limit=8))
        assert bounded.port(0).effective_max_lifetime == link.effective_max_lifetime
        unbounded = FlowMux(
            _raw_channel(sim, max_lifetime=4.0),
            arbiter=ArbiterConfig(rate=2.0, queue_limit=None),
        )
        assert unbounded.port(0).effective_max_lifetime is None

    def test_flow_id_outside_wire_domain_rejected(self, sim):
        mux = FlowMux(_raw_channel(sim))
        with pytest.raises(ValueError):
            mux.port(-1)
        with pytest.raises(ValueError):
            mux.port(0x10000)


class TestQueuedFlowPortParity:
    """An arbitrated port must behave like a (slower) plain port.

    The arbiter inserts a queue between ``FlowPort.send`` and the link,
    so the surface-level views — per-flow in-flight iteration, counts,
    stats after drain — must fold the queued frames in rather than
    silently losing them (the monitor and oracle layers iterate
    ``in_flight()`` to reason about outstanding messages).
    """

    def _queued_mux(self, sim, rate=1.0):
        return FlowMux(
            _raw_channel(sim), arbiter=ArbiterConfig(rate=rate, burst=1.0)
        )

    def test_queued_frames_count_as_in_flight(self, sim):
        mux = self._queued_mux(sim)
        port = mux.port(0)
        port.connect(lambda message: None)
        for seq in range(3):
            port.send(DataMessage(seq=seq, payload="x"))
        # burst=1: one frame reached the wire, two wait in the queue
        assert mux.link.in_flight_count == 1
        assert port.queue_depth == 2
        assert port.in_flight_count == 3
        assert sorted(m.seq for m in port.in_flight()) == [0, 1, 2]
        assert port.count_matching(lambda m: m.seq == 2) == 1

    def test_drain_delivers_everything_and_stats_match_plain(self, sim):
        plain = FlowMux(_raw_channel(sim)).port(0)
        queued = self._queued_mux(sim).port(1)
        for port in (plain, queued):
            port.connect(lambda message: None)
            for seq in range(4):
                port.send(DataMessage(seq=seq, payload="x"))
        sim.run()
        assert plain.stats.sent == plain.stats.delivered == 4
        assert queued.stats.sent == queued.stats.delivered == 4
        assert queued.queue_depth == 0 and queued.is_empty
        stats = queued.queue_stats
        assert stats is not None and stats["granted"] == 4

    def test_plain_port_reports_no_queue(self, sim):
        port = FlowMux(_raw_channel(sim)).port(0)
        assert port.queue_depth == 0
        assert port.queue_stats is None
