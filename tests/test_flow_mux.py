"""Flow multiplexing: envelopes, demux routing, per-flow accounting.

Covers the link layer of the multi-flow host: the
:class:`~repro.core.messages.FlowEnvelope` wire format (object transit
on raw channels, ``0x03`` frames on framed links),
:class:`~repro.channel.mux.FlowMux` delivery routing, per-flow channel
statistics, and the error paths that keep cross-flow misdelivery
structurally impossible.
"""

import random

import pytest

from repro.channel.channel import Channel
from repro.channel.impairments import BernoulliLoss
from repro.channel.mux import FlowMux
from repro.core.messages import BlockAck, DataMessage, FlowEnvelope
from repro.wire.codec import (
    CorruptFrame,
    FrameError,
    MAX_FLOW_ID,
    decode_message,
    encode_message,
)
from repro.wire.framed import FramedChannel


def _channel(sim, **kwargs):
    return Channel(sim, rng=random.Random(7), **kwargs)


class TestEnvelopeCodec:
    def test_round_trip_data(self):
        envelope = FlowEnvelope(
            flow=5, fseq=9, message=DataMessage(seq=3, payload=b"hello")
        )
        decoded = decode_message(encode_message(envelope))
        assert decoded == envelope

    def test_round_trip_ack(self):
        envelope = FlowEnvelope(flow=0, fseq=0, message=BlockAck(lo=2, hi=8))
        assert decode_message(encode_message(envelope)) == envelope

    def test_fseq_wraps_mod_2_16(self):
        envelope = FlowEnvelope(
            flow=1, fseq=0x1_0005, message=BlockAck(lo=0, hi=0)
        )
        decoded = decode_message(encode_message(envelope))
        assert decoded.fseq == 0x0005  # diagnostic counter wraps on the wire

    def test_flow_id_outside_domain_rejected(self):
        envelope = FlowEnvelope(
            flow=MAX_FLOW_ID + 1, fseq=0, message=BlockAck(lo=0, hi=0)
        )
        with pytest.raises(FrameError):
            encode_message(envelope)

    def test_oversized_inner_frame_rejected(self):
        envelope = FlowEnvelope(
            flow=0, fseq=0,
            message=DataMessage(seq=0, payload=b"x" * 0xFFF8),
        )
        with pytest.raises(FrameError):
            encode_message(envelope)

    def test_bit_flip_discards_envelope_whole(self):
        frame = bytearray(
            encode_message(
                FlowEnvelope(
                    flow=2, fseq=1, message=DataMessage(seq=0, payload=b"p")
                )
            )
        )
        frame[6] ^= 0x40  # damage the *inner* frame's bytes
        with pytest.raises(CorruptFrame):
            decode_message(bytes(frame))  # outer CRC rejects the whole thing


class TestDemux:
    def test_routes_to_the_right_flow(self, sim):
        mux = FlowMux(_channel(sim))
        got = {0: [], 1: []}
        mux.port(0).connect(got[0].append)
        mux.port(1).connect(got[1].append)
        mux.port(0).send(DataMessage(seq=0, payload="a"))
        mux.port(1).send(DataMessage(seq=0, payload="b"))
        mux.port(0).send(DataMessage(seq=1, payload="c"))
        sim.run()
        assert [m.payload for m in got[0]] == ["a", "c"]
        assert [m.payload for m in got[1]] == ["b"]

    def test_ports_listing_in_flow_order(self, sim):
        mux = FlowMux(_channel(sim))
        mux.port(3), mux.port(1), mux.port(2)
        assert [port.flow for port in mux.ports()] == [1, 2, 3]
        assert mux.port(1) is mux.ports()[0]  # created once, reused

    def test_untagged_message_raises(self, sim):
        mux = FlowMux(_channel(sim))
        mux.port(0).connect(lambda message: None)
        mux.link.send(DataMessage(seq=0, payload="raw"))
        with pytest.raises(TypeError):
            sim.run()

    def test_unconnected_flow_raises(self, sim):
        mux = FlowMux(_channel(sim))
        mux.port(0).send(DataMessage(seq=0, payload="x"))  # port 0 never connects
        with pytest.raises(RuntimeError):
            sim.run()

    def test_observers_see_unwrapped_messages(self, sim):
        mux = FlowMux(_channel(sim))
        port = mux.port(4)
        port.connect(lambda message: None)
        seen = []
        port.add_observer(lambda kind, message: seen.append((kind, message)))
        message = DataMessage(seq=2, payload="payload")
        port.send(message)
        sim.run()
        assert seen == [("send", message), ("deliver", message)]


class TestPerFlowStats:
    def test_loss_charged_to_the_losing_flow(self, sim):
        # flow 1's messages all die; flow 0 observes a perfect channel
        mux = FlowMux(_channel(sim, loss=BernoulliLoss(0.0)))
        lossy = FlowMux(_channel(sim, loss=BernoulliLoss(1.0)))
        clean_port = mux.port(0)
        dead_port = lossy.port(0)
        clean_port.connect(lambda message: None)
        dead_port.connect(lambda message: None)
        clean_port.send(DataMessage(seq=0, payload="ok"))
        dead_port.send(DataMessage(seq=0, payload="gone"))
        sim.run()
        assert clean_port.stats.delivered == 1 and clean_port.stats.lost == 0
        assert dead_port.stats.delivered == 0 and dead_port.stats.lost == 1

    def test_cross_flow_overtaking_not_counted_as_reorder(self, sim):
        # flow 0 sends before flow 1, flow 1 delivers first: neither flow
        # saw *its own* messages reordered, so neither is charged
        channel = Channel(
            sim,
            delay=_VariableDelay([3.0, 1.0]),
            rng=random.Random(1),
        )
        mux = FlowMux(channel)
        a, b = mux.port(0), mux.port(1)
        a.connect(lambda message: None)
        b.connect(lambda message: None)
        a.send(DataMessage(seq=0, payload="slow"))
        b.send(DataMessage(seq=0, payload="fast"))
        sim.run()
        assert channel.stats.reordered == 1  # the link did reorder...
        assert a.stats.reordered == 0  # ...but no flow saw it
        assert b.stats.reordered == 0

    def test_intra_flow_overtaking_is_counted(self, sim):
        channel = Channel(
            sim,
            delay=_VariableDelay([3.0, 1.0]),
            rng=random.Random(1),
        )
        port = FlowMux(channel).port(0)
        port.connect(lambda message: None)
        port.send(DataMessage(seq=0, payload="slow"))
        port.send(DataMessage(seq=1, payload="fast"))
        sim.run()
        assert port.stats.reordered == 1


class _VariableDelay:
    """Scripted per-send delays (deterministic reordering)."""

    def __init__(self, delays):
        self._delays = list(delays)

    def sample(self, rng):
        return self._delays.pop(0) if self._delays else 1.0

    @property
    def max_delay(self):
        return None

    @property
    def mean_delay(self):
        return 1.0


class TestReorderMarkAcrossTheWrap:
    """Framed links carry ``fseq`` mod 2**16; reorder marks compare so."""

    @staticmethod
    def port_near_the_wrap(sim, framed, delays=()):
        channel = Channel(sim, delay=_VariableDelay(delays), rng=random.Random(1))
        port = FlowMux(FramedChannel(channel, 0.0) if framed else channel).port(0)
        port.connect(lambda message: None)
        port._next_fseq = 0xFFFF - 5  # six frames short of the wrap
        return port

    @pytest.mark.parametrize("framed", [True, False], ids=["framed", "plain"])
    def test_in_order_frames_across_the_wrap_count_no_reorder(self, sim, framed):
        port = self.port_near_the_wrap(sim, framed)
        for seq in range(12):
            port.send(DataMessage(seq=seq, payload=b"x"))
        sim.run()
        assert port.stats.delivered == 12
        assert port.stats.reordered == 0

    @pytest.mark.parametrize("framed", [True, False], ids=["framed", "plain"])
    def test_an_overtake_across_the_wrap_counts_once(self, sim, framed):
        # the last frame before the wrap arrives after two past it
        port = self.port_near_the_wrap(sim, framed, [1.0] * 5 + [3.0])
        for seq in range(8):
            port.send(DataMessage(seq=seq, payload=b"x"))
        sim.run()
        assert port.stats.delivered == 8
        assert port.stats.reordered == 1


class TestFramedTransit:
    def test_envelopes_cross_a_framed_link(self, sim):
        framed = FramedChannel(_channel(sim), 0.0)
        mux = FlowMux(framed)
        got = {0: [], 1: []}
        mux.port(0).connect(got[0].append)
        mux.port(1).connect(got[1].append)
        mux.port(0).send(DataMessage(seq=0, payload=b"zero"))
        mux.port(1).send(BlockAck(lo=0, hi=4))
        sim.run()
        assert got[0] == [DataMessage(seq=0, payload=b"zero", attempt=0)]
        assert got[1] == [BlockAck(lo=0, hi=4)]
        assert framed.bytes_sent > 0

    def test_corruption_becomes_clean_per_flow_loss(self, sim):
        # BER=1 flips every bit: every envelope dies at the CRC check,
        # nothing is ever misrouted, and the mux sees no deliveries
        framed = FramedChannel(_channel(sim), 1.0)
        mux = FlowMux(framed)
        port = mux.port(0)
        got = []
        port.connect(got.append)
        port.send(DataMessage(seq=0, payload=b"doomed"))
        sim.run()
        assert got == []
        assert framed.discarded == 1
