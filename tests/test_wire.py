"""Tests for the byte-level wire codec and framed channels."""

import random
import struct
import zlib

import pytest
from hypothesis import given, strategies as st

from repro.channel.channel import Channel
from repro.channel.delay import ConstantDelay, UniformDelay
from repro.core.messages import (
    BlockAck,
    CumulativeAck,
    DataMessage,
    DuplexFrame,
    FlowEnvelope,
    SackAck,
)
from repro.core.numbering import ModularNumbering
from repro.protocols.blockack import BlockAckReceiver, BlockAckSender
from repro.protocols.registry import make_pair, protocol_names
from repro.sim.runner import LinkSpec, run_transfer
from repro.wire.codec import (
    MAX_WIRE_SEQ,
    CorruptFrame,
    FrameError,
    decode_message,
    encode_message,
    frame_overhead,
)
from repro.wire.framed import FramedChannel
from repro.workloads.sources import GreedySource


class TestCodecRoundTrip:
    def test_data_message(self):
        message = DataMessage(seq=5, payload=b"hello", attempt=2)
        assert decode_message(encode_message(message)) == message

    def test_empty_payload(self):
        message = DataMessage(seq=0, payload=b"")
        decoded = decode_message(encode_message(message))
        assert decoded.payload == b""

    def test_none_payload_becomes_empty(self):
        decoded = decode_message(encode_message(DataMessage(seq=1)))
        assert decoded.payload == b""

    def test_block_ack(self):
        ack = BlockAck(lo=3, hi=9)
        assert decode_message(encode_message(ack)) == ack

    def test_wrapped_ack_pair(self):
        ack = BlockAck(lo=14, hi=1)  # wrapped mod-16 block
        decoded = decode_message(encode_message(ack))
        assert (decoded.lo, decoded.hi) == (14, 1)

    def test_urgent_flag_not_on_wire(self):
        # urgent is endpoint metadata; the wire carries only (lo, hi)
        decoded = decode_message(encode_message(BlockAck(2, 2, urgent=True)))
        assert decoded.urgent is False
        assert decoded == BlockAck(2, 2)  # compare ignores urgent anyway

    def test_overhead_constant(self):
        frame = encode_message(DataMessage(seq=0, payload=b"abcd"))
        assert len(frame) == frame_overhead() + 4

    @given(
        seq=st.integers(min_value=0, max_value=MAX_WIRE_SEQ),
        payload=st.binary(max_size=512),
        attempt=st.integers(min_value=0, max_value=100),
    )
    def test_data_roundtrip_property(self, seq, payload, attempt):
        message = DataMessage(seq=seq, payload=payload, attempt=attempt)
        assert decode_message(encode_message(message)) == message

    @given(
        lo=st.integers(min_value=0, max_value=MAX_WIRE_SEQ),
        hi=st.integers(min_value=0, max_value=MAX_WIRE_SEQ),
    )
    def test_ack_roundtrip_property(self, lo, hi):
        assert decode_message(encode_message(BlockAck(lo, hi))) == BlockAck(lo, hi)


def _wrap(frame_type, field_a, field_b, payload):
    """A CRC-valid frame with any header, built without the encoder."""
    body = struct.pack(">BHHH", frame_type, field_a, field_b, len(payload))
    return body + payload + struct.pack(">I", zlib.crc32(body + payload))


class TestFrameTypes:
    @pytest.mark.parametrize(
        "frame_type, message",
        [
            (0x01, DataMessage(seq=5, payload=b"hello", attempt=2)),
            (0x02, BlockAck(lo=14, hi=1)),
            (0x03, FlowEnvelope(flow=7, fseq=3, message=BlockAck(0, 2))),
            (0x04, DuplexFrame(data=DataMessage(seq=1, payload=b"d"), ack=BlockAck(2, 4))),
            (0x05, CumulativeAck(seq=12)),
            (0x06, SackAck(cum=-1, blocks=((3, 5), (8, 8)))),
        ],
        ids=["data", "block-ack", "envelope", "duplex", "cumulative-ack", "sack"],
    )
    def test_each_kind_has_its_own_type_byte(self, frame_type, message):
        frame = encode_message(message)
        assert frame[0] == frame_type
        assert decode_message(frame) == message

    def test_sack_without_blocks_round_trips(self):
        assert decode_message(encode_message(SackAck(cum=40))) == SackAck(cum=40)

    def test_nested_envelopes_are_damage_not_recursion(self):
        # 3,000 CRC-valid envelopes around one ack: the mux never nests
        # envelopes, so a second level is rejected before it is decoded
        frame = encode_message(BlockAck(0, 0))
        for _ in range(3000):
            frame = _wrap(0x03, 0, 0, frame)
        with pytest.raises(CorruptFrame):
            decode_message(frame)

    @pytest.mark.parametrize(
        "frame",
        [
            _wrap(0x03, 1, 0, encode_message(FlowEnvelope(2, 0, BlockAck(0, 0)))),
            _wrap(0x03, 1, 0, encode_message(DuplexFrame(ack=BlockAck(0, 0)))),
            _wrap(0x04, 0, 0, b""),
            _wrap(0x04, 11, 0, encode_message(BlockAck(0, 0))),
            _wrap(0x04, 0, 11, encode_message(DataMessage(seq=0))),
        ],
        ids=[
            "envelope-in-envelope",
            "duplex-in-envelope",
            "empty-duplex",
            "ack-as-data-part",
            "data-as-ack-part",
        ],
    )
    def test_only_flat_frames_of_the_right_kind_nest(self, frame):
        with pytest.raises(CorruptFrame):
            decode_message(frame)

    def test_nested_envelope_cannot_be_encoded(self):
        with pytest.raises(FrameError):
            encode_message(FlowEnvelope(1, 0, FlowEnvelope(2, 0, BlockAck(0, 0))))


class TestCodecValidation:
    def test_oversized_seq_rejected(self):
        with pytest.raises(FrameError):
            encode_message(DataMessage(seq=MAX_WIRE_SEQ + 1))

    def test_non_bytes_payload_rejected(self):
        with pytest.raises(FrameError):
            encode_message(DataMessage(seq=0, payload=("msg", 1)))

    def test_oversized_payload_rejected(self):
        with pytest.raises(FrameError):
            encode_message(DataMessage(seq=0, payload=b"x" * 70000))

    def test_unframeable_type_rejected(self):
        with pytest.raises(FrameError):
            encode_message("not a message")

    def test_short_frame_rejected(self):
        with pytest.raises(CorruptFrame):
            decode_message(b"tiny")

    def test_crc_catches_single_bit_flip(self):
        frame = bytearray(encode_message(DataMessage(seq=7, payload=b"data")))
        frame[2] ^= 0x10
        with pytest.raises(CorruptFrame):
            decode_message(bytes(frame))

    def test_crc_catches_truncation(self):
        frame = encode_message(DataMessage(seq=7, payload=b"data"))
        with pytest.raises(CorruptFrame):
            decode_message(frame[:-1])

    @given(
        payload=st.binary(min_size=1, max_size=64),
        bit=st.integers(min_value=0),
    )
    def test_any_single_bit_flip_detected(self, payload, bit):
        frame = bytearray(encode_message(DataMessage(seq=3, payload=payload)))
        position = bit % (len(frame) * 8)
        frame[position // 8] ^= 1 << (position % 8)
        with pytest.raises(CorruptFrame):
            decode_message(bytes(frame))

    @given(garbage=st.binary(max_size=256))
    def test_decoder_never_crashes_on_garbage(self, garbage):
        """Fuzz: arbitrary bytes either decode or raise CorruptFrame —
        never any other exception (a CRC collision on random bytes is
        astronomically unlikely but would still be a *clean* decode)."""
        try:
            decode_message(garbage)
        except CorruptFrame:
            pass

    @given(
        payload=st.binary(max_size=64),
        junk=st.binary(min_size=1, max_size=16),
    )
    def test_trailing_junk_detected(self, payload, junk):
        frame = encode_message(DataMessage(seq=1, payload=payload))
        with pytest.raises(CorruptFrame):
            decode_message(frame + junk)


class TestFramedChannel:
    def _make(self, sim, ber=0.0, delay=None):
        inner = Channel(
            sim,
            delay=delay if delay is not None else ConstantDelay(1.0),
            rng=random.Random(1),
        )
        framed = FramedChannel(inner, bit_error_rate=ber, rng=random.Random(2))
        received = []
        framed.connect(received.append)
        return framed, received

    def test_clean_link_delivers_messages(self, sim):
        framed, received = self._make(sim)
        framed.send(DataMessage(seq=1, payload=b"pay"))
        framed.send(BlockAck(lo=0, hi=3))
        sim.run()
        assert received == [DataMessage(seq=1, payload=b"pay"), BlockAck(0, 3)]

    def test_corrupted_frames_discarded(self, sim):
        framed, received = self._make(sim, ber=0.02)  # heavy noise
        for index in range(200):
            framed.send(DataMessage(seq=index % 16, payload=b"x" * 20))
        sim.run()
        assert framed.discarded > 0
        assert len(received) + framed.discarded == 200

    def test_full_noise_kills_everything(self, sim):
        framed, received = self._make(sim, ber=1.0)
        framed.send(DataMessage(seq=0, payload=b"doomed"))
        sim.run()
        assert received == []
        assert framed.discarded == 1

    def test_bytes_accounting(self, sim):
        framed, _ = self._make(sim)
        framed.send(DataMessage(seq=0, payload=b"12345"))
        assert framed.bytes_sent == frame_overhead() + 5

    def test_in_flight_decodes(self, sim):
        framed, _ = self._make(sim, delay=ConstantDelay(5.0))
        framed.send(DataMessage(seq=9, payload=b"q"))
        in_flight = list(framed.in_flight())
        assert in_flight == [DataMessage(seq=9, payload=b"q")]
        assert framed.count_matching(
            lambda m: isinstance(m, DataMessage) and m.seq == 9
        ) == 1

    def test_invalid_ber_rejected(self, sim):
        inner = Channel(sim)
        with pytest.raises(ValueError):
            FramedChannel(inner, bit_error_rate=1.5)

    def test_observer_sees_decoded_messages(self, sim):
        framed, _ = self._make(sim)
        seen = []
        framed.add_observer(lambda kind, m: seen.append((kind, type(m).__name__)))
        framed.send(DataMessage(seq=0, payload=b""))
        sim.run()
        assert ("send", "DataMessage") in seen
        assert ("deliver", "DataMessage") in seen


class _ByteSource(GreedySource):
    def _make_payload(self):
        return f"chunk-{len(self.submitted):05d}".encode()


class TestEndToEndOverNoise:
    def test_protocol_survives_bit_errors(self):
        numbering = ModularNumbering(8)
        sender = BlockAckSender(
            8, numbering=numbering, timeout_mode="per_message_safe"
        )
        receiver = BlockAckReceiver(8, numbering=numbering)
        link = lambda: LinkSpec(
            delay=UniformDelay(0.5, 1.5), bit_error_rate=3e-4
        )
        result = run_transfer(
            sender, receiver, _ByteSource(300),
            forward=link(), reverse=link(), seed=3,
            collect_payloads=True, max_time=1_000_000.0,
        )
        assert result.completed and result.in_order
        assert result.delivered_payloads == [
            f"chunk-{i:05d}".encode() for i in range(300)
        ]
        assert result.sender_stats["retransmissions"] > 0  # noise did bite

    @pytest.mark.parametrize("name", protocol_names())
    def test_every_protocol_completes_over_bit_errors(self, name):
        class WideSource(_ByteSource):
            def _make_payload(self):
                return super()._make_payload().ljust(100, b".")

        sender, receiver = make_pair(name, window=4)
        link = lambda: LinkSpec(
            delay=UniformDelay(0.5, 1.5), max_lifetime=1.5, bit_error_rate=1e-4
        )
        result = run_transfer(
            sender, receiver, WideSource(300),
            forward=link(), reverse=link(), seed=1,
        )
        assert result.completed and result.in_order
        assert result.forward_stats["discarded"] > 0  # noise did bite

    def test_timeout_derivation_through_framing(self):
        sender = BlockAckSender(4)
        receiver = BlockAckReceiver(4)
        result = run_transfer(
            sender, receiver, _ByteSource(20),
            forward=LinkSpec(bit_error_rate=1e-5),
            reverse=LinkSpec(bit_error_rate=1e-5),
            seed=1,
        )
        assert result.completed
        assert result.timeout_period == pytest.approx(2.05)
