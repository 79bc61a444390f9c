"""Tests for the duplex combo-frame codec and duplex-over-UDP."""

import pytest
from hypothesis import given, strategies as st

from repro.core.messages import BlockAck, DataMessage
from repro.duplex.endpoint import DuplexFrame
from repro.duplex.runner import duplex_over_udp
from repro.wire.codec import CorruptFrame, FrameError
from repro.wire.codec import decode_message as decode_frame
from repro.wire.codec import encode_message as encode_frame


class TestCodecRoundTrip:
    def test_data_only(self):
        frame = DuplexFrame(data=DataMessage(seq=5, payload=b"x", attempt=1))
        decoded = decode_frame(encode_frame(frame))
        assert decoded.data == frame.data and decoded.ack is None

    def test_ack_only(self):
        frame = DuplexFrame(ack=BlockAck(lo=2, hi=6))
        decoded = decode_frame(encode_frame(frame))
        assert decoded.ack == BlockAck(2, 6) and decoded.data is None

    def test_combined(self):
        frame = DuplexFrame(
            data=DataMessage(seq=9, payload=b"payload"),
            ack=BlockAck(lo=0, hi=3),
        )
        decoded = decode_frame(encode_frame(frame))
        assert decoded.data == frame.data
        assert decoded.ack == frame.ack

    def test_none_payload_becomes_empty(self):
        frame = DuplexFrame(data=DataMessage(seq=0))
        assert decode_frame(encode_frame(frame)).data.payload == b""

    @given(
        seq=st.integers(min_value=0, max_value=0xFFFF),
        lo=st.integers(min_value=0, max_value=0xFFFF),
        hi=st.integers(min_value=0, max_value=0xFFFF),
        payload=st.binary(max_size=128),
        has_data=st.booleans(),
        has_ack=st.booleans(),
    )
    def test_roundtrip_property(self, seq, lo, hi, payload, has_data, has_ack):
        if not has_data and not has_ack:
            return
        frame = DuplexFrame(
            data=DataMessage(seq=seq, payload=payload) if has_data else None,
            ack=BlockAck(lo, hi) if has_ack else None,
        )
        decoded = decode_frame(encode_frame(frame))
        assert decoded.data == frame.data
        assert decoded.ack == frame.ack


class TestCodecValidation:
    def test_empty_frame_rejected(self):
        with pytest.raises(FrameError):
            encode_frame(DuplexFrame())

    def test_non_bytes_payload_rejected(self):
        with pytest.raises(FrameError):
            encode_frame(DuplexFrame(data=DataMessage(seq=0, payload=123)))

    def test_bit_flip_detected(self):
        blob = bytearray(
            encode_frame(DuplexFrame(data=DataMessage(seq=1, payload=b"abc")))
        )
        blob[3] ^= 0x40
        with pytest.raises(CorruptFrame):
            decode_frame(bytes(blob))

    def test_short_blob_rejected(self):
        with pytest.raises(CorruptFrame):
            decode_frame(b"xy")

    @given(garbage=st.binary(max_size=128))
    def test_decoder_never_crashes(self, garbage):
        try:
            decode_frame(garbage)
        except CorruptFrame:
            pass


class TestDuplexOverUdp:
    def test_lossless_bidirectional(self):
        a = [f"a{i:03d}".encode() for i in range(40)]
        b = [f"b{i:03d}".encode() for i in range(40)]
        result = duplex_over_udp(a, b, deadline=15.0, seed=1)
        assert result.correct
        assert result.a_to_b_delivered == result.b_to_a_delivered == 40

    def test_lossy_bidirectional(self):
        a = [f"a{i:03d}".encode() for i in range(30)]
        b = [f"b{i:03d}".encode() for i in range(30)]
        result = duplex_over_udp(
            a, b, loss=0.1, timeout_period=0.1, deadline=25.0, seed=2
        )
        assert result.correct

    def test_asymmetric(self):
        a = [b"only-a"] * 25
        result = duplex_over_udp(a, [], deadline=15.0, seed=3)
        assert result.correct
        assert result.b_to_a_delivered == 0

    def test_non_bytes_rejected(self):
        with pytest.raises(TypeError):
            duplex_over_udp(["text"], [])
