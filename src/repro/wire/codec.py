"""Byte-level wire format for protocol messages.

The paper's Section V result — only ``2w`` distinct sequence numbers ever
travel between the processes — is what makes a *fixed-width header field*
possible: a window of 8 needs a 4-bit sequence field, forever, regardless
of how much data flows.  This module makes that concrete: it frames
protocol messages into bytes with a CRC-32 trailer, so the simulated
channels and real sockets can carry real octets and real bit errors.

Every frame has one layout (big-endian):

    offset  size  field
    0       1     frame type
    1       2     field A
    3       2     field B
    5       2     payload length L
    7       L     payload bytes
    7+L     4     CRC-32 over bytes [0, 7+L)

and the type gives the fields their meaning:

    type  message        field A          field B           payload
    0x01  DataMessage    wire seq number  attempt counter   application bytes
    0x02  BlockAck       block lo         block hi          none
    0x03  FlowEnvelope   flow identifier  envelope counter  one flat frame
    0x04  DuplexFrame    data part bytes  ack part bytes    0x01 + 0x02 frames
    0x05  CumulativeAck  sequence number  0                 none
    0x06  SackAck        cum + 1          block count       (lo, hi) pairs

Types 0x01, 0x02, 0x05 and 0x06 are *flat*: they carry one protocol
message.  An envelope wraps one flat frame, and a duplex frame a data
frame, an ack frame or both; any other part decodes as damage, so
decoding never nests deeper than one level.

A frame whose CRC does not match raises :class:`CorruptFrame`; the framed
channel treats that as loss — exactly how a real link turns bit errors
into the paper's loss model.  Sequence numbers are carried in 16 bits,
which bounds the supported wire domain at 65536 (windows up to 16384 with
``K = 2``); the codec validates against the domain it is built with.
"""

from __future__ import annotations

import struct
import zlib
from typing import Any, Tuple

from repro.core.messages import (
    BlockAck,
    CumulativeAck,
    DataMessage,
    DuplexFrame,
    FlowEnvelope,
    SackAck,
)

__all__ = [
    "CorruptFrame",
    "FrameError",
    "encode_message",
    "decode_message",
    "frame_overhead",
    "MAX_WIRE_SEQ",
    "MAX_FLOW_ID",
]

_TYPE_DATA = 0x01
_TYPE_ACK = 0x02
_TYPE_MUX = 0x03
_TYPE_DUPLEX = 0x04
_TYPE_CUMULATIVE = 0x05
_TYPE_SACK = 0x06
_HEADER = struct.Struct(">BHHH")
_CRC = struct.Struct(">I")

#: the messages framed flat, the only kinds an envelope may wrap
_FLAT = (DataMessage, BlockAck, CumulativeAck, SackAck)
#: every kind a frame may carry
_ANY = (FlowEnvelope, DuplexFrame) + _FLAT

#: sequence numbers are carried in 16 bits
MAX_WIRE_SEQ = 0xFFFF

#: flow identifiers share the 16-bit header field layout
MAX_FLOW_ID = 0xFFFF

#: fixed bytes added around a payload: header + CRC trailer
FRAME_OVERHEAD = _HEADER.size + _CRC.size


class FrameError(ValueError):
    """A message cannot be encoded into a frame."""


class CorruptFrame(ValueError):
    """A frame failed validation (bad CRC, length, or type)."""


def frame_overhead() -> int:
    """Bytes of framing around each payload (header + CRC)."""
    return FRAME_OVERHEAD


def _check_seq(value: int, what: str) -> None:
    if not 0 <= value <= MAX_WIRE_SEQ:
        raise FrameError(f"{what} {value} does not fit the 16-bit field")


def _frame(
    frame_type: int, field_a: int, field_b: int, payload: bytes
) -> bytes:
    if len(payload) > 0xFFFF:
        raise FrameError(f"payload of {len(payload)} bytes exceeds 64 KiB")
    body = _HEADER.pack(frame_type, field_a, field_b, len(payload)) + payload
    return body + _CRC.pack(zlib.crc32(body))


def encode_message(message: Any) -> bytes:
    """Serialize a protocol message into a checksummed frame.

    A :class:`~repro.core.messages.FlowEnvelope` or
    :class:`~repro.core.messages.DuplexFrame` carries complete flat
    frames (header + CRC) as its payload; the outer CRC covers them all,
    so a bit flip anywhere discards the frame as one unit — a
    multiplexed link never misdelivers a damaged frame to the wrong flow.
    """
    if isinstance(message, FlowEnvelope):
        _check_seq(message.flow, "flow identifier")
        # the per-flow envelope counter is diagnostic and unbounded in
        # memory; on the wire it wraps into the 16-bit field
        fseq = message.fseq & MAX_WIRE_SEQ
        inner = _encode_flat(message.message)
        return _frame(_TYPE_MUX, message.flow, fseq, inner)
    if isinstance(message, DuplexFrame):
        data = b"" if message.data is None else _encode_flat(message.data)
        ack = b"" if message.ack is None else _encode_flat(message.ack)
        if not data and not ack:
            raise FrameError("refusing to encode an empty duplex frame")
        return _frame(_TYPE_DUPLEX, len(data), len(ack), data + ack)
    return _encode_flat(message)


def _encode_flat(message: Any) -> bytes:
    if isinstance(message, DataMessage):
        payload = message.payload if message.payload is not None else b""
        if not isinstance(payload, (bytes, bytearray)):
            raise FrameError(
                f"framed payloads must be bytes, got {type(payload).__name__}"
            )
        _check_seq(message.seq, "data sequence number")
        _check_seq(message.attempt, "attempt counter")
        return _frame(_TYPE_DATA, message.seq, message.attempt, bytes(payload))
    if isinstance(message, BlockAck):
        _check_seq(message.lo, "ack lower bound")
        _check_seq(message.hi, "ack upper bound")
        return _frame(_TYPE_ACK, message.lo, message.hi, b"")
    if isinstance(message, CumulativeAck):
        _check_seq(message.seq, "cumulative ack")
        return _frame(_TYPE_CUMULATIVE, message.seq, 0, b"")
    if isinstance(message, SackAck):
        # cum is -1 before anything arrives in order
        _check_seq(message.cum + 1, "cumulative ack + 1")
        bounds = [bound for block in message.blocks for bound in block]
        for bound in bounds:
            _check_seq(bound, "SACK block bound")
        payload = struct.pack(f">{len(bounds)}H", *bounds)
        return _frame(_TYPE_SACK, message.cum + 1, len(message.blocks), payload)
    raise FrameError(f"cannot frame {type(message).__name__}")


def decode_message(frame: bytes) -> Any:
    """Parse and validate a frame; raises :class:`CorruptFrame` on damage."""
    return _decode(frame, _ANY)


def _decode(frame: bytes, kinds: Tuple[type, ...]) -> Any:
    """Decode a frame that may carry only a message of one of ``kinds``."""
    if len(frame) < FRAME_OVERHEAD:
        raise CorruptFrame(f"frame of {len(frame)} bytes is shorter than a header")
    body, trailer = frame[:-_CRC.size], frame[-_CRC.size :]
    (expected,) = _CRC.unpack(trailer)
    if zlib.crc32(body) != expected:
        raise CorruptFrame("CRC mismatch")
    frame_type, field_a, field_b, length = _HEADER.unpack_from(body)
    payload = body[_HEADER.size :]
    if len(payload) != length:
        raise CorruptFrame(
            f"length field says {length}, frame carries {len(payload)}"
        )
    if frame_type == _TYPE_DATA and DataMessage in kinds:
        return DataMessage(seq=field_a, payload=payload, attempt=field_b)
    if frame_type == _TYPE_ACK and BlockAck in kinds and not payload:
        return BlockAck(lo=field_a, hi=field_b)
    if frame_type == _TYPE_MUX and FlowEnvelope in kinds:
        return FlowEnvelope(
            flow=field_a, fseq=field_b, message=_decode(payload, _FLAT)
        )
    if (
        frame_type == _TYPE_DUPLEX
        and DuplexFrame in kinds
        and payload
        and field_a + field_b == len(payload)
    ):
        data, ack = payload[:field_a], payload[field_a:]
        return DuplexFrame(
            data=_decode(data, (DataMessage,)) if data else None,
            ack=_decode(ack, (BlockAck,)) if ack else None,
        )
    if frame_type == _TYPE_CUMULATIVE and CumulativeAck in kinds and not payload:
        return CumulativeAck(seq=field_a)
    if frame_type == _TYPE_SACK and SackAck in kinds and length == 4 * field_b:
        bounds = struct.unpack(f">{2 * field_b}H", payload)
        return SackAck(
            cum=field_a - 1, blocks=tuple(zip(bounds[::2], bounds[1::2]))
        )
    raise CorruptFrame(
        f"unexpected frame type 0x{frame_type:02x} with {length} payload bytes"
    )
