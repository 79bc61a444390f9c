"""Byte-level wire format: checksummed frames and bit-error links."""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports
from repro.wire.codec import (
    MAX_WIRE_SEQ,
    CorruptFrame,
    FrameError,
    decode_message,
    encode_message,
    frame_overhead,
)

if TYPE_CHECKING:
    from repro.wire.framed import FramedChannel

__all__ = [
    "encode_message",
    "decode_message",
    "frame_overhead",
    "CorruptFrame",
    "FrameError",
    "MAX_WIRE_SEQ",
    "FramedChannel",
]

# the byte-framed channel loads on first use; the codec alone serves the mux
__getattr__, __dir__ = lazy_exports(
    __name__, globals(), {"repro.wire.framed": ("framed", "FramedChannel")}
)
