"""Runnable protocol endpoints: block acknowledgment and all baselines."""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports
from repro.protocols.ack_policy import (
    AckPolicy,
    CountingAckPolicy,
    DelayedAckPolicy,
    EagerAckPolicy,
)
from repro.protocols.base import (
    ReceiverEndpoint,
    ReceiverStats,
    SenderEndpoint,
    SenderStats,
)
from repro.protocols.blockack import (
    TIMEOUT_MODES,
    BlockAckReceiver,
    BlockAckSender,
    safe_timeout_period,
)
from repro.protocols.registry import PROTOCOLS, make_pair, protocol_names

if TYPE_CHECKING:
    from repro.protocols.alternating_bit import (
        make_alternating_bit_receiver,
        make_alternating_bit_sender,
    )
    from repro.protocols.blockack_bounded import (
        BoundedBlockAckReceiver,
        BoundedBlockAckSender,
    )
    from repro.protocols.gobackn import GoBackNReceiver, GoBackNSender
    from repro.protocols.sack import SackAck, SackReceiver, SackSender
    from repro.protocols.selective_repeat import (
        SelectiveRepeatReceiver,
        SelectiveRepeatSender,
    )
    from repro.protocols.stenning import StenningReceiver, StenningSender, decode_latest

__all__ = [
    "SenderEndpoint",
    "ReceiverEndpoint",
    "SenderStats",
    "ReceiverStats",
    "BlockAckSender",
    "BlockAckReceiver",
    "safe_timeout_period",
    "TIMEOUT_MODES",
    "BoundedBlockAckSender",
    "BoundedBlockAckReceiver",
    "GoBackNSender",
    "GoBackNReceiver",
    "SelectiveRepeatSender",
    "SelectiveRepeatReceiver",
    "StenningSender",
    "StenningReceiver",
    "decode_latest",
    "SackSender",
    "SackReceiver",
    "SackAck",
    "make_alternating_bit_sender",
    "make_alternating_bit_receiver",
    "AckPolicy",
    "EagerAckPolicy",
    "DelayedAckPolicy",
    "CountingAckPolicy",
    "PROTOCOLS",
    "make_pair",
    "protocol_names",
]

# the Section V programs and the baselines load on first use; the
# registry's factories import them the same way
__getattr__, __dir__ = lazy_exports(
    __name__,
    globals(),
    {
        "repro.protocols.alternating_bit": (
            "alternating_bit",
            "make_alternating_bit_receiver",
            "make_alternating_bit_sender",
        ),
        "repro.protocols.blockack_bounded": (
            "blockack_bounded",
            "BoundedBlockAckReceiver",
            "BoundedBlockAckSender",
        ),
        "repro.protocols.gobackn": ("gobackn", "GoBackNReceiver", "GoBackNSender"),
        "repro.protocols.sack": ("sack", "SackAck", "SackReceiver", "SackSender"),
        "repro.protocols.selective_repeat": (
            "selective_repeat",
            "SelectiveRepeatReceiver",
            "SelectiveRepeatSender",
        ),
        "repro.protocols.stenning": (
            "stenning",
            "StenningReceiver",
            "StenningSender",
            "decode_latest",
        ),
    },
)
