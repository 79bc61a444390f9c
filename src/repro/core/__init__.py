"""Protocol core: messages, sequence numbering, and window state machines."""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports
from repro.core.messages import BlockAck, CumulativeAck, DataMessage, is_ack, is_data
from repro.core.numbering import ModularNumbering, Numbering, UnboundedNumbering
from repro.core.seqnum import SequenceDomain, minimum_domain_size, reconstruct
from repro.core.window import AcceptOutcome, AckOutcome, ReceiverWindow, SenderWindow

if TYPE_CHECKING:
    from repro.core.bounded import BoundedReceiverBook, BoundedSenderBook

__all__ = [
    "DataMessage",
    "BlockAck",
    "CumulativeAck",
    "is_data",
    "is_ack",
    "SequenceDomain",
    "reconstruct",
    "minimum_domain_size",
    "Numbering",
    "UnboundedNumbering",
    "ModularNumbering",
    "SenderWindow",
    "ReceiverWindow",
    "AckOutcome",
    "AcceptOutcome",
    "BoundedSenderBook",
    "BoundedReceiverBook",
]

# the Section V books load on first use, with the endpoints that keep them
__getattr__, __dir__ = lazy_exports(
    __name__,
    globals(),
    {"repro.core.bounded": ("bounded", "BoundedReceiverBook", "BoundedSenderBook")},
)
