"""repro — Block Acknowledgment: Redesigning the Window Protocol.

A complete, executable reproduction of Brown, Gouda & Miller's
block-acknowledgment window protocol: the protocol itself in every form
the paper develops (unbounded, per-message timeouts, finite sequence
numbers, bounded storage), the baselines it is compared against
(go-back-N, selective repeat, the timer-constrained Stenning/Shankar–Lam
protocol, alternating bit), a discrete-event simulator with lossy and
reordering channels, a formal model with an explicit-state checker for
the paper's invariant, and the E1–E12 experiment suite reproducing every
claim in the paper.

Quick start::

    from repro import (
        BlockAckSender, BlockAckReceiver, GreedySource, run_transfer,
        LinkSpec, UniformDelay, BernoulliLoss,
    )

    sender = BlockAckSender(window=8, timeout_mode="per_message_safe")
    receiver = BlockAckReceiver(window=8)
    result = run_transfer(
        sender, receiver, GreedySource(1000),
        forward=LinkSpec(delay=UniformDelay(0.5, 1.5), loss=BernoulliLoss(0.05)),
        reverse=LinkSpec(delay=UniformDelay(0.5, 1.5), loss=BernoulliLoss(0.05)),
        seed=42,
    )
    assert result.completed and result.in_order
    print(result.summary())

See DESIGN.md for the full system inventory and EXPERIMENTS.md for the
measured reproduction of each paper claim.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports
from repro.channel import (
    BernoulliLoss,
    Channel,
    ConstantDelay,
    ExponentialDelay,
    GilbertElliottLoss,
    NoLoss,
    ScriptedLoss,
    UniformDelay,
)
from repro.core import (
    BlockAck,
    CumulativeAck,
    DataMessage,
    ModularNumbering,
    ReceiverWindow,
    SenderWindow,
    SequenceDomain,
    UnboundedNumbering,
    minimum_domain_size,
    reconstruct,
)
from repro.protocols import (
    BlockAckReceiver,
    BlockAckSender,
    CountingAckPolicy,
    DelayedAckPolicy,
    EagerAckPolicy,
    make_pair,
    protocol_names,
    safe_timeout_period,
)
from repro.sim import Simulator, Timer, TimerBank
from repro.sim.runner import LinkSpec, TransferResult, run_transfer
from repro.wire import decode_message, encode_message
from repro.workloads import BurstySource, GreedySource, PoissonSource

if TYPE_CHECKING:
    from repro.duplex import DuplexEndpoint, DuplexFrame, run_duplex
    from repro.protocols import (
        BoundedBlockAckReceiver,
        BoundedBlockAckSender,
        GoBackNReceiver,
        GoBackNSender,
        SelectiveRepeatReceiver,
        SelectiveRepeatSender,
        StenningReceiver,
        StenningSender,
    )
    from repro.transport import RealtimeScheduler, UdpTransport, transfer_over_udp
    from repro.wire import FramedChannel

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # simulation
    "Simulator",
    "Timer",
    "TimerBank",
    "run_transfer",
    "LinkSpec",
    "TransferResult",
    # channels
    "Channel",
    "ConstantDelay",
    "UniformDelay",
    "ExponentialDelay",
    "NoLoss",
    "BernoulliLoss",
    "GilbertElliottLoss",
    "ScriptedLoss",
    # core
    "DataMessage",
    "BlockAck",
    "CumulativeAck",
    "SequenceDomain",
    "reconstruct",
    "minimum_domain_size",
    "UnboundedNumbering",
    "ModularNumbering",
    "SenderWindow",
    "ReceiverWindow",
    # protocols
    "BlockAckSender",
    "BlockAckReceiver",
    "BoundedBlockAckSender",
    "BoundedBlockAckReceiver",
    "GoBackNSender",
    "GoBackNReceiver",
    "SelectiveRepeatSender",
    "SelectiveRepeatReceiver",
    "StenningSender",
    "StenningReceiver",
    "EagerAckPolicy",
    "DelayedAckPolicy",
    "CountingAckPolicy",
    "safe_timeout_period",
    "make_pair",
    "protocol_names",
    # workloads
    "GreedySource",
    "PoissonSource",
    "BurstySource",
    # wire format
    "encode_message",
    "decode_message",
    "FramedChannel",
    # duplex
    "DuplexEndpoint",
    "DuplexFrame",
    "run_duplex",
    # real transports
    "RealtimeScheduler",
    "UdpTransport",
    "transfer_over_udp",
]

# the baselines, duplex operation, byte framing and real transports load
# on first use: a block-ack session runs none of them
__getattr__, __dir__ = lazy_exports(
    __name__,
    globals(),
    {
        "repro.duplex": ("duplex", "DuplexEndpoint", "DuplexFrame", "run_duplex"),
        "repro.protocols": (
            "BoundedBlockAckReceiver",
            "BoundedBlockAckSender",
            "GoBackNReceiver",
            "GoBackNSender",
            "SelectiveRepeatReceiver",
            "SelectiveRepeatSender",
            "StenningReceiver",
            "StenningSender",
        ),
        "repro.transport": (
            "transport",
            "RealtimeScheduler",
            "UdpTransport",
            "transfer_over_udp",
        ),
        "repro.wire": ("FramedChannel",),
    },
)
