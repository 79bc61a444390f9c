"""Protocol factory registry: build sender/receiver pairs by name.

The experiments and the CLI refer to protocols by short names; this
registry maps each name to a factory that builds a matched
``(sender, receiver)`` pair.  Every factory takes ``window`` plus the
keyword arguments its protocol honours, and nothing else: an unsupported
keyword (``bounded_wire`` for go-back-N, ``adaptive`` for TCP-SACK)
raises a ``TypeError`` that names it rather than being dropped.  Each
factory of a protocol other than the Section IV block-ack endpoints
imports its module when first called, so a session loads only the
protocol it runs.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

from repro.core.numbering import ModularNumbering
from repro.protocols.ack_policy import AckPolicy
from repro.protocols.base import ReceiverEndpoint, SenderEndpoint
from repro.protocols.blockack import BlockAckReceiver, BlockAckSender

__all__ = ["PROTOCOLS", "make_pair", "protocol_names"]

Pair = Tuple[SenderEndpoint, ReceiverEndpoint]
Factory = Callable[..., Pair]


def _blockack(
    window: int,
    timeout_mode: str = "per_message_safe",
    bounded_wire: bool = False,
    ack_policy: Optional[AckPolicy] = None,
    timeout_period: Optional[float] = None,
    adaptive: bool = False,
    lookahead: int = 1,
) -> Pair:
    numbering = (
        ModularNumbering(window, lookahead=lookahead) if bounded_wire else None
    )
    sender = BlockAckSender(
        window,
        numbering=numbering,
        timeout_mode=timeout_mode,
        timeout_period=timeout_period,
        adaptive=adaptive,
        lookahead=lookahead,
    )
    receiver = BlockAckReceiver(window, numbering=numbering, ack_policy=ack_policy)
    return sender, receiver


def _blockack_simple(window: int, **kwargs: object) -> Pair:
    return _blockack(window, timeout_mode="simple", **kwargs)


def _blockack_oracle(window: int, **kwargs: object) -> Pair:
    kwargs.setdefault("timeout_period", 0.25)
    return _blockack(window, timeout_mode="oracle", **kwargs)


def _blockack_bounded(
    window: int,
    ack_policy: Optional[AckPolicy] = None,
    timeout_period: Optional[float] = None,
    adaptive: bool = False,
) -> Pair:
    from repro.protocols.blockack_bounded import (
        BoundedBlockAckReceiver,
        BoundedBlockAckSender,
    )

    sender = BoundedBlockAckSender(
        window, timeout_period=timeout_period, adaptive=adaptive
    )
    receiver = BoundedBlockAckReceiver(window, ack_policy=ack_policy)
    return sender, receiver


def _gobackn(
    window: int,
    timeout_period: Optional[float] = None,
    adaptive: bool = False,
) -> Pair:
    from repro.protocols.gobackn import GoBackNReceiver, GoBackNSender

    return (
        GoBackNSender(window, timeout_period, adaptive=adaptive),
        GoBackNReceiver(window),
    )


def _selective_repeat(
    window: int,
    timeout_period: Optional[float] = None,
    adaptive: bool = False,
) -> Pair:
    from repro.protocols.selective_repeat import (
        SelectiveRepeatReceiver,
        SelectiveRepeatSender,
    )

    return (
        SelectiveRepeatSender(window, timeout_period, adaptive=adaptive),
        SelectiveRepeatReceiver(window),
    )


def _tcp_sack(window: int, timeout_period: Optional[float] = None) -> Pair:
    from repro.protocols.sack import SackReceiver, SackSender

    return SackSender(window, timeout_period), SackReceiver(window)


def _stenning(
    window: int,
    domain: Optional[int] = None,
    reuse_delay: Optional[float] = None,
    timeout_period: Optional[float] = None,
) -> Pair:
    from repro.protocols.stenning import StenningReceiver, StenningSender

    d = domain if domain is not None else 2 * window
    sender = StenningSender(
        window, d, reuse_delay=reuse_delay, timeout_period=timeout_period
    )
    return sender, StenningReceiver(window, d)


PROTOCOLS: Dict[str, Factory] = {
    "blockack": _blockack,  # per-message safe timers (Section IV realization)
    "blockack-simple": _blockack_simple,  # Section II single timer
    "blockack-oracle": _blockack_oracle,  # Section IV verbatim (oracle guard)
    "blockack-bounded": _blockack_bounded,  # Section V byte-exact programs
    "gobackn": _gobackn,
    "selective-repeat": _selective_repeat,
    "stenning": _stenning,
    "tcp-sack": _tcp_sack,  # modern descendant (RFC 2018-style, unbounded)
}


def protocol_names() -> list:
    """Registered protocol names, stable order."""
    return list(PROTOCOLS)


def make_pair(name: str, window: int, **kwargs: object) -> Pair:
    """Build a matched sender/receiver pair for the named protocol."""
    try:
        factory = PROTOCOLS[name]
    except KeyError:
        raise KeyError(
            f"unknown protocol {name!r}; known: {', '.join(PROTOCOLS)}"
        ) from None
    return factory(window, **kwargs)
