"""Tests for the protocol registry."""

import pytest

from repro.protocols.base import ReceiverEndpoint, SenderEndpoint
from repro.protocols.blockack import BlockAckReceiver, BlockAckSender
from repro.protocols.blockack_bounded import (
    BoundedBlockAckReceiver,
    BoundedBlockAckSender,
)
from repro.protocols.gobackn import GoBackNReceiver, GoBackNSender
from repro.protocols.registry import PROTOCOLS, make_pair, protocol_names
from repro.protocols.sack import SackReceiver, SackSender
from repro.protocols.selective_repeat import (
    SelectiveRepeatReceiver,
    SelectiveRepeatSender,
)
from repro.protocols.stenning import StenningReceiver, StenningSender
from repro.sim.runner import run_transfer
from repro.workloads.sources import GreedySource


class TestRegistry:
    def test_names_stable(self):
        assert protocol_names() == list(PROTOCOLS)
        assert "blockack" in protocol_names()
        assert "gobackn" in protocol_names()

    def test_every_factory_builds_endpoint_pair(self):
        classes = {
            "blockack": (BlockAckSender, BlockAckReceiver),
            "blockack-simple": (BlockAckSender, BlockAckReceiver),
            "blockack-oracle": (BlockAckSender, BlockAckReceiver),
            "blockack-bounded": (BoundedBlockAckSender, BoundedBlockAckReceiver),
            "gobackn": (GoBackNSender, GoBackNReceiver),
            "selective-repeat": (SelectiveRepeatSender, SelectiveRepeatReceiver),
            "stenning": (StenningSender, StenningReceiver),
            "tcp-sack": (SackSender, SackReceiver),
        }
        assert protocol_names() == list(classes)
        for name in protocol_names():
            sender, receiver = make_pair(name, window=4)
            assert isinstance(sender, SenderEndpoint)
            assert isinstance(receiver, ReceiverEndpoint)
            assert (type(sender), type(receiver)) == classes[name], name

    def test_every_protocol_completes_a_transfer(self):
        for name in protocol_names():
            sender, receiver = make_pair(name, window=4)
            result = run_transfer(
                sender, receiver, GreedySource(60), seed=1, max_time=50_000.0
            )
            assert result.completed and result.in_order, name

    def test_unknown_name_raises_with_known_list(self):
        with pytest.raises(KeyError, match="blockack"):
            make_pair("nonsense", window=4)

    def test_blockack_bounded_wire_flag(self):
        sender, receiver = make_pair("blockack", window=4, bounded_wire=True)
        assert sender.numbering.domain_size == 8
        assert receiver.numbering.domain_size == 8

    def test_stenning_domain_kwarg(self):
        sender, receiver = make_pair("stenning", window=4, domain=20)
        assert sender.domain == 20
        assert receiver.domain == 20

    def test_timeout_period_passthrough(self):
        sender, _ = make_pair("gobackn", window=4, timeout_period=7.5)
        assert sender.timeout_period == 7.5

    def test_unsupported_kwargs_raise(self):
        # a factory must not hand back a pair that ignores what was asked
        with pytest.raises(TypeError, match="bounded_wire"):
            make_pair("gobackn", window=8, bounded_wire=True)
        with pytest.raises(TypeError, match="adaptive"):
            make_pair("tcp-sack", window=8, adaptive=True)
