"""Unit tests for wire message types."""

import dataclasses

import pytest

from repro.core.messages import (
    BlockAck,
    CumulativeAck,
    DataMessage,
    FlowEnvelope,
    is_ack,
    is_data,
)

#: one value of each wire type: (type, keyword fields, the same fields
#: in declaration order, and its exact repr)
WIRE_VALUES = [
    pytest.param(
        DataMessage, dict(seq=5, payload=("msg", 5), attempt=1),
        (5, ("msg", 5), 1),
        "DataMessage(seq=5, payload=('msg', 5), attempt=1)",
        id="DataMessage",
    ),
    pytest.param(
        BlockAck, dict(lo=2, hi=7, urgent=True), (2, 7, True),
        "BlockAck(lo=2, hi=7, urgent=True)",
        id="BlockAck",
    ),
    pytest.param(
        CumulativeAck, dict(seq=9), (9,), "CumulativeAck(seq=9)",
        id="CumulativeAck",
    ),
    pytest.param(
        FlowEnvelope, dict(flow=3, fseq=11, message=BlockAck(1, 1)),
        (3, 11, BlockAck(1, 1)),
        "FlowEnvelope(flow=3, fseq=11, "
        "message=BlockAck(lo=1, hi=1, urgent=False))",
        id="FlowEnvelope",
    ),
]


class TestWireValues:
    """Semantics every wire type shares: frozen, value-equal, replaceable."""

    @pytest.mark.parametrize("cls, fields, positional, text", WIRE_VALUES)
    def test_immutable(self, cls, fields, positional, text):
        value = cls(**fields)
        name = next(iter(fields))
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, name, 0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(value, name)
        assert getattr(value, name) == fields[name]

    @pytest.mark.parametrize("cls, fields, positional, text", WIRE_VALUES)
    def test_repr(self, cls, fields, positional, text):
        assert repr(cls(**fields)) == text

    @pytest.mark.parametrize("cls, fields, positional, text", WIRE_VALUES)
    def test_keyword_positional_and_replace_agree(
        self, cls, fields, positional, text
    ):
        by_keyword = cls(**fields)
        by_position = cls(*positional)
        assert by_keyword == by_position
        assert hash(by_keyword) == hash(by_position)
        assert [f.name for f in dataclasses.fields(cls)] == list(fields)
        assert dataclasses.astuple(by_keyword) == dataclasses.astuple(
            by_position
        )
        rebuilt = dataclasses.replace(by_keyword)
        assert rebuilt == by_keyword and rebuilt is not by_keyword
        name = next(iter(fields))
        changed = dataclasses.replace(by_keyword, **{name: 0})
        assert getattr(changed, name) == 0
        assert changed == cls(**{**fields, name: 0})


class TestDataMessage:
    def test_fields(self):
        msg = DataMessage(seq=5, payload=b"x", attempt=2)
        assert msg.seq == 5
        assert msg.payload == b"x"
        assert msg.attempt == 2

    def test_defaults(self):
        msg = DataMessage(seq=0)
        assert msg.payload is None
        assert msg.attempt == 0

    def test_str_shows_attempt_only_for_retransmissions(self):
        assert str(DataMessage(seq=3)) == "DATA(3)"
        assert str(DataMessage(seq=3, attempt=1)) == "DATA(3)#1"

    def test_equality_by_value(self):
        assert DataMessage(1, "p") == DataMessage(1, "p")
        assert hash(DataMessage(1, "p")) == hash(DataMessage(1, "p"))
        assert DataMessage(1) != DataMessage(2)
        assert DataMessage(1, None, 0) != DataMessage(1, None, 1)
        # never equal to another wire type or to a bare tuple that holds
        # the same fields
        assert DataMessage(1, 2) != BlockAck(1, 2)
        assert BlockAck(1, 2) != DataMessage(1, 2)
        assert DataMessage(1) != CumulativeAck(1)
        assert DataMessage(1, None, 0) != (1, None, 0)
        assert (1, None, 0) != DataMessage(1, None, 0)
        assert BlockAck(1, 2) != (1, 2, False)
        assert len({DataMessage(1, 2), BlockAck(1, 2), (1, 2)}) == 3


class TestBlockAck:
    def test_singleton(self):
        assert BlockAck(4, 4).is_singleton
        assert not BlockAck(4, 6).is_singleton

    def test_spans(self):
        ack = BlockAck(3, 7)
        assert ack.spans(3) and ack.spans(5) and ack.spans(7)
        assert not ack.spans(2) and not ack.spans(8)

    def test_wrapped_pair_is_representable(self):
        # mod-n numbering may legitimately produce hi < lo on the wire
        ack = BlockAck(6, 1)
        assert ack.lo == 6 and ack.hi == 1

    def test_str(self):
        assert str(BlockAck(2, 5)) == "ACK(2,5)"

    def test_equality_and_hash_ignore_urgent(self):
        urgent, plain = BlockAck(3, 3, urgent=True), BlockAck(3, 3)
        assert urgent == plain
        assert hash(urgent) == hash(plain)
        assert len({urgent, plain}) == 1
        assert urgent.urgent and not plain.urgent
        assert BlockAck(3, 4, urgent=True) != BlockAck(3, 3, urgent=True)


class TestPredicates:
    def test_is_data(self):
        assert is_data(DataMessage(0))
        assert not is_data(BlockAck(0, 0))
        assert not is_data("junk")

    def test_is_ack_covers_both_kinds(self):
        assert is_ack(BlockAck(0, 0))
        assert is_ack(CumulativeAck(0))
        assert not is_ack(DataMessage(0))

    def test_cumulative_ack_str(self):
        assert str(CumulativeAck(9)) == "CACK(9)"
