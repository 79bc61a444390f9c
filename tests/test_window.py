"""Unit tests for sender/receiver window bookkeeping."""

import dataclasses

import pytest

from repro.core.window import ReceiverWindow, SenderWindow


class TestSenderWindowSending:
    def test_initial_state(self):
        window = SenderWindow(4)
        assert window.na == 0 and window.ns == 0
        assert window.can_send
        assert window.all_acknowledged

    def test_take_next_increments_ns(self):
        window = SenderWindow(4)
        assert window.take_next() == 0
        assert window.take_next() == 1
        assert window.ns == 2

    def test_window_closes_at_w_outstanding(self):
        window = SenderWindow(3)
        for _ in range(3):
            window.take_next()
        assert not window.can_send
        with pytest.raises(RuntimeError):
            window.take_next()

    def test_in_flight_window(self):
        window = SenderWindow(4)
        window.take_next()
        window.take_next()
        assert window.in_flight_window == 2

    def test_invalid_window_size(self):
        with pytest.raises(ValueError):
            SenderWindow(0)


class TestSenderWindowAcks:
    def make_loaded(self, w=4, sent=4):
        window = SenderWindow(w)
        for _ in range(sent):
            window.take_next()
        return window

    def test_prefix_ack_advances_na(self):
        window = self.make_loaded()
        outcome = window.apply_ack(0, 1)
        assert outcome.newly_acked == [0, 1]
        assert window.na == 2
        assert outcome.advanced == 2

    def test_out_of_order_block_does_not_advance(self):
        window = self.make_loaded()
        outcome = window.apply_ack(2, 3)
        assert outcome.newly_acked == [2, 3]
        assert window.na == 0
        assert outcome.advanced == 0

    def test_gap_fill_slides_over_recorded(self):
        window = self.make_loaded()
        window.apply_ack(2, 3)
        outcome = window.apply_ack(0, 1)
        assert window.na == 4
        assert outcome.advanced == 4
        assert window.all_acknowledged

    def test_duplicate_ack_is_stale(self):
        window = self.make_loaded()
        window.apply_ack(0, 0)
        outcome = window.apply_ack(0, 0)
        assert outcome.stale
        assert outcome.newly_acked == []

    def test_partial_overlap_not_stale(self):
        window = self.make_loaded()
        window.apply_ack(0, 1)
        outcome = window.apply_ack(1, 2)
        assert outcome.newly_acked == [2]
        assert not outcome.stale

    def test_ack_below_na_ignored_quietly(self):
        window = self.make_loaded()
        window.apply_ack(0, 2)
        outcome = window.apply_ack(1, 1)
        assert outcome.stale

    def test_each_ack_gets_its_own_outcome(self):
        window = self.make_loaded()
        first = window.apply_ack(2, 3)
        repeat = window.apply_ack(2, 3)
        again = window.apply_ack(3, 3)
        closing = window.apply_ack(0, 1)
        assert (first.newly_acked, first.advanced, first.stale) == ([2, 3], 0, False)
        assert (repeat.newly_acked, repeat.advanced, repeat.stale) == ([], 0, True)
        assert (again.newly_acked, again.advanced, again.stale) == ([], 0, True)
        assert (closing.newly_acked, closing.advanced, closing.stale) == (
            [0, 1], 4, False
        )
        lists = [first.newly_acked, repeat.newly_acked, again.newly_acked,
                 closing.newly_acked]
        assert len({id(acked) for acked in lists}) == 4
        repeat.newly_acked.append(99)  # a caller's list is its own
        assert again.newly_acked == []

    def test_ack_beyond_ns_rejected(self):
        window = self.make_loaded(sent=2)
        with pytest.raises(ValueError):
            window.apply_ack(0, 2)

    def test_malformed_pair_rejected(self):
        window = self.make_loaded()
        with pytest.raises(ValueError):
            window.apply_ack(3, 1)

    def test_window_reopens_after_ack(self):
        window = self.make_loaded(w=2, sent=2)
        assert not window.can_send
        window.apply_ack(0, 0)
        assert window.can_send

    def test_is_acked(self):
        window = self.make_loaded()
        window.apply_ack(2, 2)
        assert window.is_acked(2)
        assert not window.is_acked(0)
        window.apply_ack(0, 1)
        assert window.is_acked(0)  # below na now

    def test_outstanding_list(self):
        window = self.make_loaded()
        window.apply_ack(1, 2)
        assert window.outstanding() == [0, 3]

    def test_oldest_outstanding(self):
        window = self.make_loaded()
        assert window.oldest_outstanding == 0
        window.apply_ack(0, 3)
        assert window.oldest_outstanding is None

    def test_invariant_maintained_through_mixed_ops(self):
        window = SenderWindow(4)
        window.check_invariant()
        for _ in range(4):
            window.take_next()
            window.check_invariant()
        window.apply_ack(1, 2)
        window.check_invariant()
        window.apply_ack(0, 0)
        window.check_invariant()
        window.take_next()
        window.check_invariant()


class TestReceiverWindow:
    def test_in_order_accept(self):
        window = ReceiverWindow(4)
        outcome = window.accept(0, "p0")
        assert outcome.recorded
        assert window.advance() == 1
        assert window.vr == 1

    def test_duplicate_below_nr(self):
        window = ReceiverWindow(4)
        window.accept(0)
        window.advance()
        lo, hi, _ = window.take_block()
        assert (lo, hi) == (0, 0)
        outcome = window.accept(0)
        assert outcome.duplicate

    def test_redundant_buffered(self):
        window = ReceiverWindow(4)
        window.accept(2)
        outcome = window.accept(2)
        assert outcome.redundant

    def test_outcomes_cannot_be_mutated(self):
        window = ReceiverWindow(4)
        recorded = window.accept(1)
        redundant = window.accept(1)
        window.accept(0)
        window.advance()
        window.take_block()
        duplicate = window.accept(0)
        flags = ("duplicate", "recorded", "redundant")
        for outcome, raised in (
            (duplicate, "duplicate"),
            (recorded, "recorded"),
            (redundant, "redundant"),
        ):
            assert [getattr(outcome, flag) for flag in flags] == [
                flag == raised for flag in flags
            ]
            for flag in flags:
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(outcome, flag, True)

    def test_out_of_order_buffering_and_release(self):
        window = ReceiverWindow(4)
        window.accept(1, "p1")
        window.accept(2, "p2")
        assert window.advance() == 0  # gap at 0
        assert not window.ack_ready
        window.accept(0, "p0")
        assert window.advance() == 3
        lo, hi, payloads = window.take_block()
        assert (lo, hi) == (0, 2)
        assert payloads == ["p0", "p1", "p2"]

    def test_take_block_advances_nr(self):
        window = ReceiverWindow(4)
        window.accept(0)
        window.advance()
        window.take_block()
        assert window.nr == 1

    def test_take_block_without_pending_raises(self):
        window = ReceiverWindow(4)
        with pytest.raises(RuntimeError):
            window.take_block()

    def test_received_unaccepted(self):
        window = ReceiverWindow(4)
        window.accept(2)
        window.accept(4)
        assert window.received_unaccepted == [2, 4]
        assert window.buffered_count() == 2

    def test_has_received(self):
        window = ReceiverWindow(4)
        window.accept(0)
        window.accept(3)
        window.advance()
        assert window.has_received(0)  # below vr
        assert window.has_received(3)  # buffered
        assert not window.has_received(1)

    def test_partial_blocks(self):
        window = ReceiverWindow(8)
        window.accept(0)
        window.advance()
        assert window.take_block()[:2] == (0, 0)
        window.accept(1)
        window.accept(2)
        window.advance()
        assert window.take_block()[:2] == (1, 2)

    def test_invariant_maintained(self):
        window = ReceiverWindow(4)
        window.check_invariant()
        window.accept(1)
        window.check_invariant()
        window.accept(0)
        window.advance()
        window.check_invariant()
        window.take_block()
        window.check_invariant()

    def test_invalid_window_size(self):
        with pytest.raises(ValueError):
            ReceiverWindow(0)
