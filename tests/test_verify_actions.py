"""Unit tests for the paper's guarded-command actions."""

from collections import Counter

import pytest

from repro.verify.actions import AbstractProtocolModel
from repro.verify.explorer import Explorer
from repro.verify.state import initial_state


def transitions_by_action(model, state):
    result = {}
    for transition in model.transitions(state):
        result.setdefault(transition.action, []).append(transition)
    return result


@pytest.fixture
def model():
    return AbstractProtocolModel(window=2, timeout_mode="simple")


class TestAction0Send:
    def test_enabled_initially(self, model):
        actions = transitions_by_action(model, model.initial())
        assert "0:send" in actions

    def test_send_adds_to_channel_and_advances_ns(self, model):
        target = transitions_by_action(model, model.initial())["0:send"][0].target
        assert target.ns == 1
        assert target.c_sr == (0,)

    def test_disabled_when_window_full(self, model):
        state = initial_state().replace(ns=2, c_sr=(0, 1))
        assert "0:send" not in transitions_by_action(model, state)


class TestAction1RecvAck:
    def test_consumes_ack_and_marks(self, model):
        state = initial_state().replace(ns=2, nr=2, vr=2, c_rs=((0, 1),))
        target = transitions_by_action(model, state)["1:recv_ack"][0].target
        assert target.na == 2
        assert target.c_rs == ()

    def test_out_of_order_ack_records_without_advance(self, model):
        state = initial_state().replace(ns=2, nr=2, vr=2, c_rs=((1, 1),))
        target = transitions_by_action(model, state)["1:recv_ack"][0].target
        assert target.na == 0
        assert 1 in target.ackd

    def test_gap_fill_advances_over_recorded(self, model):
        state = initial_state().replace(
            ns=2, nr=2, vr=2, ackd=frozenset({1}), c_rs=((0, 0),)
        )
        target = transitions_by_action(model, state)["1:recv_ack"][0].target
        assert target.na == 2
        assert target.ackd == frozenset()

    def test_identical_acks_collapse_to_one_choice(self, model):
        state = initial_state().replace(ns=2, nr=2, vr=2, c_rs=((0, 0), (0, 0)))
        choices = transitions_by_action(model, state)["1:recv_ack"]
        assert len(choices) == 1


class TestAction2SimpleTimeout:
    def test_enabled_when_stuck(self, model):
        # message 0 lost: outstanding, channels empty, receiver stuck
        state = initial_state().replace(ns=1)
        actions = transitions_by_action(model, state)
        assert "2:timeout" in actions
        assert actions["2:timeout"][0].target.c_sr == (0,)

    def test_disabled_when_data_in_flight(self, model):
        state = initial_state().replace(ns=1, c_sr=(0,))
        assert "2:timeout" not in transitions_by_action(model, state)

    def test_disabled_when_ack_in_flight(self, model):
        state = initial_state().replace(ns=1, nr=1, vr=1, c_rs=((0, 0),))
        assert "2:timeout" not in transitions_by_action(model, state)

    def test_disabled_when_receiver_can_progress(self, model):
        # rcvd[nr] true: receiver will advance vr and ack on its own
        state = initial_state().replace(ns=1, rcvd=frozenset({0}))
        assert "2:timeout" not in transitions_by_action(model, state)

    def test_disabled_when_nothing_outstanding(self, model):
        assert "2:timeout" not in transitions_by_action(model, model.initial())

    def test_enabled_with_buffered_gap(self, model):
        # 0 lost, 1 received and buffered: rcvd[nr=0] false -> timeout fires
        state = initial_state().replace(ns=2, rcvd=frozenset({1}))
        assert "2:timeout" in transitions_by_action(model, state)


class TestAction2PerMessageTimeout:
    @pytest.fixture
    def pm_model(self):
        return AbstractProtocolModel(window=2, timeout_mode="per_message")

    def test_multiple_messages_eligible(self, pm_model):
        state = initial_state().replace(ns=2)  # both 0 and 1 lost
        choices = transitions_by_action(pm_model, state)["2':timeout(i)"]
        resends = {t.target.c_sr for t in choices}
        assert resends == {(0,), (1,)}

    def test_blocked_by_copy_in_flight(self, pm_model):
        state = initial_state().replace(ns=2, c_sr=(1,))
        choices = transitions_by_action(pm_model, state)["2':timeout(i)"]
        assert all(t.target.c_sr != (1, 1) for t in choices)

    def test_blocked_by_covering_ack(self, pm_model):
        state = initial_state().replace(ns=2, nr=2, vr=2, c_rs=((0, 1),))
        assert "2':timeout(i)" not in transitions_by_action(pm_model, state)

    def test_blocked_by_buffered_reception(self, pm_model):
        # 1 is buffered at the receiver (rcvd, not yet acceptable): the
        # guard's (i < nr or not rcvd[i]) conjunct forbids resending 1
        state = initial_state().replace(ns=2, rcvd=frozenset({1}))
        choices = transitions_by_action(pm_model, state)["2':timeout(i)"]
        assert {t.target.c_sr for t in choices} == {(0,)}

    def test_accepted_with_lost_ack_is_eligible(self, pm_model):
        # 0 accepted (nr=1) but its ack was lost: i < nr allows resend
        state = initial_state().replace(ns=1, nr=1, vr=1)
        choices = transitions_by_action(pm_model, state)["2':timeout(i)"]
        assert {t.target.c_sr for t in choices} == {(0,)}


class TestReceiverActions:
    def test_recv_fresh_data_records(self, model):
        state = initial_state().replace(ns=1, c_sr=(0,))
        target = transitions_by_action(model, state)["3:recv_data"][0].target
        assert target.is_rcvd(0)
        assert target.c_sr == ()

    def test_recv_duplicate_sends_singleton_ack(self, model):
        state = initial_state().replace(ns=1, nr=1, vr=1, c_sr=(0,))
        target = transitions_by_action(model, state)["3:recv_data"][0].target
        assert target.c_rs == ((0, 0),)

    def test_advance_vr(self, model):
        state = initial_state().replace(ns=1, rcvd=frozenset({0}))
        target = transitions_by_action(model, state)["4:advance_vr"][0].target
        assert target.vr == 1

    def test_send_ack_emits_block_and_advances_nr(self, model):
        state = initial_state().replace(ns=2, vr=2)
        target = transitions_by_action(model, state)["5:send_ack"][0].target
        assert target.c_rs == ((0, 1),)
        assert target.nr == 2


class TestEnvironment:
    def test_loss_transitions_flagged(self, model):
        state = initial_state().replace(ns=1, c_sr=(0,))
        losses = transitions_by_action(model, state).get("env:lose_data", [])
        assert losses and all(t.is_environment for t in losses)
        assert losses[0].target.c_sr == ()

    def test_no_loss_when_disabled(self):
        model = AbstractProtocolModel(2, allow_loss=False)
        state = initial_state().replace(ns=1, c_sr=(0,))
        assert "env:lose_data" not in transitions_by_action(model, state)

    def test_protocol_transitions_excludes_environment(self, model):
        state = initial_state().replace(ns=1, c_sr=(0,))
        assert all(
            not t.is_environment for t in model.protocol_transitions(state)
        )


class TestFinality:
    def test_final_state_detection(self, model):
        # a drained transfer is the initial state moved by na, and sending
        # goes on: the explorer needs no final state of its own
        final = initial_state().replace(na=4, ns=4, nr=4, vr=4)
        assert final.shifted(-final.na) == initial_state()
        assert "0:send" in transitions_by_action(model, final)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            AbstractProtocolModel(0)
        with pytest.raises(ValueError):
            AbstractProtocolModel(2, timeout_mode="bogus")


def candidate_instances(model, state):
    """Every (action, message) a test offers ``step`` in ``state``.

    Numbers run from ``2w`` below ``na`` to ``2w`` above ``ns``, past the
    ranges E8 measures for data and acks in transit; pairs include the
    empty block ``(nr, nr - 1)`` that action 5 owes when ``nr = vr``.
    """
    span = 2 * model.window
    numbers = range(state.na - span, state.ns + span)
    pairs = [(lo, hi) for lo in numbers for hi in numbers if hi >= lo - 1]
    for action in ("0:send", model.timeout_action, "3:recv_data",
                   "env:lose_data"):
        for seq in numbers:
            yield action, seq
    for action in ("1:recv_ack", "5:send_ack", "env:lose_ack"):
        for pair in pairs:
            yield action, pair
    yield "4:advance_vr", None


class TestOneDefinition:
    @pytest.mark.parametrize("window", [2, 3])
    @pytest.mark.parametrize("mode", ["simple", "per_message"])
    def test_transitions_are_the_steps_whose_guards_hold(self, window, mode):
        # every state of the graph, loss on: the enumeration is exactly
        # the instances step takes, and step refuses every other one
        model = AbstractProtocolModel(window, mode)
        explorer = Explorer(model, stop_at_first_violation=False)
        assert explorer.run().ok
        for state in explorer.reached:
            taken = Counter()
            for action, message in candidate_instances(model, state):
                transition, refusal = model.step(state, action, message)
                if transition is None:
                    assert refusal, (action, message)
                else:
                    assert refusal is None
                    assert transition.action == action
                    taken[transition] += 1
            assert Counter(model.transitions(state)) == taken, state.describe()

    def test_step_refuses_a_copy_still_in_transit(self):
        model = AbstractProtocolModel(2, "per_message")
        state = initial_state().replace(ns=1, c_sr=(0,))
        assert model.step(state, "2':timeout(i)", 0) == (
            None, "resend 0: a copy is still in C_SR"
        )

    def test_step_rejects_an_action_the_model_lacks(self):
        model = AbstractProtocolModel(2, "per_message")
        with pytest.raises(ValueError):
            model.step(initial_state(), "2:timeout", 0)
