"""Tests for the explicit-state explorer over normalised states."""

import pytest

from repro.experiments.e9_progress import DeafReceiverModel
from repro.verify.actions import AbstractProtocolModel
from repro.verify.explorer import Explorer


def replay(model, lines):
    """Re-run a witness in absolute numbers; return the state it ends in."""
    state = model.initial()
    assert lines[0] == f"initial  =>  {state.describe()}"
    for line in lines[1:]:
        state = next(
            t.target
            for t in model.transitions(state)
            if line == f"{t}  =>  {t.target.describe()}"
        )
    return state


class TestExplorer:
    def test_tiny_space_is_clean(self):
        model = AbstractProtocolModel(1, timeout_mode="simple")
        report = Explorer(model).run()
        assert report.ok
        assert report.states_explored == 8

    def test_simple_mode_invariant_holds_with_loss(self):
        model = AbstractProtocolModel(2, timeout_mode="simple", allow_loss=True)
        report = Explorer(model, stop_at_first_violation=False).run()
        assert report.invariant_violations == []
        assert report.deadlocks == []

    def test_per_message_mode_invariant_holds_with_loss(self):
        model = AbstractProtocolModel(
            2, timeout_mode="per_message", allow_loss=True
        )
        report = Explorer(model, stop_at_first_violation=False).run()
        assert report.ok

    @pytest.mark.parametrize(
        "window, mode, states",
        [
            (2, "simple", 43),
            (2, "per_message", 46),
            (4, "simple", 819),
            (4, "per_message", 1108),
        ],
    )
    def test_every_execution_fits_a_finite_graph(self, window, mode, states):
        model = AbstractProtocolModel(window, timeout_mode=mode)
        report = Explorer(model, stop_at_first_violation=False).run()
        assert report.ok and not report.truncated
        assert report.states_explored == states
        assert report.potential_drops == 0
        assert report.stall_cycle == []

    @pytest.mark.parametrize("window", [1, 2, 3])
    @pytest.mark.parametrize("mode", ["simple", "per_message"])
    def test_in_transit_ranges(self, window, mode):
        model = AbstractProtocolModel(window, timeout_mode=mode)
        report = Explorer(model, stop_at_first_violation=False).run()
        assert report.data_range == (-window, window - 1)
        assert report.ack_range == (0, window - 1)

    def test_impatient_mode_violates_assertion_8(self):
        model = AbstractProtocolModel(2, timeout_mode="impatient")
        report = Explorer(model).run()
        assert report.invariant_violations
        state, clauses = report.invariant_violations[0]
        assert any("8:" in clause for clause in clauses)

    def test_impatient_space_is_finite_without_stopping(self):
        # violating states are not expanded, so the growing channels stop
        model = AbstractProtocolModel(2, timeout_mode="impatient")
        report = Explorer(model, stop_at_first_violation=False).run()
        assert report.states_explored == 73
        assert not report.truncated

    def test_witness_trace_reaches_violation(self):
        model = AbstractProtocolModel(2, timeout_mode="impatient")
        explorer = Explorer(model)
        report = explorer.run()
        state, _ = report.invariant_violations[0]
        trace = explorer.witness(state)
        assert trace[0].startswith("initial")
        assert trace[-1].endswith(state.describe())

    def test_witnesses_replay_in_absolute_numbers(self):
        model = AbstractProtocolModel(2, timeout_mode="per_message")
        explorer = Explorer(model, stop_at_first_violation=False)
        explorer.run()
        for state in explorer.reached:
            end = replay(model, explorer.witness(state))
            assert end.shifted(-end.na) == state

    def test_witness_unknown_state_raises(self):
        model = AbstractProtocolModel(1)
        explorer = Explorer(model)
        explorer.run()
        with pytest.raises(KeyError):
            explorer.witness(model.initial().replace(ns=99, nr=99, vr=99, na=99))

    def test_truncation_flagged(self):
        model = AbstractProtocolModel(2)
        report = Explorer(model, max_states=10).run()
        assert report.truncated

    def test_channel_occupancy_bounded_by_invariant(self):
        # assertion 8 allows one copy per outstanding number: at most w
        model = AbstractProtocolModel(2, timeout_mode="simple")
        report = Explorer(model, stop_at_first_violation=False).run()
        assert report.max_channel_occupancy <= model.window

    def test_no_loss_space_smaller(self):
        with_loss = Explorer(AbstractProtocolModel(2, allow_loss=True)).run()
        without = Explorer(AbstractProtocolModel(2, allow_loss=False)).run()
        assert without.states_explored <= with_loss.states_explored

    def test_summary_format(self):
        report = Explorer(AbstractProtocolModel(1)).run()
        assert "OK" in report.summary()
        assert "no loss-free cycle" in report.summary()


class TestStallCycle:
    def test_deaf_receiver_loops_without_advancing_na(self):
        model = DeafReceiverModel(2)
        report = Explorer(model, stop_at_first_violation=False).run()
        assert report.states_explored == 7
        assert not report.ok
        assert report.invariant_violations == [] and report.deadlocks == []
        assert "a loss-free cycle" in report.summary()
        lines = report.stall_cycle
        cut = lines.index("-- loss-free cycle, na stays --")
        entry = replay(model, lines[:cut])
        end = replay(model, lines[:cut] + lines[cut + 1:])
        assert end == entry  # the loop comes back to where it started
        assert not any("env:" in line for line in lines[cut:])
