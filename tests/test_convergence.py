"""Tests for the corrupted-initial-state convergence checker.

The checker (``repro.verify.convergence``) is the exhaustive twin of the
runtime self-stabilization harness: it runs the endpoints' own repair
rules on the abstract protocol of ``repro.verify.actions`` and verifies
convergence by explicit-state search instead of simulation.
"""

import pytest

from repro.verify import convergence
from repro.verify.convergence import (
    CorruptionScenario,
    check_convergence,
    corrupt_scenarios,
    main,
    receiver_witness,
    repair_state,
    sender_witness,
)
from repro.verify.state import SystemState


def mid_flight_state():
    """na=2, ns=6, ackd={3}; receiver accepted 0..1, buffered 4."""
    return SystemState(
        na=2,
        ns=6,
        nr=2,
        vr=3,
        ackd=frozenset({3}),
        rcvd=frozenset({4}),
        c_sr=(),
        c_rs=(),
    )


class TestWitnesses:
    def test_sender_witness_is_the_unacked_set(self):
        assert sender_witness(mid_flight_state()) == {2, 4, 5}

    def test_receiver_witness_is_run_plus_buffer(self):
        assert receiver_witness(mid_flight_state()) == {2, 4}

    def test_witnesses_empty_at_rest(self):
        done = SystemState(
            na=3, ns=3, nr=3, vr=3,
            ackd=frozenset(), rcvd=frozenset(), c_sr=(), c_rs=(),
        )
        assert sender_witness(done) == frozenset()
        assert receiver_witness(done) == frozenset()


class TestRepairState:
    def _witnesses(self):
        state = mid_flight_state()
        return state, sender_witness(state), receiver_witness(state)

    def test_consistent_state_untouched(self):
        state, unacked, buffered = self._witnesses()
        repaired, repairs = repair_state(state, unacked, buffered)
        assert repairs == []
        assert repaired == state

    def test_demote_forged_progress(self):
        state, unacked, buffered = self._witnesses()
        corrupted = state.replace(na=5)
        repaired, repairs = repair_state(corrupted, unacked, buffered)
        assert repairs
        assert repaired.na == 2
        assert repaired.ackd == {3}

    def test_promote_rewound_cursor(self):
        state, unacked, buffered = self._witnesses()
        corrupted = state.replace(na=0, ackd=frozenset())
        repaired, repairs = repair_state(corrupted, unacked, buffered)
        assert any("released at acknowledgment" in r for r in repairs)
        assert repaired.na == 2
        assert repaired.ackd == {3}

    def test_receiver_vr_clamped_to_buffer_run(self):
        state, unacked, buffered = self._witnesses()
        corrupted = state.replace(vr=6, rcvd=frozenset())
        repaired, repairs = repair_state(corrupted, unacked, buffered)
        assert repairs
        assert repaired.vr == 3  # 3 was never buffered: the run stops
        assert repaired.rcvd == {4}  # the stranded receipt is rebuilt

    def test_receiver_cursor_inversion(self):
        state, unacked, buffered = self._witnesses()
        corrupted = state.replace(vr=0)
        repaired, _ = repair_state(corrupted, unacked, buffered)
        # demoted to the durable anchor; the receiver drops the payload of
        # 2, which rcvd does not list, and the sender resends 2
        assert repaired.vr == repaired.nr == 2
        assert repaired.rcvd == {4}

    def test_repair_is_idempotent(self):
        state, unacked, buffered = self._witnesses()
        for corrupted in (
            state.replace(na=0, ackd=frozenset()),
            state.replace(na=5),
            state.replace(vr=6),
        ):
            once, _ = repair_state(corrupted, unacked, buffered)
            twice, repairs = repair_state(once, unacked, buffered)
            assert repairs == []
            assert twice == once


class TestCorruptScenarios:
    def test_covers_the_runtime_sites(self):
        scenarios = list(corrupt_scenarios(mid_flight_state(), 4))
        sites = {s.site for s in scenarios}
        assert sites == {"sender.window", "sender.acks", "receiver.window"}
        assert len(scenarios) >= 8

    def test_every_scenario_repairs_to_a_stable_state(self):
        # the receiver drops orphan payloads from its store, so the stores
        # of the repaired state, not the origin's, witness the second repair
        for scenario in corrupt_scenarios(mid_flight_state(), 4):
            repaired = scenario.repaired
            again, repairs = repair_state(
                repaired, sender_witness(repaired), receiver_witness(repaired)
            )
            assert repairs == [], scenario.detail
            assert again == repaired


def wedged_state():
    """w=1, per-message: 0 is accepted but recorded as acked at na=0.

    No protocol action is enabled (the window is full, and timeout(0)
    sees 0 acknowledged), and assertion 7 fails, so the state is a
    terminal state outside the legitimate set.
    """
    return SystemState(
        na=0, ns=1, nr=1, vr=1,
        ackd=frozenset({0}), rcvd=frozenset(), c_sr=(), c_rs=(),
    )


def repaired_to(monkeypatch, repaired):
    """Make every corruption scenario repair to ``repaired``."""
    scenario = CorruptionScenario(
        origin=repaired, site="test", detail="forced", corrupted=repaired,
        repaired=repaired, repairs=(),
    )
    monkeypatch.setattr(
        convergence, "corrupt_scenarios", lambda state, window: [scenario]
    )


class TestCheckConvergence:
    def test_tiny_system_has_no_divergence(self):
        report = check_convergence(1, timeout_mode="simple")
        assert report.ok
        assert report.origins > 0
        assert report.scenarios > report.origins
        assert report.diverged == []
        assert report.summary().startswith("OK [simple]: w=1, ")

    @pytest.mark.slow
    @pytest.mark.parametrize("mode", ["simple", "per_message"])
    def test_ci_configuration_converges(self, mode):
        # (origins, scenarios) at w = 2 and 3: the explorer's graphs, each
        # origin corrupted at two offsets
        counts = {
            "simple": {2: (43, 771), 3: (196, 4035)},
            "per_message": {2: (46, 825), 3: (233, 4790)},
        }[mode]
        for window, (origins, scenarios) in counts.items():
            report = check_convergence(window, timeout_mode=mode)
            assert report.ok, report.summary()
            assert report.diverged == []
            assert (report.origins, report.scenarios) == (origins, scenarios)

    def test_recovery_from_outside_the_legitimate_set(self, monkeypatch):
        # two numbers outstanding in a window of one break assertion 6;
        # timeouts resend both, and every loss-free execution reaches the
        # legitimate set
        repaired_to(monkeypatch, SystemState(
            na=0, ns=2, nr=0, vr=0,
            ackd=frozenset(), rcvd=frozenset(), c_sr=(), c_rs=(),
        ))
        report = check_convergence(1, timeout_mode="per_message")
        assert report.ok, report.summary()
        assert report.already_legitimate == 0
        assert report.states_explored > 0
        assert report.transient_violations > 0

    def test_terminal_state_outside_the_legitimate_set_diverges(
        self, monkeypatch
    ):
        repaired_to(monkeypatch, wedged_state())
        report = check_convergence(1, timeout_mode="per_message")
        assert not report.ok
        scenario, terminal = report.diverged[0]
        assert terminal == wedged_state()

    def test_cli_entry_point(self, capsys):
        assert main(["--window", "1", "--timeout-mode", "simple"]) == 0
        out = capsys.readouterr().out
        assert "OK [simple]: w=1, " in out
        assert "already legitimate" in out
