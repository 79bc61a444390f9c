"""Tests for adversarial state corruption and self-stabilizing repair.

Three layers, mirroring the implementation:

* the corruption model itself (``repro.robustness.corruption``) — site
  and severity validation, the mutators' contracts (ledger exclusions:
  ``ns``/``nr`` never rewound, payload-store entries never deleted);
* the repair rules on the window/book/controller state classes — the
  payload-store witness is authoritative in both directions (demote a
  lying "acknowledged", promote a released-at-ack number);
* end to end through ``run_transfer`` with a ``FaultPlan`` carrying
  ``StateCorruption`` events: every protocol must reconverge, the
  ``StabilizationMonitor`` verdict rides ``result.stabilization``.
"""

import random

import pytest

from repro.core.bounded import BoundedReceiverBook, BoundedSenderBook
from repro.core.window import ReceiverWindow, SenderWindow
from repro.experiments.common import lossy_link
from repro.protocols.registry import make_pair
from repro.robustness.controller import RetransmissionController
from repro.robustness.corruption import (
    SEVERITIES,
    SITES,
    StateCorruption,
    apply_corruption,
)
from repro.robustness.faults import FaultPlan
from repro.sim.runner import run_transfer
from repro.workloads.sources import GreedySource

from .conftest import use_engine


class TestStateCorruptionSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            StateCorruption(at=-1.0)
        with pytest.raises(ValueError):
            StateCorruption(at=1.0, site="sender.soul")
        with pytest.raises(ValueError):
            StateCorruption(at=1.0, severity="apocalyptic")

    def test_endpoint_split(self):
        assert StateCorruption(at=1.0, site="sender.rtt").endpoint == "sender"
        assert (
            StateCorruption(at=1.0, site="receiver.window").endpoint
            == "receiver"
        )

    def test_str_is_compact(self):
        spec = StateCorruption(at=40.0, site="sender.acks", severity="worst")
        assert str(spec) == "sender.acks/worst@40"


# ----------------------------------------------------------------------
# mutator contracts (the ledger exclusions)
# ----------------------------------------------------------------------


class _FakeSender:
    """Duck-typed endpoint: a window plus the payload store."""

    def __init__(self, window):
        self.window = window
        self._payloads = {}


def _mid_flight_sender():
    """A sender six messages in: na=2, ns=6, ackd={3}, holding 2,4,5."""
    s = _FakeSender(SenderWindow(4))
    for seq in range(4):
        s.window.take_next()
        s._payloads[seq] = 100 + seq
    s.window.apply_ack(0, 1)
    del s._payloads[0], s._payloads[1]
    for _ in range(2):
        s._payloads[s.window.take_next()] = 999
    s.window.apply_ack(3, 3)
    del s._payloads[3]
    return s


class TestMutatorContracts:
    @pytest.mark.parametrize("severity", SEVERITIES)
    def test_ns_is_never_rewound(self, severity):
        for seed in range(10):
            s = _mid_flight_sender()
            spec = StateCorruption(at=1.0, site="sender.window", severity=severity)
            apply_corruption(s, spec, random.Random(seed))
            assert s.window.ns == 6  # the allocation ledger is inviolable

    @pytest.mark.parametrize("severity", SEVERITIES)
    def test_payload_entries_survive_corruption(self, severity):
        for seed in range(10):
            s = _mid_flight_sender()
            spec = StateCorruption(
                at=1.0, site="sender.payloads", severity=severity
            )
            mutations = apply_corruption(s, spec, random.Random(seed))
            assert mutations
            # values may be garbage, but the entry set — the repair
            # rules' witness — is untouched
            assert sorted(s._payloads) == [2, 4, 5]

    @pytest.mark.parametrize("severity", SEVERITIES)
    def test_bounded_payload_cells_never_emptied(self, severity):
        sender, _ = make_pair("blockack-bounded", window=4)
        for seq in range(3):
            sender.book.take_next()
            sender._payloads[seq % 4] = 100 + seq
        held_before = [c for c, p in enumerate(sender._payloads) if p is not None]
        spec = StateCorruption(at=1.0, site="sender.payloads", severity=severity)
        apply_corruption(sender, spec, random.Random(3))
        held_after = [c for c, p in enumerate(sender._payloads) if p is not None]
        # an empty cell IS the released-at-ack ledger entry: corruption
        # may scribble on values but never empties an occupied cell
        assert held_after == held_before

    def test_every_site_mutates_and_describes(self):
        for site in SITES:
            sender, receiver = make_pair(
                "blockack", window=4, adaptive=True, timeout_period=5.0
            )
            for seq in range(3):
                sender.window.take_next()
                sender._payloads[seq] = seq
            target = sender if site.startswith("sender") else receiver
            spec = StateCorruption(at=1.0, site=site, severity="worst")
            mutations = apply_corruption(target, spec, random.Random(1))
            assert mutations and all(isinstance(m, str) for m in mutations)

    def test_rtt_site_is_noop_without_controller(self):
        sender, _ = make_pair("blockack", window=4)
        spec = StateCorruption(at=1.0, site="sender.rtt", severity="worst")
        mutations = apply_corruption(sender, spec, random.Random(1))
        assert mutations == ["no adaptive controller; rtt corruption is a no-op"]


# ----------------------------------------------------------------------
# repair rules: the payload witness is authoritative in both directions
# ----------------------------------------------------------------------


class TestSenderWindowRepair:
    def test_consistent_state_repairs_nothing(self):
        s = _mid_flight_sender()
        assert s.window.repair(witness=s._payloads.keys()) == []

    def test_demote_rewrites_forward_corruption(self):
        s = _mid_flight_sender()
        s.window.na = 5  # forged progress past held payloads
        s.window._ackd = {2, 4}
        repairs = s.window.repair(witness=s._payloads.keys())
        assert repairs
        assert s.window.na == 2 and s.window.ns == 6
        assert s.window._ackd == {3}
        s.window.check_invariant()

    def test_promote_rescues_a_rewound_cursor(self):
        # without promotion, numbers 0/1/3 would look unacknowledged
        # forever: their payloads are gone, nothing can retransmit them
        s = _mid_flight_sender()
        s.window.na = 0
        s.window._ackd = set()
        repairs = s.window.repair(witness=s._payloads.keys())
        assert any("released at acknowledgment" in r for r in repairs)
        assert s.window.na == 2
        assert s.window._ackd == {3}
        s.window.check_invariant()

    def test_empty_witness_promotes_to_done(self):
        s = _mid_flight_sender()
        s._payloads.clear()  # everything was acknowledged
        s.window.na = 1
        repairs = s.window.repair(witness=s._payloads.keys())
        assert repairs and s.window.all_acknowledged

    def test_held_payload_restores_send_horizon(self):
        s = _mid_flight_sender()
        s.window.ns = 3  # corrupt below the held maximum (5)
        s.window.repair(witness=s._payloads.keys())
        assert s.window.ns == 6
        s.window.check_invariant()

    def test_witness_none_repairs_only_local_inconsistencies(self):
        s = _mid_flight_sender()
        s.window.na = 9  # inverted past ns
        s.window._ackd = {1, 7}
        repairs = s.window.repair()
        assert len(repairs) == 2
        assert s.window.na == s.window.ns == 6
        # a plausible-but-wrong rewind is NOT repaired without a witness
        t = _mid_flight_sender()
        t.window.na = 0
        t.window._ackd = set()
        assert t.window.repair() == []


class TestReceiverWindowRepair:
    def _mid_flight(self):
        r = ReceiverWindow(4)
        r.accept(0, "a")
        r.accept(1, "b")
        r.advance()  # vr=2, payloads 0/1 awaiting take_block
        r.accept(3, "d")  # buffered out of order
        return r

    def test_consistent_state_repairs_nothing(self):
        assert self._mid_flight().repair() == []

    def test_forged_vr_clamped_to_payload_run(self):
        r = self._mid_flight()
        r.vr = 5  # claims 2/3/4 accepted; only 3 holds a payload
        repairs = r.repair()
        assert repairs
        assert r.vr == 2
        assert r.received_unaccepted == [3]  # re-buffered, not redone

    def test_cursor_inversion(self):
        r = self._mid_flight()
        r.vr = r.nr - 1 if r.nr else 0
        r.nr = 2
        repairs = r.repair()
        assert r.nr <= r.vr
        assert repairs

    def test_unbacked_receipts_demoted(self):
        r = self._mid_flight()
        r._rcvd.add(5)  # claims receipt of a number with no payload
        repairs = r.repair()
        assert any("no payload held" in x for x in repairs)
        assert 5 not in r._rcvd

    def test_orphan_payloads_dropped(self):
        r = self._mid_flight()
        r._payloads[7] = "ghost"
        repairs = r.repair()
        assert any("orphan" in x for x in repairs)
        assert 7 not in r._payloads


class TestBoundedBookRepair:
    def _mid_flight_book(self):
        """na=2, ns=6 (mod 8), cells 2/4/5 occupied, 3 acked+released."""
        book = BoundedSenderBook(4)
        cells = {}
        for seq in range(4):
            book.take_next()
            cells[seq % 4] = 100 + seq
        book.apply_ack(0, 1)
        del cells[0], cells[1]
        for _ in range(2):
            cells[book.take_next() % 4] = 999
        book.apply_ack(3, 3)
        del cells[3]
        return book, set(cells)

    def test_consistent_state_repairs_nothing(self):
        book, witness = self._mid_flight_book()
        assert book.repair(witness_cells=witness) == []

    def test_promote_advances_over_released_cells(self):
        # a rewind within the legal span: only the payload witness can
        # tell that 0/1 were acknowledged (their cells are empty)
        book = BoundedSenderBook(4)
        cells = {}
        for seq in range(4):
            book.take_next()
            cells[seq % 4] = 100 + seq
        book.apply_ack(0, 1)
        del cells[0], cells[1]
        book.na = 0
        repairs = book.repair(witness_cells=set(cells))
        assert any("released at acknowledgment" in r for r in repairs)
        assert book.na == 2

    def test_span_overflow_rewind_recovers_via_pullback(self):
        book, witness = self._mid_flight_book()
        book.na = 0  # span 6 > w: the assertion-6 guard fires first
        repairs = book.repair(witness_cells=witness)
        assert repairs
        assert book.na == 2
        assert book.outstanding_wire() == [2, 4, 5]

    def test_demote_pulls_back_over_occupied_cells(self):
        book, witness = self._mid_flight_book()
        book.na = book.domain.add(book.ns, 1)  # worst: na "ahead" of ns
        repairs = book.repair(witness_cells=witness)
        assert repairs
        assert book.na == 2
        assert book.outstanding_wire() == [2, 4, 5]

    def test_lying_ackd_cells_cleared(self):
        book, witness = self._mid_flight_book()
        for cell in range(4):
            book._ackd[cell] = True  # includes na's own cell
        book.repair(witness_cells=witness)
        assert book.outstanding_wire() == [2, 4, 5]

    def test_out_of_domain_counters_folded(self):
        book, witness = self._mid_flight_book()
        book.na, book.ns = book.na + 8, book.ns + 16
        repairs = book.repair(witness_cells=witness)
        assert any("out of domain" in r for r in repairs)
        assert 0 <= book.na < 8 and 0 <= book.ns < 8

    def test_receiver_span_overflow_demotes_to_nr(self):
        book = BoundedReceiverBook(4)
        book.vr = book.domain.add(book.nr, book.w)  # never-received window
        repairs = book.repair()
        assert repairs
        assert book.vr == book.nr


class TestControllerRepair:
    def _controller(self):
        return RetransmissionController(5.0)

    def test_healthy_controller_untouched(self):
        ctl = self._controller()
        ctl.estimator.sample(3.0)
        assert ctl.repair() == []

    def test_infinite_srtt_resets_estimator(self):
        ctl = self._controller()
        ctl.estimator.srtt = float("inf")
        ctl.estimator.rttvar = -1.0
        repairs = ctl.repair()
        assert any("estimator reset" in r for r in repairs)
        assert ctl.estimator.rto == ctl.estimator.initial_rto

    def test_runaway_attempt_counts_cleared(self):
        ctl = self._controller()
        ctl._attempts[None] = 10**9
        repairs = ctl.repair()
        assert repairs and None not in ctl._attempts

    def test_consecutive_run_clamped_before_spurious_death(self):
        ctl = self._controller()
        ctl.budget.consecutive = 10**9
        repairs = ctl.repair()
        assert repairs
        # one more timeout must NOT spuriously kill the link now
        verdict = ctl.on_timeout(key=None, now=1.0)
        assert verdict.value != "link_dead"
        assert not ctl.link_dead

    @pytest.mark.parametrize(
        "protocol,seed", [("blockack-simple", 11), ("gobackn", 5)]
    )
    def test_planted_attempt_count_cannot_overflow_the_period(
        self, protocol, seed
    ):
        # a single-timer sender can re-arm with the planted count (up to
        # 1e6 expiries) before a delivery into it runs the repair
        sender, receiver = make_pair(protocol, window=8, adaptive=True)
        spec = StateCorruption(at=40.0, site="sender.rtt", severity="random")
        result = run_transfer(
            sender, receiver, GreedySource(240),
            forward=lossy_link(0.02), reverse=lossy_link(0.02), seed=seed,
            max_time=50_000.0,
            fault_plan=FaultPlan(seed=seed, corruptions=(spec,)),
        )
        assert result.completed and result.in_order
        assert result.stabilization["verdict"] == "converged"


# ----------------------------------------------------------------------
# end to end: corruption through run_transfer
# ----------------------------------------------------------------------


def run_corrupted(protocol, site, severity, total=120, seed=11, **pair_kwargs):
    sender, receiver = make_pair(protocol, window=6, **pair_kwargs)
    plan = FaultPlan(
        seed=seed,
        corruptions=[StateCorruption(at=30.0, site=site, severity=severity)],
    )
    result = run_transfer(
        sender,
        receiver,
        GreedySource(total),
        forward=lossy_link(0.02),
        reverse=lossy_link(0.02),
        seed=seed,
        max_time=50_000.0,
        monitor_invariants=True,
        fault_plan=plan,
    )
    return result, plan


class TestEndToEndRecovery:
    def test_stabilization_summary_shape(self):
        result, plan = run_corrupted("blockack", "sender.window", "worst")
        stab = result.stabilization
        assert stab["verdict"] == "converged"
        assert stab["corruptions"] == 1
        assert stab["final_state_violations"] == []
        assert stab["reconvergence_time"] is not None
        assert stab["reconvergence_time"] >= 0.0
        assert plan.stats.state_corruptions == 1
        assert result.fault_stats["repairs"] == plan.stats.repairs

    def test_fast_engine_recovers_identically(self, monkeypatch):
        """Corruption injection, repair, and reconvergence timing do not
        depend on engine instrumentation: the instrumented engine
        (``ENGINE_VARIANTS["fast"]``) must produce the exact
        stabilization payload the bare engine does."""
        default_result, _ = run_corrupted("blockack", "sender.window", "worst")
        use_engine(monkeypatch, "fast")
        fast_result, fast_plan = run_corrupted("blockack", "sender.window", "worst")
        assert fast_result.stabilization == default_result.stabilization
        assert fast_result.delivered == default_result.delivered
        assert fast_result.duration == default_result.duration
        assert fast_result.fault_stats == default_result.fault_stats
        assert fast_plan.stats.state_corruptions == 1

    def test_no_corruption_means_no_stabilization_payload(self):
        sender, receiver = make_pair("blockack", window=6)
        result = run_transfer(
            sender,
            receiver,
            GreedySource(60),
            forward=lossy_link(0.02),
            reverse=lossy_link(0.02),
            seed=7,
            monitor_invariants=True,
        )
        assert result.stabilization is None

    def test_receiver_worst_corruption_reconverges(self):
        result, _ = run_corrupted("blockack", "receiver.window", "worst")
        assert result.stabilization["verdict"] == "converged"
        assert result.completed and result.in_order

    @pytest.mark.slow
    @pytest.mark.parametrize(
        "protocol",
        ["stenning", "blockack", "blockack-bounded", "gobackn",
         "selective-repeat", "tcp-sack"],
    )
    @pytest.mark.parametrize("site", SITES)
    def test_worst_case_never_diverges(self, protocol, site):
        kwargs = (
            {"timeout_mode": "per_message_safe", "adaptive": True}
            if protocol == "blockack"
            else {}
        )
        result, _ = run_corrupted(protocol, site, "worst", **kwargs)
        stab = result.stabilization
        assert stab["verdict"] != "diverged", stab
        assert result.completed
        if site != "sender.payloads":
            # everything except honest payload-value damage fully recovers
            assert stab["verdict"] == "converged", stab

    def test_fault_plan_composition(self):
        # satellite: brownout + frame corruption + crash/restart + state
        # corruption on one run — the probes must flag the corruption and
        # stay clean about everything else
        from repro.channel.impairments import FrameCorruption
        from repro.robustness.faults import CrashRestart

        plan = FaultPlan(
            forward_corruption=FrameCorruption(0.03),
            forward_brownout=[(15.0, 0.0), (20.0, 0.6), (25.0, 0.6), (30.0, 0.0)],
            crashes=[CrashRestart(at=35.0, outage=5.0, endpoint="receiver")],
            corruptions=[
                StateCorruption(at=55.0, site="sender.window", severity="worst")
            ],
            seed=5,
        )
        sender, receiver = make_pair(
            "blockack", window=6, timeout_mode="per_message_safe"
        )
        result = run_transfer(
            sender,
            receiver,
            GreedySource(200),
            forward=lossy_link(0.02),
            reverse=lossy_link(0.02),
            seed=11,
            max_time=50_000.0,
            monitor_invariants=True,
            fault_plan=plan,
        )
        assert result.completed and result.in_order
        assert result.stabilization["verdict"] == "converged"
        stats = result.fault_stats
        assert stats["corrupt_forward"] > 0
        assert stats["crashes"] == 1 and stats["restarts"] == 1
        assert stats["state_corruptions"] == 1
        assert stats["repairs"] >= 1
