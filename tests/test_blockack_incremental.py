"""The ``per_message_safe`` sender's park/cover/release bookkeeping.

The sender stamps coverage from a cursor and re-tests only the parked
messages an ack can move.  Three checks hold that to the full scan it
replaced:

* literal pins of two runs in which most timer fires park a message: a
  saturated DRR session shaped like the benchmark's ``shared-16``
  workload, and a wide-window lossy transfer, each computed with the
  full scan;
* a property that runs the production sender and a full-scan
  reference side by side, with and without crashes and corrupted state,
  and requires identical runs;
* a guard that the ack path never walks the outstanding window.
"""

import hashlib
import json

from hypothesis import example, given, settings, strategies as st

from repro.channel.arbiter import ArbiterConfig
from repro.channel.delay import UniformDelay
from repro.channel.impairments import BernoulliLoss
from repro.core.numbering import ModularNumbering
from repro.core.window import SenderWindow
from repro.perf.sweep import serialize_result
from repro.protocols.blockack import BlockAckReceiver, BlockAckSender
from repro.protocols.registry import make_pair
from repro.robustness.corruption import StateCorruption
from repro.robustness.faults import CrashRestart, FaultPlan
from repro.sim.host import mixed_flows, run_flows, session_to_transfer
from repro.sim.runner import LinkSpec, run_transfer
from repro.trace.events import EventKind
from repro.workloads.sources import GreedySource


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def _jitter_link(loss: float, **kwargs) -> LinkSpec:
    return LinkSpec(
        delay=UniformDelay(0.5, 1.5), loss=BernoulliLoss(loss), **kwargs
    )


class TestParkedRecoveryPins:
    def test_shared16_shaped_session_digest(self):
        # queue waits beyond the 12 tu timeout: 454 timer fires park
        session = run_flows(
            mixed_flows(
                "blockack", (4, 8, 16, 32) * 4, 10_000, timeout_period=12.0
            ),
            forward=_jitter_link(0.02), reverse=_jitter_link(0.02), seed=3,
            max_time=100.0,
            arbiter=ArbiterConfig(rate=8, scheduler="drr", queue_limit=64),
        )
        result = session_to_transfer(session)
        assert result.ordered_prefix
        assert result.delivered == 621
        assert result.sender_stats["retransmissions"] == 220
        assert _digest(serialize_result(result)) == (
            "11c2c4191e010bb3eea5c578ff9f0232"
            "4c1838d2434979ef5c6b30be1b3456c3"
        )

    def test_wide_window_lossy_transfer_digest(self):
        # w=512 at 1% loss: 3,890 timer fires park, 34 are released
        sender, receiver = make_pair("blockack", window=512)
        result = run_transfer(
            sender, receiver, GreedySource(4096),
            forward=_jitter_link(0.01, max_lifetime=3.0),
            reverse=_jitter_link(0.01, max_lifetime=3.0),
            seed=7, trace=True,
        )
        assert result.completed and result.in_order
        released = [
            event for event in result.trace.events
            if event.kind is EventKind.TIMEOUT and event.detail == "released"
        ]
        assert len(released) == 34
        assert len(result.trace.events) == 12489
        assert _digest(serialize_result(result)) == (
            "a849a462558ac0d2e464a681e991ee2e"
            "815e0f028ff38e1940090dee5fc9b8d7"
        )
        rows = [
            [time, actor, kind.value, seq, seq_hi]
            for time, actor, kind, seq, seq_hi in result.trace.decision_trace()
        ]
        assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == (
            "bf5e9eb515075ac46f7735c3ed43345f"
            "16b9f635ca09dee9d02b542bba1418ac"
        )


class _FullScanSender(BlockAckSender):
    """The sender with the full-scan bookkeeping the cursor replaced.

    Every ack walks every outstanding message for coverage, then
    rebuilds, sorts and re-tests every parked one.
    """

    def _note_coverage(self):
        if self.hi_acked < 0:
            return
        for seq in self.window.outstanding():
            if seq < self.hi_acked and seq not in self._covered_at:
                self._covered_at[seq] = self.sim.now

    def _release_parked(self, stamped):
        self._parked = {s for s in self._parked if not self.window.is_acked(s)}
        for seq in sorted(self._parked):
            if self._eligible(seq):
                self._parked.discard(seq)
                self.stats.timeouts_fired += 1
                self.trace.record(
                    self.actor_name, EventKind.TIMEOUT, seq=seq, detail="released"
                )
                self._transmit(seq, attempt=1)
            elif seq in self._covered_at and not self._timers.running(seq):
                remaining = (
                    self._covered_at[seq] + self.reverse_lifetime - self.sim.now
                )
                self._parked.discard(seq)
                self._timers.start(seq, max(remaining, 0.0) + 1e-9)


def _fault_plan(fault, site, severity, at, seed):
    if fault is None:
        return None
    corruptions = crashes = ()
    if fault != "crash":
        corruptions = (StateCorruption(at=at, site=site, severity=severity),)
    if fault != "corrupt":
        # after a corruption, the crash lands before any repair, so the
        # restore re-stamps coverage from the corrupted state
        crashes = (
            CrashRestart(at=at + 0.01 * len(corruptions), outage=1.0),
        )
    return FaultPlan(seed=seed, crashes=crashes, corruptions=corruptions)


def _run(sender_cls, window, lookahead, bounded, adaptive, forward_loss,
         reverse_loss, spread, fault, site, severity, at, seed):
    numbering = ModularNumbering(window, lookahead=lookahead) if bounded else None
    sender = sender_cls(
        window, numbering=numbering, timeout_mode="per_message_safe",
        lookahead=lookahead, adaptive=adaptive,
    )
    receiver = BlockAckReceiver(window, numbering=numbering)

    def link(loss):
        return LinkSpec(
            delay=UniformDelay(1.0 - spread / 2, 1.0 + spread / 2),
            loss=BernoulliLoss(loss),
        )

    return run_transfer(
        sender, receiver, GreedySource(200),
        forward=link(forward_loss), reverse=link(reverse_loss), seed=seed,
        trace=True, collect_payloads=True, max_time=20_000.0,
        fault_plan=_fault_plan(fault, site, severity, at, seed),
    )


@settings(max_examples=40, deadline=None)
# a crash while lost acks leave messages unacknowledged under hi_acked:
# restore must re-stamp them
@example(
    window=21, lookahead=1, bounded=False, adaptive=True, forward_loss=0.0,
    reverse_loss=0.055, spread=0.42, fault="crash", site="sender.acks",
    severity="bitflip", at=8.77, seed=486961,
)
# hi_acked corrupted past ns, then a crash before any repair: restore
# stamps from the corrupted state, and the repair must force a rescan
@example(
    window=44, lookahead=2, bounded=True, adaptive=True, forward_loss=0.188,
    reverse_loss=0.067, spread=1.11, fault="corrupt+crash", site="sender.acks",
    severity="worst", at=14.14, seed=911376,
)
@given(
    window=st.integers(min_value=1, max_value=64),
    lookahead=st.sampled_from([1, 2]),
    bounded=st.booleans(),
    adaptive=st.booleans(),
    forward_loss=st.floats(min_value=0.0, max_value=0.3),
    reverse_loss=st.floats(min_value=0.0, max_value=0.3),
    spread=st.floats(min_value=0.0, max_value=1.8),
    fault=st.sampled_from([None, "crash", "corrupt", "corrupt+crash"]),
    site=st.sampled_from(["sender.acks", "sender.window"]),
    severity=st.sampled_from(["bitflip", "random", "worst"]),
    at=st.floats(min_value=2.0, max_value=15.0),
    seed=st.integers(min_value=0, max_value=10**6),
)
def test_cursor_bookkeeping_matches_full_scan(**inputs):
    result = _run(BlockAckSender, **inputs)
    reference = _run(_FullScanSender, **inputs)
    assert result.trace.decision_trace() == reference.trace.decision_trace()
    assert result.sender_stats == reference.sender_stats
    assert result.receiver_stats == reference.receiver_stats
    assert result.delivered_payloads == reference.delivered_payloads
    assert serialize_result(result) == serialize_result(reference)


def test_ack_path_never_walks_the_outstanding_window(monkeypatch):
    # only crash, restore and stabilize may list the outstanding window;
    # a fault-free transfer calls none of them
    calls = []
    outstanding = SenderWindow.outstanding

    def counted(self):
        calls.append(self.na)
        return outstanding(self)

    monkeypatch.setattr(SenderWindow, "outstanding", counted)
    sender, receiver = make_pair("blockack", window=1024)
    result = run_transfer(
        sender, receiver, GreedySource(4096),
        forward=_jitter_link(0.01, max_lifetime=3.0),
        reverse=_jitter_link(0.01, max_lifetime=3.0),
        seed=7, trace=True,
    )
    assert result.completed and result.in_order
    assert result.trace.count(EventKind.TIMEOUT) > 0
    assert calls == []
