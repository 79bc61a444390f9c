"""The adaptive-retransmission controller protocol senders consult.

One :class:`RetransmissionController` per sender bundles RTT
estimation, exponential backoff and the retry budget behind the two
questions a sender actually asks:

* *how long should this (re)arm be?* — :meth:`period`, the estimator's
  RTO doubled for each consecutive expiry of that timer, at most
  :data:`MAX_DOUBLINGS` times (x8);
* *this timer fired; now what?* — :meth:`on_timeout`, which returns a
  :class:`~repro.robustness.budget.RetryVerdict` (retry / degrade /
  link dead).

The sender reports its side of the conversation through
:meth:`on_send` (every transmission, flagging retransmissions so Karn's
rule can discard ambiguous samples) and :meth:`on_ack` (every
acknowledgment, with the newly acknowledged sequence numbers).

The controller has one input, the sender's ``timeout_period``: the RTO
starts there and never falls below it, so in simulated transfers,
where that period is the derived safe one, adaptivity only ever
lengthens timers.  Every other value is a module constant.

Senders with a single timer (the Section-II ``simple`` mode) use
``key=None`` for period/backoff bookkeeping; per-message-timer senders
key by sequence number.  RTT samples are always keyed by sequence
number.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Iterable, Optional, Set

from repro.robustness.budget import DEAD_AFTER, RetryBudget, RetryVerdict
from repro.robustness.rtt import RttEstimator

__all__ = ["RetransmissionController", "DEGRADE_FACTOR", "MAX_DOUBLINGS"]

#: a timer's period doubles with each consecutive expiry, at most this
#: many times (x8)
MAX_DOUBLINGS = 3
#: window multiplier a sender applies on each DEGRADE verdict
DEGRADE_FACTOR = 0.5


class RetransmissionController:
    """Live adaptive-retransmission state for one sender, whose RTO
    starts at ``period`` and never falls below it."""

    def __init__(self, period: float) -> None:
        self.estimator = RttEstimator(period)
        self.budget = RetryBudget()
        self.link_dead = False
        self.dead_key: Optional[Any] = None  # timer key whose expiry killed the link
        self.dead_at: Optional[float] = None  # virtual time of that expiry
        self.degrades = 0
        self._attempts: Dict[Any, int] = {}  # timer key -> consecutive expiries
        self._sent_at: Dict[Any, float] = {}  # seq -> first-send time
        self._tainted: Set[Any] = set()  # seqs ever retransmitted (Karn)
        self._instruments = None  # see bind_instruments

    def bind_instruments(self, instruments: Optional[Any]) -> None:
        """Attach telemetry hooks (duck-typed ``ControllerInstruments``:
        ``on_rtt_sample(rtt, rto)``,
        ``on_timeout(attempts, verdict, key=, now=)``)."""
        self._instruments = instruments

    # ------------------------------------------------------------------
    # the sender's two questions
    # ------------------------------------------------------------------

    def period(self, key: Any = None) -> float:
        """Arming period for the timer identified by ``key``."""
        # cap the exponent, not the power: a corrupted attempt count
        # must not overflow the float before repair clears it
        return self.estimator.rto * 2.0 ** min(
            self._attempts.get(key, 0), MAX_DOUBLINGS
        )

    def on_timeout(self, key: Any = None, now: Optional[float] = None) -> RetryVerdict:
        """Record one fired timeout on ``key``; escalate via the budget."""
        self._attempts[key] = self._attempts.get(key, 0) + 1
        verdict = self.budget.on_timeout()
        if verdict is RetryVerdict.LINK_DEAD:
            self.link_dead = True
            if self.dead_at is None:
                self.dead_key = key
                self.dead_at = now
        elif verdict is RetryVerdict.DEGRADE:
            self.degrades += 1
        if self._instruments is not None:
            self._instruments.on_timeout(
                self._attempts[key], verdict.value, key=key, now=now
            )
        return verdict

    # ------------------------------------------------------------------
    # the sender's reports
    # ------------------------------------------------------------------

    def on_send(self, seq: Any, now: float, retransmit: bool) -> None:
        """Note one transmission of ``seq`` at time ``now``."""
        if retransmit:
            # Karn's rule: an ack for a retransmitted message is ambiguous
            self._tainted.add(seq)
            self._sent_at.pop(seq, None)
        elif seq not in self._tainted:
            self._sent_at[seq] = now

    def on_ack(self, newly_acked: Iterable[Any], now: float) -> None:
        """Fold RTT samples from ``newly_acked`` and reset failure runs."""
        progressed = False
        for seq in newly_acked:
            progressed = True
            sent_at = self._sent_at.pop(seq, None)
            if sent_at is not None and seq not in self._tainted:
                self.estimator.sample(now - sent_at)
                if self._instruments is not None:
                    self._instruments.on_rtt_sample(
                        now - sent_at, self.estimator.rto
                    )
            self._tainted.discard(seq)
            self._attempts.pop(seq, None)
        if progressed:
            self.budget.on_progress()
            self._attempts.pop(None, None)  # single-timer senders' key

    # ------------------------------------------------------------------
    # lifecycle and reporting
    # ------------------------------------------------------------------

    def reset_volatile(self) -> None:
        """Drop everything an endpoint crash loses (all of it is volatile)."""
        self.estimator.reset()
        self.budget.reset()
        self._attempts.clear()
        self._sent_at.clear()
        self._tainted.clear()

    def repair(self) -> list:
        """Restore local consistency after arbitrary state corruption.

        The estimator's state space is self-describing enough to guard
        locally: ``srtt``/``rttvar`` must be finite, non-negative, and
        within a generous drift allowance of the initial RTO (adaptive
        RTOs grow by observed delay, never by nine orders of magnitude
        in one virtual tick).  A violated guard resets the estimator to
        its initial RTO — the cold-start state, which is safe by
        construction.  Backoff attempt counts and the retry budget's
        consecutive-timeout run are clamped to the ranges the budget's
        own escalation logic could have produced: a run that reached
        :data:`~repro.robustness.budget.DEAD_AFTER` would already have
        declared the link dead, so a
        live controller holding one is corrupt (and one more expiry
        would spuriously kill the link).  Returns a description of each
        repair applied.
        """
        repairs = []
        est = self.estimator
        bound = 1e3 * est.initial_rto
        for name in ("srtt", "rttvar"):
            value = getattr(est, name)
            if value is not None and not (
                math.isfinite(value) and 0.0 <= value <= bound
            ):
                repairs.append(
                    f"estimator reset ({name}={value} outside [0, {bound:g}])"
                )
                est.reset()
                break
        bogus_keys = [
            key
            for key, count in self._attempts.items()
            if count < 0 or count >= DEAD_AFTER
        ]
        for key in bogus_keys:
            repairs.append(
                f"attempt count for key {key!r} cleared "
                f"(was {self._attempts[key]})"
            )
            del self._attempts[key]
        if not self.link_dead and not (
            0 <= self.budget.consecutive < DEAD_AFTER
        ):
            repairs.append(
                f"consecutive-timeout run reset (was {self.budget.consecutive})"
            )
            self.budget.consecutive = 0
            self.budget.exhausted = False
        return repairs

    @property
    def verdict(self) -> str:
        """Current link-health verdict: alive / degraded / dead."""
        if self.link_dead:
            return "dead"
        return "degraded" if self.degrades else "alive"

    def stats_dict(self) -> dict:
        return {
            "rto": self.estimator.rto,
            "srtt": self.estimator.srtt,
            "rttvar": self.estimator.rttvar,
            "rtt_samples": self.estimator.samples,
            "degrades": self.degrades,
            "budget_timeouts": self.budget.total_timeouts,
            "verdict": self.verdict,
            "dead_key": self.dead_key,
            "dead_at": self.dead_at,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RetransmissionController(rto={self.estimator.rto:.4g}, "
            f"verdict={self.verdict})"
        )
