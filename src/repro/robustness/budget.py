"""Retry budgets and graceful degradation.

A sender that retries forever converts a dead link into an infinite
retransmission loop.  :class:`RetryBudget` bounds that: it watches the
run of *consecutive* timeouts since the last acknowledgment progress and
escalates through three verdicts:

* ``RETRY`` — within budget, retransmit normally;
* ``DEGRADE`` — every :data:`DEGRADE_AFTER` timeouts of the run: shrink
  the effective window (fewer messages hammering a sick channel) and
  keep going;
* ``LINK_DEAD`` — the run reached :data:`DEAD_AFTER`: stop
  retransmitting and surface the verdict to the application.

Any acknowledgment progress resets the run — a healthy link never
degrades.
"""

from __future__ import annotations

import enum

__all__ = ["RetryBudget", "RetryVerdict", "DEGRADE_AFTER", "DEAD_AFTER"]

#: consecutive timeouts per DEGRADE verdict (a long outage degrades in
#: steps: at 3, 6, 9, ...)
DEGRADE_AFTER = 3
#: consecutive timeouts at which every further timeout is LINK_DEAD
DEAD_AFTER = 12


class RetryVerdict(enum.Enum):
    """What a sender should do about one fired retransmission timeout."""

    RETRY = "retry"
    DEGRADE = "degrade"
    LINK_DEAD = "link_dead"


class RetryBudget:
    """Escalating verdicts over consecutive unproductive timeouts."""

    def __init__(self) -> None:
        self.consecutive = 0
        self.total_timeouts = 0
        self.degrades = 0
        self.exhausted = False

    def on_timeout(self) -> RetryVerdict:
        """Record one fired timeout; return the escalation verdict."""
        self.consecutive += 1
        self.total_timeouts += 1
        if self.consecutive >= DEAD_AFTER:
            self.exhausted = True
            return RetryVerdict.LINK_DEAD
        if self.consecutive % DEGRADE_AFTER == 0:
            self.degrades += 1
            return RetryVerdict.DEGRADE
        return RetryVerdict.RETRY

    def on_progress(self) -> None:
        """Acknowledgment progress: the link is alive, reset the run."""
        self.consecutive = 0

    def reset(self) -> None:
        """Full reset (endpoint restart): forget runs and exhaustion."""
        self.consecutive = 0
        self.exhausted = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RetryBudget(run={self.consecutive})"
