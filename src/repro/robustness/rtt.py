"""Round-trip-time estimation (Jacobson/Karels EWMA).

The retransmission timeout (RTO) is derived from two exponentially
weighted moving averages maintained per connection:

* ``srtt`` — the smoothed round-trip time,
  ``srtt += ALPHA * (sample - srtt)``;
* ``rttvar`` — the smoothed mean deviation,
  ``rttvar += BETA * (|sample - srtt| - rttvar)``;

with ``rto = srtt + K * rttvar``, never below the initial RTO.  The
gains are the classic constants ``ALPHA = 1/8``, ``BETA = 1/4``,
``K = 4``.

Karn's rule — samples from retransmitted messages are ambiguous (the
acknowledgment may answer either copy) and must be discarded — is the
*caller's* obligation: :class:`~repro.robustness.controller.\
RetransmissionController` tracks which sequence numbers were ever
retransmitted and never feeds their samples here.

The controller passes the sender's ``timeout_period`` as the initial
RTO, which in simulated transfers is the provably safe fixed period
(see ``safe_timeout_period``).  Because that value is also the floor,
adaptivity can only *lengthen* timers — backoff and degradation — and
never violates the paper's one-copy-in-transit requirement
(assertion 8).
"""

from __future__ import annotations

from typing import Optional

__all__ = ["RttEstimator"]

#: srtt gain
ALPHA = 0.125
#: rttvar gain
BETA = 0.25
#: rttvar weight in the RTO
K = 4.0


class RttEstimator:
    """Jacobson/Karels smoothed RTT and variance, yielding an RTO that
    starts at ``initial_rto`` and never falls below it."""

    def __init__(self, initial_rto: float) -> None:
        if initial_rto <= 0:
            raise ValueError(f"initial_rto must be positive, got {initial_rto}")
        self.initial_rto = initial_rto
        self.srtt: Optional[float] = None
        self.rttvar: Optional[float] = None
        self.samples = 0

    def sample(self, rtt: float) -> None:
        """Fold one (unambiguous) round-trip sample into the estimate."""
        if rtt < 0:
            raise ValueError(f"rtt sample must be non-negative, got {rtt}")
        if self.srtt is None:
            # first sample: srtt = s, rttvar = s/2 (RFC 6298 initialization)
            self.srtt = rtt
            self.rttvar = rtt / 2.0
        else:
            self.rttvar += BETA * (abs(self.srtt - rtt) - self.rttvar)
            self.srtt += ALPHA * (rtt - self.srtt)
        self.samples += 1

    @property
    def rto(self) -> float:
        """Current retransmission timeout, floored at the initial RTO."""
        if self.srtt is None:
            return self.initial_rto
        return max(self.srtt + K * self.rttvar, self.initial_rto)

    def reset(self) -> None:
        """Forget all samples (volatile state lost on endpoint restart)."""
        self.srtt = None
        self.rttvar = None
        self.samples = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RttEstimator(srtt={self.srtt}, rttvar={self.rttvar}, "
            f"rto={self.rto:.4g}, samples={self.samples})"
        )
