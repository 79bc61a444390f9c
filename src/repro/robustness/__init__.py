"""Adaptive retransmission and fault tolerance.

The paper's timers assume a *known, fixed* timeout period derived from
bounded channel lifetimes.  Real links offer no such bound a priori:
Jain's *Divergence of Timeout Algorithms for Packet Retransmissions*
shows fixed timers diverge under load, and the self-stabilizing ARQ line
of work motivates surviving transient endpoint and channel faults.  This
package supplies the missing machinery:

* :mod:`repro.robustness.rtt` — :class:`RttEstimator`, the
  Jacobson/Karels EWMA of smoothed RTT and RTT variance, floored at its
  initial RTO, with Karn's rule (retransmitted messages never
  contribute samples) enforced by the controller;
* :mod:`repro.robustness.budget` — :class:`RetryBudget`, which converts
  consecutive unproductive timeouts into graceful degradation (shrink
  the effective window) and, past a hard limit, a ``LINK_DEAD`` verdict
  instead of retrying forever;
* :mod:`repro.robustness.controller` — :class:`RetransmissionController`,
  the object protocol senders consult for timer periods (the RTO with
  capped exponential backoff) and timeout verdicts;
* :mod:`repro.robustness.faults` — :class:`FaultPlan`, scripted fault
  injection (frame corruption, loss brownouts, endpoint crash/restart)
  for simulated transfers;
* :mod:`repro.robustness.corruption` — :class:`StateCorruption`, the
  adversarial state-corruption fault model behind the self-stabilization
  machinery (PROTOCOL.md §9): seeded mutation of live endpoint state at
  a named site, applied through a :class:`FaultPlan`.

Adaptive behavior is strictly opt-in: the block-ack, bounded block-ack,
go-back-N and selective-repeat senders take an ``adaptive`` flag
defaulting to ``False``, under which the fixed-timeout code paths are
bit-identical to the paper's realization.  With ``adaptive=True`` the
sender's ``timeout_period`` is the controller's only input: the RTO
starts there and never falls below it, and the gains, backoff and
budget are module constants.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports
from repro.robustness.budget import RetryBudget, RetryVerdict
from repro.robustness.controller import RetransmissionController
from repro.robustness.rtt import RttEstimator

if TYPE_CHECKING:
    from repro.robustness.corruption import StateCorruption
    from repro.robustness.faults import CrashRestart, FaultPlan

__all__ = [
    "CrashRestart",
    "FaultPlan",
    "RetransmissionController",
    "RetryBudget",
    "RetryVerdict",
    "RttEstimator",
    "StateCorruption",
]

# fault injection loads on first use: only fault-plan runs need it
__getattr__, __dir__ = lazy_exports(
    __name__,
    globals(),
    {
        "repro.robustness.corruption": ("corruption", "StateCorruption"),
        "repro.robustness.faults": ("faults", "CrashRestart", "FaultPlan"),
    },
)
