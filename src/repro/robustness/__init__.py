"""Adaptive retransmission and fault tolerance.

The paper's timers assume a *known, fixed* timeout period derived from
bounded channel lifetimes.  Real links offer no such bound a priori:
Jain's *Divergence of Timeout Algorithms for Packet Retransmissions*
shows fixed timers diverge under load, and the self-stabilizing ARQ line
of work motivates surviving transient endpoint and channel faults.  This
package supplies the missing machinery:

* :mod:`repro.robustness.rtt` — :class:`RttEstimator`, the
  Jacobson/Karels EWMA of smoothed RTT and RTT variance, with Karn's
  rule (retransmitted messages never contribute samples) enforced by the
  controller;
* :mod:`repro.robustness.backoff` — :class:`BackoffPolicy`, exponential
  timer backoff with a cap and optional deterministic jitter;
* :mod:`repro.robustness.budget` — :class:`RetryBudget`, which converts
  consecutive unproductive timeouts into graceful degradation (shrink
  the effective window) and, past a hard limit, a ``LINK_DEAD`` verdict
  instead of retrying forever;
* :mod:`repro.robustness.controller` — :class:`AdaptiveConfig` /
  :class:`RetransmissionController`, the object protocol senders consult
  for timer periods and timeout verdicts;
* :mod:`repro.robustness.faults` — :class:`FaultPlan`, scripted fault
  injection (frame corruption, loss brownouts, endpoint crash/restart)
  for simulated transfers;
* :mod:`repro.robustness.corruption` — :class:`StateCorruption`, the
  adversarial state-corruption fault model behind the self-stabilization
  machinery (PROTOCOL.md §9): seeded mutation of live endpoint state at
  a named site, applied through a :class:`FaultPlan`.

Adaptive behavior is strictly opt-in: every protocol sender takes an
``adaptive`` knob defaulting to ``None``, under which the fixed-timeout
code paths are bit-identical to the paper's realization.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports
from repro.robustness.backoff import BackoffPolicy
from repro.robustness.budget import RetryBudget, RetryVerdict
from repro.robustness.controller import AdaptiveConfig, RetransmissionController
from repro.robustness.rtt import RttEstimator

if TYPE_CHECKING:
    from repro.robustness.corruption import StateCorruption
    from repro.robustness.faults import CrashRestart, FaultPlan

__all__ = [
    "AdaptiveConfig",
    "BackoffPolicy",
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
