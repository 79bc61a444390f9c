"""E14 — adaptive retransmission under injected faults.

The paper's Section IV "sophisticated timeouts" assume the timeout
period is a known constant.  Jain's *Divergence of Timeout Algorithms
for Packet Retransmissions* (PAPERS.md) shows fixed timers diverge when
the channel's behavior drifts, and the self-stabilizing ARQ line of work
(Dolev et al., PAPERS.md) motivates surviving transient endpoint
faults.  This experiment stresses both extensions at once and checks
they never compromise the paper's correctness argument.

Scenario, per seed: a 2% Bernoulli-lossy jittered link in each
direction, plus a scripted *brownout* (forward loss probability ramping
to 50% and back), sporadic frame corruption on the data channel, and one
mid-run sender crash/restart that drops all volatile state (timers, RTT
estimates, retransmission bookkeeping) and resumes from the durable
window snapshot.  The block-ack sender (``per_message_safe`` mode) runs
twice on the identical fault trace:

* **fixed** — the paper's constant provably-safe timeout period;
* **adaptive** — Jacobson/Karels RTT estimation with Karn's rule,
  exponential backoff with cap, and a retry budget that degrades the
  window before declaring the link dead
  (:mod:`repro.robustness`).  The estimated RTO is floored at the same
  provably-safe period, so adaptivity only ever *lengthens* timers —
  assertion 8's at-most-one-copy clause holds by the same argument as
  for the fixed timer.

Expected shape: both variants deliver every payload exactly once, in
order, with **zero** :class:`~repro.verify.runtime.InvariantMonitor`
violations (invariant clauses 6, 7, and 8 checked on every channel
event, faults included); the crash/restart is actually injected in every
run; and the adaptive sender fires *strictly fewer* timeouts than the
fixed-timeout baseline on every seed — backoff stops the fixed timer's
futile rapid-fire retransmissions into a browned-out channel.
"""

from __future__ import annotations

from repro.analysis.report import render_table
from repro.channel.impairments import FrameCorruption
from repro.experiments.common import (
    ExperimentResult,
    ExperimentSpec,
    SEEDS,
    SEEDS_QUICK,
    lossy_link,
    protocol_config,
    run_grid,
)
from repro.robustness.faults import CrashRestart, FaultPlan

__all__ = ["EXPERIMENT"]

WINDOW = 8
LOSS = 0.02  # always-on Bernoulli loss, each direction
CORRUPTION = 0.01  # forward frame-corruption probability
#: forward loss probability ramps 0 -> 50% -> 0 over this window
BROWNOUT = ((25.0, 0.0), (35.0, 0.5), (45.0, 0.5), (55.0, 0.0))
CRASH_AT = 60.0  # sender crashes mid-transfer...
OUTAGE = 10.0  # ...and restarts from its durable snapshot


def _fault_plan(seed: int) -> FaultPlan:
    """The identical scripted fault trace both variants run against."""
    return FaultPlan(
        forward_corruption=FrameCorruption(CORRUPTION),
        forward_brownout=BROWNOUT,
        crashes=(CrashRestart(at=CRASH_AT, outage=OUTAGE, endpoint="sender"),),
        seed=seed,
    )


def _config(adaptive: bool, total: int, seed: int):
    return protocol_config(
        "blockack",
        WINDOW,
        total,
        lossy_link(LOSS),
        lossy_link(LOSS),
        seed,
        max_time=50_000.0,
        monitor_invariants=True,
        fault_plan=_fault_plan(seed),
        timeout_mode="per_message_safe",
        adaptive=adaptive,
    )


def run(quick: bool = False) -> ExperimentResult:
    seeds = SEEDS_QUICK if quick else SEEDS
    total = 300 if quick else 600

    variants = (("fixed", False), ("adaptive", True))
    configs = [
        _config(adaptive, total, seed)
        for seed in seeds
        for _, adaptive in variants
    ]
    results = iter(run_grid(configs))

    rows = []
    data = {}
    for seed in seeds:
        for label, adaptive in variants:
            result = next(results)
            violations = len(result.monitor.violations)
            faults = result.fault_stats
            row = {
                "ok": result.completed and result.in_order,
                "timeouts": result.sender_stats["timeouts_fired"],
                "retransmissions": result.sender_stats["retransmissions"],
                "duration": result.duration,
                "violations": violations,
                "crashes": faults["crashes"],
                "restarts": faults["restarts"],
                "corrupted": faults["corrupt_forward"],
            }
            if adaptive:
                row["adaptive"] = result.sender_stats["adaptive"]
            data[f"{label}/{seed}"] = row
            rows.append(
                (
                    seed,
                    label,
                    "yes" if row["ok"] else "NO",
                    row["timeouts"],
                    row["retransmissions"],
                    f"{row['duration']:.1f}",
                    violations,
                    f"{faults['crashes']}/{faults['restarts']}",
                    faults["corrupt_forward"],
                )
            )

    table = render_table(
        ["seed", "timer", "delivered in order", "timeouts fired",
         "retransmissions", "duration (tu)", "invariant violations",
         "crash/restart", "corrupt frames"],
        rows,
        title=(
            f"block ack (per_message_safe, w={WINDOW}) under {LOSS:.0%} loss "
            f"+ brownout to 50% + frame corruption + sender crash at "
            f"t={CRASH_AT:.0f}"
        ),
    )

    all_delivered = all(row["ok"] for row in data.values())
    zero_violations = all(row["violations"] == 0 for row in data.values())
    faults_injected = all(
        row["crashes"] == 1 and row["restarts"] == 1 for row in data.values()
    )
    adaptive_strictly_fewer = all(
        data[f"adaptive/{seed}"]["timeouts"] < data[f"fixed/{seed}"]["timeouts"]
        for seed in seeds
    )
    reproduced = (
        all_delivered
        and zero_violations
        and faults_injected
        and adaptive_strictly_fewer
    )
    findings = [
        "every run — fixed and adaptive, every seed — delivers all payloads "
        "exactly once in order despite the brownout, frame corruption, and a "
        "mid-run sender crash that wipes every timer and RTT estimate",
        "the invariant monitor records zero violations of clauses 6/7/8 in "
        "every run: flooring the adaptive RTO at the provably safe period "
        "means estimation and backoff only ever lengthen timers, so the "
        "paper's at-most-one-copy argument survives adaptivity and faults",
        "the adaptive sender fires strictly fewer timeouts than the fixed "
        "baseline on every seed: exponential backoff stops the futile "
        "rapid-fire retransmissions a constant timer pours into a "
        "browned-out channel — Jain's divergence argument, observed",
        "recovery after the crash needs no special machinery: the restart "
        "re-arms one timer per outstanding message, and a full period has "
        "elapsed since each one's last transmission, so the re-arm "
        "satisfies the same timeout guard as any normal expiry",
    ]
    return ExperimentResult(
        exp_id="E14",
        title="Adaptive retransmission under injected faults",
        claim=EXPERIMENT.claim,
        table=table,
        data=data,
        findings=findings,
        reproduced=reproduced,
    )


EXPERIMENT = ExperimentSpec(
    exp_id="E14",
    title="Adaptive RTO + backoff survive brownouts, corruption, and crashes",
    claim=(
        "Extension of Section IV (motivated by Jain's timeout-divergence "
        "result and self-stabilizing ARQ, PAPERS.md): estimated RTO with "
        "backoff, floored at the paper's safe period, keeps every "
        "correctness invariant under injected faults while firing strictly "
        "fewer timeouts than the fixed-period timer."
    ),
    run=run,
)
