"""E16 — self-stabilizing recovery from adversarial state corruption.

The paper's correctness argument (assertions 6 ∧ 7 ∧ 8) assumes endpoint
state evolves only through the protocol's own guarded actions.  The
self-stabilization literature (Dolev et al., PAPERS.md) asks the harder
question: what if state is *corrupted* — a cursor bit-flipped, an
acknowledgment record forged, an RTT estimator driven to infinity — while
the protocol keeps running?  This experiment injects exactly that, at
every mutable site of every protocol, and measures recovery.

Grid: protocol × corruption site × severity × seed.  At a fixed virtual
time mid-transfer a :class:`~repro.robustness.corruption.StateCorruption`
mutates live endpoint state through a seeded corruption model
(``bitflip`` / ``random`` / ``worst`` — see
:mod:`repro.robustness.corruption`); the guard/repair hooks
(``stabilize()``, PROTOCOL.md §9) plus the fault plan's convergence
watchdog then have to drive the system back.  A
:class:`~repro.verify.runtime.StabilizationMonitor` renders the verdict:

* ``converged`` — transfer completed, in order, final state invariant-clean;
* ``degraded`` — recovered, but the corruption cost user-visible damage
  (only reachable by corrupting payload *values*, which no windowing
  protocol can detect — the argument for end-to-end checksums);
* ``diverged`` — deadlock or a wedged final state: the repair rules lost.

Reported per cell: the verdict, time-to-reconvergence (virtual time from
the corruption to the last violation/repair), and **goodput retention** —
throughput relative to an uncorrupted baseline on the identical channel
schedule.  The block-ack sender runs with adaptive retransmission so the
``sender.rtt`` site corrupts a live estimator, not a stub.

Expected shape: every cell fires its corruption and **no cell diverges**;
every window/ack/rtt-site cell fully converges; payload-value corruption
is the only class that may degrade.  Goodput retention stays high — the
repair rules only demote (retransmit a little more), never stall.
"""

from __future__ import annotations

from statistics import mean

from repro.analysis.report import render_table
from repro.experiments.common import (
    ExperimentResult,
    ExperimentSpec,
    SEEDS,
    SEEDS_QUICK,
    lossy_link,
    protocol_config,
    run_grid,
)
from repro.robustness.corruption import SEVERITIES, SITES, StateCorruption
from repro.robustness.faults import FaultPlan

__all__ = ["EXPERIMENT"]

WINDOW = 8
LOSS = 0.02  # always-on Bernoulli loss, each direction
CORRUPT_AT = 40.0  # virtual time of the corruption event, mid-transfer

#: the five protocols of the comparison suite; block ack runs adaptive so
#: the sender.rtt site hits a live estimator
PROTOCOLS = (
    ("blockack", {"timeout_mode": "per_message_safe", "adaptive": True}),
    ("blockack-bounded", {}),
    ("gobackn", {}),
    ("selective-repeat", {}),
    ("tcp-sack", {}),
)

#: sites whose corruption must fully converge (payload *values* are the
#: one thing no windowing protocol can repair — see module docstring)
LOSSLESS_SITES = tuple(s for s in SITES if s != "sender.payloads")


def _fault_plan(site: str, severity: str, seed: int) -> FaultPlan:
    return FaultPlan(
        seed=seed,
        corruptions=(
            StateCorruption(at=CORRUPT_AT, site=site, severity=severity),
        ),
    )


def _config(name, kwargs, total, seed, fault_plan=None):
    return protocol_config(
        name,
        WINDOW,
        total,
        lossy_link(LOSS),
        lossy_link(LOSS),
        seed,
        max_time=50_000.0,
        fault_plan=fault_plan,
        **kwargs,
    )


def run(quick: bool = False) -> ExperimentResult:
    seeds = SEEDS_QUICK if quick else SEEDS
    total = 240 if quick else 600

    # clean baselines first (goodput retention denominators), then the
    # corruption grid, as one flat sweep
    baseline_configs = [
        _config(name, kwargs, total, seed)
        for name, kwargs in PROTOCOLS
        for seed in seeds
    ]
    grid_configs = [
        _config(name, kwargs, total, seed, _fault_plan(site, severity, seed))
        for name, kwargs in PROTOCOLS
        for site in SITES
        for severity in SEVERITIES
        for seed in seeds
    ]
    results = run_grid(baseline_configs + grid_configs)

    baseline_throughput = {}
    cursor = iter(results)
    for name, _ in PROTOCOLS:
        for seed in seeds:
            baseline_throughput[(name, seed)] = next(cursor).throughput

    data = {}
    for name, _ in PROTOCOLS:
        for site in SITES:
            for severity in SEVERITIES:
                for seed in seeds:
                    result = next(cursor)
                    stab = result.stabilization
                    retention = (
                        result.throughput / baseline_throughput[(name, seed)]
                    )
                    data[f"{name}/{site}/{severity}/{seed}"] = {
                        "verdict": stab["verdict"],
                        "corruptions": stab["corruptions"],
                        "repairs": stab["repairs"],
                        "reconvergence_time": stab["reconvergence_time"],
                        "goodput_retention": retention,
                        "completed": result.completed,
                        "in_order": result.in_order,
                        "duration": result.duration,
                    }

    def cells(name, site, severity):
        return [data[f"{name}/{site}/{severity}/{seed}"] for seed in seeds]

    def render_cell(name, site, severity):
        rows = cells(name, site, severity)
        verdicts = sorted({row["verdict"] for row in rows})
        reconv = mean(row["reconvergence_time"] or 0.0 for row in rows)
        retention = mean(row["goodput_retention"] for row in rows)
        return f"{'|'.join(verdicts)} dt={reconv:.1f} g={retention:.2f}"

    table_rows = [
        (name, site)
        + tuple(render_cell(name, site, severity) for severity in SEVERITIES)
        for name, _ in PROTOCOLS
        for site in SITES
    ]
    table = render_table(
        ["protocol", "corrupted site"] + list(SEVERITIES),
        table_rows,
        title=(
            f"state corruption at t={CORRUPT_AT:.0f} (w={WINDOW}, "
            f"{LOSS:.0%} loss): verdict, mean reconvergence time (tu), "
            f"mean goodput retention vs clean baseline"
        ),
    )

    every_cell_fired = all(row["corruptions"] >= 1 for row in data.values())
    no_diverged = all(row["verdict"] != "diverged" for row in data.values())
    lossless_converged = all(
        data[f"{name}/{site}/{severity}/{seed}"]["verdict"] == "converged"
        for name, _ in PROTOCOLS
        for site in LOSSLESS_SITES
        for severity in SEVERITIES
        for seed in seeds
    )
    reproduced = every_cell_fired and no_diverged and lossless_converged

    worst_retention = min(
        row["goodput_retention"]
        for key, row in data.items()
        if row["verdict"] == "converged"
    )
    degraded_cells = sorted(
        key for key, row in data.items() if row["verdict"] == "degraded"
    )
    findings = [
        "no cell diverges: every protocol, corrupted at every site under "
        "every severity preset (including worst-case adversarial values), "
        "recovers without deadlock — the witness-authoritative repair "
        "rules plus the "
        "convergence watchdog restore assertions 6/7/8 from any injected "
        "state",
        "window-cursor, ack-record, and RTT-estimator corruption always "
        "fully converges: the payload store is the witness (a held payload "
        "proves its number unacknowledged), so repairs never forge "
        "authority and spurious retransmissions are absorbed as duplicates",
        f"payload-value corruption is the only degradation channel "
        f"({len(degraded_cells)} of {len(data)} cells): a mutated payload "
        "is indistinguishable from real data to any windowing protocol — "
        "the classical argument for end-to-end integrity checks, "
        "reproduced by injection",
        f"goodput retention stays at {worst_retention:.2f} or better on "
        "every converged cell: recovery costs a handful of duplicate "
        "retransmissions and at most a watchdog period of silence, not a "
        "stall",
    ]
    return ExperimentResult(
        exp_id="E16",
        title="Self-stabilizing recovery from adversarial state corruption",
        claim=EXPERIMENT.claim,
        table=table,
        data=data,
        findings=findings,
        reproduced=reproduced,
    )


EXPERIMENT = ExperimentSpec(
    exp_id="E16",
    title="State corruption: every protocol reconverges, none diverge",
    claim=(
        "Extension beyond the paper (motivated by self-stabilization, "
        "Dolev et al., PAPERS.md): with guard/repair rules that treat "
        "the payload stores as the ledger of authority and a convergence "
        "watchdog, all "
        "five protocols recover from adversarial corruption of window "
        "cursors, ack records, payload stores, and RTT state — "
        "reconverging to the paper's invariant instead of deadlocking."
    ),
    run=run,
)
