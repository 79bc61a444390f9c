"""E6 — throughput vs sequence-number domain for the timer-based baseline.

Claim (Section I): in the Stenning/Shankar–Lam protocol, "a specified
time period should elapse between the sending of two data messages with
the same sequence number. ... This additional constraint may adversely
affect the rate of data transfer in the event that a small domain of
sequence numbers is used."  Block acknowledgment "resorts to the
realtime constraints only when some message is lost", so its throughput
does not depend on the domain at all (beyond the fixed ``n = 2w``).

Regime: the reuse period must exceed the *maximum* message lifetime,
which in real networks is orders of magnitude above the typical delay.
The long-tail link (typical delay ≈ 1, aging bound 25) gives a reuse
period of ≈ 50 while the RTT is ≈ 2, so the Stenning cap
``D / reuse_period`` bites hard for small domains.

Expected shape: Stenning throughput grows ~linearly in D with slope
``1/reuse_period`` until it saturates at the window bound; block ack is
flat at the window bound with its fixed 2w-number domain.
"""

from __future__ import annotations

from repro.analysis.metrics import summarize_replications
from repro.analysis.report import render_table
from repro.experiments.common import (
    LIFETIME_BOUND,
    SEEDS,
    SEEDS_QUICK,
    ExperimentResult,
    ExperimentSpec,
    longtail_link,
    protocol_config,
    run_grid,
)

__all__ = ["EXPERIMENT"]

WINDOW = 8
DOMAINS = (9, 16, 32, 64, 128, 256)
REUSE_PERIOD = 2 * LIFETIME_BOUND + 0.05  # what the runner derives


def run(quick: bool = False) -> ExperimentResult:
    domains = (9, 32, 128) if quick else DOMAINS
    seeds = SEEDS_QUICK if quick else SEEDS
    total = 200 if quick else 600

    # one grid: stenning at every domain, then block ack at its fixed 2w
    cells = [("stenning", {"domain": domain}) for domain in domains]
    cells.append(("blockack", {"bounded_wire": True}))
    configs = [
        protocol_config(
            name, WINDOW, total, longtail_link(), longtail_link(), seed, **kwargs
        )
        for name, kwargs in cells
        for seed in seeds
    ]
    results = iter(run_grid(configs))
    goodputs = [
        summarize_replications(
            [next(results) for _ in seeds], metrics=("throughput",)
        )["throughput"].mean
        for _ in cells
    ]

    rows = []
    data = {}
    for domain, goodput in zip(domains, goodputs):
        cap = domain / REUSE_PERIOD
        rows.append((f"stenning D={domain}", goodput, f"{cap:.2f}"))
        data[f"stenning_{domain}"] = goodput
    rows.append(
        (f"blockack D=2w={2 * WINDOW}", goodputs[-1], "window-bound only")
    )
    data["blockack"] = goodputs[-1]

    table = render_table(
        ["protocol / domain", "goodput", "predicted cap D/reuse"],
        rows,
        title=(
            f"throughput vs wire-number domain (w={WINDOW}, typical delay≈1, "
            f"max lifetime={LIFETIME_BOUND}, reuse period≈{REUSE_PERIOD:.0f})"
        ),
    )

    d_small, d_large = domains[0], domains[-1]
    small_capped = data[f"stenning_{d_small}"] < 0.5 * data["blockack"]
    roughly_linear = (
        data[f"stenning_{domains[1]}"]
        > 1.5 * data[f"stenning_{d_small}"]
    )
    ba_wins_small_domain = data["blockack"] > 2.0 * data[f"stenning_{16 if 16 in domains else domains[1]}"]
    reproduced = small_capped and roughly_linear and ba_wins_small_domain
    findings = [
        f"stenning at D={d_small} achieves {data[f'stenning_{d_small}']:.2f}/tu "
        f"≈ its cap {d_small / REUSE_PERIOD:.2f} — throughput bought one wire "
        "number at a time",
        f"block ack reaches {data['blockack']:.2f}/tu with a fixed "
        f"{2 * WINDOW}-number domain: the real-time constraint is paid only "
        "on loss, never per send",
        "stenning needs D in the hundreds to match what block ack does with 16 numbers",
    ]
    return ExperimentResult(
        exp_id="E6",
        title="Timer-constrained baseline vs domain size",
        claim=EXPERIMENT.claim,
        table=table,
        data=data,
        findings=findings,
        reproduced=reproduced,
    )


EXPERIMENT = ExperimentSpec(
    exp_id="E6",
    title="Small sequence-number domains throttle the timer-based protocol",
    claim=(
        "Section I: the timer-constrained protocol's send-rate degrades with "
        "a small sequence-number domain; block acknowledgment avoids the "
        "per-send real-time constraint entirely."
    ),
    run=run,
)
