"""E13 — Section VI extension: aggressive reuse of acknowledged positions.

Claim (§VI, concluding remarks): "since block acknowledgment provides an
exact acknowledgment of those messages that have been received, this
opens up the possibility of utilizing any positions that have been
acknowledged for transmission of new messages, even though some earlier
messages in different positions have not yet been acknowledged. ...
Clearly, there is some tradeoff here between the added complexity versus
the potential gain in performance by more aggressive reuse of
acknowledgment message positions."

The extension (implemented as ``lookahead = K`` on the sender and the
numbering): the send guard relaxes from ``ns < na + w`` to "fewer than
``w`` unacknowledged AND ``ns < na + K*w``", so acknowledged positions
ahead of a stalled ``na`` are reused for new messages.  The wire-number
cost is exact and measurable: the live range widens to ``K*w`` on each
side of ``nr``, so the safe domain grows from ``2w`` to ``2*K*w``.

Where the gain lives: acknowledged holes ahead of ``na`` only form when
*acknowledgments* are lost or reordered while data flows — so the
experiment uses a clean forward channel, a lossy reverse channel, and
batched acks (losing one ack strands a whole block).  Expected shape:
K = 2 yields a consistent but modest goodput gain over K = 1, saturating
quickly with K — the measured form of the paper's "some tradeoff"
caution.
"""

from __future__ import annotations

from repro.analysis.metrics import summarize_replications
from repro.analysis.report import render_table
from repro.channel.delay import ConstantDelay
from repro.channel.impairments import BernoulliLoss
from repro.experiments.common import (
    SEEDS,
    SEEDS_QUICK,
    ExperimentResult,
    ExperimentSpec,
    protocol_config,
    run_grid,
)
from repro.protocols.ack_policy import CountingAckPolicy
from repro.sim.runner import LinkSpec

__all__ = ["EXPERIMENT"]

WINDOW = 16
ONE_WAY = 5.0  # long link: stalls are RTT-scale, so reuse has room to pay
ACK_BATCH = 8


def _config(lookahead: int, ack_loss: float, total: int, seed: int):
    return protocol_config(
        "blockack",
        WINDOW,
        total,
        LinkSpec(delay=ConstantDelay(ONE_WAY)),
        LinkSpec(delay=ConstantDelay(ONE_WAY), loss=BernoulliLoss(ack_loss)),
        seed,
        max_time=1_000_000.0,
        bounded_wire=True,
        lookahead=lookahead,
        timeout_mode="per_message_safe",
        ack_policy=CountingAckPolicy(ACK_BATCH, 1.0),
    )


def run(quick: bool = False) -> ExperimentResult:
    seeds = SEEDS_QUICK if quick else SEEDS
    total = 300 if quick else 800
    ack_losses = (0.2,) if quick else (0.1, 0.2, 0.3)
    lookaheads = (1, 2, 4)

    configs = [
        _config(lookahead, ack_loss, total, seed)
        for ack_loss in ack_losses
        for lookahead in lookaheads
        for seed in seeds
    ]
    results = iter(run_grid(configs))

    rows = []
    data = {}
    for ack_loss in ack_losses:
        for lookahead in lookaheads:
            metrics = summarize_replications(
                [next(results) for _ in seeds],
                metrics=("throughput",),
            )
            domain = 2 * lookahead * WINDOW
            rows.append(
                (
                    ack_loss,
                    f"K={lookahead}",
                    domain,
                    metrics["throughput"].mean,
                    f"±{metrics['throughput'].ci95:.3f}",
                )
            )
            data[(ack_loss, lookahead)] = metrics["throughput"].mean

    table = render_table(
        ["ack loss", "reuse factor", "wire domain", "goodput", "95% CI"],
        rows,
        title=(
            f"position reuse on a long link (w={WINDOW}, one-way {ONE_WAY}, "
            f"forward clean, acks batched by {ACK_BATCH})"
        ),
    )

    gains = {
        p: data[(p, 2)] / data[(p, 1)] for p in ack_losses
    }
    gain_exists = all(g > 1.02 for g in gains.values())
    gain_modest = all(g < 1.35 for g in gains.values())
    saturates = all(
        data[(p, 4)] <= data[(p, 2)] * 1.05 for p in ack_losses
    )
    reproduced = gain_exists and gain_modest and saturates
    findings = [
        "reusing acknowledged positions ahead of a stalled na yields a real "
        "but modest goodput gain: "
        + ", ".join(f"{(g - 1):.0%} at ack-loss {p}" for p, g in gains.items()),
        "the gain saturates by K=2: once the occupancy bound (w unacked) "
        "binds, further sequence lookahead buys nothing",
        f"the measured cost is exact: the safe wire domain grows linearly "
        f"with K ({2 * WINDOW} -> {4 * WINDOW} -> {8 * WINDOW}) — the "
        "paper's 'tradeoff between the added complexity versus the "
        "potential gain', quantified",
    ]
    return ExperimentResult(
        exp_id="E13",
        title="Section VI extension: aggressive position reuse",
        claim=EXPERIMENT.claim,
        table=table,
        data={f"{p}/{k}": v for (p, k), v in data.items()},
        findings=findings,
        reproduced=reproduced,
    )


EXPERIMENT = ExperimentSpec(
    exp_id="E13",
    title="Position reuse: the Section VI 'more aggressive' window",
    claim=(
        "Section VI: exact block acknowledgment permits reusing "
        "acknowledged positions for new messages before earlier messages "
        "are acknowledged, trading protocol complexity (and wire-number "
        "budget) for performance."
    ),
    run=run,
)
