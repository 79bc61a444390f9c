"""E1 — the Section-I motivating scenario.

Claim: with bounded sequence numbers and reorderable channels, a
cumulative-acknowledgment go-back-N protocol can be driven into a silent
safety violation by one delayed acknowledgment; the block-acknowledgment
protocol under the *same* schedule cannot, because an acknowledgment pair
``(m, n)`` never acknowledges anything outside ``m..n``.

Besides replaying the paper's exact scenario, this experiment runs a
randomized adversarial search (random loss/reorder schedules against the
naive go-back-N) and reports how frequently the violation is hit — showing
the scenario is not a knife-edge curiosity.
"""

from __future__ import annotations

import random
from typing import List

from repro.analysis.report import render_table
from repro.core.window import ReceiverWindow, SenderWindow
from repro.experiments.common import ExperimentResult, ExperimentSpec
from repro.verify.faulty import NaiveGbnReceiver, NaiveGbnSender
from repro.verify.scenarios import run_intro_scenario_blockack, run_intro_scenario_gbn

__all__ = ["EXPERIMENT", "random_search_gbn", "random_search_blockack"]


def random_search_gbn(
    trials: int, seed: int, window: int = 6, domain: int = 7
) -> int:
    """Count random loss/reorder schedules that break naive go-back-N.

    Each trial: the sender streams messages; in-flight acknowledgments sit
    in a bag from which delivery draws at random (reorder); data messages
    after the first full window are lost with probability 1/2.  A trial
    counts as a violation if the sender ever believes a message was
    delivered that the receiver never accepted.
    """
    violations = 0
    for trial in range(trials):
        rng = random.Random(seed * 10_007 + trial)
        sender = NaiveGbnSender(window, domain)
        receiver = NaiveGbnReceiver(domain)
        ack_bag: List[int] = []
        broken = False
        for _ in range(200):
            if sender.can_send and rng.random() < 0.7:
                true_seq, wire = sender.send_new()
                # data loss starts once the number space can wrap
                if true_seq >= domain and rng.random() < 0.5:
                    pass  # lost
                else:
                    ack = receiver.on_data(wire)
                    if ack is not None:
                        ack_bag.append(ack)
            if ack_bag and rng.random() < 0.5:
                wire_ack = ack_bag.pop(rng.randrange(len(ack_bag)))
                newly = sender.on_cumulative_ack(wire_ack)
                if any(seq not in receiver.accepted for seq in newly):
                    broken = True
                    break
        if broken:
            violations += 1
    return violations


def random_search_blockack(trials: int, seed: int, window: int = 6) -> int:
    """The same adversarial bag applied to block acknowledgments.

    Both ends are the shipping window books: the receiver is a
    :class:`ReceiverWindow` that buffers out-of-order data and
    acknowledges exactly the blocks it accepts, acks are delivered in
    random order, and data past the first window is lost with
    probability 1/2.  Counts runs where the sender's ``na`` overtakes the
    receiver's ``nr`` — which the invariant proves impossible, so the
    expected count is zero.
    """
    violations = 0
    for trial in range(trials):
        rng = random.Random(seed * 20_011 + trial)
        sender = SenderWindow(window)
        receiver = ReceiverWindow(window)
        ack_bag: List[tuple] = []
        for _ in range(200):
            if sender.can_send and rng.random() < 0.7:
                seq = sender.take_next()
                lost = seq >= 2 * window and rng.random() < 0.5
                if not lost:
                    receiver.accept(seq)
                    receiver.advance()
            if receiver.ack_ready and rng.random() < 0.5:
                lo, hi, _ = receiver.take_block()
                ack_bag.append((lo, hi))
            if ack_bag and rng.random() < 0.5:
                lo, hi = ack_bag.pop(rng.randrange(len(ack_bag)))
                sender.apply_ack(lo, hi)
                if sender.na > receiver.nr:
                    violations += 1
                    break
    return violations


def run(quick: bool = False) -> ExperimentResult:
    gbn = run_intro_scenario_gbn()
    blockack = run_intro_scenario_blockack()
    trials = 200 if quick else 2000
    gbn_violations = random_search_gbn(trials, seed=5)
    ba_violations = random_search_blockack(trials, seed=5)

    rows = [
        (
            "go-back-N (bounded)",
            "violated" if gbn.violation else "safe",
            gbn.sender_believes_delivered,
            gbn.receiver_actually_accepted,
            f"{gbn_violations}/{trials}",
        ),
        (
            "block ack (bounded)",
            "violated" if blockack.violation else "safe",
            blockack.sender_believes_delivered,
            blockack.receiver_actually_accepted,
            f"{ba_violations}/{trials}",
        ),
    ]
    table = render_table(
        ["protocol", "scripted scenario", "sender believes", "receiver has",
         "random-search violations"],
        rows,
    )
    reproduced = (
        gbn.violation is not None
        and blockack.safe
        and gbn_violations > 0
        and ba_violations == 0
    )
    findings = [
        "scripted Section-I schedule breaks naive bounded go-back-N "
        f"(sender believes {gbn.sender_believes_delivered} delivered, receiver "
        f"accepted {gbn.receiver_actually_accepted})",
        "the identical schedule is harmless under block acknowledgment: "
        "ack (5,5) cannot advance na past the unacknowledged 0..4",
        f"randomized adversarial search: go-back-N broken in "
        f"{gbn_violations}/{trials} schedules, block ack in {ba_violations}/{trials}",
    ]
    return ExperimentResult(
        exp_id="E1",
        title="Bounded-number go-back-N violates safety under reorder; block ack does not",
        claim=EXPERIMENT.claim,
        table=table + "\n\n" + gbn.narrate() + "\n\n" + blockack.narrate(),
        data={
            "gbn_violation": str(gbn.violation),
            "gbn_random_violations": gbn_violations,
            "blockack_random_violations": ba_violations,
            "trials": trials,
        },
        findings=findings,
        reproduced=reproduced,
    )


EXPERIMENT = ExperimentSpec(
    exp_id="E1",
    title="Intro scenario: stale cumulative ack corrupts bounded go-back-N",
    claim=(
        "Section I: with bounded sequence numbers and message disorder, a "
        "delayed cumulative acknowledgment makes the sender 'recognize "
        "wrongly that all these messages have been received correctly'; "
        "block acknowledgment pairs (m, n) make the scenario impossible."
    ),
    run=run,
)
