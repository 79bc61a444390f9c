#!/usr/bin/env python3
"""Formal side of the paper: replay the bug, verify the fix, break a guard.

Three acts:

1. **The motivating failure** — the Section-I scenario: a stale cumulative
   acknowledgment silently corrupts a bounded-number go-back-N transfer,
   narrated step by step; the same schedule against block acknowledgment
   is provably harmless.

2. **Exhaustive verification** — every reachable state of the abstract
   block-ack protocol, in every execution (loss and reorder included),
   satisfies the paper's invariant, assertions 6 ∧ 7 ∧ 8, for both
   timeout designs.

3. **Breaking it on purpose** — remove the timeout guard's channel
   conjuncts ("impatient" mode) and the checker instantly produces a
   witness execution that puts two copies of one message in transit,
   violating assertion 8.

Run:  python examples/model_checking_demo.py
"""

from repro.verify import (
    AbstractProtocolModel,
    Explorer,
    run_intro_scenario_blockack,
    run_intro_scenario_gbn,
)


def act_one() -> None:
    print("=" * 72)
    print("ACT 1 — the Section-I scenario")
    print("=" * 72)
    print(run_intro_scenario_gbn().narrate())
    print()
    print(run_intro_scenario_blockack().narrate())


def act_two() -> None:
    print()
    print("=" * 72)
    print("ACT 2 — exhaustive verification of assertions 6 ∧ 7 ∧ 8")
    print("=" * 72)
    for window, mode in ((1, "simple"), (2, "simple"),
                         (2, "per_message"), (3, "simple")):
        model = AbstractProtocolModel(
            window=window, timeout_mode=mode, allow_loss=True
        )
        report = Explorer(model, stop_at_first_violation=False).run()
        print(f"w={window} {mode:12s} -> {report.summary()}")
        assert report.ok, "the paper's invariant failed?!"


def act_three() -> None:
    print()
    print("=" * 72)
    print("ACT 3 — delete the timeout guard, watch assertion 8 fall")
    print("=" * 72)
    model = AbstractProtocolModel(
        window=2, timeout_mode="impatient", allow_loss=True
    )
    explorer = Explorer(model)
    report = explorer.run()
    assert report.invariant_violations, "expected a violation"
    state, clauses = report.invariant_violations[0]
    print(f"violated: {'; '.join(clauses)}")
    print("witness execution:")
    for line in explorer.witness(state):
        print(f"  {line}")
    print()
    print("Retransmitting while a copy may still be in transit is exactly")
    print("what the paper's timeout guard exists to prevent.")


def main() -> None:
    act_one()
    act_two()
    act_three()


if __name__ == "__main__":
    main()
