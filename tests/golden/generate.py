"""Regenerate the golden decision-trace recordings.

Run from the repository root with the code you want to pin::

    PYTHONPATH=src python tests/golden/generate.py

The recordings pin the behaviour-defining projection of each protocol's
trace (``TraceRecorder.decision_trace``) for representative E1/E3/E5
quick configurations.  They were generated with the pre-``window_core``
protocol implementations; the window-core refactor must reproduce every
one of them byte-for-byte (see ``tests/test_golden_traces.py``).
"""

from __future__ import annotations

import json
import pathlib

from repro.channel.impairments import ScriptedLoss
from repro.experiments.common import fifo_link, lossy_link
from repro.protocols.registry import make_pair
from repro.sim.runner import LinkSpec, run_transfer
from repro.workloads.sources import GreedySource

GOLDEN_PATH = pathlib.Path(__file__).with_name("decision_traces.json")

#: the protocols the window-core refactor touches
PROTOCOLS = (
    "blockack",
    "blockack-simple",
    "blockack-bounded",
    "gobackn",
    "selective-repeat",
    "tcp-sack",
)


def golden_cases():
    """(case_id, protocol, run_kwargs) for every pinned configuration.

    Three regimes, mirroring the quick configs of E1 (lossless FIFO
    pipelining), E3 (Bernoulli loss on both links), and E5 (a scripted
    lost acknowledgment forcing timeout recovery).
    """
    cases = []
    for protocol in PROTOCOLS:
        cases.append(
            (
                f"e1/{protocol}",
                protocol,
                dict(
                    window=6,
                    total=40,
                    forward=fifo_link(),
                    reverse=fifo_link(),
                    seed=11,
                ),
            )
        )
        for seed in (11, 23):
            cases.append(
                (
                    f"e3/{protocol}/s{seed}",
                    protocol,
                    dict(
                        window=8,
                        total=60,
                        forward=lossy_link(0.05, spread=0.0),
                        reverse=lossy_link(0.05, spread=0.0),
                        seed=seed,
                    ),
                )
            )
        cases.append(
            (
                f"e5/{protocol}",
                protocol,
                dict(
                    window=8,
                    total=16,
                    forward=fifo_link(),
                    reverse=LinkSpec(
                        delay=fifo_link().delay, loss=ScriptedLoss({0})
                    ),
                    seed=0,
                ),
            )
        )
    return cases


def record_case(
    protocol: str,
    window: int,
    total: int,
    forward,
    reverse,
    seed,
):
    """One traced transfer; returns the JSON-safe decision trace."""
    sender, receiver = make_pair(protocol, window=window)
    result = run_transfer(
        sender,
        receiver,
        GreedySource(total),
        forward=forward,
        reverse=reverse,
        seed=seed,
        trace=True,
        max_time=10_000.0,
    )
    assert result.completed and result.in_order, (
        f"golden run must complete cleanly: {protocol}: {result.summary()}"
    )
    assert result.trace.dropped_events == 0
    return [
        [time, actor, kind.value, seq, seq_hi]
        for time, actor, kind, seq, seq_hi in result.trace.decision_trace()
    ]


def main() -> None:
    recordings = {}
    for case_id, protocol, kwargs in golden_cases():
        recordings[case_id] = record_case(protocol, **kwargs)
        print(f"{case_id}: {len(recordings[case_id])} decisions")
    GOLDEN_PATH.write_text(json.dumps(recordings, separators=(",", ":")))
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
