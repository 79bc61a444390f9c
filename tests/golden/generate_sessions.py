"""Regenerate the golden multi-flow session decision-trace recordings.

Run from the repository root with the code you want to pin::

    PYTHONPATH=src python tests/golden/generate_sessions.py

The recordings pin the behaviour-defining projection of a multi-flow
session's trace (``TraceRecorder.decision_trace``) for the E15 quick
configurations.  They were generated *before* the link-arbiter refactor
(``repro.channel.arbiter``); a session run with the default ``fifo``
scheduler and infinite link capacity must reproduce every one of them
byte-for-byte (see ``tests/test_session_golden.py``) —
the arbiter's pass-through path is required to be invisible.
"""

from __future__ import annotations

import json
import pathlib

from repro.experiments.common import lossy_link
from repro.sim.host import run_flows, uniform_flows

SESSION_GOLDEN_PATH = pathlib.Path(__file__).with_name("session_traces.json")

#: the protocols E15 sweeps over the shared link
PROTOCOLS = ("blockack", "gobackn", "selective-repeat")

#: mirrors the E15 quick tier: window 6, greedy demand, fixed horizon
WINDOW = 6
OFFERED = 5_000
HORIZON = 60.0
FLOW_COUNTS = (2, 4)
LOSS_RATES = (0.0, 0.1)
SEED = 11


def golden_session_cases():
    """(case_id, run_kwargs) for every pinned session configuration."""
    cases = []
    for protocol in PROTOCOLS:
        for flows in FLOW_COUNTS:
            for loss in LOSS_RATES:
                cases.append(
                    (
                        f"e15/{protocol}/f{flows}/loss{loss}",
                        dict(
                            protocol=protocol,
                            flows=flows,
                            loss=loss,
                        ),
                    )
                )
    return cases


def record_session_case(protocol: str, flows: int, loss: float, **host_kwargs):
    """One traced session; returns the JSON-safe decision trace."""
    session = run_flows(
        uniform_flows(protocol, flows, WINDOW, OFFERED),
        forward=lossy_link(loss),
        reverse=lossy_link(loss),
        seed=SEED,
        max_time=HORIZON,
        trace=True,
        **host_kwargs,
    )
    assert session.trace is not None and session.trace.dropped_events == 0
    assert all(flow.ordered_prefix for flow in session.flows), (
        f"golden session must keep every flow's prefix in order: {protocol}"
    )
    return [
        [time, actor, kind.value, seq, seq_hi]
        for time, actor, kind, seq, seq_hi in session.trace.decision_trace()
    ]


def main() -> None:
    recordings = {}
    for case_id, kwargs in golden_session_cases():
        recordings[case_id] = record_session_case(**kwargs)
        print(f"{case_id}: {len(recordings[case_id])} decisions")
    SESSION_GOLDEN_PATH.write_text(json.dumps(recordings, separators=(",", ":")))
    print(f"wrote {SESSION_GOLDEN_PATH}")


if __name__ == "__main__":
    main()
