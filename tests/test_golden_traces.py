"""Window-core equivalence: decision traces pinned against pre-refactor runs.

``tests/golden/decision_traces.json`` was recorded with the protocol
implementations as they stood *before* the shared
:mod:`repro.protocols.window_core` extraction.  Every refactored protocol
must reproduce those recordings byte-for-byte across the three pinned
regimes (E1 lossless pipelining, E3 Bernoulli loss, E5 scripted ack
loss).  Regenerate deliberately with ``python tests/golden/generate.py``
only when a behaviour change is intended and understood.
"""

import json

import pytest

from repro.trace.events import EventKind
from repro.trace.recorder import decision_diff

from .conftest import use_engine
from .golden.generate import GOLDEN_PATH, golden_cases, record_case

RECORDINGS = json.loads(GOLDEN_PATH.read_text())


def _rehydrate(recorded):
    """JSON rows back into decision-key tuples."""
    return [
        (time, actor, EventKind(kind), seq, seq_hi)
        for time, actor, kind, seq, seq_hi in recorded
    ]


@pytest.mark.parametrize(
    "case_id,protocol,kwargs",
    golden_cases(),
    ids=[case_id for case_id, _, _ in golden_cases()],
)
def test_decision_trace_matches_golden(case_id, protocol, kwargs):
    assert case_id in RECORDINGS, (
        f"no golden recording for {case_id}; run tests/golden/generate.py"
    )
    golden = _rehydrate(RECORDINGS[case_id])
    current = _rehydrate(record_case(protocol, **kwargs))
    differences = decision_diff(golden, current)
    assert not differences, (
        f"{case_id}: decision trace diverged from the pre-refactor "
        f"recording:\n" + "\n".join(differences)
    )


@pytest.mark.parametrize(
    "case_id,protocol,kwargs",
    golden_cases(),
    ids=[f"fast-{case_id}" for case_id, _, _ in golden_cases()],
)
def test_decision_trace_matches_golden_fast_engine(
    case_id, protocol, kwargs, monkeypatch
):
    """The instrumented engine must reproduce every recording too.

    With :class:`SimInstruments` attached the engine schedules and
    drains through its instrumented twin loops; those loops only count,
    so any divergence here means instrumentation changed protocol
    behaviour.  (The ``fast`` id is the one this check carried when it
    ran on the calendar-queue engine.)
    """
    use_engine(monkeypatch, "fast")
    golden = _rehydrate(RECORDINGS[case_id])
    current = _rehydrate(record_case(protocol, **kwargs))
    differences = decision_diff(golden, current)
    assert not differences, (
        f"{case_id}: instrumented-engine decision trace diverged from the "
        f"recording:\n" + "\n".join(differences)
    )


def test_every_recording_is_exercised():
    exercised = {case_id for case_id, _, _ in golden_cases()}
    assert exercised == set(RECORDINGS), (
        "golden file and case list out of sync; run tests/golden/generate.py"
    )
