"""Arbiter-refactor parity: session decision traces pinned pre-refactor.

``tests/golden/session_traces.json`` was recorded with the multi-flow
stack as it stood *before* the link-arbiter refactor
(:mod:`repro.channel.arbiter`).  The refactor threads an ``arbiter=``
seam through :class:`~repro.channel.mux.FlowMux`,
:class:`~repro.sim.host.SessionHost`, and the sweep layer; with the
default configuration (``fifo`` scheduler, infinite capacity — i.e. no
``ArbiterConfig`` at all) every pinned session must reproduce its
recording byte-for-byte, on the bare engine and with the engine's
instruments attached (test ids ``default-engine`` and ``fast-engine``;
see ``ENGINE_VARIANTS`` in ``conftest.py``).  That is the acceptance
criterion that makes the refactor safe: the arbiter only exists when a
finite rate is requested, and ``FlowPort.send`` keeps the exact
historical direct-to-link path otherwise.

Regenerate deliberately with ``python tests/golden/generate_sessions.py``
only when a behaviour change is intended and understood.
"""

import json

import pytest

from repro.trace.events import EventKind
from repro.trace.recorder import decision_diff

from .conftest import ENGINE_VARIANTS, use_engine
from .golden.generate_sessions import (
    SESSION_GOLDEN_PATH,
    golden_session_cases,
    record_session_case,
)

RECORDINGS = json.loads(SESSION_GOLDEN_PATH.read_text())


def _rehydrate(recorded):
    """JSON rows back into decision-key tuples."""
    return [
        (time, actor, EventKind(kind), seq, seq_hi)
        for time, actor, kind, seq, seq_hi in recorded
    ]


@pytest.mark.parametrize(
    "variant", list(ENGINE_VARIANTS), ids=[f"{v}-engine" for v in ENGINE_VARIANTS]
)
@pytest.mark.parametrize(
    "case_id,kwargs",
    golden_session_cases(),
    ids=[case_id for case_id, _ in golden_session_cases()],
)
def test_session_trace_matches_pre_arbiter_golden(
    case_id, kwargs, variant, monkeypatch
):
    assert case_id in RECORDINGS, (
        f"no golden recording for {case_id}; "
        f"run tests/golden/generate_sessions.py"
    )
    use_engine(monkeypatch, variant)
    golden = _rehydrate(RECORDINGS[case_id])
    current = _rehydrate(record_session_case(**kwargs))
    differences = decision_diff(golden, current)
    assert not differences, (
        f"{case_id} [{variant}]: session decision trace diverged from the "
        f"pre-arbiter recording:\n" + "\n".join(differences)
    )


def test_every_session_recording_is_exercised():
    exercised = {case_id for case_id, _ in golden_session_cases()}
    assert exercised == set(RECORDINGS), (
        "golden session file and case list out of sync; "
        "run tests/golden/generate_sessions.py"
    )
