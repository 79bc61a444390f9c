"""Unified telemetry layer: metrics, spans, structured export.

``repro.obs`` is the single observability backbone for the simulator,
the protocol endpoints, the channels, the robustness controller, and the
UDP transport.  It has three cooperating pieces:

* :mod:`repro.obs.metrics` — a metrics registry
  (:class:`~repro.obs.metrics.Counter` /
  :class:`~repro.obs.metrics.Gauge` /
  :class:`~repro.obs.metrics.Histogram`, with labels and fixed bucket
  boundaries for RTT/latency distributions).  Every observed run owns a
  scoped registry, so parallel sweep workers stay isolated; a run with
  observability off builds none and wires no instruments.
* :mod:`repro.obs.spans` — virtual-time spans keyed off ``Simulator.now``
  tracking the per-sequence-number lifecycle
  ``submitted -> sent -> [resend...] -> acked -> delivered`` and deriving
  metrics (retransmits per seq, ack-block sizes ``n-m+1``, time in
  window, submit-to-deliver latency).
* :mod:`repro.obs.sink` — structured export: a
  :class:`~repro.obs.sink.JsonlSink` streaming trace events, spans, and
  metric snapshots to ``results/obs/<run_id>.jsonl`` with the stable
  schema of :mod:`repro.obs.schema`, the one reader of those files
  (:func:`~repro.obs.sink.load_run`, which ``blockack obs`` and
  ``blockack analyze`` share), plus snapshot diffing for the
  ``blockack obs diff`` subcommand.  Prometheus text rendering lives in
  :class:`~repro.obs.metrics.TextExposition`.

Invariant checking is not a telemetry piece of its own: the exact
:class:`~repro.verify.runtime.InvariantMonitor` that
``monitor_invariants=True`` attaches reports every violation of
invariant 6 ∧ 7 ∧ 8 into the run's registry
(``invariant_violations_total{clause}``) and trace (a ``NOTE`` from
actor ``monitor``) when obs is on.

:class:`~repro.obs.session.Observability` bundles all of it per run;
``run_transfer(..., obs=True)`` and ``blockack run e3 --obs`` are the two
entry points most callers want.
"""

from repro.obs.metrics import (
    LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    TextExposition,
)
from repro.obs.session import Observability
from repro.obs.sink import JsonlSink, diff_snapshots, load_run, summarize_run
from repro.obs.spans import ObsRecorder, SeqSpan, SpanTracker

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "TextExposition",
    "LATENCY_BUCKETS",
    "SpanTracker",
    "SeqSpan",
    "ObsRecorder",
    "JsonlSink",
    "load_run",
    "summarize_run",
    "diff_snapshots",
    "Observability",
]
