"""Structured export: stream a run's telemetry to JSON Lines.

One run produces one ``results/obs/<run_id>.jsonl`` file.  Line shapes
(the stable schema, validated by :mod:`repro.obs.schema`):

* ``{"type": "meta", "schema": "repro.obs/v2", "run_id": ..., "labels": {...}}``
  — exactly one, first line;
* ``{"type": "event", "time": ..., "actor": ..., "kind": ..., ...}``
  — zero or more trace events (present when the run kept a trace);
* ``{"type": "span", "seq": ..., "state": ..., ...}``
  — one per sequence number: the virtual-time lifecycle;
* ``{"type": "snapshot", "metrics": {...}}``
  — exactly one, last line: the final metrics-registry snapshot.

Schema v2 adds four shapes used by the causal layer
(:mod:`repro.obs.causal`) and its flight dumps under
``results/obs/flight/``; v1 files remain valid:

* ``{"type": "causal", "id": ..., "time": ..., "actor": ..., "kind":
  ..., "parent": ...}`` — one causal-graph node;
* ``{"type": "trigger", "time": ..., "reason": ...}`` — one anomaly
  trigger firing;
* ``{"type": "state", "endpoint": ..., "state": {...}}`` — an
  endpoint-state snapshot taken at trigger time;
* ``{"type": "attribution", "seq": ..., "total": ..., "queue_wait":
  ..., "timer_wait": ..., "retx_wait": ..., "propagation": ...}`` —
  the latency decomposition of one delivered seq (components sum to
  ``total``).

Everything downstream — ``blockack obs summarize``, ``blockack obs
diff``, ``blockack analyze``, the CI schema gate — works from these
files, so two runs (two seeds, two protocol variants, two commits) can
be compared long after the processes that produced them are gone.
"""

from __future__ import annotations

import json
import pathlib
from typing import Any, Dict, Iterable, List

__all__ = [
    "SCHEMA_VERSION",
    "JsonlSink",
    "read_records",
    "load_run",
    "RunDump",
    "diff_snapshots",
    "summarize_run",
]

SCHEMA_VERSION = "repro.obs/v2"


def _json_safe(value: Any) -> Any:
    """Coerce a record value for JSON: basic types pass, the rest reprs."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [_json_safe(item) for item in value]
    if isinstance(value, dict):
        return {str(key): _json_safe(val) for key, val in value.items()}
    return repr(value)


class JsonlSink:
    """Append-only JSONL writer with directory creation and fsync-free
    buffering (one run, one file, closed at export time).

    Each record is serialized and written as *one* string, so a line can
    never be half a JSON document followed by a line from someone else —
    the failure a ``CrashRestart`` fault used to expose when it ended a
    run between the old separate json/newline writes.  :meth:`flush`
    pushes buffered lines to the OS at fault boundaries (the causal
    flight recorder calls it from its fault observer) and :meth:`close`
    flushes before closing, so an exported file is complete even when
    the interpreter dies right after the last fault.
    """

    def __init__(self, path) -> None:
        self.path = pathlib.Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._handle = self.path.open("w", encoding="utf-8")
        self.records_written = 0

    def write(self, record: Dict[str, Any]) -> None:
        if "type" not in record:
            raise ValueError(f"record missing 'type': {record!r}")
        line = (
            json.dumps(_json_safe(record), separators=(",", ":"), sort_keys=True)
            + "\n"
        )
        self._handle.write(line)
        self.records_written += 1

    def write_all(self, records: Iterable[Dict[str, Any]]) -> None:
        for record in records:
            self.write(record)

    def flush(self) -> None:
        """Push buffered lines to the OS (fault-boundary durability)."""
        if not self._handle.closed:
            self._handle.flush()

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.flush()
            self._handle.close()

    def __enter__(self) -> "JsonlSink":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


# ----------------------------------------------------------------------
# reading runs back
# ----------------------------------------------------------------------


class RunDump:
    """One exported run or flight dump, loaded back into structured form.

    Every record type has its list: ``events``, ``spans``, ``nodes``
    (causal-graph nodes), ``triggers``, ``attributions`` and ``states``
    (endpoint snapshots).  ``blockack obs`` and ``blockack analyze``
    both read files through this one class.
    """

    def __init__(self, path: pathlib.Path, records: List[dict]) -> None:
        self.path = path
        self.records = records
        self.meta: dict = {}
        self.snapshot: dict = {}
        self.events: List[dict] = []
        self.spans: List[dict] = []
        self.nodes: List[dict] = []
        self.triggers: List[dict] = []
        self.attributions: List[dict] = []
        self.states: List[dict] = []
        lists = {
            "event": self.events,
            "span": self.spans,
            "causal": self.nodes,
            "trigger": self.triggers,
            "attribution": self.attributions,
            "state": self.states,
        }
        for record in records:
            kind = record.get("type")
            if kind == "meta":
                self.meta = record
            elif kind == "snapshot":
                self.snapshot = record.get("metrics", {})
            elif kind in lists:
                lists[kind].append(record)

    @property
    def run_id(self) -> str:
        return self.meta.get("run_id", self.path.stem)

    @property
    def labels(self) -> dict:
        return self.meta.get("labels") or {}


def read_records(path) -> List[dict]:
    """Parse every line of a ``.jsonl`` file (raises on malformed JSON)."""
    records = []
    with pathlib.Path(path).open("r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                records.append(json.loads(line))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: malformed JSON: {exc}") from None
    return records


def load_run(path) -> RunDump:
    """Load one exported run."""
    path = pathlib.Path(path)
    return RunDump(path, read_records(path))


# ----------------------------------------------------------------------
# snapshot comparison (blockack obs diff)
# ----------------------------------------------------------------------


def _flat_samples(snapshot: dict) -> Dict[str, float]:
    """Flatten counter/gauge samples to ``{'name{a=b}': value}``.

    Histograms contribute their ``_count`` and ``_sum`` series, which is
    what a between-runs delta can meaningfully compare under fixed
    bucket boundaries.
    """
    flat: Dict[str, float] = {}
    for name, metric in snapshot.items():
        for sample in metric.get("samples", []):
            labels = sample.get("labels", {})
            suffix = (
                "{" + ",".join(f"{k}={v}" for k, v in sorted(labels.items())) + "}"
                if labels
                else ""
            )
            if metric.get("type") == "histogram":
                flat[f"{name}_count{suffix}"] = float(sample.get("count", 0))
                flat[f"{name}_sum{suffix}"] = float(sample.get("sum", 0.0))
            else:
                flat[f"{name}{suffix}"] = float(sample.get("value", 0.0))
    return flat


def diff_snapshots(
    left: dict, right: dict, only_changed: bool = True
) -> List[str]:
    """Human-readable series deltas between two metric snapshots.

    Lines read ``name{labels}: left -> right (delta)``; series present
    on one side only are flagged.  Empty list means the snapshots agree
    on every series.
    """
    flat_left = _flat_samples(left)
    flat_right = _flat_samples(right)
    lines: List[str] = []
    for key in sorted(set(flat_left) | set(flat_right)):
        a = flat_left.get(key)
        b = flat_right.get(key)
        if a is None:
            lines.append(f"{key}: (absent) -> {b:g}")
        elif b is None:
            lines.append(f"{key}: {a:g} -> (absent)")
        elif a != b or not only_changed:
            delta = b - a
            lines.append(f"{key}: {a:g} -> {b:g} ({delta:+g})")
    return lines


# ----------------------------------------------------------------------
# run summaries (blockack obs summarize)
# ----------------------------------------------------------------------


def summarize_run(dump: RunDump, limit: int = 12) -> str:
    """Render one exported run as a human-readable report."""
    lines = [f"run {dump.run_id}  ({dump.path})"]
    labels = dump.labels
    if labels:
        rendered = ", ".join(f"{k}={v}" for k, v in sorted(labels.items()))
        lines.append(f"  labels: {rendered}")
    lines.append(
        f"  records: {len(dump.events)} events, {len(dump.spans)} spans, "
        f"{len(dump.snapshot)} metric series"
    )

    if dump.spans:
        states: Dict[str, int] = {}
        resends = 0
        latencies = []
        per_flow: Dict[Any, List[float]] = {}
        for span in dump.spans:
            states[span["state"]] = states.get(span["state"], 0) + 1
            resends += span.get("resends", 0)
            if span.get("delivered") is not None and span.get("submitted") is not None:
                latency = span["delivered"] - span["submitted"]
                latencies.append(latency)
                flow = span.get("flow")
                if flow is not None:
                    per_flow.setdefault(flow, []).append(latency)
        state_text = ", ".join(
            f"{state}={count}" for state, count in sorted(states.items())
        )
        lines.append(f"  span states: {state_text}")
        lines.append(f"  total retransmissions: {resends}")
        if latencies:
            latencies.sort()
            mid = latencies[len(latencies) // 2]
            lines.append(
                f"  latency (virtual tu): min={latencies[0]:.3f} "
                f"p50={mid:.3f} max={latencies[-1]:.3f}"
            )
        if per_flow:
            from repro.analysis.stats import percentile

            lines.append("  per-flow latency (virtual tu):")
            for flow in sorted(per_flow):
                samples = per_flow[flow]
                lines.append(
                    f"    flow {flow}: n={len(samples)} "
                    f"p50={percentile(samples, 50):.3f} "
                    f"p95={percentile(samples, 95):.3f} "
                    f"p99={percentile(samples, 99):.3f}"
                )

    if dump.snapshot:
        lines.append("  key metrics:")
        shown = 0
        for name in sorted(dump.snapshot):
            metric = dump.snapshot[name]
            if metric.get("type") == "histogram":
                sample = metric["samples"][0] if metric.get("samples") else None
                if sample is None:
                    continue
                count = sample.get("count", 0)
                mean = sample["sum"] / count if count else 0.0
                lines.append(f"    {name}: count={count} mean={mean:.3f}")
            else:
                total = sum(
                    sample.get("value", 0.0) for sample in metric.get("samples", [])
                )
                lines.append(f"    {name}: {total:g}")
            shown += 1
            if shown >= limit:
                remaining = len(dump.snapshot) - shown
                if remaining > 0:
                    lines.append(f"    ... ({remaining} more series)")
                break
    return "\n".join(lines)
