"""Root-cause analysis over causal dumps: ``blockack analyze``.

Input is any ``repro.obs/v2`` JSONL file, loaded with
:func:`~repro.obs.sink.load_run` — a flight dump written by the
:class:`~repro.obs.causal.CausalRecorder` when an anomaly trigger fired
(``results/obs/flight/<run_id>.jsonl``), or a regular telemetry export
(which carries spans and attribution records but no causal nodes).  The
analysis reconstructs, per sequence number, the chain the causal graph
recorded — losses, timeouts, backoff ladder, retransmissions — finds
the stalls in the delivery timeline, and names the root cause of each::

    seq 41: 3 losses -> Karn backoff x8 -> window stall 2.10tu

``--perfetto`` additionally writes the run as Chrome/Perfetto
trace-event JSON (one complete event per delivered seq with its latency
attribution in the args, instants for triggers/faults/losses), viewable
at https://ui.perfetto.dev.  One virtual time unit maps to 1ms of trace
time (ts is microseconds), so durations read directly in tu.
"""

from __future__ import annotations

import json
import pathlib
from typing import Any, Dict, List, Optional, Tuple

from repro.obs.sink import RunDump

__all__ = [
    "seq_chains",
    "find_stalls",
    "root_causes",
    "render_report",
    "perfetto_trace",
    "write_perfetto",
]

#: trace-time scale: one virtual tu rendered as this many microseconds
US_PER_TU = 1000.0

#: a delivery gap this many times the median inter-delivery gap (and at
#: least one RTO-ish unit) counts as a stall in the timeline
STALL_GAP_FACTOR = 4.0


# ----------------------------------------------------------------------
# per-seq chains
# ----------------------------------------------------------------------


def seq_chains(dump: RunDump) -> Dict[Tuple, List[dict]]:
    """Causal nodes grouped by ``(flow, seq)``, in recording order."""
    chains: Dict[Tuple, List[dict]] = {}
    for node in dump.nodes:
        seq = node.get("seq")
        if seq is None:
            continue
        chains.setdefault((node.get("flow"), seq), []).append(node)
    return chains


def _max_attempts(chain: List[dict]) -> int:
    """Deepest backoff-ladder position seen in a chain's RTO verdicts."""
    deepest = 0
    for node in chain:
        if node.get("kind") != "rto.verdict":
            continue
        detail = node.get("detail") or ""
        marker = "attempts="
        at = detail.find(marker)
        if at >= 0:
            try:
                deepest = max(deepest, int(detail[at + len(marker):]))
            except ValueError:
                pass
    return deepest


def _chain_facts(chain: List[dict]) -> dict:
    """Loss/timeout/resend counts and key times for one seq's chain."""
    facts = {
        "losses": 0,
        "timeouts": 0,
        "resends": 0,
        "attempts": _max_attempts(chain),
        "first_sent": None,
        "delivered": None,
        "submitted": None,
    }
    for node in chain:
        kind = node.get("kind")
        if kind in ("channel.lose", "channel.age"):
            facts["losses"] += 1
        elif kind == "timeout":
            facts["timeouts"] += 1
        elif kind == "resend_data":
            facts["resends"] += 1
        elif kind == "send_data" and facts["first_sent"] is None:
            facts["first_sent"] = node["time"]
        elif kind == "submit" and facts["submitted"] is None:
            facts["submitted"] = node["time"]
        elif kind == "deliver":
            facts["delivered"] = node["time"]
    return facts


# ----------------------------------------------------------------------
# stall timeline
# ----------------------------------------------------------------------


def find_stalls(
    dump: RunDump, factor: float = STALL_GAP_FACTOR
) -> List[dict]:
    """Gaps in the delivery timeline, largest first.

    A stall is an inter-delivery gap more than ``factor`` times the
    median gap.  Each stall names the seq whose delivery *ended* it —
    the message the window was waiting on.
    """
    delivers = sorted(
        (
            (node["time"], node.get("flow"), node["seq"])
            for node in dump.nodes
            if node.get("kind") == "deliver" and node.get("seq") is not None
        ),
    )
    if len(delivers) < 3:
        return []
    gaps = [
        delivers[i][0] - delivers[i - 1][0] for i in range(1, len(delivers))
    ]
    ordered = sorted(gaps)
    median = ordered[len(ordered) // 2]
    threshold = max(factor * median, 1e-9)
    stalls = []
    for i, gap in enumerate(gaps, start=1):
        if gap > threshold:
            time, flow, seq = delivers[i]
            stalls.append({
                "start": delivers[i - 1][0],
                "end": time,
                "duration": gap,
                "flow": flow,
                "seq": seq,
            })
    stalls.sort(key=lambda stall: -stall["duration"])
    return stalls


# ----------------------------------------------------------------------
# root causes
# ----------------------------------------------------------------------


def _cause_line(flow, seq, facts: dict, stall: Optional[float]) -> str:
    where = f"seq {seq}" if flow is None else f"flow {flow} seq {seq}"
    causes = []
    if facts["losses"]:
        plural = "es" if facts["losses"] != 1 else ""
        causes.append(f"{facts['losses']} loss{plural}")
    if facts["attempts"] > 1:
        causes.append(f"Karn backoff x{2 ** (facts['attempts'] - 1)}")
    elif facts["timeouts"]:
        causes.append(f"{facts['timeouts']} timeout(s)")
    if facts["resends"]:
        causes.append(f"{facts['resends']} retransmission(s)")
    if stall is not None:
        causes.append(f"window stall {stall:.2f}tu")
    if not causes:
        causes.append("clean delivery")
    return f"{where}: " + " -> ".join(causes)


def root_causes(dump: RunDump, limit: int = 10) -> List[str]:
    """One line per troubled seq, worst (longest stall) first."""
    chains = seq_chains(dump)
    stalls = {
        (stall["flow"], stall["seq"]): stall["duration"]
        for stall in find_stalls(dump)
    }
    troubled = []
    for key, chain in chains.items():
        facts = _chain_facts(chain)
        if not (facts["losses"] or facts["resends"] or facts["timeouts"]):
            continue
        stall = stalls.get(key)
        rank = stall if stall is not None else 0.0
        troubled.append((rank, key, facts, stall))
    troubled.sort(key=lambda item: (-item[0], item[1][0] or 0, item[1][1]))
    return [
        _cause_line(key[0], key[1], facts, stall)
        for _, key, facts, stall in troubled[:limit]
    ]


# ----------------------------------------------------------------------
# the report
# ----------------------------------------------------------------------


def render_report(dump: RunDump, limit: int = 10) -> str:
    lines = [f"analyze {dump.run_id}  ({dump.path})"]
    labels = dump.labels
    if labels:
        rendered = ", ".join(f"{k}={v}" for k, v in sorted(labels.items()))
        lines.append(f"  labels: {rendered}")
    lines.append(
        f"  records: {len(dump.nodes)} causal nodes, "
        f"{len(dump.attributions)} attributions, "
        f"{len(dump.triggers)} trigger(s), "
        f"{len(dump.states)} state snapshot(s)"
    )

    for trigger in dump.triggers:
        detail = trigger.get("detail")
        suffix = f" ({detail})" if detail else ""
        lines.append(
            f"  trigger @ {trigger['time']:.2f}tu: "
            f"{trigger['reason']}{suffix}"
        )

    stalls = find_stalls(dump)
    if stalls:
        lines.append("  stall timeline (largest first):")
        for stall in stalls[:limit]:
            who = (
                f"seq {stall['seq']}"
                if stall["flow"] is None
                else f"flow {stall['flow']} seq {stall['seq']}"
            )
            lines.append(
                f"    {stall['start']:.2f} -> {stall['end']:.2f}tu "
                f"({stall['duration']:.2f}tu) waiting on {who}"
            )

    causes = root_causes(dump, limit=limit)
    if causes:
        lines.append("  root causes:")
        lines.extend(f"    {line}" for line in causes)

    if dump.attributions:
        totals = {
            "queue_wait": 0.0, "timer_wait": 0.0,
            "retx_wait": 0.0, "propagation": 0.0,
        }
        grand = 0.0
        for record in dump.attributions:
            grand += record["total"]
            for component in totals:
                totals[component] += record[component]
        lines.append(
            f"  latency attribution over {len(dump.attributions)} "
            f"delivered seq(s), total {grand:.2f}tu:"
        )
        for component, value in totals.items():
            share = 100.0 * value / grand if grand > 0 else 0.0
            lines.append(f"    {component:12s} {value:10.2f}tu  {share:5.1f}%")

    if len(lines) == 1:
        lines.append("  nothing to analyze (no recognized records)")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Perfetto / Chrome trace-event export
# ----------------------------------------------------------------------


def perfetto_trace(dump: RunDump) -> dict:
    """The run as Chrome trace-event JSON (https://ui.perfetto.dev)."""
    events: List[dict] = [
        {
            "ph": "M", "pid": 1, "tid": 0, "name": "process_name",
            "args": {"name": f"blockack {dump.run_id}"},
        },
    ]
    attribution_by_key = {
        (record.get("flow"), record["seq"]): record
        for record in dump.attributions
    }

    # one complete event per delivered seq: submit -> deliver, with the
    # latency attribution riding the args
    chains = seq_chains(dump)
    flows_seen = set()
    emitted = set()
    for (flow, seq), chain in sorted(
        chains.items(), key=lambda item: (item[0][0] is not None, item[0])
    ):
        facts = _chain_facts(chain)
        start = facts["submitted"]
        if start is None:
            start = facts["first_sent"]
        end = facts["delivered"]
        if start is None or end is None:
            continue
        tid = (flow or 0) + 1
        flows_seen.add((flow, tid))
        args: Dict[str, Any] = {
            "losses": facts["losses"],
            "resends": facts["resends"],
            "timeouts": facts["timeouts"],
        }
        attribution = attribution_by_key.get((flow, seq))
        if attribution is not None:
            for component in (
                "total", "queue_wait", "timer_wait", "retx_wait",
                "propagation",
            ):
                args[component] = attribution[component]
        events.append({
            "ph": "X", "pid": 1, "tid": tid, "name": f"seq {seq}",
            "cat": "seq", "ts": start * US_PER_TU,
            "dur": max(0.0, (end - start)) * US_PER_TU, "args": args,
        })
        emitted.add((flow, seq))
    # spans from a plain telemetry export fill in when nodes are absent
    for span in dump.spans:
        key = (span.get("flow"), span["seq"])
        if key in emitted:
            continue
        if span.get("submitted") is None or span.get("delivered") is None:
            continue
        tid = (key[0] or 0) + 1
        flows_seen.add((key[0], tid))
        events.append({
            "ph": "X", "pid": 1, "tid": tid, "name": f"seq {span['seq']}",
            "cat": "seq", "ts": span["submitted"] * US_PER_TU,
            "dur": (span["delivered"] - span["submitted"]) * US_PER_TU,
            "args": {
                "resends": span.get("resends", 0),
                "timeouts": span.get("timeouts", 0),
            },
        })

    for flow, tid in sorted(flows_seen, key=lambda item: item[1]):
        events.append({
            "ph": "M", "pid": 1, "tid": tid, "name": "thread_name",
            "args": {"name": "seqs" if flow is None else f"flow {flow}"},
        })

    # instants: anomaly triggers, faults, and channel losses
    for trigger in dump.triggers:
        events.append({
            "ph": "i", "pid": 1, "tid": 0, "s": "g", "cat": "trigger",
            "name": f"trigger:{trigger['reason']}",
            "ts": trigger["time"] * US_PER_TU,
        })
    for node in dump.nodes:
        kind = node.get("kind", "")
        if kind.startswith("fault."):
            events.append({
                "ph": "i", "pid": 1, "tid": 0, "s": "p", "cat": "fault",
                "name": f"{kind} {node.get('actor', '')}".strip(),
                "ts": node["time"] * US_PER_TU,
            })
        elif kind in ("channel.lose", "channel.age"):
            tid = (node.get("flow") or 0) + 1
            events.append({
                "ph": "i", "pid": 1, "tid": tid, "s": "t", "cat": "loss",
                "name": f"{kind} seq {node.get('seq')}",
                "ts": node["time"] * US_PER_TU,
            })
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_perfetto(dump: RunDump, path) -> pathlib.Path:
    """Write the trace-event JSON; returns the path written."""
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as handle:
        json.dump(perfetto_trace(dump), handle, separators=(",", ":"))
        handle.write("\n")
    return path
