"""End-to-end benchmark of the block-acknowledgment transfer simulator.

Usage::

    python3 benchmarks/e2e/run.py [--workload NAME ...] [--seed S]
                                  [--trace [0|1]] [--transfers N]

Each selected workload (default: all four) runs in its own fresh child
process, one child at a time.  Untraced, a workload reports the
end-to-end metrics: set-up time is the median over five fresh
interpreters, and each transfer of the list is timed once.  With
``--trace`` it instead runs the first transfers of the list under the
layer tracer and reports the per-layer metrics; spans go to
``benchmarks/e2e/out/spans_<workload>.jsonl``.  The work is the same
on every host; ``--seconds``, a time budget that some callers pass to
every benchmark command, is accepted and ignored.

Every transfer's output is checked.  The report is text, then one JSON
line per workload (``{"workload": ...}``), then one JSON line with
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code
is 0 only when every output was correct.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import pathlib
import statistics
import subprocess
import sys
from typing import Dict, List, Optional, Sequence, Tuple

from workloads import TRANSFERS, WORKLOADS

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]

#: (name, unit) of the end-to-end metrics; BENCHMARK.json gives each its
#: direction and regression bound
END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("msgs_per_s", "msgs/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("goodput_per_tu", "msgs/tu"),
    ("latency_tu_p50", "tu"),
    ("latency_tu_p999", "tu"),
    ("tx_per_msg", "frames/msg"),
    ("acks_per_msg", "frames/msg"),
    ("jain", "index"),
)
#: the simulated-time metrics: deterministic for a seed, and equal on
#: observed-w8 and bulk-w8
VIRTUAL = (
    "goodput_per_tu", "latency_tu_p50", "latency_tu_p999",
    "tx_per_msg", "acks_per_msg", "jain",
)
#: (name, unit) of the per-layer metrics reported by the traced run
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("engine.self_us_per_msg", "us/msg"),
    ("engine.events_per_msg", "events/msg"),
    ("timers.self_us_per_msg", "us/msg"),
    ("timers.arms_per_msg", "arms/msg"),
    ("timers.cancels_per_msg", "cancels/msg"),
    ("timers.fires_per_msg", "fires/msg"),
    ("channel.self_us_per_msg", "us/msg"),
    ("channel.sends_per_msg", "frames/msg"),
    ("channel.lost_per_msg", "frames/msg"),
    ("channel.reordered_per_msg", "frames/msg"),
    ("mux.self_us_per_msg", "us/msg"),
    ("mux.sends_per_msg", "frames/msg"),
    ("arbiter.self_us_per_msg", "us/msg"),
    ("arbiter.grants_per_msg", "frames/msg"),
    ("arbiter.drops_per_msg", "frames/msg"),
    ("arbiter.wait_tu_mean", "tu"),
    ("arbiter.max_depth", "frames"),
    ("protocols.self_us_per_msg", "us/msg"),
    ("protocols.calls_per_msg", "calls/msg"),
    ("protocols.retx_per_msg", "frames/msg"),
    ("protocols.useful_ratio", "ratio"),
    ("workloads.self_us_per_msg", "us/msg"),
    ("harness.self_us_per_msg", "us/msg"),
    ("harness.predicate_calls_per_msg", "calls/msg"),
    ("harness.predicate_us_per_msg", "us/msg"),
    ("obs.self_us_per_msg", "us/msg"),
    ("obs.calls_per_msg", "calls/msg"),
    ("trace.overhead_pct", "%"),
    ("trace.unattributed_events", "count"),
)
#: fresh interpreters whose set-up time is measured (the timed child is one)
SETUP_RUNS = 5
CHILD_TIMEOUT_S = 170


class ChildFailed(RuntimeError):
    """A child process crashed, timed out, or printed no result."""


def run_child(workload: str, mode: str, args: argparse.Namespace) -> dict:
    command = [
        sys.executable, str(HERE / "child.py"),
        "--workload", workload, "--mode", mode,
        "--seed", str(args.seed), "--transfers", str(args.transfers),
    ]
    env = dict(os.environ, PYTHONHASHSEED="0", REPRO_OBS_DIR=str(HERE / "out" / "obs"))
    try:
        done = subprocess.run(
            command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
            timeout=CHILD_TIMEOUT_S, check=False,
        )
    except subprocess.TimeoutExpired as expired:
        raise ChildFailed(f"{workload} {mode}: no result in {CHILD_TIMEOUT_S} s") from expired
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise ChildFailed(f"{workload} {mode}: child exited with {done.returncode}")
    return json.loads(lines[-1])


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def measure(workload: str, args: argparse.Namespace) -> dict:
    """One workload's report: its metrics plus what backs them."""
    if args.trace:
        child = run_child(workload, "trace", args)
        metrics = {name: child["layers"][name] for name, _ in PER_LAYER}
        extra = {key: child[key] for key in (
            "spans", "spans_file", "span_count", "skipped", "cycles", "span_cost_ns",
        )}
    else:
        # set-up samples before and after the timed child, so a slow phase
        # of the host cannot cover all of them
        setup = [run_child(workload, "setup", args)["setup_s"] for _ in range(SETUP_RUNS // 2)]
        child = run_child(workload, "timed", args)
        setup.append(child["setup_s"])
        setup += [
            run_child(workload, "setup", args)["setup_s"]
            for _ in range(SETUP_RUNS - len(setup))
        ]
        q1, rate, q3 = quartiles(child["rates"])
        values = {
            "msgs_per_s": rate,
            "setup_s": statistics.median(setup),
            "peak_rss_mb": child["peak_rss_mb"],
            **child["virtual"],
        }
        metrics = {name: values[name] for name, _ in END_TO_END}
        extra = {
            "msgs_per_s_q1": q1,
            "msgs_per_s_q3": q3,
            "msgs_per_s_n": len(child["rates"]),
            "wall_msgs_per_s": statistics.median(child["wall_rates"]),
            "probe_s": child["probe_s"],
            "setup_runs_s": setup,
            "latency_samples": child["latency_samples"],
            "latency_beyond_p999": child["latency_beyond_p999"],
        }
    return {
        "workload": workload,
        "seed": args.seed,
        "trace": int(bool(args.trace)),
        "correct": child["failed"] == 0,
        "attempted": child["attempted"],
        "failed": child["failed"],
        "errors": child["errors"],
        "metrics": metrics,
        "virtual": child["virtual"],
        "sim_digest": child["sim_digest"],
        **extra,
    }


def check_twins(reports: List[dict]) -> None:
    """A workload with a twin must simulate exactly like it."""
    by_name = {report["workload"]: report for report in reports}
    for report in reports:
        twin = by_name.get(WORKLOADS[report["workload"]].twin or "")
        if twin is None:
            continue
        if report["sim_digest"] != twin["sim_digest"] or report["virtual"] != twin["virtual"]:
            report["correct"] = False
            report["failed"] += 1
            report["errors"].append(f"simulates differently from {twin['workload']}")


def render(report: dict, units: Dict[str, str]) -> str:
    lines = [
        f"== {report['workload']}  seed {report['seed']}  "
        f"{'traced' if report['trace'] else 'untraced'}  "
        f"failed {report['failed']}/{report['attempted']}"
    ]
    for name, value in report["metrics"].items():
        note = ""
        if name == "msgs_per_s":
            note = (f"(q1 {report['msgs_per_s_q1']:.1f}, q3 {report['msgs_per_s_q3']:.1f}, "
                    f"n {report['msgs_per_s_n']}; wall-clock {report['wall_msgs_per_s']:.1f})")
        elif name == "setup_s":
            note = "(median of " + ", ".join(f"{s:.4f}" for s in report["setup_runs_s"]) + ")"
        elif name == "latency_tu_p999":
            note = (f"(median of blocks of transfers; {report['latency_samples']} samples, "
                    f"at least {report['latency_beyond_p999']} beyond p99.9 in each block)")
        lines.append(f"  {name:<34} {value:>14.6g} {units[name]:<11} {note}".rstrip())
    if report["trace"]:
        cost = report["span_cost_ns"]
        lines.append(
            f"  {report['cycles']} traced passes; wrapper cost per span {cost['in_run']:.0f} ns "
            f"(isolated calibration {cost['isolated']:.0f} ns); "
            f"{report['span_count']} spans in {report['spans_file']}"
        )
        top = sorted(report["spans"].items(), key=lambda item: -item[1]["self_us_per_msg"])
        for name, span in top[:12]:
            lines.append(
                f"    {name:<40} {span['layer']:<10} {span['calls_per_msg']:8.3f} calls/msg "
                f"{span['self_us_per_msg']:8.3f} us/msg"
            )
        if report["skipped"]:
            lines.append("  entry points not found: " + ", ".join(report["skipped"]))
    lines.append(f"  sim_digest {report['sim_digest']}")
    lines.extend(f"  FAILED: {error}" for error in report["errors"])
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS),
                        help="run only this workload (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="accepted for callers that pass a time budget; the work is fixed")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="report per-layer metrics from a traced run instead")
    parser.add_argument("--transfers", type=int, default=TRANSFERS,
                        help=f"transfers per workload (default {TRANSFERS}; for self-tests)")
    args = parser.parse_args(argv)
    if args.transfers < 1:
        parser.error("--transfers must be at least 1")

    program = ROOT / "src" / "repro"
    if not (program / "__init__.py").is_file():
        print(f"error: no program to benchmark at {program}", file=sys.stderr)
        return 2
    # byte-compile once, so no child pays for compiling in its set-up time
    compileall.compile_dir(str(program), quiet=1)

    units = dict(PER_LAYER if args.trace else END_TO_END)
    reports = []
    try:
        for workload in args.workload or list(WORKLOADS):
            reports.append(measure(workload, args))
    except ChildFailed as failure:
        print(f"error: {failure}", file=sys.stderr)
        return 1
    check_twins(reports)
    for report in reports:
        print(render(report, units))
    for report in reports:
        print(json.dumps(report, allow_nan=False))

    def metric_name(report: dict, name: str) -> str:
        return name if len(reports) == 1 else f"{report['workload']}.{name}"

    print(json.dumps({
        "correct": all(report["correct"] for report in reports),
        "attempted": sum(report["attempted"] for report in reports),
        "failed": sum(report["failed"] for report in reports),
        "metrics": {
            metric_name(report, name): {"value": value, "unit": units[name]}
            for report in reports
            for name, value in report["metrics"].items()
        },
    }, allow_nan=False))
    return 0 if all(report["correct"] for report in reports) else 1


if __name__ == "__main__":
    sys.exit(main())
