"""One workload in one fresh, single-threaded process.

``run.py`` starts this script once per measurement; it prints one JSON
object as the last line of its standard output.  Modes:

``setup``  import the program, make the inputs, run the warm-up
           transfer, and report how long that took;
``timed``  the same set-up, then one untraced pass over the transfer
           list, each transfer timed once;
``trace``  ``TRACE_PASSES`` passes over the first transfers of the
           list, each transfer once untraced and once under the layer
           tracer.

The work is fixed: it depends on the arguments, never on the host.
"""

from __future__ import annotations

import argparse
import gc
import heapq
import json
import pathlib
import resource
import statistics
import sys
import time
from typing import Any, Dict, List, Tuple

from tracer import LAYERS, PREDICATE_NAME, Tracer
from workloads import (
    TRACED_TRANSFERS,
    WARMUP_DIVISOR,
    WORKLOADS,
    Tally,
    Workload,
    load_program,
    summarize,
    transfer_seeds,
)

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"
#: transfers of an observed workload re-run with telemetry off, to show
#: on every run that telemetry leaves the simulation unchanged
TWIN_CHECKS = 3
#: the traced run's self times must add up to its measured wall time
COVERAGE_TOLERANCE = 0.05
#: passes of the traced run; self times are medians over them
TRACE_PASSES = 3
#: fast-phase reference-probe time on the 2-core VM the baseline was
#: taken on; host rates are reported as if every transfer ran at that
#: speed.  ``calibrate.py fit calibration/probe_study.csv`` re-derives it
REFERENCE_PROBE_S = 0.00276
#: a slow host phase slows the probe more than the program (the fitted
#: power is 0.67-0.79 per workload), so transfer times are rescaled by
#: this power of the probe ratio; the same command re-derives it as the
#: exponent with the smallest worst-case error on transfers timed in
#: slow phases
PROBE_ELASTICITY = 0.8


def rescale(seconds: float, probe_s: float) -> float:
    """Seconds measured while the probe took ``probe_s``, at the reference speed."""
    return seconds * (REFERENCE_PROBE_S / probe_s) ** PROBE_ELASTICITY


class Failures:
    """Counts attempted and failed transfers; keeps the first few reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []

    def check(self, ok: bool, reason: str) -> None:
        self.attempted += 1
        if not ok:
            self.fail(reason)

    def fail(self, reason: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(reason)


def timed_run(workload: Workload, api, seed: int) -> Tuple[Any, float]:
    """One transfer with fresh endpoints; only the entry-point call is timed."""
    entry, kwargs = workload.prepare(api, seed, 1)
    gc.collect()
    start = time.perf_counter()
    result = entry(**kwargs)
    return result, time.perf_counter() - start


class _ProbeNode:
    __slots__ = ("key", "value", "next")

    def __init__(self, key: int, value: tuple, next_node: Any) -> None:
        self.key = key
        self.value = value
        self.next = next_node


def reference_probe(rounds: int = 3000) -> float:
    """Seconds a fixed slice of event-list-like Python work takes right now.

    The work (small objects, dict churn, a bounded heap) belongs to the
    benchmark, not the program, so no program change can speed it up;
    it runs with the collector off, so the program's garbage cannot slow
    it down.  A shared host runs in faster and slower phases that last
    seconds; the probe, taken on either side of each transfer, tracks
    the phase that transfer ran in.
    """
    collecting = gc.isenabled()
    gc.disable()
    start = time.perf_counter()
    heap: List[tuple] = []
    table: Dict[int, _ProbeNode] = {}
    node = None
    for index in range(rounds):
        node = _ProbeNode(index, (index, index * 2), node if index % 8 else None)
        table[index] = node
        heapq.heappush(heap, ((index * 7919) % 1009, index, node))
        if len(heap) > 256:
            table.pop(heapq.heappop(heap)[1], None)
    elapsed = time.perf_counter() - start
    if collecting:
        gc.enable()
    return elapsed


def set_up(workload: Workload, seed: int, transfers: int):
    """Import the program, make the inputs, warm up.

    Returns (api, seeds, seconds), the seconds rescaled like a transfer's.
    """
    before = reference_probe()
    start = time.perf_counter()
    api = load_program(ROOT)
    seeds = transfer_seeds(seed, transfers)
    entry, kwargs = workload.prepare(api, seeds[0], WARMUP_DIVISOR)
    warmup = summarize(seeds[0], entry(**kwargs))
    if not warmup.ok:
        raise RuntimeError(f"warm-up transfer failed: {warmup.problem}")
    elapsed = time.perf_counter() - start
    return api, seeds, rescale(elapsed, (before + reference_probe()) / 2)


def run_timed(workload: Workload, seed: int, transfers: int) -> dict:
    api, seeds, setup_s = set_up(workload, seed, transfers)
    tally = Tally()
    failures = Failures()
    rows: List[str] = []
    twin_latencies: List[List[float]] = []
    walls: List[float] = []
    probes: List[float] = []  # mean of the reference probes on either side
    for index, transfer_seed in enumerate(seeds):
        before = reference_probe()
        result, elapsed = timed_run(workload, api, transfer_seed)
        walls.append(elapsed)
        probes.append((before + reference_probe()) / 2)
        outcome = summarize(transfer_seed, result)
        failures.check(outcome.ok, f"transfer {index}: {outcome.problem}")
        rows.append(outcome.digest_row)
        if index < TWIN_CHECKS:
            twin_latencies.append(sorted(outcome.latencies))
        tally.add(outcome)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if workload.twin is not None:
        twin = WORKLOADS[workload.twin]
        for index in range(min(TWIN_CHECKS, len(seeds))):
            entry, kwargs = twin.prepare(api, seeds[index], 1)
            outcome = summarize(seeds[index], entry(**kwargs))
            failures.check(
                outcome.digest_row == rows[index]
                and sorted(outcome.latencies) == twin_latencies[index],
                f"transfer {index} simulates differently under {twin.name}",
            )

    samples, beyond = tally.latency_samples()
    return {
        "mode": "timed",
        "setup_s": setup_s,
        "attempted": failures.attempted,
        "failed": failures.failed,
        "errors": failures.errors,
        # each transfer's wall time rescaled from the phase its probes saw
        # to the reference probe time
        "rates": [
            outcome.delivered / rescale(wall, probe)
            for outcome, wall, probe in zip(tally.outcomes, walls, probes)
        ],
        "wall_rates": [
            outcome.delivered / wall for outcome, wall in zip(tally.outcomes, walls)
        ],
        "probe_s": statistics.median(probes),
        "peak_rss_mb": peak_rss_mb,
        "virtual": tally.virtual_metrics(),
        "sim_digest": tally.sim_digest,
        "latency_samples": samples,
        "latency_beyond_p999": beyond,
    }


def traced_pass(
    workload: Workload, api, seeds: List[int], tracer: Tracer
) -> Tuple[Tally, Tally, float, float]:
    """Each transfer untraced, then traced, so both runs see the same host phase.

    Returns the untraced and traced tallies and wall seconds.
    """
    plain, traced = Tally(), Tally()
    plain_wall = traced_wall = 0.0
    tracer.reset()
    for seed in seeds:
        result, elapsed = timed_run(workload, api, seed)
        plain_wall += elapsed
        plain.add(summarize(seed, result))
        entry, kwargs = workload.prepare(api, seed, 1)
        gc.collect()
        tracer.install()
        try:
            start = time.perf_counter()
            result = tracer.transfer(entry, kwargs)
            traced_wall += time.perf_counter() - start
        finally:
            tracer.uninstall()
        traced.add(summarize(seed, result))
    return plain, traced, plain_wall, traced_wall


def run_trace(workload: Workload, seed: int, transfers: int) -> dict:
    api = load_program(ROOT)
    seeds = transfer_seeds(seed, min(transfers, TRACED_TRANSFERS))
    tracer = Tracer()
    tracer.calibrate()
    failures = Failures()
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans_{workload.name}.jsonl"

    first = None  # (tally, profile) of the first traced pass
    cycles: List[Tuple[Dict[str, Any], float, float]] = []  # profile, plain s, traced s
    for _ in range(TRACE_PASSES):
        plain, tally, plain_wall, traced_wall = traced_pass(workload, api, seeds, tracer)
        profile = tracer.fold()
        for outcome in tally.outcomes:
            failures.check(outcome.ok, f"traced transfer: {outcome.problem}")
        if tally.sim_digest != plain.sim_digest:
            failures.fail("tracing changed the simulation")
        if first is None:
            first = (tally, profile)
            tracer.write_spans(spans_path)
        elif any(profile[name] != first[1][name]
                 for name in ("counts", "events", "attributed", "cancels")):
            failures.fail("per-layer counts differ between traced passes")
        # the raw self times telescope to the root spans; the root spans
        # must in turn cover the wall time measured around the transfers
        coverage = profile["root_ns"] / 1e9 / traced_wall
        if abs(coverage - 1.0) > COVERAGE_TOLERANCE:
            failures.fail(f"spans cover {coverage:.3f} of the traced wall time")
        cycles.append((profile, plain_wall, traced_wall))

    tally, profile = first
    msgs = tally.delivered
    counts = profile["counts"]

    # wrapper cost per span: measured against the untraced runs, split
    # between the span and its parent as the isolated calibration splits it
    isolated = tracer.c_in + tracer.c_out
    per_span = max(0.0, statistics.median(
        (traced - plain) * 1e9 / profile["spans"] for _, plain, traced in cycles
    ))
    inside = per_span * tracer.c_in / isolated
    corrected = [tracer.corrected(p, inside, per_span - inside) for p, _, _ in cycles]

    def median_us(select) -> float:
        return statistics.median(select(values) for values in corrected) / 1e3 / msgs

    def per_msg(name: str) -> float:
        return tracer.name_sum(counts, name) / msgs

    layers = {
        f"{layer}.self_us_per_msg": median_us(lambda v, layer=layer: tracer.layer_sum(v, layer))
        for layer in LAYERS
    }
    layers.update(tally.layer_counts())
    layers.update({
        "harness.predicate_us_per_msg": median_us(
            lambda values: tracer.name_sum(values, PREDICATE_NAME)
        ),
        "trace.overhead_pct": statistics.median(
            (traced / plain - 1.0) * 100.0 for _, plain, traced in cycles
        ),
        "engine.events_per_msg": profile["events"] / msgs,
        "timers.arms_per_msg": per_msg("Timer.start"),
        "timers.cancels_per_msg": profile["cancels"] / msgs,
        "timers.fires_per_msg": per_msg("Timer._fire"),
        "channel.sends_per_msg": per_msg("Channel.send"),
        "mux.sends_per_msg": per_msg("FlowPort.send"),
        "protocols.calls_per_msg": tracer.layer_sum(counts, "protocols") / msgs,
        "harness.predicate_calls_per_msg": per_msg(PREDICATE_NAME),
        "obs.calls_per_msg": tracer.layer_sum(counts, "obs") / msgs,
        "trace.unattributed_events": profile["events"] - profile["attributed"],
    })
    spans = {
        name: {
            "layer": layer,
            "calls_per_msg": counts[key] / msgs,
            "self_us_per_msg": median_us(lambda values, key=key: values[key]),
        }
        for key, (name, layer) in enumerate(tracer.names)
        if counts[key]
    }
    return {
        "mode": "trace",
        "attempted": failures.attempted,
        "failed": failures.failed,
        "errors": failures.errors,
        "layers": layers,
        "virtual": tally.virtual_metrics(),
        "sim_digest": tally.sim_digest,
        "spans": spans,
        "spans_file": str(spans_path.relative_to(ROOT)),
        "span_count": profile["spans"],
        "skipped": tracer.skipped,
        "cycles": len(cycles),
        "span_cost_ns": {"isolated": isolated, "in_run": per_span},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--transfers", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "timed", "trace"))
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    if args.mode == "setup":
        report = {"mode": "setup", "setup_s": set_up(workload, args.seed, args.transfers)[2]}
    elif args.mode == "timed":
        report = run_timed(workload, args.seed, args.transfers)
    else:
        report = run_trace(workload, args.seed, args.transfers)
    print(json.dumps(report, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
