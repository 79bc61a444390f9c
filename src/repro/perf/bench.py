"""Perf-regression harness: measure, persist, and compare baselines.

Three cooperating pieces:

* :func:`run_microbenchmarks` — repeated-timing measurements of the hot
  paths (engine events/sec on a chained and a heap-heavy workload, the
  channel transit path, a full end-to-end block-ack transfer, and a
  saturated 16-flow session behind the link arbiter);
* :func:`update_bench_json` — merge measurements into a machine-readable
  ``BENCH_<mode>.json`` file (the perf trajectory artifact: the CLI
  writes the ``micro`` section, the benchmark suite's conftest writes the
  per-experiment ``experiments`` wall-clock section);
* :func:`compare_bench` / ``python -m repro.perf.bench`` — compare a
  fresh ``BENCH_*.json`` against a committed baseline and report
  regressions beyond a threshold.  CI runs this in warn-only mode.

``BENCH_<mode>.json`` schema::

    {
      "mode": "quick",
      "python": "3.11.7",
      "micro": {"engine_chain_events_per_sec": 1.2e6, ...},
      "experiments": {"e1": 0.41, ...}   # wall-clock seconds
    }

Higher is better for ``micro`` entries (rates); lower is better for
``experiments`` entries (seconds).  :func:`compare_bench` knows the
difference.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import platform
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "run_microbenchmarks",
    "run_obs_overhead",
    "run_profile",
    "update_bench_json",
    "compare_bench",
    "main",
]


def _best_rates(
    works: Sequence[Callable[[], int]], repeats: int
) -> List[float]:
    """Best-of-N operations/sec of each work (each returns its op count).

    Every repeat times each work once, in turn, so works compared with
    one another are timed in the same phase of a host whose speed drifts.
    """
    best = [0.0] * len(works)
    for _ in range(max(1, repeats)):
        for index, work in enumerate(works):
            start = time.perf_counter()
            ops = work()
            elapsed = time.perf_counter() - start
            if elapsed > 0:
                best[index] = max(best[index], ops / elapsed)
    return best


def _best_rate(work: Callable[[], int], repeats: int) -> float:
    """Best-of-N operations/sec for ``work`` (returns its op count)."""
    return _best_rates((work,), repeats)[0]


def _engine_chain(n: int) -> int:
    from repro.sim.engine import Simulator

    sim = Simulator()
    count = [0]

    def tick() -> None:
        count[0] += 1
        if count[0] < n:
            sim.schedule(0.001, tick)

    sim.schedule(0.001, tick)
    sim.run()
    return count[0]


def _engine_fanout(n: int) -> int:
    from repro.sim.engine import Simulator

    sim = Simulator()

    def noop() -> None:
        pass

    for index in range(n):
        sim.schedule((index % 97) * 0.01, noop)
    sim.run()
    return n


def _fanout_drain_rate(n: int, repeats: int) -> float:
    """Events/sec for the *drain phase only* of the fan-out workload.

    Scheduling happens outside the timed region, so this isolates the
    pop-fire loop from enqueue cost (which :func:`_engine_fanout`
    measures mixed in).
    """
    from repro.sim.engine import Simulator

    best = 0.0
    for _ in range(max(1, repeats)):
        sim = Simulator()

        def noop() -> None:
            pass

        for index in range(n):
            sim.schedule((index % 97) * 0.01, noop)
        start = time.perf_counter()
        sim.run()
        elapsed = time.perf_counter() - start
        if elapsed > 0:
            best = max(best, n / elapsed)
    return best


def _channel_transit(n: int) -> int:
    import random

    from repro.channel.channel import Channel
    from repro.channel.delay import UniformDelay
    from repro.channel.impairments import BernoulliLoss
    from repro.sim.engine import Simulator

    sim = Simulator()
    channel = Channel(
        sim,
        delay=UniformDelay(0.5, 1.5),
        loss=BernoulliLoss(0.05),
        rng=random.Random(1),
    )
    channel.connect(lambda message: None)
    for index in range(n):
        sim.schedule(index * 0.01, channel.send, index)
    sim.run()
    return n


def _engine_chain_obs(n: int) -> int:
    """The chained-event workload with live engine telemetry attached."""
    from repro.obs.session import Observability
    from repro.sim.engine import Simulator

    sim = Simulator()
    Observability(run_id="bench").attach_sim(sim)
    count = [0]

    def tick() -> None:
        count[0] += 1
        if count[0] < n:
            sim.schedule(0.001, tick)

    sim.schedule(0.001, tick)
    sim.run()
    return count[0]


def _transfer(
    total: int,
    obs: bool = False,
    causal: bool = False,
) -> Tuple[int, float]:
    """One end-to-end block-ack transfer; returns (events, throughput)."""
    from repro.channel.delay import UniformDelay
    from repro.channel.impairments import BernoulliLoss
    from repro.protocols.registry import make_pair
    from repro.sim.runner import LinkSpec, run_transfer
    from repro.workloads.sources import GreedySource

    sender, receiver = make_pair("blockack", window=8, bounded_wire=True)
    link = lambda: LinkSpec(delay=UniformDelay(0.5, 1.5), loss=BernoulliLoss(0.05))
    result = run_transfer(
        sender,
        receiver,
        GreedySource(total),
        forward=link(),
        reverse=link(),
        seed=1,
        max_time=1_000_000.0,
        obs=obs,
        causal=causal,
    )
    assert result.completed and result.in_order
    return result.delivered, result.throughput


def _multiflow_session(total_per_flow: int, flows: int = 8) -> int:
    """One N-flow session over a shared lossy link; returns deliveries."""
    from repro.channel.delay import UniformDelay
    from repro.channel.impairments import BernoulliLoss
    from repro.sim.host import run_flows, uniform_flows
    from repro.sim.runner import LinkSpec

    link = lambda: LinkSpec(delay=UniformDelay(0.5, 1.5), loss=BernoulliLoss(0.05))
    session = run_flows(
        uniform_flows("blockack", flows, 8, total_per_flow),
        forward=link(),
        reverse=link(),
        seed=1,
        max_time=1_000_000.0,
    )
    assert session.completed and session.in_order
    return session.delivered


#: virtual time of the arbitrated-session micro at scale 1, tu
_SESSION_HORIZON = 200.0


def _arbitrated_session(horizon: float) -> int:
    """One saturated 16-flow DRR session; returns deliveries.

    The benchmark's ``shared-16`` shape cut to ``horizon`` tu:
    ``blockack`` windows ``(4, 8, 16, 32) * 4`` with a 12 tu timeout,
    ``UniformDelay(0.5, 1.5)`` links with 2% loss each way, and a rate-8
    DRR arbiter with 64-frame queues under more offered load than the
    horizon admits, so the mux, the arbiter and the multi-flow drain do
    the work.
    """
    from repro.channel.arbiter import ArbiterConfig
    from repro.channel.delay import UniformDelay
    from repro.channel.impairments import BernoulliLoss
    from repro.sim.host import mixed_flows, run_flows
    from repro.sim.runner import LinkSpec

    link = lambda: LinkSpec(delay=UniformDelay(0.5, 1.5), loss=BernoulliLoss(0.02))
    session = run_flows(
        mixed_flows("blockack", (4, 8, 16, 32) * 4, 10_000, timeout_period=12.0),
        forward=link(),
        reverse=link(),
        seed=1,
        max_time=horizon,
        arbiter=ArbiterConfig(rate=8.0, scheduler="drr", queue_limit=64),
    )
    assert all(flow.ordered_prefix for flow in session.flows)
    return session.delivered


def _scaling_cell(window: int, total: int) -> int:
    """One ``blockack`` cell of the window-scaling grid; returns deliveries.

    A greedy transfer at 1% loss each way over ``UniformDelay(0.5, 1.5)``
    links aged at 3 tu, with the derived (safe) timeout: lost messages
    park, so the per-ack cost of the parked-release path shows as the
    window grows.
    """
    from repro.channel.delay import UniformDelay
    from repro.channel.impairments import BernoulliLoss
    from repro.protocols.registry import make_pair
    from repro.sim.runner import LinkSpec, run_transfer
    from repro.workloads.sources import GreedySource

    sender, receiver = make_pair("blockack", window=window)
    link = lambda: LinkSpec(
        delay=UniformDelay(0.5, 1.5), loss=BernoulliLoss(0.01), max_lifetime=3.0
    )
    result = run_transfer(
        sender,
        receiver,
        GreedySource(total),
        forward=link(),
        reverse=link(),
        seed=1,
        max_time=1_000_000.0,
    )
    assert result.completed and result.in_order
    return result.delivered


def run_microbenchmarks(scale: int = 1, repeats: int = 3) -> Dict[str, float]:
    """Measure the hot paths; returns ``{metric: rate}`` (higher=better).

    ``scale`` multiplies every workload size (1 is the quick/CI size).
    ``engine_fanout_drain_*`` isolates the fan-out drain phase
    (scheduling untimed).  ``scaling_blockack_w*`` are the w=64 and
    w=4096 ``blockack`` cells of the window-scaling grid (ROADMAP item
    6); their ratio is the per-message cost that grows with the window.
    ``arbitrated_session_*`` is the shared-link path: mux, arbiter and
    the multi-flow drain on top of the transfer's endpoints.
    """
    n_events = 100_000 * scale
    n_msgs = 20_000 * scale
    n_transfer = 1_000 * scale

    metrics = {
        "engine_chain_events_per_sec": _best_rate(
            lambda: _engine_chain(n_events), repeats
        ),
        "engine_fanout_events_per_sec": _best_rate(
            lambda: _engine_fanout(n_events), repeats
        ),
        "engine_fanout_drain_events_per_sec": _fanout_drain_rate(
            n_events, repeats
        ),
        "channel_transit_msgs_per_sec": _best_rate(
            lambda: _channel_transit(n_msgs), repeats
        ),
    }

    metrics["transfer_msgs_per_sec"] = _best_rate(
        lambda: _transfer(n_transfer)[0], repeats
    )
    # mux + demux + per-flow accounting on the same payload volume as the
    # single-flow transfer benchmark: the gap between the two rates is
    # the flow-multiplexing tax
    metrics["multiflow_session_msgs_per_sec"] = _best_rate(
        lambda: _multiflow_session(max(1, n_transfer // 8), flows=8), repeats
    )
    metrics["arbitrated_session_msgs_per_sec"] = _best_rate(
        lambda: _arbitrated_session(_SESSION_HORIZON * scale), repeats
    )
    metrics["scaling_blockack_w64_msgs_per_sec"] = _best_rate(
        lambda: _scaling_cell(64, 6_000 * scale), repeats
    )
    metrics["scaling_blockack_w4096_msgs_per_sec"] = _best_rate(
        lambda: _scaling_cell(4096, 32_768 * scale), repeats
    )
    return metrics


def run_obs_overhead(scale: int = 1, repeats: int = 3) -> Dict[str, float]:
    """Observability cost: the same workloads with telemetry off vs. on.

    ``*_off_*`` entries exercise the allocation-free null path (no
    session attached — the numbers the <2% regression budget applies
    to); ``*_on_*`` entries run with a live per-run
    :class:`~repro.obs.session.Observability` (engine instruments, span
    tracking, channel counters).  ``*_overhead_pct`` is how much slower
    "on" is than "off" — informational, not budgeted: observed runs are
    expected to pay for their telemetry.

    ``transfer_causal_*`` entries measure the causal flight recorder
    (:mod:`repro.obs.causal`) alone, with no obs session, and
    ``transfer_obs_causal_*`` both layers together: the configuration of
    the ``observed-w8`` benchmark workload, and the one the telemetry
    cost target in ROADMAP item 4 (<=25%) refers to.  The <3% always-on
    budget attaches to what every run pays whether or not the recorder
    is enabled: the instrument seams (the timer-observer None check is
    the only one on a hot path), tracked by
    ``transfer_off_msgs_per_sec`` against the committed baseline.

    Measured cost of a 3000-message transfer (best of 5, each repeat
    timing the four configurations in turn; six alternating rounds,
    Python 3.11 on a 2-core shared VM): obs alone 44-59%, causal alone
    48-59%, both 98-119% (medians 52%, 53%, 108%).  Rounds alternating
    with these, on telemetry that fed each delivery to both trackers
    twice and kept a channel observer per link, gave 37-63%, 32-59% and
    87-118% (medians 59%, 55%, 115%).  Before the per-record hooks were
    cut to a few attribute operations these were 88-120%, 40-52% and
    150-191%.  Full per-event graph recording (~11 nodes per delivered
    message) and span folding still cost a real fraction of a ~15 us/msg
    transfer loop; the rest of the gap to the target is the three
    recorder tees that fold the same records (ROADMAP item 4).
    """
    n_events = 100_000 * scale
    n_transfer = 1_000 * scale

    # each repeat times every configuration of a comparison in turn, so
    # the host's drift between repeats reaches "off" and "on" alike
    chain_off, chain_on = _best_rates(
        (lambda: _engine_chain(n_events), lambda: _engine_chain_obs(n_events)),
        repeats,
    )
    transfer_off, transfer_on, causal_on, both_on = _best_rates(
        (
            lambda: _transfer(n_transfer)[0],
            lambda: _transfer(n_transfer, obs=True)[0],
            lambda: _transfer(n_transfer, causal=True)[0],
            lambda: _transfer(n_transfer, obs=True, causal=True)[0],
        ),
        repeats,
    )

    def overhead(off: float, on: float) -> float:
        return (off / on - 1.0) * 100.0 if on > 0 else 0.0

    return {
        "engine_chain_off_events_per_sec": chain_off,
        "engine_chain_on_events_per_sec": chain_on,
        "engine_chain_overhead_pct": overhead(chain_off, chain_on),
        "transfer_off_msgs_per_sec": transfer_off,
        "transfer_on_msgs_per_sec": transfer_on,
        "transfer_overhead_pct": overhead(transfer_off, transfer_on),
        "transfer_causal_on_msgs_per_sec": causal_on,
        "transfer_causal_overhead_pct": overhead(transfer_off, causal_on),
        "transfer_obs_causal_on_msgs_per_sec": both_on,
        "transfer_obs_causal_overhead_pct": overhead(transfer_off, both_on),
    }


def run_profile(
    outdir: pathlib.Path,
    scale: int = 1,
    top: int = 30,
) -> List[pathlib.Path]:
    """cProfile the transfer micro, its observed twin and one 16-flow session.

    Writes a raw ``transfer.prof`` (loadable with :mod:`pstats` or
    snakeviz) and a ``transfer.txt`` whose header gives the function
    calls per delivered message (a deterministic count of the
    per-message path's length) and the engine schedules per delivered
    message (calls to ``Simulator.schedule``, its instrumented twin and
    ``schedule_reserved``, also deterministic), followed by the ``top``
    hottest functions by cumulative and by internal time.  ``observed.prof``
    and ``observed.txt`` do the same for the transfer micro with obs
    and causal telemetry on (the ``observed-w8`` configuration), and
    ``session.prof`` and ``session.txt`` for the shared-link path (the
    ``shared-16`` shape at a quick horizon).  Returns the written paths.
    """
    outdir = pathlib.Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    # warm imports/caches outside each profile
    _transfer(50)
    written = _profile(
        lambda: _transfer(1_000 * scale)[0],
        outdir, "transfer", "blockack transfer micro", top,
    )
    _transfer(50, obs=True, causal=True)
    written += _profile(
        lambda: _transfer(1_000 * scale, obs=True, causal=True)[0],
        outdir, "observed", "blockack transfer micro, obs and causal on", top,
    )
    _arbitrated_session(10.0)
    written += _profile(
        lambda: _arbitrated_session(_SESSION_HORIZON * scale),
        outdir, "session", "arbitrated 16-flow DRR session", top,
    )
    return written


def _profile(
    work: Callable[[], int],
    outdir: pathlib.Path,
    stem: str,
    title: str,
    top: int,
) -> List[pathlib.Path]:
    """Profile ``work`` (returns deliveries) into ``<stem>.prof``/``.txt``."""
    import cProfile
    import io
    import pstats

    profiler = cProfile.Profile()
    profiler.enable()
    delivered = work()
    profiler.disable()

    prof_path = outdir / f"{stem}.prof"
    profiler.dump_stats(prof_path)

    buffer = io.StringIO()
    stats = pstats.Stats(profiler, stream=buffer)
    buffer.write(
        f"cProfile: {title}, {delivered} messages delivered\n"
        "function calls per delivered message: "
        f"{stats.total_calls / delivered:.1f}\n"
        "engine schedules per delivered message: "
        f"{_schedule_calls(stats) / delivered:.2f}\n\n"
    )
    stats.sort_stats("cumulative")
    buffer.write(f"--- top {top} by cumulative time ---\n")
    stats.print_stats(top)
    stats.sort_stats("tottime")
    buffer.write(f"--- top {top} by internal time ---\n")
    stats.print_stats(top)
    txt_path = outdir / f"{stem}.txt"
    txt_path.write_text(buffer.getvalue())
    return [prof_path, txt_path]


#: the engine's ways of pushing an event, counted in every profile header
_SCHEDULE_CALLS = ("schedule", "_schedule_instrumented", "schedule_reserved")


def _schedule_calls(stats: Any) -> int:
    """Calls into the engine's schedule entry points in a profile's stats."""
    return sum(
        calls
        for (filename, _, name), (_, calls, *_) in stats.stats.items()
        if name in _SCHEDULE_CALLS
        and pathlib.PurePath(filename).parts[-3:] == ("repro", "sim", "engine.py")
    )


def update_bench_json(
    path: pathlib.Path,
    mode: str,
    micro: Optional[Dict[str, float]] = None,
    experiments: Optional[Dict[str, float]] = None,
    obs: Optional[Dict[str, float]] = None,
) -> dict:
    """Merge new measurements into ``path``, creating it if needed.

    Sections not passed are preserved from the existing file, so the CLI
    (micro + obs) and the benchmark suite (experiments) can each own
    their part of one ``BENCH_<mode>.json``.  The ``obs`` section records
    observability overhead (see :func:`run_obs_overhead`); baseline
    comparison ignores it.
    """
    path = pathlib.Path(path)
    data: dict = {}
    if path.exists():
        try:
            data = json.loads(path.read_text())
        except ValueError:
            data = {}
    data["mode"] = mode
    data["python"] = platform.python_version()
    if micro is not None:
        data["micro"] = {k: micro[k] for k in sorted(micro)}
    if experiments is not None:
        merged = dict(data.get("experiments", {}))
        merged.update(experiments)
        data["experiments"] = {k: merged[k] for k in sorted(merged)}
    if obs is not None:
        data["obs"] = {k: obs[k] for k in sorted(obs)}
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    return data


def compare_bench(
    current: dict, baseline: dict, threshold: float = 0.25
) -> List[str]:
    """Regressions in ``current`` vs ``baseline`` beyond ``threshold``.

    ``micro`` entries are rates (a drop is a regression); ``experiments``
    entries are wall-clock seconds (a rise is a regression).  A metric
    present in the baseline but absent from the fresh measurements is
    reported as a ``missing measurement`` line — a micro that silently
    stops running would otherwise pass every comparison forever.  Returns
    human-readable problem lines; empty means within budget.
    """
    regressions: List[str] = []
    for name, old in (baseline.get("micro") or {}).items():
        if old <= 0:
            continue
        new = (current.get("micro") or {}).get(name)
        if new is None:
            regressions.append(
                f"micro.{name}: missing measurement "
                f"(baseline {old:,.0f}/s, no fresh value)"
            )
            continue
        if new < old * (1.0 - threshold):
            regressions.append(
                f"micro.{name}: {new:,.0f}/s vs baseline {old:,.0f}/s "
                f"({new / old - 1.0:+.0%})"
            )
    for name, old in (baseline.get("experiments") or {}).items():
        if old <= 0:
            continue
        new = (current.get("experiments") or {}).get(name)
        if new is None:
            regressions.append(
                f"experiments.{name}: missing measurement "
                f"(baseline {old:.2f}s, no fresh value)"
            )
            continue
        if new > old * (1.0 + threshold):
            regressions.append(
                f"experiments.{name}: {new:.2f}s vs baseline {old:.2f}s "
                f"({new / old - 1.0:+.0%})"
            )
    return regressions


def main(argv: Optional[List[str]] = None) -> int:
    """``python -m repro.perf.bench --compare NEW --baseline OLD``.

    Prints GitHub-annotation warnings for each regression.  Exit code is
    0 unless ``--strict`` is given and regressions exist.
    """
    parser = argparse.ArgumentParser(prog="repro.perf.bench")
    parser.add_argument("--compare", required=True, help="fresh BENCH_*.json")
    parser.add_argument("--baseline", required=True, help="committed baseline")
    parser.add_argument("--threshold", type=float, default=0.25)
    parser.add_argument("--strict", action="store_true", help="fail on regression")
    args = parser.parse_args(argv)

    current = json.loads(pathlib.Path(args.compare).read_text())
    baseline = json.loads(pathlib.Path(args.baseline).read_text())
    regressions = compare_bench(current, baseline, threshold=args.threshold)
    if not regressions:
        print(
            f"perf within {args.threshold:.0%} of baseline "
            f"({args.baseline})"
        )
        return 0
    for line in regressions:
        title = (
            "missing measurement"
            if ": missing measurement" in line
            else "perf regression"
        )
        print(f"::warning title={title}::{line}")
    return 1 if args.strict else 0


if __name__ == "__main__":
    raise SystemExit(main())
