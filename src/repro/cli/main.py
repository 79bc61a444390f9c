"""Command-line interface: ``blockack`` (or ``python -m repro.cli.main``).

Subcommands
-----------

``blockack list``
    Show the available experiments and protocols.

``blockack run e3 [--quick] [--jobs N] [--cache]``
    Run one experiment (or ``all``) and print its table and verdict.
    ``--jobs`` fans the sweep-heavy experiments across worker processes;
    ``--cache`` memoizes completed runs under ``results/cache/``.

``blockack perf [--scale N] [--experiments] [--output BENCH_quick.json]``
    Measure the hot paths (engine events/sec, channel transit, transfer
    throughput) and optionally per-experiment wall-clock, writing a
    machine-readable ``BENCH_<mode>.json`` baseline.

``blockack transfer --protocol blockack --window 8 --messages 500 ...``
    Run a single ad-hoc transfer and print its summary (useful for
    exploring channel conditions interactively).  ``--flows N`` runs N
    concurrent flows of the protocol over one shared link pair and
    prints per-flow results (see :mod:`repro.sim.host`).

``blockack check --window 2 [--timeout-mode simple]``
    Model-check every execution of the abstract protocol and print the
    report: the invariant, deadlocks, the in-transit ranges and progress.

``blockack obs export|summarize|diff``
    Telemetry (:mod:`repro.obs`): ``export`` runs one observed transfer
    under the invariant monitor and writes ``results/obs/<run_id>.jsonl``
    (per-seq lifecycle spans, metric snapshot, any invariant
    violations); ``summarize``
    renders one export; ``diff`` compares the metric snapshots of two
    exports (e.g. two seeds, or the same cell before/after a change).

``blockack analyze results/obs/flight/<run_id>.jsonl [--perfetto OUT]``
    Root-cause analysis (:mod:`repro.obs.analyze`) of a causal flight
    dump (written when an anomaly trigger fires under ``--causal``) or
    any telemetry export: stall timeline, per-seq cause lines ("seq 41:
    3 losses -> Karn backoff x8 -> window stall 2.1tu"), and optional
    Chrome/Perfetto trace-event JSON.
"""

from __future__ import annotations

import argparse
import pathlib
import sys
from typing import List, Optional

from repro.channel.delay import UniformDelay
from repro.channel.impairments import BernoulliLoss, NoLoss
from repro.sim.runner import LinkSpec, run_transfer
from repro.workloads.sources import GreedySource

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blockack",
        description=(
            "Block Acknowledgment: Redesigning the Window Protocol — "
            "reproduction toolkit"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list experiments and protocols")

    run_p = sub.add_parser("run", help="run one experiment (or 'all')")
    run_p.add_argument("experiment", help="experiment id, e.g. e3, or 'all'")
    run_p.add_argument(
        "--quick", action="store_true", help="reduced replications/sizes"
    )
    run_p.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="worker processes for sweep experiments (default: $REPRO_JOBS or 1)",
    )
    run_p.add_argument(
        "--cache", action="store_true",
        help="memoize completed runs in results/cache/ (like REPRO_CACHE=1)",
    )
    run_p.add_argument(
        "--obs", action="store_true",
        help="record telemetry for every grid cell and export it to "
        "results/obs/<run_id>.jsonl (like REPRO_OBS=1)",
    )
    run_p.add_argument(
        "--causal", action="store_true",
        help="keep the causal flight recorder on for every grid cell; "
        "anomalous cells dump results/obs/flight/<run_id>.jsonl "
        "(like REPRO_CAUSAL=1)",
    )
    run_p.add_argument(
        "--flows", type=int, default=None, metavar="N",
        help="pin the multi-flow experiments to exactly N concurrent flows "
        "(like REPRO_FLOWS=N; currently honoured by e15)",
    )
    run_p.add_argument(
        "--sched", default=None, choices=("fifo", "wrr", "drr"),
        help="pin the arbiter experiments to one per-flow scheduler "
        "(like REPRO_SCHED=drr; currently honoured by e17)",
    )

    perf_p = sub.add_parser(
        "perf", help="measure hot paths, write a BENCH_<mode>.json baseline"
    )
    perf_p.add_argument(
        "--scale", type=int, default=1,
        help="workload multiplier (1 = quick/CI size)",
    )
    perf_p.add_argument(
        "--repeats", type=int, default=3, help="best-of-N timing repeats"
    )
    perf_p.add_argument(
        "--experiments", action="store_true",
        help="also time every experiment (quick mode) end to end",
    )
    perf_p.add_argument(
        "--output", default=None, metavar="PATH",
        help="output JSON path (default: BENCH_quick.json, or BENCH_full.json "
        "when --scale > 1)",
    )
    perf_p.add_argument(
        "--no-obs-overhead", action="store_true",
        help="skip the observability off-vs-on overhead measurements",
    )
    perf_p.add_argument(
        "--profile", action="store_true",
        help="cProfile the transfer micro, the same transfer with obs and "
        "causal telemetry on, and an arbitrated 16-flow session, and dump "
        "the hottest functions to results/profile/ (transfer.*, "
        "observed.*, session.*: a .prof and a .txt each)",
    )

    obs_p = sub.add_parser(
        "obs", help="telemetry: export a run, summarize or diff exports"
    )
    obs_sub = obs_p.add_subparsers(dest="obs_command", required=True)

    obs_exp = obs_sub.add_parser(
        "export", help="run one observed transfer and export its telemetry"
    )
    obs_exp.add_argument("--protocol", default="blockack")
    obs_exp.add_argument("--window", type=int, default=8)
    obs_exp.add_argument("--messages", type=int, default=400)
    obs_exp.add_argument("--loss", type=float, default=0.05)
    obs_exp.add_argument(
        "--jitter", type=float, default=0.0,
        help="delay spread around mean 1 (reordering intensity)",
    )
    obs_exp.add_argument("--seed", type=int, default=11)
    obs_exp.add_argument(
        "--output", default=None, metavar="PATH",
        help="output .jsonl path (default: results/obs/<run_id>.jsonl)",
    )

    obs_sum = obs_sub.add_parser(
        "summarize", help="summarize one exported telemetry file"
    )
    obs_sum.add_argument("path", help="exported .jsonl file")
    obs_sum.add_argument(
        "--text", action="store_true",
        help="also dump the metrics snapshot in Prometheus text format",
    )

    obs_diff = obs_sub.add_parser(
        "diff", help="compare the metric snapshots of two exported runs"
    )
    obs_diff.add_argument("left", help="exported .jsonl file (baseline)")
    obs_diff.add_argument("right", help="exported .jsonl file (candidate)")

    tr = sub.add_parser("transfer", help="run one ad-hoc transfer")
    tr.add_argument("--protocol", default="blockack")
    tr.add_argument("--window", type=int, default=8)
    tr.add_argument("--messages", type=int, default=500)
    tr.add_argument("--loss", type=float, default=0.0, help="loss probability")
    tr.add_argument(
        "--jitter", type=float, default=0.0,
        help="delay spread around mean 1 (reordering intensity)",
    )
    tr.add_argument("--seed", type=int, default=0)
    tr.add_argument(
        "--trace", type=int, default=0, metavar="N",
        help="print the first N trace events",
    )
    tr.add_argument(
        "--flows", type=int, default=1, metavar="N",
        help="run N concurrent flows of the protocol over one shared "
        "link pair and print per-flow results (default: 1)",
    )
    tr.add_argument(
        "--flow-windows", default=None, metavar="W1,W2,...",
        help="heterogeneous session: one flow per listed window size "
        "(e.g. 4,8,16; overrides --flows/--window)",
    )
    tr.add_argument(
        "--flow-weights", default=None, metavar="X1,X2,...",
        help="per-flow arbiter scheduling weights (wrr/drr), matching "
        "--flow-windows or --flows",
    )
    tr.add_argument(
        "--link-rate", type=float, default=None, metavar="R",
        help="shared-link capacity in frames per unit time; enables the "
        "send-side link arbiter (default: unlimited)",
    )
    tr.add_argument(
        "--sched", default="fifo", choices=("fifo", "wrr", "drr"),
        help="arbiter scheduler when --link-rate is set (default: fifo)",
    )
    tr.add_argument(
        "--corrupt", action="append", default=[], metavar="SITE:SEV@T",
        help="inject adversarial state corruption at virtual time T, "
        "e.g. sender.window:worst@40 (repeatable; prints the "
        "stabilization verdict)",
    )
    tr.add_argument(
        "--causal", action="store_true",
        help="record the causal event graph and flight-recorder ring; "
        "an anomalous run dumps results/obs/flight/transfer.jsonl",
    )

    an = sub.add_parser(
        "analyze",
        help="root-cause analysis of a causal flight dump or telemetry "
        "export",
    )
    an.add_argument("path", help="a repro.obs/v2 .jsonl file")
    an.add_argument(
        "--perfetto", default=None, metavar="OUT",
        help="also write Chrome/Perfetto trace-event JSON to OUT",
    )
    an.add_argument(
        "--limit", type=int, default=10, metavar="N",
        help="stalls / cause lines to print (default: 10)",
    )

    chk = sub.add_parser("check", help="model-check the abstract protocol")
    chk.add_argument("--window", type=int, default=2)
    chk.add_argument(
        "--timeout-mode", default="simple",
        choices=("simple", "per_message", "impatient"),
    )
    chk.add_argument("--no-loss", action="store_true")

    cmp_p = sub.add_parser(
        "compare", help="sweep loss and race protocols (table + ASCII plot)"
    )
    cmp_p.add_argument(
        "--protocols", default="gobackn,blockack,selective-repeat",
        help="comma-separated protocol names",
    )
    cmp_p.add_argument("--window", type=int, default=8)
    cmp_p.add_argument("--messages", type=int, default=400)
    cmp_p.add_argument(
        "--losses", default="0,0.02,0.05,0.1,0.2",
        help="comma-separated loss probabilities",
    )
    cmp_p.add_argument("--jitter", type=float, default=1.0)
    cmp_p.add_argument("--seed", type=int, default=0)

    lint_p = sub.add_parser(
        "lint",
        help="determinism & contract static analysis (D/P/S rules)",
    )
    from repro.lint.cli import add_lint_arguments

    add_lint_arguments(lint_p)
    return parser


def _cmd_list() -> int:
    from repro.experiments.registry import EXPERIMENTS
    from repro.protocols.registry import protocol_names

    print("experiments:")
    for spec in EXPERIMENTS.values():
        print(f"  {spec.exp_id:4s} {spec.title}")
    print("\nprotocols:")
    for name in protocol_names():
        print(f"  {name}")
    return 0


def _cmd_run(
    experiment: str,
    quick: bool,
    jobs: Optional[int] = None,
    cache: bool = False,
    obs: bool = False,
    flows: Optional[int] = None,
    causal: bool = False,
    sched: Optional[str] = None,
) -> int:
    import os

    from repro.experiments.registry import experiment_ids, run_experiment

    # the sweep experiments read these knobs from the environment, which
    # keeps experiment signatures declarative (see repro.perf.sweep)
    if jobs is not None:
        os.environ["REPRO_JOBS"] = str(jobs)
    if cache:
        os.environ["REPRO_CACHE"] = "1"
    if obs:
        os.environ["REPRO_OBS"] = "1"
    if flows is not None:
        os.environ["REPRO_FLOWS"] = str(flows)
    if causal:
        os.environ["REPRO_CAUSAL"] = "1"
    if sched is not None:
        os.environ["REPRO_SCHED"] = sched
    ids = experiment_ids() if experiment.lower() == "all" else [experiment]
    failures = 0
    for exp_id in ids:
        result = run_experiment(exp_id, quick=quick)
        print(result.render())
        print()
        if not result.reproduced:
            failures += 1
    return 1 if failures else 0


def _parse_corruption(text: str):
    """Parse one ``site:severity@time`` corruption spec."""
    from repro.robustness.corruption import StateCorruption

    try:
        head, at = text.rsplit("@", 1)
        site, severity = head.split(":", 1)
        return StateCorruption(at=float(at), site=site, severity=severity)
    except ValueError as exc:
        raise SystemExit(
            f"bad --corrupt spec {text!r} (want site:severity@time, "
            f"e.g. sender.window:worst@40): {exc}"
        ) from None


def _cmd_transfer(args: argparse.Namespace) -> int:
    from repro.protocols.registry import make_pair

    spread = args.jitter

    def link() -> LinkSpec:
        return LinkSpec(
            delay=UniformDelay(max(0.0, 1 - spread / 2), 1 + spread / 2),
            loss=BernoulliLoss(args.loss) if args.loss > 0 else NoLoss(),
        )

    fault_plan = None
    if args.corrupt:
        from repro.robustness.faults import FaultPlan

        fault_plan = FaultPlan(
            seed=args.seed,
            corruptions=[_parse_corruption(spec) for spec in args.corrupt],
        )

    flow_windows = (
        [int(w) for w in args.flow_windows.split(",")]
        if args.flow_windows
        else None
    )
    flow_weights = (
        [float(w) for w in args.flow_weights.split(",")]
        if args.flow_weights
        else None
    )
    arbiter = None
    if args.link_rate is not None:
        from repro.channel.arbiter import ArbiterConfig

        arbiter = ArbiterConfig(rate=args.link_rate, scheduler=args.sched)

    if args.flows > 1 or flow_windows is not None or arbiter is not None:
        if fault_plan is not None:
            raise SystemExit("--corrupt targets a single endpoint pair; "
                             "combine it with --flows 1")
        from repro.sim.host import mixed_flows, run_flows, uniform_flows

        if flow_windows is not None:
            specs = mixed_flows(
                args.protocol, flow_windows, args.messages,
                weights=flow_weights,
            )
        else:
            specs = uniform_flows(
                args.protocol, args.flows, args.window, args.messages
            )
            if flow_weights is not None:
                if len(flow_weights) != len(specs):
                    raise SystemExit(
                        "--flow-weights must list one weight per flow"
                    )
                for spec, weight in zip(specs, flow_weights):
                    spec.weight = weight
        session = run_flows(
            specs,
            forward=link(),
            reverse=link(),
            seed=args.seed,
            trace=args.trace > 0,
            max_time=1_000_000.0,
            causal=args.causal,
            arbiter=arbiter,
        )
        print(session.summary())
        _print_causal(session)
        # label per-flow lines only when the flows actually differ
        # (uniform sessions keep the historical "flow N:" format)
        labelled = len({flow.label for flow in session.flows}) > 1
        for flow in session.flows:
            retx = flow.sender_stats.get("retransmissions", 0)
            tag = f" [{flow.label}]" if labelled else ""
            line = (
                f"  flow {flow.flow}{tag}: "
                f"{flow.delivered}/{flow.submitted} "
                f"delivered, {retx} retransmission(s), "
                f"{'in-order' if flow.in_order else 'ORDER VIOLATION'}"
            )
            if flow.queue_stats:
                q = flow.queue_stats
                line += (
                    f", queue: depth<={q['max_depth']} "
                    f"drops={q['dropped']} mean_wait={q['mean_wait']:.3f}tu"
                )
            print(line)
        if session.arbiter_stats:
            arb = session.arbiter_stats
            print(
                f"  arbiter: rate={arb['rate']:g}/tu sched={arb['scheduler']} "
                f"grants={arb['grants_total']} drops={arb['drops_total']}"
            )
        if args.trace > 0 and session.trace is not None:
            print()
            print(session.trace.format(limit=args.trace))
        return 0 if session.completed and session.in_order else 1

    sender, receiver = make_pair(args.protocol, window=args.window)
    result = run_transfer(
        sender,
        receiver,
        GreedySource(args.messages),
        forward=link(),
        reverse=link(),
        seed=args.seed,
        trace=args.trace > 0,
        max_time=1_000_000.0,
        fault_plan=fault_plan,
        monitor_invariants=fault_plan is not None,
        causal=args.causal,
    )
    print(result.summary())
    _print_causal(result)
    if result.stabilization is not None:
        stab = result.stabilization
        reconv = stab["reconvergence_time"]
        print(
            f"stabilization: {stab['verdict']} "
            f"({stab['corruptions']} corruption(s), "
            f"{stab['repairs']} repair(s), reconvergence "
            f"{'n/a' if reconv is None else f'{reconv:g}tu'})"
        )
    if args.trace > 0 and result.trace is not None:
        print()
        print(result.trace.format(limit=args.trace))
    if result.stabilization is not None:
        ok = result.completed and result.stabilization["verdict"] != "diverged"
        return 0 if ok else 1
    return 0 if result.completed and result.in_order else 1


def _print_causal(result) -> None:
    """Summarize the causal layer of a transfer/session result, if on."""
    causal = getattr(result, "causal", None)
    if causal is None:
        return
    print(
        f"causal: {causal.events_recorded} event(s) recorded, "
        f"{len(causal.attributions)} attribution(s), "
        f"{len(causal.triggers)} trigger(s)"
    )
    for time, reason, detail in causal.triggers:
        suffix = f" ({detail})" if detail else ""
        print(f"  trigger @ {time:.2f}tu: {reason}{suffix}")
    if result.flight_path is not None:
        print(f"  flight dump: {result.flight_path}")


def _cmd_analyze(args: argparse.Namespace) -> int:
    from repro.obs.analyze import render_report, write_perfetto
    from repro.obs.sink import load_run

    dump = load_run(args.path)
    print(render_report(dump, limit=args.limit))
    if args.perfetto:
        path = write_perfetto(dump, args.perfetto)
        print(f"wrote {path}")
    return 0


def _cmd_perf(args: argparse.Namespace) -> int:
    import time

    from repro.perf.bench import (
        run_microbenchmarks,
        run_obs_overhead,
        run_profile,
        update_bench_json,
    )

    mode = "quick" if args.scale <= 1 else "full"
    output = args.output if args.output else f"BENCH_{mode}.json"

    if args.profile:
        print(
            "profiling transfer micro (telemetry off and on) and "
            f"arbitrated session (scale={args.scale}) ..."
        )
        written = run_profile(pathlib.Path("results/profile"), scale=args.scale)
        for path in written:
            print(f"  wrote {path}")
        print()

    print(f"microbenchmarks (scale={args.scale}, best of {args.repeats}):")
    micro = run_microbenchmarks(scale=args.scale, repeats=args.repeats)
    for name, rate in sorted(micro.items()):
        print(f"  {name:36s} {rate:>14,.0f}")

    obs = None
    if not args.no_obs_overhead:
        obs = run_obs_overhead(scale=args.scale, repeats=args.repeats)
        print("\nobservability overhead (off vs. on):")
        for name, value in sorted(obs.items()):
            if name.endswith("_pct"):
                print(f"  {name:36s} {value:>13.1f}%")
            else:
                print(f"  {name:36s} {value:>14,.0f}")

    experiments = None
    if args.experiments:
        from repro.experiments.registry import experiment_ids, run_experiment

        experiments = {}
        print("\nexperiment wall-clock (quick mode):")
        for exp_id in experiment_ids():
            start = time.perf_counter()  # lint: ignore[D101] — wall-clock measurement
            result = run_experiment(exp_id, quick=True)
            elapsed = time.perf_counter() - start  # lint: ignore[D101] — wall-clock measurement

            experiments[exp_id] = elapsed
            verdict = "ok" if result.reproduced else "NOT REPRODUCED"
            print(f"  {exp_id:4s} {elapsed:8.2f}s  {verdict}")

    update_bench_json(output, mode, micro=micro, experiments=experiments, obs=obs)
    print(f"\nwrote {output}")
    return 0


def _cmd_obs(args: argparse.Namespace) -> int:
    if args.obs_command == "export":
        return _cmd_obs_export(args)
    if args.obs_command == "summarize":
        return _cmd_obs_summarize(args)
    if args.obs_command == "diff":
        return _cmd_obs_diff(args)
    raise AssertionError(f"unhandled obs command {args.obs_command!r}")


def _cmd_obs_export(args: argparse.Namespace) -> int:
    from repro.protocols.registry import make_pair
    from repro.workloads.sources import GreedySource as _Greedy

    sender, receiver = make_pair(args.protocol, window=args.window)
    spread = args.jitter

    def link() -> LinkSpec:
        return LinkSpec(
            delay=UniformDelay(max(0.0, 1 - spread / 2), 1 + spread / 2),
            loss=BernoulliLoss(args.loss) if args.loss > 0 else NoLoss(),
        )

    run_id = (
        f"{args.protocol.replace('-', '_')}_w{args.window}"
        f"_n{args.messages}_s{args.seed}"
    )
    result = run_transfer(
        sender,
        receiver,
        _Greedy(args.messages),
        forward=link(),
        reverse=link(),
        seed=args.seed,
        max_time=1_000_000.0,
        monitor_invariants=True,
        obs=True,
        obs_run_id=run_id,
        obs_labels={
            "protocol": args.protocol,
            "window": str(args.window),
            "total": str(args.messages),
            "loss": str(args.loss),
            "jitter": str(args.jitter),
            "seed": str(args.seed),
        },
    )
    path = result.obs.export(path=args.output)
    print(result.summary())
    print(result.monitor.report())
    print(f"wrote {path}")
    return 0 if result.completed and result.in_order else 1


def _cmd_obs_summarize(args: argparse.Namespace) -> int:
    from repro.obs.metrics import TextExposition
    from repro.obs.sink import load_run, summarize_run

    dump = load_run(args.path)
    print(summarize_run(dump))
    if args.text and dump.snapshot:
        print()
        print(TextExposition().render(dump.snapshot), end="")
    return 0


def _cmd_obs_diff(args: argparse.Namespace) -> int:
    from repro.obs.sink import diff_snapshots, load_run

    left = load_run(args.left)
    right = load_run(args.right)
    print(f"diff: {left.run_id} -> {right.run_id}")
    lines = diff_snapshots(left.snapshot, right.snapshot)
    if not lines:
        print("  snapshots agree on every series")
        return 0
    for line in lines:
        print(f"  {line}")
    print(f"  ({len(lines)} series differ)")
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    from repro.verify.actions import AbstractProtocolModel
    from repro.verify.explorer import Explorer

    model = AbstractProtocolModel(
        window=args.window,
        timeout_mode=args.timeout_mode,
        allow_loss=not args.no_loss,
    )
    explorer = Explorer(model, stop_at_first_violation=False)
    report = explorer.run()
    print(report.summary())
    print(
        f"in transit: data - nr in {report.data_range}, "
        f"ack bounds - na in {report.ack_range}, "
        f"at most {report.max_channel_occupancy} messages"
    )
    if report.invariant_violations:
        state, clauses = report.invariant_violations[0]
        print("\nfirst violation:", "; ".join(clauses))
        print("witness trace:")
        for line in explorer.witness(state):
            print(f"  {line}")
    if report.stall_cycle:
        print("\nloss-free cycle that leaves na in place, witness trace:")
        for line in report.stall_cycle:
            print(f"  {line}")
    return 0 if report.ok else 1


def _cmd_compare(args: argparse.Namespace) -> int:
    from repro.analysis.plot import ascii_plot
    from repro.analysis.report import render_table
    from repro.protocols.registry import make_pair

    protocols = [name.strip() for name in args.protocols.split(",") if name.strip()]
    losses = [float(value) for value in args.losses.split(",")]
    spread = args.jitter
    series = {name: [] for name in protocols}
    rows = []
    failures = 0
    for loss in losses:
        cells = [loss]
        for name in protocols:
            sender, receiver = make_pair(name, window=args.window)
            link = lambda loss=loss: LinkSpec(
                delay=UniformDelay(max(0.0, 1 - spread / 2), 1 + spread / 2),
                loss=BernoulliLoss(loss) if loss > 0 else NoLoss(),
            )
            result = run_transfer(
                sender, receiver, GreedySource(args.messages),
                forward=link(), reverse=link(), seed=args.seed,
                max_time=1_000_000.0,
            )
            if not (result.completed and result.in_order):
                failures += 1
            series[name].append((loss, result.throughput))
            cells.append(result.throughput)
        rows.append(tuple(cells))
    print(render_table(["loss"] + protocols, rows, title="goodput (msgs/tu)"))
    print()
    print(ascii_plot(series, width=56, height=14, x_label="loss probability"))
    return 1 if failures else 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "list":
        return _cmd_list()
    if args.command == "run":
        return _cmd_run(
            args.experiment, args.quick, args.jobs, args.cache, args.obs,
            args.flows, args.causal, args.sched,
        )
    if args.command == "perf":
        return _cmd_perf(args)
    if args.command == "obs":
        return _cmd_obs(args)
    if args.command == "analyze":
        return _cmd_analyze(args)
    if args.command == "transfer":
        return _cmd_transfer(args)
    if args.command == "check":
        return _cmd_check(args)
    if args.command == "compare":
        return _cmd_compare(args)
    if args.command == "lint":
        from repro.lint.cli import run_lint_command

        return run_lint_command(args)
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
