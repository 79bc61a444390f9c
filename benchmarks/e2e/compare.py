"""Compare benchmark runs of a parent commit and a change.

Usage::

    python3 benchmarks/e2e/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the saved standard output of ``run.py``, one file
per run, for example ``python3 benchmarks/e2e/run.py --seed 3 > parent/3.txt``.
Run both sides with the same settings and seeds, alternating which side
runs first.  Within each workload, a parent run is paired with the
change run of the same seed (the k-th run of a seed on one side with
the k-th on the other, in file-name order); unpaired runs are left out.

For every (metric, workload) pair the report gives each side's median
and quartiles, the fraction of pairs the change won (ties count for
neither side), and the first verdict that holds:

``regressed``   the change's median is worse than the parent's by more
                than the metric's bound in BENCHMARK.json (for per-layer
                metrics, which have no bound: lost 9 in 10 pairs by more
                than the parent's interquartile range);
``unresolved``  the parent's own spread is wider than the bound, and not
                every change run beat every parent run;
``improved``    the change won at least 9 in 10 pairs and its median is
                better by more than the parent's interquartile range;
``unchanged``   otherwise.

Each workload also reports whether the paired runs simulated identically
(equal ``sim_digest``), which a pure speed-up must keep.  The exit code
is 1 when anything regressed.
"""

from __future__ import annotations

import json
import pathlib
import statistics
import sys
from collections import defaultdict
from typing import Dict, List, Optional, Sequence, Tuple

from run import quartiles

ROOT = pathlib.Path(__file__).resolve().parents[2]


RunKey = Tuple[int, int]  # (seed, how many earlier runs had that seed)


def load_runs(directory: pathlib.Path) -> Dict[Tuple[str, int], Dict[RunKey, dict]]:
    """Per-workload reports, keyed by (workload, traced), then by run key."""
    runs: Dict[Tuple[str, int], Dict[RunKey, dict]] = defaultdict(dict)
    for path in sorted(directory.iterdir()):
        if not path.is_file():
            continue
        for line in path.read_text(encoding="utf-8").splitlines():
            if not line.startswith('{"'):
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue
            if "workload" in record and "metrics" in record:
                reports = runs[(record["workload"], record["trace"])]
                repeat = sum(seed == record["seed"] for seed, _ in reports)
                reports[(record["seed"], repeat)] = record
    return runs


def pair_runs(parent: Dict[RunKey, dict], change: Dict[RunKey, dict]) -> List[Tuple[dict, dict]]:
    """(parent, change) reports of equal seed, in seed order."""
    return [(parent[key], change[key]) for key in sorted(set(parent) & set(change))]


def summary(values: Sequence[float]) -> str:
    q1, median, q3 = quartiles(values)
    return f"{median:.6g} [{q1:.6g}, {q3:.6g}]"


def verdict(
    parent: Sequence[float],
    change: Sequence[float],
    higher_is_better: bool,
    bound: Optional[float],
) -> Tuple[str, float]:
    """(verdict, fraction of pairs the change won) for one metric.

    ``parent[i]`` and ``change[i]`` are runs of the same seed.
    """
    sign = 1.0 if higher_is_better else -1.0
    gains = [sign * (c - p) for p, c in zip(parent, change)]
    won = sum(gain > 0 for gain in gains) / len(gains)
    lost = sum(gain < 0 for gain in gains) / len(gains)
    p1, p_median, p3 = quartiles(parent)
    spread = p3 - p1
    gain = sign * (statistics.median(change) - p_median)
    if higher_is_better:
        every_run_better = min(change) > max(parent)
    else:
        every_run_better = max(change) < min(parent)
    if bound is not None:
        if -gain > bound * abs(p_median):
            return "regressed", won
        if spread > bound * abs(p_median) and not every_run_better:
            return "unresolved", won
    elif lost >= 0.9 and -gain > spread:
        return "regressed", won
    if won >= 0.9 and gain > spread:
        return "improved", won
    return "unchanged", won


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    if len(args) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = {
        entry["name"]: (entry["better"] == "higher", entry.get("bound"))
        for entry in spec["end_to_end"] + spec["per_layer"]
    }
    parent_runs = load_runs(pathlib.Path(args[0]))
    change_runs = load_runs(pathlib.Path(args[1]))
    regressed = False
    print(f"{'workload':<12} {'metric':<32} {'parent median [q1, q3]':>36} "
          f"{'change median [q1, q3]':>36} {'won':>5}  verdict")
    for key in sorted(set(parent_runs) & set(change_runs)):
        pairs = pair_runs(parent_runs[key], change_runs[key])
        if not pairs:
            print(f"{key[0]:<12} no runs of equal seed\n")
            continue
        identical = all(p["sim_digest"] == c["sim_digest"] for p, c in pairs)
        for name, (higher, bound) in metrics.items():
            if name not in pairs[0][0]["metrics"]:
                continue
            p_values = [p["metrics"][name] for p, _ in pairs]
            c_values = [c["metrics"][name] for _, c in pairs]
            outcome, won = verdict(p_values, c_values, higher, bound)
            regressed = regressed or outcome == "regressed"
            print(f"{key[0]:<12} {name:<32} {summary(p_values):>36} "
                  f"{summary(c_values):>36} {won:>5.2f}  {outcome}")
        print(f"{key[0]:<12} {len(pairs)} pairs of equal seed; "
              f"simulation {'identical' if identical else 'DIFFERS'}\n")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
