"""Re-derive the host-speed rescaling constants of ``child.py``.

Usage::

    python3 benchmarks/e2e/calibrate.py record MINUTES > study.csv
    python3 benchmarks/e2e/calibrate.py fit study.csv

``record`` runs the first six transfers of seed 1 of every workload,
round-robin, for MINUTES, timing the reference probe before and after
each transfer exactly as a timed run does, and writes one CSV row per
transfer.  Run it on a quiet checkout; nothing else should share the
host's cores beyond what normally does.

``fit`` reads such a file and reports, per workload:

* ``alpha``: the least-squares slope of log(transfer time) on
  log(probe time), i.e. how the program's time grows with the probe's
  as the host moves between faster and slower phases;
* the interquartile spread of log(transfer time) raw, rescaled with the
  full probe ratio, and rescaled with ``PROBE_ELASTICITY``;
* the median error of rescaled transfers timed in slow phases (probe
  10-25%, 25-50% and over 50% slower than in the fast phase).

It then suggests ``REFERENCE_PROBE_S`` (the median probe time of the
fastest third of samples) and ``PROBE_ELASTICITY`` (the exponent, on a
0.05 grid, whose worst slow-phase error over all workloads and bins is
smallest).  ``calibration/probe_study.csv`` holds the samples behind
the constants in ``child.py``.
"""

from __future__ import annotations

import csv
import math
import pathlib
import statistics
import sys
import time
from collections import defaultdict
from typing import Dict, List, Sequence, Tuple

from child import PROBE_ELASTICITY, REFERENCE_PROBE_S, reference_probe, timed_run
from workloads import WORKLOADS, load_program, transfer_seeds

ROOT = pathlib.Path(__file__).resolve().parents[2]
FIELDS = ("t_s", "workload", "seed", "wall_us", "probe_before_us", "probe_after_us")
#: (low, high) probe slowdowns over the fast phase whose error is reported
SLOW_BINS = ((1.1, 1.25), (1.25, 1.5), (1.5, math.inf))


def record(minutes: float) -> None:
    api = load_program(ROOT)
    seeds = transfer_seeds(1, 6)
    out = csv.writer(sys.stdout, lineterminator="\n")
    out.writerow(FIELDS)
    start = time.perf_counter()
    turn = 0
    while time.perf_counter() - start < minutes * 60:
        workload = list(WORKLOADS.values())[turn % len(WORKLOADS)]
        index = turn // len(WORKLOADS) % len(seeds)
        before = reference_probe()
        _, wall = timed_run(workload, api, seeds[index])
        after = reference_probe()
        out.writerow((
            f"{time.perf_counter() - start:.1f}", workload.name, index,
            round(wall * 1e6), round(before * 1e6), round(after * 1e6),
        ))
        turn += 1


def fastest_third(values: Sequence[float]) -> float:
    ordered = sorted(values)
    return statistics.median(ordered[: max(1, len(ordered) // 3)])


def iqr(values: Sequence[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def slow_errors(samples: Sequence[Tuple[float, float]], exponent: float) -> List[float]:
    """Median error, per slow bin, of log-times rescaled with ``exponent``."""
    errors = []
    for low, high in SLOW_BINS:
        residuals = [y - exponent * x for x, y in samples
                     if math.log(low) <= x < math.log(high)]
        errors.append(math.expm1(statistics.median(residuals)) if residuals else math.nan)
    return errors


def fit(path: pathlib.Path) -> None:
    with open(path, encoding="utf-8") as source:
        rows = list(csv.DictReader(source))
    probe = [(float(r["probe_before_us"]) + float(r["probe_after_us"])) / 2 for r in rows]
    reference = fastest_third(probe)
    groups: Dict[Tuple[str, str], List[float]] = defaultdict(list)
    for row in rows:
        groups[(row["workload"], row["seed"])].append(float(row["wall_us"]))
    fast_wall = {key: fastest_third(walls) for key, walls in groups.items()}
    # per workload: (log probe slowdown, log transfer slowdown) per sample
    samples: Dict[str, List[Tuple[float, float]]] = defaultdict(list)
    for row, mean_probe in zip(rows, probe):
        wall = float(row["wall_us"]) / fast_wall[(row["workload"], row["seed"])]
        samples[row["workload"]].append((math.log(mean_probe / reference), math.log(wall)))

    print(f"{len(rows)} transfers over {float(rows[-1]['t_s']) / 60:.1f} min; "
          f"fast-phase probe {reference:.0f} us (REFERENCE_PROBE_S = {REFERENCE_PROBE_S * 1e6:.0f} us)")
    bins = "  ".join(f"x{low:g}-{high:g}" for low, high in SLOW_BINS)
    print(f"{'workload':<12} {'n':>5} {'slow':>5} {'alpha':>6}   spread raw / full / "
          f"e={PROBE_ELASTICITY:g}    slow-phase error at e={PROBE_ELASTICITY:g} ({bins})")
    for name, points in samples.items():
        xs = [x for x, _ in points]
        ys = [y for _, y in points]
        mean_x, mean_y = statistics.fmean(xs), statistics.fmean(ys)
        alpha = sum((x - mean_x) * (y - mean_y) for x, y in points) / sum(
            (x - mean_x) ** 2 for x in xs
        )
        slow = sum(x >= math.log(SLOW_BINS[0][0]) for x in xs)
        spreads = [iqr([y - e * x for x, y in points]) for e in (0.0, 1.0, PROBE_ELASTICITY)]
        errors = slow_errors(points, PROBE_ELASTICITY)
        print(f"{name:<12} {len(points):>5} {slow:>5} {alpha:>6.2f}   "
              + " / ".join(f"{s:.3f}" for s in spreads) + "      "
              + "  ".join(f"{e:+.3f}" for e in errors))

    def worst(exponent: float) -> float:
        return max(
            (abs(error) for points in samples.values()
             for error in slow_errors(points, exponent) if not math.isnan(error)),
            default=0.0,
        )

    grid = [round(0.5 + 0.05 * step, 2) for step in range(11)]
    best = min(grid, key=worst)
    print("worst slow-phase error by exponent: "
          + ", ".join(f"{e:g}: {worst(e):.3f}" for e in grid))
    print(f"suggested REFERENCE_PROBE_S = {reference / 1e6:.5f}, PROBE_ELASTICITY = {best:g}")


def main(argv: Sequence[str]) -> int:
    if len(argv) != 2 or argv[0] not in ("record", "fit"):
        print(__doc__, file=sys.stderr)
        return 2
    if argv[0] == "record":
        record(float(argv[1]))
    else:
        fit(pathlib.Path(argv[1]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
