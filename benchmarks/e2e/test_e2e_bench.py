"""Self-test of the end-to-end benchmark: ``pytest benchmarks/e2e``.

Runs the benchmark command itself on two transfers per workload and
checks that it prints exactly the metrics BENCHMARK.json declares, that
the simulation it measures is a pure function of the seed (same seed,
same digest, traced or not), and that it refuses a checkout without the
program.  It also checks the tracer's event attribution and the
verdicts and pairing of ``compare.py``.
"""

from __future__ import annotations

import json
import pathlib
import shutil
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
for path in (HERE, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
#: per-layer metrics that are counts, not times: they must repeat exactly
TIMED_LAYER_METRICS = ("self_us_per_msg", "predicate_us_per_msg", "overhead_pct")


def run(*args: str, cwd: pathlib.Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "benchmarks" / "e2e" / "run.py"), "--transfers", "2", *args],
        cwd=cwd, capture_output=True, text=True, timeout=120, check=False,
    )


def reports(*args: str):
    """(per-workload reports, final result line) of one successful run."""
    done = run(*args)
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.strip().splitlines()
    detail = [json.loads(line) for line in lines[:-1] if line.startswith('{"')]
    return {report["workload"]: report for report in detail}, json.loads(lines[-1])


@pytest.fixture(scope="module")
def untraced():
    return reports("--workload", "bulk-w8", "--workload", "shared-16",
                   "--workload", "observed-w8")


@pytest.fixture(scope="module")
def traced():
    return reports("--trace", "--workload", "bulk-w8", "--workload", "shared-16")


@pytest.fixture(scope="module")
def single():
    """A second untraced run of one workload: unprefixed metric names."""
    return reports("--workload", "bulk-w8")


def test_workloads_match_benchmark_json():
    from workloads import WORKLOADS

    assert [entry["name"] for entry in SPEC["workloads"]] == list(WORKLOADS)


def test_printed_metrics_match_benchmark_json(untraced, traced, single):
    end_to_end = {entry["name"]: entry["unit"] for entry in SPEC["end_to_end"]}
    per_layer = {entry["name"]: entry["unit"] for entry in SPEC["per_layer"]}
    for report in untraced[0].values():
        assert list(report["metrics"]) == list(end_to_end)
    for report in traced[0].values():
        assert list(report["metrics"]) == list(per_layer)
    _, final = single
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert final["correct"] and final["failed"] == 0 and final["attempted"] >= 1
    assert {name: metric["unit"] for name, metric in final["metrics"].items()} == end_to_end


def test_outputs_are_correct_and_telemetry_changes_nothing(untraced, traced):
    by_name, final = untraced
    assert final["correct"] and final["failed"] == 0
    assert traced[1]["correct"]
    assert by_name["observed-w8"]["sim_digest"] == by_name["bulk-w8"]["sim_digest"]
    assert by_name["observed-w8"]["virtual"] == by_name["bulk-w8"]["virtual"]
    for report in traced[0].values():
        assert report["metrics"]["trace.unattributed_events"] == 0
        assert not report["skipped"]


def test_same_seed_simulates_identically(untraced, traced, single):
    # each traced run also fails by itself when its passes count differently
    traced_again, _ = reports("--trace", "--workload", "shared-16")
    runs = {
        "bulk-w8": (single[0], traced[0]),
        "shared-16": (traced[0], traced_again),
    }
    for name, others in runs.items():
        first = untraced[0][name]
        for other in others:
            assert other[name]["sim_digest"] == first["sim_digest"]
            assert other[name]["virtual"] == first["virtual"]
    counts = {
        metric: value for metric, value in traced[0]["shared-16"]["metrics"].items()
        if not metric.endswith(TIMED_LAYER_METRICS)
    }
    assert counts == {
        metric: traced_again["shared-16"]["metrics"][metric] for metric in counts
    }


def test_another_seed_changes_the_simulation(untraced):
    other, _ = reports("--seed", "2", "--workload", "bulk-w8")
    assert other["bulk-w8"]["sim_digest"] != untraced[0]["bulk-w8"]["sim_digest"]


def test_tracer_counts_an_unwrapped_callback_as_unattributed():
    from repro.channel.channel import Channel
    from repro.sim.engine import Simulator
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        sim = Simulator()
        channel = Channel(sim)
        received = []
        channel.connect(received.append)

        def relay():  # dispatched by the engine, but no entry point
            channel.send("payload")
            channel.send("payload")

        sim.schedule(1.0, relay)
        sim.run_while(lambda: len(received) < 2)
    finally:
        tracer.uninstall()
    profile = tracer.fold()
    assert received == ["payload", "payload"]
    # relay's event is unattributed; the two wrapped deliveries are not
    assert profile["events"] == 3
    assert profile["events"] - profile["attributed"] == 1


def test_verdict_applies_bounds_before_spread():
    from compare import verdict

    noisy = [100.0, 80.0, 120.0, 90.0, 110.0]  # interquartile spread 25%
    far_worse = [value * 0.5 for value in noisy]
    assert verdict(noisy, far_worse, True, 0.1)[0] == "regressed"
    assert verdict(noisy, far_worse[::-1], True, 0.1)[0] == "regressed"
    assert verdict(noisy, noisy[::-1], True, 0.1)[0] == "unresolved"
    assert verdict(noisy, [value * 2 for value in noisy], True, 0.1) == ("improved", 1.0)
    steady = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert verdict(steady, [value * 1.05 for value in steady], False, 0.1)[0] == "unchanged"
    assert verdict(steady, [value * 0.9 for value in steady], True, None) == ("regressed", 0.0)


def test_compare_pairs_runs_by_seed(tmp_path):
    from compare import load_runs, pair_runs

    def save(side: str, name: str, seed: int, value: float) -> None:
        report = {"workload": "bulk-w8", "trace": 0, "seed": seed,
                  "metrics": {"msgs_per_s": value}, "sim_digest": str(seed)}
        (tmp_path / side).mkdir(exist_ok=True)
        (tmp_path / side / name).write_text(json.dumps(report) + "\n", encoding="utf-8")

    for name, seed in (("a", 3), ("b", 1), ("c", 2), ("d", 1)):
        save("parent", name, seed, float(seed))
    for name, seed in (("a", 1), ("b", 2), ("c", 7), ("d", 1)):
        save("change", name, seed, float(seed))
    key = ("bulk-w8", 0)
    pairs = pair_runs(load_runs(tmp_path / "parent")[key], load_runs(tmp_path / "change")[key])
    assert [(p["seed"], c["seed"]) for p, c in pairs] == [(1, 1), (1, 1), (2, 2)]


def test_refuses_a_checkout_without_the_program():
    bare = HERE / "out" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "benchmarks" / "e2e", ignore=shutil.ignore_patterns("out"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        done = run(cwd=bare)
    finally:
        shutil.rmtree(bare)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
