"""Tests for the parallel sweep runner and its on-disk result cache.

The load-bearing property is *byte-identical determinism*: for the same
configs, the serial path, the process-pool path, and the cached path
must produce results that serialize to the exact same JSON payloads, so
experiment tables regenerate identically however they were computed.
"""

import json

import pytest

from repro.channel.delay import UniformDelay
from repro.channel.impairments import BernoulliLoss, FrameCorruption
from repro.perf.cache import ResultCache, config_digest
from repro.perf.sweep import (
    RunConfig,
    SweepRunner,
    default_jobs,
    deserialize_result,
    execute_config,
    run_protocol_grid,
    serialize_result,
)
from repro.robustness.faults import CrashRestart, FaultPlan
from repro.sim.runner import LinkSpec


def lossy_link(p=0.05):
    return LinkSpec(delay=UniformDelay(0.5, 1.5), loss=BernoulliLoss(p))


def make_grid(seeds=(0, 1, 2), protocol="blockack", **kwargs):
    return [
        RunConfig(
            protocol=protocol, window=4, total=60,
            forward=lossy_link(), reverse=lossy_link(), seed=seed,
            max_time=100_000.0, protocol_kwargs=dict(kwargs),
        )
        for seed in seeds
    ]


class TestRunConfigKeys:
    def test_cache_key_is_stable(self):
        a, b = make_grid(seeds=(5, 5))
        assert a.cache_key() == b.cache_key()

    def test_cache_key_distinguishes_seed(self):
        a, b = make_grid(seeds=(5, 6))
        assert a.cache_key() != b.cache_key()

    def test_cache_key_distinguishes_protocol_kwargs(self):
        (a,) = make_grid(seeds=(5,))
        (b,) = make_grid(seeds=(5,), timeout_mode="per_message_safe")
        assert a.cache_key() != b.cache_key()

    def test_cache_key_distinguishes_links(self):
        (a,) = make_grid(seeds=(5,))
        b = RunConfig(
            protocol="blockack", window=4, total=60,
            forward=lossy_link(0.2), reverse=lossy_link(), seed=5,
            max_time=100_000.0,
        )
        assert a.cache_key() != b.cache_key()

    def test_cache_key_covers_fault_plan(self):
        def with_plan(at):
            return RunConfig(
                protocol="blockack", window=4, total=60,
                forward=lossy_link(), reverse=lossy_link(), seed=5,
                max_time=100_000.0,
                fault_plan=FaultPlan(
                    forward_corruption=FrameCorruption(0.01),
                    crashes=(CrashRestart(at=at, outage=5.0,
                                          endpoint="sender"),),
                    seed=5,
                ),
            )

        assert with_plan(30.0).cache_key() != with_plan(40.0).cache_key()
        assert with_plan(30.0).cache_key() == with_plan(30.0).cache_key()

    def test_cache_key_is_the_description_digest(self):
        (config,) = make_grid(seeds=(1,))
        assert config.cache_key() == config_digest(config.description())

    # Literal keys: any change to RunConfig's description format (a new
    # field, a renamed one, a reordered part) silently invalidates every
    # cached result, so the format is pinned for one plain config and
    # one arbitrated multi-flow config.

    def test_single_flow_default_cache_key_is_pinned(self):
        config = RunConfig(
            protocol="blockack", window=8, total=200,
            forward=LinkSpec(loss=BernoulliLoss(0.1), max_lifetime=5.0),
            reverse=LinkSpec(max_lifetime=5.0), seed=3,
        )
        assert config.cache_key() == (
            "d8ba76433357d8a9b1f7bed09ccc1948dc67ae122804b1767d12aa9277cd56c6"
        )
        assert config.run_id() == "blockack_w8_n200_s3_d8ba7643"

    def test_arbitrated_multi_flow_cache_key_is_pinned(self):
        config = RunConfig(
            protocol="blockack", window=8, total=200,
            forward=LinkSpec(max_lifetime=5.0),
            reverse=LinkSpec(max_lifetime=5.0), seed=3,
            flows=4, link_rate=0.5, sched="drr",
            protocol_kwargs={"timeout_period": 40.0},
        )
        assert config.cache_key() == (
            "d2e24a6440f4aaf310c6d77fac9c9c3979d604473fa52c43195713384c8025bd"
        )
        assert config.run_id() == "blockack_w8_n200_f4_r0.5_drr_s3_d2e24a64"


class TestDeterminism:
    def test_serial_matches_direct_execution(self):
        configs = make_grid()
        results = SweepRunner(jobs=1, cache=False).run(configs)
        direct = [execute_config(config) for config in configs]
        assert [serialize_result(r) for r in results] == [
            serialize_result(r) for r in direct
        ]

    def test_parallel_byte_identical_to_serial(self):
        configs = make_grid()
        serial = SweepRunner(jobs=1, cache=False).run(configs)
        parallel = SweepRunner(jobs=2, cache=False).run(make_grid())
        serial_json = [
            json.dumps(serialize_result(r), sort_keys=True) for r in serial
        ]
        parallel_json = [
            json.dumps(serialize_result(r), sort_keys=True) for r in parallel
        ]
        assert serial_json == parallel_json

    def test_results_come_back_in_config_order(self):
        seeds = (9, 2, 7, 0)
        results = SweepRunner(jobs=2, cache=False).run(make_grid(seeds=seeds))
        assert len(results) == len(seeds)
        # different seeds give different durations; re-running serially in
        # the same order must reproduce the exact sequence
        again = SweepRunner(jobs=1, cache=False).run(make_grid(seeds=seeds))
        assert [r.duration for r in results] == [r.duration for r in again]

    def test_serialize_round_trip(self):
        (config,) = make_grid(seeds=(3,))
        result = execute_config(config)
        clone = deserialize_result(serialize_result(result))
        assert clone.completed == result.completed
        assert clone.duration == result.duration
        assert clone.delivered == result.delivered
        assert clone.sender_stats == result.sender_stats
        assert clone.latencies == result.latencies


class TestCache:
    def test_cold_then_warm(self, tmp_path):
        configs = make_grid()
        cold = SweepRunner(jobs=1, cache=tmp_path)
        first = cold.run(configs)
        assert cold.executed == len(configs)
        assert cold.cached == 0

        warm = SweepRunner(jobs=1, cache=tmp_path)
        second = warm.run(make_grid())
        assert warm.executed == 0
        assert warm.cached == len(configs)
        assert [serialize_result(r) for r in first] == [
            serialize_result(r) for r in second
        ]

    def test_partial_hit_executes_only_missing(self, tmp_path):
        SweepRunner(jobs=1, cache=tmp_path).run(make_grid(seeds=(0, 1)))
        runner = SweepRunner(jobs=1, cache=tmp_path)
        runner.run(make_grid(seeds=(0, 1, 2)))
        assert runner.cached == 2
        assert runner.executed == 1

    def test_cache_disabled_by_default(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE", raising=False)
        runner = SweepRunner(jobs=1)
        runner.run(make_grid(seeds=(0,)))
        assert runner.cache is None

    def test_cache_files_are_versioned_json(self, tmp_path):
        SweepRunner(jobs=1, cache=tmp_path).run(make_grid(seeds=(0,)))
        files = list(tmp_path.glob("*.json"))
        assert len(files) == 1
        entry = json.loads(files[0].read_text())
        assert entry["version"] >= 1
        assert "result" in entry and "config" in entry

    def test_corrupt_cache_entry_is_a_miss(self, tmp_path):
        configs = make_grid(seeds=(0,))
        SweepRunner(jobs=1, cache=tmp_path).run(configs)
        (file,) = tmp_path.glob("*.json")
        file.write_text("not json{")
        runner = SweepRunner(jobs=1, cache=tmp_path)
        results = runner.run(make_grid(seeds=(0,)))
        assert runner.executed == 1
        assert results[0].completed

    def test_result_cache_counts_hits_and_misses(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get("deadbeef") is None
        cache.put("deadbeef", "desc", {"x": 1})
        assert cache.get("deadbeef") == {"x": 1}
        assert cache.hits == 1
        assert cache.misses == 1


class TestEnvKnobs:
    def test_default_jobs_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert default_jobs() == 1

    def test_default_jobs_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "4")
        assert default_jobs() == 4

    def test_default_jobs_rejects_garbage(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "many")
        with pytest.raises(ValueError):
            default_jobs()

    def test_run_protocol_grid_honors_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_JOBS", "1")
        monkeypatch.setenv("REPRO_CACHE", "1")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        results = run_protocol_grid(make_grid(seeds=(0,)))
        assert results[0].completed
        assert list(tmp_path.glob("*.json"))


class TestMonitorSummary:
    def test_monitor_survives_serialization(self):
        (config,) = make_grid(seeds=(2,))
        config.monitor_invariants = True
        result = deserialize_result(serialize_result(execute_config(config)))
        assert result.monitor is not None
        assert result.monitor.ok
        assert result.monitor.violations == []

    def test_no_monitor_stays_none(self):
        (config,) = make_grid(seeds=(2,))
        result = deserialize_result(serialize_result(execute_config(config)))
        assert result.monitor is None
