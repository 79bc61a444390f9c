"""Unit tests for the perf-regression harness (:mod:`repro.perf.bench`)."""

import json

import pytest

from repro.perf.bench import (
    _channel_transit,
    _engine_chain,
    _engine_fanout,
    _transfer,
    compare_bench,
    main,
    run_profile,
    update_bench_json,
)

from .conftest import ENGINE_VARIANTS, use_engine


class TestCompareBench:
    BASELINE = {
        "micro": {"chain": 1_000_000.0, "fanout": 500_000.0},
        "experiments": {"e1": 1.0, "e2": 2.0},
    }

    def test_within_budget_is_clean(self):
        current = {
            "micro": {"chain": 990_000.0, "fanout": 510_000.0},
            "experiments": {"e1": 1.1, "e2": 1.9},
        }
        assert compare_bench(current, self.BASELINE) == []

    def test_micro_drop_and_experiment_rise_flagged(self):
        current = {
            "micro": {"chain": 500_000.0, "fanout": 510_000.0},
            "experiments": {"e1": 2.0, "e2": 1.9},
        }
        lines = compare_bench(current, self.BASELINE, threshold=0.25)
        assert len(lines) == 2
        assert any("micro.chain" in line for line in lines)
        assert any("experiments.e1" in line for line in lines)

    def test_missing_measurement_is_flagged_not_skipped(self):
        """A metric that silently stops being measured must surface: a
        vanished micro would otherwise pass every comparison forever."""
        current = {
            "micro": {"chain": 1_000_000.0},  # fanout vanished
            "experiments": {"e1": 1.0},  # e2 vanished
        }
        lines = compare_bench(current, self.BASELINE)
        assert len(lines) == 2
        assert any(
            "micro.fanout" in line and "missing measurement" in line
            for line in lines
        )
        assert any(
            "experiments.e2" in line and "missing measurement" in line
            for line in lines
        )

    def test_new_metrics_absent_from_baseline_are_ignored(self):
        current = {
            "micro": dict(self.BASELINE["micro"], brand_new=1.0),
            "experiments": dict(self.BASELINE["experiments"], e99=50.0),
        }
        assert compare_bench(current, self.BASELINE) == []

    def test_zero_baseline_entries_are_skipped(self):
        baseline = {"micro": {"broken": 0.0}, "experiments": {}}
        assert compare_bench({"micro": {}}, baseline) == []

    def test_main_warns_and_exit_codes(self, tmp_path, capsys):
        fresh = tmp_path / "fresh.json"
        base = tmp_path / "base.json"
        base.write_text(json.dumps(self.BASELINE))
        fresh.write_text(json.dumps({"micro": {"chain": 100.0}}))
        argv = ["--compare", str(fresh), "--baseline", str(base)]
        assert main(argv) == 0  # warn-only by default
        out = capsys.readouterr().out
        assert "::warning title=perf regression::" in out
        assert "::warning title=missing measurement::" in out
        assert main(argv + ["--strict"]) == 1


class TestUpdateBenchJson:
    def test_sections_merge_independently(self, tmp_path):
        path = tmp_path / "BENCH_quick.json"
        update_bench_json(path, "quick", micro={"chain": 1.0})
        update_bench_json(path, "quick", experiments={"e1": 0.5})
        data = json.loads(path.read_text())
        assert data["micro"] == {"chain": 1.0}
        assert data["experiments"] == {"e1": 0.5}
        assert data["mode"] == "quick"


class TestWorkloads:
    """The micro workloads themselves, at tiny sizes, on the bare and
    the instrumented engine."""

    @pytest.mark.parametrize("variant", list(ENGINE_VARIANTS))
    def test_engine_workloads_count_events(self, variant, monkeypatch):
        use_engine(monkeypatch, variant)
        assert _engine_chain(500) == 500
        assert _engine_fanout(500) == 500
        assert _channel_transit(200) == 200

    def test_transfer_engines_agree(self, monkeypatch):
        delivered_default, throughput_default = _transfer(60)
        use_engine(monkeypatch, "fast")
        delivered_fast, throughput_fast = _transfer(60)
        assert delivered_default == delivered_fast == 60
        # virtual-time throughput is deterministic and instrument-invariant
        assert throughput_default == throughput_fast


def test_run_profile_writes_dumps(tmp_path):
    written = run_profile(tmp_path, scale=1, top=5)
    names = sorted(p.name for p in written)
    assert names == ["transfer.prof", "transfer.txt"]
    report = (tmp_path / "transfer.txt").read_text()
    assert "messages delivered" in report
    assert "cumulative" in report and "internal" in report
    assert (tmp_path / "transfer.prof").stat().st_size > 0
