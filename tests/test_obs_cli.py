"""Tests for the ``blockack obs`` command group."""

import json

import pytest

from repro.cli.main import build_parser, main
from repro.obs.schema import validate_file


@pytest.fixture()
def obs_dir(tmp_path, monkeypatch):
    """Point exports at a scratch directory for the duration of a test."""
    monkeypatch.setenv("REPRO_OBS_DIR", str(tmp_path))
    return tmp_path


def export(obs_dir, seed=11, messages=80, extra=()):
    code = main([
        "obs", "export", "--messages", str(messages), "--seed", str(seed),
        *extra,
    ])
    assert code == 0
    paths = sorted(obs_dir.glob("*.jsonl"))
    assert paths
    return paths[-1]


class TestParser:
    def test_obs_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["obs"])

    def test_export_defaults(self):
        args = build_parser().parse_args(["obs", "export"])
        assert args.protocol == "blockack"
        assert args.messages == 400

    def test_run_obs_flag(self):
        args = build_parser().parse_args(["run", "e3", "--quick", "--obs"])
        assert args.obs


class TestExport:
    def test_writes_schema_valid_jsonl(self, obs_dir, capsys):
        path = export(obs_dir)
        assert validate_file(path) == []
        out = capsys.readouterr().out
        assert "wrote" in out and "delivered" in out

    def test_explicit_output_path(self, obs_dir, tmp_path, capsys):
        target = tmp_path / "custom" / "cell.jsonl"
        code = main([
            "obs", "export", "--messages", "40", "--output", str(target),
        ])
        assert code == 0
        assert target.exists()
        assert validate_file(target) == []

    def test_probe_flag_reports(self, obs_dir, capsys):
        export(obs_dir)
        out = capsys.readouterr().out
        assert "invariant monitor: clean" in out


class TestSummarize:
    def test_summary_lists_spans_and_metrics(self, obs_dir, capsys):
        path = export(obs_dir)
        capsys.readouterr()
        assert main(["obs", "summarize", str(path)]) == 0
        out = capsys.readouterr().out
        assert "span states" in out
        assert "retransmissions" in out

    def test_text_mode_is_prometheus_format(self, obs_dir, capsys):
        path = export(obs_dir)
        capsys.readouterr()
        assert main(["obs", "summarize", str(path), "--text"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE delivery_latency histogram" in out
        assert "delivery_latency_count" in out


class TestDiff:
    def test_same_seed_agrees(self, obs_dir, capsys):
        left = export(obs_dir, seed=11)
        right_path = obs_dir / "copy.jsonl"
        right_path.write_text(left.read_text())
        capsys.readouterr()
        assert main(["obs", "diff", str(left), str(right_path)]) == 0
        assert "agree" in capsys.readouterr().out

    def test_two_seeds_report_counter_deltas(self, obs_dir, capsys):
        left = export(obs_dir, seed=11)
        right = export(obs_dir, seed=12)
        assert left != right
        capsys.readouterr()
        assert main(["obs", "diff", str(left), str(right)]) == 0
        out = capsys.readouterr().out
        assert "->" in out
        assert "series differ" in out


class TestSweepIntegration:
    @staticmethod
    def sweep_config(obs=True, **overrides):
        from repro.channel.delay import UniformDelay
        from repro.channel.impairments import BernoulliLoss
        from repro.perf.sweep import RunConfig
        from repro.sim.runner import LinkSpec

        def link():
            return LinkSpec(delay=UniformDelay(0.5, 1.5), loss=BernoulliLoss(0.05))

        kwargs = dict(
            protocol="blockack", window=8, total=40,
            forward=link(), reverse=link(), seed=3,
            max_time=100_000.0, obs=obs,
        )
        kwargs.update(overrides)
        return RunConfig(**kwargs)

    def test_run_config_id_is_deterministic(self):
        a = self.sweep_config()
        b = self.sweep_config()
        assert a.run_id() == b.run_id()
        # obs is part of the cache key, so the ids differ too
        assert a.run_id() != self.sweep_config(obs=False).run_id()

    def test_execute_config_exports_when_obs_on(self, obs_dir):
        from repro.perf.sweep import execute_config

        result = execute_config(self.sweep_config())
        assert result.obs_path is not None
        assert validate_file(result.obs_path) == []
        meta = json.loads(open(result.obs_path).readline())
        assert meta["labels"]["protocol"] == "blockack"

    def test_serialization_carries_obs_path(self, obs_dir):
        from repro.perf.sweep import (
            deserialize_result,
            execute_config,
            serialize_result,
        )

        result = execute_config(self.sweep_config())
        restored = deserialize_result(serialize_result(result))
        assert restored.obs_path == result.obs_path

    def test_obs_enabled_by_env(self, monkeypatch):
        from repro.perf.sweep import obs_enabled_by_env

        monkeypatch.delenv("REPRO_OBS", raising=False)
        assert obs_enabled_by_env() is False
        monkeypatch.setenv("REPRO_OBS", "1")
        assert obs_enabled_by_env() is True
        monkeypatch.setenv("REPRO_OBS", "0")
        assert obs_enabled_by_env() is False
