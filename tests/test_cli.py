"""Tests for the command-line interface."""

import pytest

from repro.cli.main import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_args(self):
        args = build_parser().parse_args(["run", "e3", "--quick"])
        assert args.experiment == "e3" and args.quick

    def test_transfer_defaults(self):
        args = build_parser().parse_args(["transfer"])
        assert args.protocol == "blockack"
        assert args.window == 8
        assert args.flows == 1

    def test_run_flows_flag(self):
        args = build_parser().parse_args(["run", "e15", "--flows", "3"])
        assert args.flows == 3


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "E1" in out and "blockack" in out

    def test_transfer_success_exit_code(self, capsys):
        code = main([
            "transfer", "--messages", "50", "--loss", "0.05",
            "--jitter", "1.0", "--seed", "3",
        ])
        assert code == 0
        assert "completed" in capsys.readouterr().out

    def test_transfer_multi_flow(self, capsys):
        code = main([
            "transfer", "--flows", "3", "--messages", "25",
            "--loss", "0.05", "--seed", "3",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "fairness" in out
        assert "flow 2:" in out  # one line per flow

    def test_transfer_with_trace(self, capsys):
        code = main(["transfer", "--messages", "10", "--trace", "5"])
        assert code == 0
        assert "send_data" in capsys.readouterr().out

    def test_transfer_all_protocols(self):
        from repro.protocols.registry import protocol_names

        for name in protocol_names():
            assert main(["transfer", "--protocol", name, "--messages", "20"]) == 0

    def test_check_clean_protocol(self, capsys):
        code = main(["check", "--window", "1"])
        assert code == 0
        assert "OK" in capsys.readouterr().out

    def test_check_broken_protocol_fails_with_witness(self, capsys):
        code = main([
            "check", "--window", "2", "--timeout-mode", "impatient",
        ])
        assert code == 1
        out = capsys.readouterr().out
        assert "witness" in out

    def test_run_quick_experiment(self, capsys):
        assert main(["run", "e1", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "REPRODUCED" in out

    def test_compare_table_and_plot(self, capsys):
        code = main([
            "compare", "--messages", "60", "--losses", "0,0.05",
            "--protocols", "blockack,selective-repeat",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "goodput" in out
        assert "│" in out  # the plot frame
        assert "o blockack" in out

    def test_compare_detects_failures_via_exit_code(self, capsys):
        # an impossible deadline cannot be provoked through compare's
        # knobs, so just assert clean configs exit zero
        assert main([
            "compare", "--messages", "30", "--losses", "0",
            "--protocols", "gobackn",
        ]) == 0
