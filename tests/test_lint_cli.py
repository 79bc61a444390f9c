"""CLI surface and self-check gates for ``blockack lint``.

The final test here is the one CI actually gates on: the shipped tree
itself lints clean (with only the deliberate, audited inline
suppressions).  The mypy gate mirrors it when mypy is installed (it is
in CI; the test skips locally when the tool is absent).
"""

from __future__ import annotations

import json
import pathlib
import shutil
import subprocess
import sys

import pytest

from repro.cli.main import build_parser, main
from repro.lint import lint_paths
from repro.lint.cli import main as lint_main

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"


class TestParser:
    def test_lint_defaults(self):
        args = build_parser().parse_args(["lint"])
        assert args.paths == ["src"]
        assert args.format == "text"
        assert args.rules is None

    def test_lint_flags(self):
        args = build_parser().parse_args(
            ["lint", "src", "tests", "--format", "json", "--rules", "D101"]
        )
        assert args.paths == ["src", "tests"]
        assert args.format == "json"
        assert args.rules == "D101"


class TestLintCommand:
    def test_clean_file_exits_zero(self, tmp_path, capsys):
        target = tmp_path / "clean.py"
        target.write_text("def f(sim):\n    return sim.now\n")
        assert main(["lint", str(target)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_findings_exit_one_with_location(self, tmp_path, capsys):
        target = tmp_path / "dirty.py"
        target.write_text("import time\n\ndef f():\n    return time.time()\n")
        assert main(["lint", str(target)]) == 1
        out = capsys.readouterr().out
        assert "D101" in out
        assert "dirty.py:4" in out

    def test_json_format_is_machine_readable(self, tmp_path, capsys):
        target = tmp_path / "dirty.py"
        target.write_text("import random\nx = random.random()\n")
        assert main(["lint", str(target), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["files_checked"] == 1
        (finding,) = payload["findings"]
        assert finding["rule"] == "D102"
        assert finding["line"] == 2
        assert finding["severity"] == "error"

    def test_output_file_written_for_ci_artifact(self, tmp_path, capsys):
        target = tmp_path / "dirty.py"
        target.write_text("import time\nt = time.monotonic()\n")
        report_path = tmp_path / "artifacts" / "lint.json"
        code = main(["lint", str(target), "--output", str(report_path)])
        assert code == 1
        payload = json.loads(report_path.read_text())
        assert payload["findings"]

    def test_rule_subset_runs_only_named_rules(self, tmp_path, capsys):
        target = tmp_path / "dirty.py"
        target.write_text(
            "import time\nimport random\n"
            "t = time.time()\nx = random.random()\n"
        )
        assert main(["lint", str(target), "--rules", "D102"]) == 1
        out = capsys.readouterr().out
        assert "D102" in out and "D101" not in out

    def test_unknown_rule_is_usage_error(self, tmp_path, capsys):
        target = tmp_path / "any.py"
        target.write_text("x = 1\n")
        assert main(["lint", str(target), "--rules", "Z999"]) == 2

    def test_list_rules_prints_catalogue(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("D101", "D103", "P201", "S302", "S303"):
            assert rule_id in out
        assert "S301" not in out

    def test_syntax_error_reported_not_crash(self, tmp_path, capsys):
        target = tmp_path / "broken.py"
        target.write_text("def f(:\n")
        assert main(["lint", str(target)]) == 1
        assert "syntax error" in capsys.readouterr().out

    def test_module_entry_point_matches_blockack(self, tmp_path, capsys):
        target = tmp_path / "dirty.py"
        target.write_text("import time\nt = time.time()\n")
        assert lint_main([str(target)]) == 1


class TestSelfCheck:
    """The acceptance gate: the shipped tree is clean under its own rules."""

    def test_src_tree_lints_clean(self):
        report = lint_paths([str(SRC)])
        assert not report.parse_errors, report.parse_errors
        assert report.findings == [], "\n".join(
            f.render() for f in report.findings
        )
        assert report.files_checked > 100

    def test_blockack_lint_src_exit_code(self, capsys):
        assert main(["lint", str(SRC)]) == 0

    def test_deliberate_suppressions_are_named_not_blanket(self):
        # audit trail: every inline waiver in src names its rule
        blanket = []
        for path in SRC.rglob("*.py"):
            if path.name == "suppress.py":
                continue  # documents the bare form in its docstring
            for lineno, line in enumerate(
                path.read_text(encoding="utf-8").splitlines(), start=1
            ):
                if "lint: ignore" in line and "lint: ignore[" not in line:
                    blanket.append(f"{path}:{lineno}")
        assert not blanket, blanket


@pytest.mark.slow
class TestMypyGate:
    """Strict-leaning typing gate; runs wherever mypy is installed (CI)."""

    def test_mypy_src_repro_clean(self):
        if shutil.which("mypy") is None:
            pytest.skip("mypy not installed in this environment")
        proc = subprocess.run(
            [sys.executable, "-m", "mypy", "src/repro"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
