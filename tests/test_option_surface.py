"""Option-surface ratchet: the knobs this system exposes, as numbers.

Every independently settable value doubles the configurations tests and
benchmarks have to cover (ROADMAP aim 2), so the counts below only go down
on their own.  A change that adds a ``ServeConfig`` field, a serving
counter, a CLI flag or a ``KBQA_*`` environment variable has to edit a
number here, where a reviewer sees it next to the reason.
"""

from __future__ import annotations

import re
from dataclasses import fields
from pathlib import Path

from repro.cli import main
from repro.serve import ServeConfig, ServeStats

SRC = Path(__file__).resolve().parent.parent / "src"


def test_serve_config_and_stats_field_counts():
    assert len(fields(ServeConfig)) == 11
    assert len(fields(ServeStats)) == 16


def test_cli_flag_count():
    cli = (SRC / "repro" / "cli.py").read_text(encoding="utf-8")
    assert cli.count("add_argument(") <= 48


def test_environment_variables():
    names = set()
    for path in SRC.rglob("*.py"):
        names.update(re.findall(r"""["'](KBQA_[A-Z_]+)["']""", path.read_text("utf-8")))
    assert names == {
        "KBQA_BACKEND",
        "KBQA_EXEC",
        "KBQA_EXPANDED_FORMAT",
        "KBQA_FAULTS",
        "KBQA_WORKERS",
    }


def test_serve_ignores_the_scan_executor_flag(capsys):
    """``--exec`` governs the Sec 6.2 scan; serving has one executor."""
    assert main(["serve", "--scale", "small", "--smoke", "--exec", "process"]) == 0
    out = capsys.readouterr().out
    assert "executor=thread" in out
    assert "serving smoke: OK" in out
