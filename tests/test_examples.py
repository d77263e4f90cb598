"""Every ``examples/*.py`` runs to completion.

``tests/test_documentation.py`` only checks that the README names the
examples; this runs each one as a user would (``PYTHONPATH=src python
examples/X.py``) in a child process and expects exit code 0.  Temporary
files go to the test's own directory.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))
TIMEOUT_S = 120


def test_examples_exist():
    assert EXAMPLES


@pytest.mark.parametrize("example", EXAMPLES, ids=lambda path: path.stem)
def test_example_runs(example, tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "TMPDIR": str(tmp_path)}
    done = subprocess.run(
        [sys.executable, str(example)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=TIMEOUT_S,
    )
    assert done.returncode == 0, f"{example.name} exited {done.returncode}:\n{done.stderr}"
