"""One gold-checked, layer-attributed benchmark for the whole KBQA stack.

``python3 -m benchmarks.e2e --workload NAME --seed N --seconds S --trace 0|1``
is the single-workload entry point ``BENCHMARK.json`` declares;
``python3 -m benchmarks.e2e run`` sweeps every workload and
``python3 -m benchmarks.e2e compare A.json B.json`` is the regression gate.
See ``README.md`` in this directory.

The program under test lives in ``src/``; nothing there is edited or
monkeypatched — every timer wraps a call made from this package.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
BENCH_DIR = Path(__file__).resolve().parent
RESULTS_DIR = BENCH_DIR / "results"

# The repo is run from a checkout, not installed: make ``repro`` importable
# without requiring the caller to export PYTHONPATH=src.
_SRC = str(ROOT / "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)
