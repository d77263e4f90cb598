"""Offline time cost — the Sec 6.2/6.3 tractability claim, measured.

Paper: the offline procedure stays tractable because predicate expansion is
index+scan+join (not a per-node graph walk) and each EM iteration is O(m)
over pre-pruned candidates.  This benchmark reports the wall-clock of both
offline hot paths, before (string-level scan, dict-of-dict EM) and after
(ID-native scan, array-based EM), on the same inputs — the offline companion
to ``bench_table14_timecost.py``'s online numbers.
"""

import time

from repro.core.em import EMConfig, run_em
from repro.core.learner import LearnerConfig, OfflineLearner
from repro.kb.expansion import expand_predicates
from repro.utils.tables import Table

from benchmarks.conftest import emit
from tests.oracles.em_reference import run_em_reference
from tests.oracles.expansion_reference import expand_predicates_baseline


def _best_of(fn, repeats=3):
    best, result = float("inf"), None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def test_offline_expansion_timecost(bench_suite):
    store = bench_suite.freebase.store
    seeds = [e.node for e in bench_suite.world.of_type("person")]
    fast_s, expanded = _best_of(lambda: expand_predicates(store, seeds, max_length=3))
    slow_s, baseline = _best_of(
        lambda: expand_predicates_baseline(store, seeds, max_length=3)
    )
    assert len(expanded) == len(baseline)

    table = Table(
        ["stage", "implementation", "wall-clock", "throughput"],
        title="Offline time cost: predicate expansion (Sec 6.2)",
    )
    table.add_row([
        "expansion", "string scan (baseline)", f"{slow_s * 1000:.1f}ms",
        f"{len(baseline) / max(slow_s, 1e-9):,.0f} spo/s",
    ])
    table.add_row([
        "expansion", "ID-native scan", f"{fast_s * 1000:.1f}ms",
        f"{len(expanded) / max(fast_s, 1e-9):,.0f} spo/s",
    ])
    table.add_row(["expansion", "speedup", f"{slow_s / max(fast_s, 1e-9):.1f}x", ""])
    emit(table, "offline_timecost_expansion.txt")

    assert fast_s < slow_s, "ID-native expansion must beat the string-level scan"


def test_offline_em_timecost(bench_suite):
    learner = OfflineLearner(
        bench_suite.freebase, bench_suite.conceptualizer, LearnerConfig()
    )
    encoded, _templates, _paths = learner.encode_corpus(bench_suite.corpus).encoded
    config = EMConfig(max_iterations=25, tolerance=0.0)
    fast_s, fast = _best_of(lambda: run_em(encoded, config))
    slow_s, slow = _best_of(lambda: run_em_reference(encoded, config))
    assert fast.iterations == slow.iterations

    table = Table(
        ["stage", "implementation", "wall-clock", "per-iteration"],
        title="Offline time cost: EM estimation (Sec 4.2, Algorithm 1)",
    )
    table.add_row([
        "em", "dict-of-dict (baseline)", f"{slow_s * 1000:.1f}ms",
        f"{slow_s * 1000 / max(slow.iterations, 1):.2f}ms",
    ])
    table.add_row([
        "em", "array-based", f"{fast_s * 1000:.1f}ms",
        f"{fast_s * 1000 / max(fast.iterations, 1):.2f}ms",
    ])
    table.add_row(["em", "speedup", f"{slow_s / max(fast_s, 1e-9):.1f}x", ""])
    emit(table, "offline_timecost_em.txt")

    assert fast_s < slow_s, "array-based EM must beat the dict-of-dict reference"
