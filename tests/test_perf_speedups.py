"""Timing regression tests for the ID-native hot paths.

Marked ``perf`` so tier-1 (``pytest -x -q``) skips them — wall-clock asserts
are machine-sensitive.  Run explicitly with ``pytest -m perf``; the gated
end-to-end numbers (``kb.expansion.scan_s``, ``core.em.em_s`` on the
``offline_train`` workload) come from ``python3 -m benchmarks.e2e``.
"""

import time

import pytest

from repro.core.em import EMConfig, run_em, run_em_reference
from repro.core.learner import LearnerConfig, OfflineLearner
from repro.kb.expansion import expand_predicates, expand_predicates_baseline

pytestmark = pytest.mark.perf


def _best_of(fn, repeats=3):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_id_native_expansion_faster_than_baseline(suite):
    store = suite.freebase.store
    seeds = [e.node for e in suite.world.of_type("person")]
    fast = _best_of(lambda: expand_predicates(store, seeds, max_length=3))
    slow = _best_of(lambda: expand_predicates_baseline(store, seeds, max_length=3))
    assert fast < slow, f"id-native expansion ({fast:.4f}s) vs baseline ({slow:.4f}s)"


def test_array_em_faster_than_reference(suite):
    learner = OfflineLearner(suite.freebase, suite.conceptualizer, LearnerConfig())
    encoded, _t, _p = learner.encode_corpus(suite.corpus).encoded
    config = EMConfig(max_iterations=25, tolerance=0.0)
    fast = _best_of(lambda: run_em(encoded, config))
    slow = _best_of(lambda: run_em_reference(encoded, config))
    assert fast < slow, f"array EM ({fast:.4f}s) vs reference ({slow:.4f}s)"


def test_warm_answer_cache_faster_than_cold(suite, kbqa_fb):
    questions = [q.question for q in suite.benchmark("qald3").bfqs()]
    kbqa_fb.answerer.clear_caches()
    start = time.perf_counter()
    cold = kbqa_fb.answer_many(questions)
    cold_s = time.perf_counter() - start
    start = time.perf_counter()
    warm = kbqa_fb.answer_many(questions)
    warm_s = time.perf_counter() - start
    assert warm == cold
    assert warm_s < cold_s, f"warm batch ({warm_s:.4f}s) vs cold ({cold_s:.4f}s)"
