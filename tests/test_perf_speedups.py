"""Timing regression tests for the ID-native hot paths.

Marked ``perf`` so tier-1 (``pytest -x -q``) skips them — wall-clock asserts
are machine-sensitive.  Run explicitly with ``pytest -m perf``; the gated
end-to-end numbers (``kb.expansion.scan_s``, ``core.em.em_s`` on the
``offline_train`` workload) come from ``python3 -m benchmarks.e2e``.
"""

import time

import pytest

from oracles.em_reference import run_em_reference
from oracles.expansion_reference import expand_predicates_baseline
from oracles.offline_reference import (
    reference_encode_corpus,
    reference_model,
    reference_pattern_statistics,
)
from repro.core.decompose import PatternStatistics
from repro.core.em import EMConfig, run_em
from repro.core.learner import LearnerConfig, OfflineLearner
from repro.core.system import KBQA, KBQAConfig
from repro.kb.expansion import expand_predicates
from repro.nlp.ner import EntityRecognizer
from repro.suite import build_suite

pytestmark = pytest.mark.perf


def _best_of(fast, slow, repeats=3):
    """Best-of-``repeats`` seconds of ``fast`` and of ``slow``.

    The two sides' repeats interleave, and which side goes first alternates,
    so a change in host speed falls on both sides alike instead of deciding
    the ratio.
    """
    best = [float("inf"), float("inf")]
    for repeat in range(repeats):
        for side in (0, 1) if repeat % 2 == 0 else (1, 0):
            start = time.perf_counter()
            (fast, slow)[side]()
            best[side] = min(best[side], time.perf_counter() - start)
    return best


def test_id_native_expansion_faster_than_baseline(suite):
    store = suite.freebase.store
    seeds = [e.node for e in suite.world.of_type("person")]
    fast, slow = _best_of(
        lambda: expand_predicates(store, seeds, max_length=3),
        lambda: expand_predicates_baseline(store, seeds, max_length=3),
    )
    assert fast < slow, f"id-native expansion ({fast:.4f}s) vs baseline ({slow:.4f}s)"


def test_array_em_faster_than_reference(suite):
    learner = OfflineLearner(suite.freebase, suite.conceptualizer, LearnerConfig())
    encoded, _t, _p = learner.encode_corpus(suite.corpus).encoded
    config = EMConfig(max_iterations=25, tolerance=0.0)
    fast, slow = _best_of(
        lambda: run_em(encoded, config), lambda: run_em_reference(encoded, config)
    )
    assert fast < slow, f"array EM ({fast:.4f}s) vs reference ({slow:.4f}s)"


@pytest.fixture(scope="module")
def default_suite():
    """The benchmark's scale: 30 k QA pairs."""
    return build_suite("default", seed=7)


def test_fv_first_statistics_3x_faster_than_exhaustive_enumeration(default_suite):
    questions = list(default_suite.corpus.questions())
    ner = EntityRecognizer(default_suite.freebase.gazetteer)
    cap = KBQAConfig().pattern_max_questions
    fast, slow = _best_of(
        lambda: PatternStatistics.from_corpus(questions, ner, max_questions=cap),
        lambda: reference_pattern_statistics(questions, ner, max_questions=cap),
    )
    assert fast * 3 <= slow, f"fv-first ({fast:.3f}s) vs exhaustive ({slow:.3f}s)"


def test_single_pass_train_faster_than_per_stage_passes(default_suite):
    kb, corpus, conceptualizer = (
        default_suite.freebase, default_suite.corpus, default_suite.conceptualizer
    )
    config = KBQAConfig()

    def single_pass():
        KBQA.train(kb, corpus, conceptualizer, config).close()

    def per_stage():
        reference = reference_encode_corpus(kb, corpus, conceptualizer, config.learner)
        reference_model(reference, config.learner)
        reference_pattern_statistics(
            corpus.questions(), reference.ner,
            config.pattern_max_questions, config.pattern_max_tokens,
        )

    fast, slow = _best_of(single_pass, per_stage)
    assert fast * 1.3 <= slow, f"single pass ({fast:.3f}s) vs per-stage passes ({slow:.3f}s)"


def test_warm_answer_cache_faster_than_cold(suite, kbqa_fb):
    questions = [q.question for q in suite.benchmark("qald3").bfqs()]
    answers = {}

    def cold_pass():
        kbqa_fb.answerer.clear_caches()
        answers["cold"] = kbqa_fb.answer_many(questions)

    def warm_pass():
        answers["warm"] = kbqa_fb.answer_many(questions)

    # every cold pass ends with the caches warm, so a warm pass that runs
    # first in its repeat finds them warm too
    cold_pass()
    warm_s, cold_s = _best_of(warm_pass, cold_pass)
    cold, warm = answers["cold"], answers["warm"]
    assert warm == cold
    assert warm_s < cold_s, f"warm batch ({warm_s:.4f}s) vs cold ({cold_s:.4f}s)"
