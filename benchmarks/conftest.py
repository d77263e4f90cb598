"""Shared fixtures for the benchmark harness.

Everything trains once per session at the ``default`` scale: the world, both
compiled KBs, KBQA systems (with and without expansion), the comparison
systems of ``benchmarks/baselines/`` and the declarative sentences the
bootstrapping baseline learns from (Table 12).
Each ``bench_tableNN`` module regenerates one table of the paper's
evaluation section, prints it, and archives it under
``benchmarks/results/``; EXPERIMENTS.md records the paper-vs-measured
comparison.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.core.learner import LearnerConfig
from repro.core.system import KBQA, KBQAConfig
from repro.suite import build_suite
from repro.utils.tables import Table

from benchmarks.baselines.keyword import KeywordQA
from benchmarks.baselines.rule import RuleQA
from benchmarks.baselines.sentences import generate_sentences
from benchmarks.baselines.synonym import SynonymQA

RESULTS_DIR = Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def bench_suite():
    return build_suite("default", seed=7)


@pytest.fixture(scope="session")
def fb_system(bench_suite) -> KBQA:
    return KBQA.train(bench_suite.freebase, bench_suite.corpus, bench_suite.conceptualizer)


@pytest.fixture(scope="session")
def dbp_system(bench_suite) -> KBQA:
    return KBQA.train(bench_suite.dbpedia, bench_suite.corpus, bench_suite.conceptualizer)


@pytest.fixture(scope="session")
def fb_system_noexp(bench_suite) -> KBQA:
    """KBQA restricted to direct predicates (Table 16's length-1 row)."""
    config = KBQAConfig(learner=LearnerConfig(use_expansion=False))
    return KBQA.train(
        bench_suite.freebase, bench_suite.corpus, bench_suite.conceptualizer, config
    )


@pytest.fixture(scope="session")
def bench_sentences(bench_suite) -> list[str]:
    """The declarative sentences bootstrapping mines (Table 12)."""
    return generate_sentences(bench_suite.world, 20_000, seed=bench_suite.seed)


@pytest.fixture(scope="session")
def synonym_fb(bench_suite) -> SynonymQA:
    return SynonymQA(bench_suite.freebase)


@pytest.fixture(scope="session")
def synonym_dbp(bench_suite) -> SynonymQA:
    return SynonymQA(bench_suite.dbpedia)


@pytest.fixture(scope="session")
def keyword_dbp(bench_suite) -> KeywordQA:
    return KeywordQA(bench_suite.dbpedia)


@pytest.fixture(scope="session")
def rule_dbp(bench_suite) -> RuleQA:
    return RuleQA(bench_suite.dbpedia)


def emit(table: Table, filename: str) -> None:
    """Print a result table and archive it under benchmarks/results/."""
    table.print()
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / filename).write_text(table.render() + "\n", encoding="utf-8")
