"""The single-pass offline path against the string-level oracle.

``KBQA.train`` reads each distinct corpus string once (``scan_questions``)
and counts ``fo`` only for patterns some question validated; ``tests/
oracles/offline_reference.py`` tokenizes and NER-scans every occurrence per
stage and enumerates every pattern.  Everything the two produce must be equal — seeds, observations,
extraction counters, the four EM buffers, the name tables, θ, the decoded
``TemplateModel``, ``fv`` — and ``validity()`` must agree on *every* pattern
the oracle ever observed, which is all the DP of Eq 28 reads.

The product extracts on dictionary ids, the oracle on strings, so the
equality is checked on every learner arm that changes where a path comes
from: the expansion on or off, a loaded artifact with its own dictionary,
refinement on or off, and both backends.
"""

from __future__ import annotations

import sys
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles.offline_reference import (
    reference_encode_corpus,
    reference_model,
    reference_pattern_statistics,
)
from repro.core.decompose import Decomposer, PatternStatistics
from repro.core.extraction import ExtractionConfig, ValueIndex, extract_observations
from repro.core.kbview import KBView
from repro.core.learner import LearnerConfig, OfflineLearner, collect_seed_entities
from repro.core.system import KBQA, KBQAConfig
from repro.kb.disk import DiskTripleStore
from repro.kb.expansion import ExpandedStore, expand_predicates
from repro.corpus.qa import QACorpus
from repro.kb.store import TripleStore
from repro.nlp import tokenizer
from repro.nlp.ner import EntityRecognizer, leftmost_longest
from repro.suite import build_suite
from repro.taxonomy.conceptualizer import Conceptualizer


def assert_statistics_equal_oracle(product: PatternStatistics, oracle: PatternStatistics) -> None:
    assert product.questions_indexed == oracle.questions_indexed
    assert product.fv == oracle.fv
    for key in oracle.fo:  # every pattern any question ever produced
        assert product.validity(key.split()) == oracle.validity(key.split()), key
    # fo holds exactly the validated patterns, with the oracle's counts
    assert set(product.fo) == set(oracle.fv)
    assert all(product.fo[key] == oracle.fo[key] >= oracle.fv[key] > 0 for key in product.fo)


def assert_offline_equals_oracle(
    suite, system: KBQA, config: KBQAConfig | None = None, expanded: ExpandedStore | None = None
) -> None:
    """``system`` is ``KBQA.train(..., config, expanded=expanded)`` over ``suite``
    (default config, no precomputed expansion when not given)."""
    kb, corpus, conceptualizer = suite.freebase, suite.corpus, suite.conceptualizer
    config = config or KBQAConfig()
    reference = reference_encode_corpus(kb, corpus, conceptualizer, config.learner)
    assert len(reference.observations) > 1000

    # the string-level doors, stage by stage
    learner = OfflineLearner(
        kb, conceptualizer, config.learner, precomputed_expansion=expanded
    )
    assert collect_seed_entities(corpus, learner.ner) == reference.seeds
    observations, extraction = extract_observations(
        ((pair.question, pair.answer) for pair in corpus),
        KBView(kb.store, reference.expanded if expanded is None else expanded),
        learner.ner,
        ValueIndex(kb.store),
        answer_type_of=kb.answer_type_for_path,
        config=ExtractionConfig(use_refinement=config.learner.use_refinement),
    )
    assert observations == reference.observations
    assert extraction == reference.extraction

    # one scan through encode_corpus
    prepared = learner.encode_corpus(corpus)
    assert prepared.seed_entities == reference.seeds
    assert prepared.n_observations == len(reference.observations)
    assert prepared.extraction == reference.extraction
    encoded, template_names, path_names = prepared.encoded
    ref_encoded, ref_template_names, ref_path_names = reference.encoded
    for buffer in ("offsets", "template_ids", "path_ids", "fs"):
        assert getattr(encoded, buffer) == getattr(ref_encoded, buffer), buffer
    assert template_names == ref_template_names
    assert path_names == ref_path_names

    # the whole of KBQA.train, which shares the scan with the statistics
    ref_em, ref_model = reference_model(reference, config.learner)
    assert system.learn_result.seed_entities == reference.seeds
    assert system.learn_result.extraction == reference.extraction
    assert system.learn_result.em.theta == ref_em.theta
    assert system.learn_result.em.template_support == ref_em.template_support
    assert system.model.n_observations == ref_model.n_observations
    assert list(system.model.templates()) == list(ref_model.templates())
    for template in ref_model.templates():
        assert system.model.predicates_for(template) == ref_model.predicates_for(template)
        assert system.model.support(template) == ref_model.support(template)

    oracle_statistics = reference_pattern_statistics(
        corpus.questions(),
        reference.ner,
        max_questions=config.pattern_max_questions,
        max_tokens=config.pattern_max_tokens,
    )
    assert len(oracle_statistics.fo) > 20 * len(oracle_statistics.fv)
    assert_statistics_equal_oracle(system.decomposer.statistics, oracle_statistics)

    # Table 15: the DP reads the statistics through validity() alone
    oracle_decomposer = Decomposer(
        oracle_statistics, reference.ner, ref_model, conceptualizer,
        max_concepts=config.max_concepts_online,
    )
    complex_questions = [item.question for item in suite.benchmark("complex").questions]
    assert complex_questions
    for question in complex_questions:
        assert system.decompose(question) == oracle_decomposer.decompose(question)


class TestSuiteAgainstOracle:
    def test_session_backend(self, suite, kbqa_fb):
        assert_offline_equals_oracle(suite, kbqa_fb)

    def test_disk_backend(self):
        disk_suite = build_suite("small", seed=7, backend="disk")
        assert type(disk_suite.freebase.store) is DiskTripleStore
        with KBQA.train(
            disk_suite.freebase, disk_suite.corpus, disk_suite.conceptualizer
        ) as system:
            assert_offline_equals_oracle(disk_suite, system)

    @pytest.mark.parametrize("learner", [
        LearnerConfig(use_expansion=False),
        LearnerConfig(max_path_length=1),
        LearnerConfig(use_refinement=False),
    ], ids=["no_expansion", "max_path_length_1", "no_refinement"])
    def test_learner_arm(self, suite, learner):
        """Without an expansion every path is a direct predicate id of the
        store's ``predicates_between_ids``."""
        config = KBQAConfig(learner=learner)
        with KBQA.train(suite.freebase, suite.corpus, suite.conceptualizer, config) as system:
            expands = learner.use_expansion and learner.max_path_length > 1
            assert (system.learn_result.expanded is not None) == expands
            assert_offline_equals_oracle(suite, system, config)

    def test_precomputed_expansion(self, suite, tmp_path):
        """A loaded artifact carries its own dictionary: its path ids and the
        store's predicate ids are two id spaces joined by predicate name.  The
        artifact is expanded from a copy of the KB whose terms were interned
        in another order, so no id means the same term on both sides."""
        kb = suite.freebase
        shifted = TripleStore()
        shifted.dictionary.encode("unrelated")
        for triple in reversed(list(kb.store.triples())):
            shifted.add_triple(triple)
        seeds = collect_seed_entities(suite.corpus, EntityRecognizer(kb.gazetteer))
        expand_predicates(shifted, seeds, max_length=3).save(tmp_path / "expansion")
        loaded = ExpandedStore.load(tmp_path / "expansion")
        lookup = loaded.dictionary.lookup
        assert all(lookup(term) != i for i, term in enumerate(kb.store.dictionary.terms()))
        with KBQA.train(kb, suite.corpus, suite.conceptualizer, expanded=loaded) as system:
            assert system.learn_result.expanded is loaded
            assert_offline_equals_oracle(suite, system, expanded=loaded)

    @pytest.mark.perf
    def test_default_scale(self):
        """The benchmark's suite: 30 k pairs, ≈ 225 k oracle ``fo`` keys."""
        big = build_suite("default", seed=7)
        with KBQA.train(big.freebase, big.corpus, big.conceptualizer) as system:
            assert_offline_equals_oracle(big, system)


# -- KBQA.train reads each distinct corpus string once ------------------------------


class CountingRecognizer(EntityRecognizer):
    calls: Counter = Counter()

    def find_mentions(self, tokens):
        self.calls["find_mentions"] += 1
        return super().find_mentions(tokens)

    def spans(self, tokens):
        self.calls["spans"] += 1
        return super().spans(tokens)


def assert_train_reads_each_distinct_string_once(suite, monkeypatch) -> tuple[int, int]:
    """Exact counts, so a refactor cannot quietly reintroduce a per-occurrence
    pass: every distinct question is tokenized and walks the gazetteer once,
    every distinct answer that a question with a mention reaches is tokenized
    once, and ``find_mentions`` never runs.  Returns the two distinct counts."""
    kb, corpus = suite.freebase, suite.corpus
    original = tokenizer.tokenize
    ner = EntityRecognizer(kb.gazetteer)
    questions = set(corpus.questions())
    reached = {pair.answer for pair in corpus if ner.find_mentions(original(pair.question))}

    tokenized: Counter[str] = Counter()

    def counting_tokenize(text):
        tokenized[text] += 1
        return original(text)

    for name, module in list(sys.modules.items()):
        if name.startswith("repro.") and getattr(module, "tokenize", None) is original:
            monkeypatch.setattr(module, "tokenize", counting_tokenize)
    monkeypatch.setattr("repro.core.learner.EntityRecognizer", CountingRecognizer)
    monkeypatch.setattr(CountingRecognizer, "calls", Counter())
    # the gazetteer's names and the literals are tokenized to build the
    # recognizer and the value index, not read from the corpus
    EntityRecognizer(kb.gazetteer)
    ValueIndex(kb.store)
    built = tokenized.copy()
    tokenized.clear()

    with KBQA.train(kb, corpus, suite.conceptualizer) as system:
        assert type(system.learn_result.ner) is CountingRecognizer
    assert tokenized == built + Counter(questions) + Counter(reached)
    assert CountingRecognizer.calls == {"spans": len(questions)}
    return len(questions), len(reached)


def test_train_tokenizes_and_scans_each_question_once(suite, monkeypatch):
    n_questions, n_answers = assert_train_reads_each_distinct_string_once(suite, monkeypatch)
    assert n_questions < len(suite.corpus) and n_answers < len(suite.corpus)


@pytest.mark.perf
def test_default_scale_train_tokenizes_and_scans_each_question_once(monkeypatch):
    """30 000 pairs, 8 912 of them repeating an earlier question."""
    big = build_suite("default", seed=7)
    assert len(big.corpus) == 30_000
    assert assert_train_reads_each_distinct_string_once(big, monkeypatch) == (21_088, 11_669)


def assert_train_conceptualizes_once_per_row_and_context(suite, monkeypatch) -> int:
    """``P(c|e,q)`` depends on the entity only through its prior row, so a
    train runs the posterior once per distinct (prior row, context), never
    once per record or per entity.  Returns the number of posteriors."""
    calls: Counter = Counter()
    posterior = Conceptualizer.posterior

    def counting(prior, scores):
        calls[prior, id(scores)] += 1  # a context's scores live through the pass
        return posterior(prior, scores)

    monkeypatch.setattr(Conceptualizer, "posterior", staticmethod(counting))
    with KBQA.train(suite.freebase, suite.corpus, suite.conceptualizer):
        pass
    assert calls and max(calls.values()) == 1
    return sum(calls.values())


def test_train_conceptualizes_once_per_prior_row_and_context(suite, monkeypatch):
    assert assert_train_conceptualizes_once_per_row_and_context(suite, monkeypatch) == 342


@pytest.mark.perf
def test_default_scale_train_conceptualizes_once_per_prior_row_and_context(monkeypatch):
    """349 posteriors for 30 000 pairs; keyed on (entity, context) it took 20 398."""
    big = build_suite("default", seed=7)
    assert assert_train_conceptualizes_once_per_row_and_context(big, monkeypatch) == 349


def test_repeated_interleaved_corpus_matches_the_oracle(suite):
    """Every pair twice, the copies interleaved: the distinct-string pass must
    weigh each occurrence, not only drop the repeats.  Sec 5.2 indexes the
    first 5/8 of the doubled corpus, where some questions occur twice and
    others once."""
    pairs = suite.corpus.pairs
    doubled = replace(suite, corpus=QACorpus(p for two in zip(pairs, reversed(pairs)) for p in two))
    config = KBQAConfig(pattern_max_questions=len(pairs) * 5 // 4)
    with KBQA.train(doubled.freebase, doubled.corpus, doubled.conceptualizer, config) as system:
        assert_offline_equals_oracle(doubled, system, config)


# -- fv-first statistics over hostile little corpora ------------------------------

# "$e" is a token the tokenizer accepts, so a question (or a name) may contain
# the entity variable itself: two spans of one question can then yield one
# pattern, and one pattern has more than one prefix/suffix reading.
_WORDS = st.sampled_from(["a", "b", "c", "who", "'s", "?", "$e"])
_PHRASES = st.lists(_WORDS, min_size=0, max_size=7).map(" ".join)
_NAMES = st.lists(_WORDS, min_size=1, max_size=3).map(" ".join)


@settings(max_examples=300, deadline=None)
@given(
    names=st.lists(_NAMES, min_size=0, max_size=5),
    questions=st.lists(_PHRASES, min_size=0, max_size=8),
    max_questions=st.one_of(st.none(), st.integers(min_value=0, max_value=9)),
    max_tokens=st.integers(min_value=1, max_value=7),
)
# "$e $e" is validated through its second slot and matched by "b $e" through its first
@example(names=["a"], questions=["$e a", "b $e"], max_questions=None, max_tokens=7)
# both spans of "$e $e b" yield the same pattern: fo counts the question once
@example(names=["$e"], questions=["$e $e b", "a $e b"], max_questions=None, max_tokens=7)
def test_fv_first_statistics_equal_exhaustive_enumeration(
    names, questions, max_questions, max_tokens
):
    """Overlapping names, a name spanning the whole question, questions longer
    than ``max_tokens``, empty questions, ``max_questions`` cutting mid-corpus."""
    ner = EntityRecognizer({name: [f"m.{index}"] for index, name in enumerate(names)})
    product = PatternStatistics.from_corpus(questions, ner, max_questions, max_tokens)
    oracle = reference_pattern_statistics(questions, ner, max_questions, max_tokens)
    assert_statistics_equal_oracle(product, oracle)


# -- the leftmost-longest mentions derived from every span ------------------------


@settings(max_examples=300, deadline=None)
@given(names=st.lists(_NAMES, min_size=0, max_size=5), words=st.lists(_WORDS, max_size=12))
@example(names=["a b", "b c", "b", "a b c"], words=["a", "b", "c", "b", "c"])
def test_leftmost_longest_of_spans_equals_find_mentions(names, words):
    """Overlapping names, names nested in longer ones and names holding "$e"."""
    ner = EntityRecognizer({name: [f"m.{index}"] for index, name in enumerate(names)})
    tokens = tuple(tokenizer.tokenize(" ".join(words)))
    mentions = ner.find_mentions(tokens)
    assert leftmost_longest(ner.spans(tokens)) == tuple(
        (m.start, m.end, m.candidates) for m in mentions
    )
