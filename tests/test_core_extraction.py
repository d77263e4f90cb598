"""Tests for entity-value extraction (Sec 4.1) and the value index."""

import gc

import pytest

from repro.core.extraction import (
    ExtractionConfig,
    ValueIndex,
    extract_observations,
    scan_questions,
)
from repro.core.kbview import KBView
from repro.kb.expansion import expand_predicates
from repro.kb.paths import PredicatePath
from repro.kb.store import TripleStore
from repro.kb.triple import make_literal
from repro.nlp.ner import EntityRecognizer
from repro.nlp.question_class import AnswerType
from repro.nlp.tokenizer import tokenize


@pytest.fixture
def figure1_setup():
    """Figure 1 KB + NER + value index, the paper's running example."""
    kb = TripleStore()
    kb.add("a", "name", make_literal("barack obama"))
    kb.add("a", "dob", make_literal("1961"))
    kb.add("a", "profession", "prof")
    kb.add("prof", "name", make_literal("politician"))
    kb.add("a", "marriage", "cvt")
    kb.add("cvt", "person", "c")
    kb.add("c", "name", make_literal("michelle obama"))
    kb.add("c", "dob", make_literal("1964"))
    kb.add("d", "name", make_literal("honolulu"))
    kb.add("d", "population", make_literal("390000"))
    expanded = expand_predicates(kb, ["a", "c", "d"], max_length=3)
    view = KBView(kb, expanded)
    ner = EntityRecognizer({
        "barack obama": ["a"], "michelle obama": ["c"], "honolulu": ["d"],
    })
    index = ValueIndex(kb)

    def answer_type_of(path):
        known = {
            "dob": AnswerType.DATE,
            "population": AnswerType.NUMERIC,
            "marriage->person->name": AnswerType.HUMAN,
            "profession->name": AnswerType.ENTITY,
        }
        return known.get(str(path), AnswerType.UNKNOWN)

    return kb, view, ner, index, answer_type_of


class TestValueIndex:
    def test_finds_literal_span(self, figure1_setup):
        _kb, _view, _ner, index, _at = figure1_setup
        values = index.find_values(tokenize("he was born in 1961."))
        assert make_literal("1961") in values

    def test_finds_multi_token_name(self, figure1_setup):
        _kb, _view, _ner, index, _at = figure1_setup
        values = index.find_values(tokenize("his wife is michelle obama."))
        assert make_literal("michelle obama") in values

    def test_deduplicates(self, figure1_setup):
        _kb, _view, _ner, index, _at = figure1_setup
        values = index.find_values(tokenize("1961 and 1961 again"))
        assert values.count(make_literal("1961")) == 1

    def test_spans_carry_positions(self, figure1_setup):
        _kb, _view, _ner, index, _at = figure1_setup
        spans = index.find_value_spans(tokenize("born in 1961 in honolulu"))
        positions = {(s, e) for s, e, _t in spans}
        assert (2, 3) in positions
        assert (4, 5) in positions

    def test_no_match(self, figure1_setup):
        _kb, _view, _ner, index, _at = figure1_setup
        assert index.find_values(tokenize("nothing to see here")) == []


class TestExtraction:
    def run(self, setup, pairs, use_refinement=True):
        _kb, view, ner, index, answer_type_of = setup
        return extract_observations(
            pairs, view, ner, index, answer_type_of,
            ExtractionConfig(use_refinement=use_refinement),
        )

    def test_basic_extraction(self, figure1_setup):
        observations, stats = self.run(figure1_setup, [
            ("when was barack obama born?", "the politician was born in 1961."),
        ])
        assert stats.qa_pairs == 1
        values = {o.value for o in observations}
        assert make_literal("1961") in values

    def test_example2_refinement_filters_profession(self, figure1_setup):
        """Example 2: (obama, politician) must be filtered for a birthday
        question, (obama, 1961) must survive."""
        observations, stats = self.run(figure1_setup, [
            ("when was barack obama born?", "the politician was born in 1961."),
        ])
        values = {o.value for o in observations}
        assert make_literal("politician") not in values
        assert stats.refinement_rejections >= 1

    def test_without_refinement_profession_survives(self, figure1_setup):
        observations, _stats = self.run(figure1_setup, [
            ("when was barack obama born?", "the politician was born in 1961."),
        ], use_refinement=False)
        values = {o.value for o in observations}
        assert make_literal("politician") in values

    def test_unconnected_value_dropped(self, figure1_setup):
        """Eq 8: a value with no KB connection to the entity is not a pair."""
        observations, _stats = self.run(figure1_setup, [
            ("when was barack obama born?", "in 390000."),  # honolulu's population
        ])
        assert observations == []

    def test_spouse_through_expanded_predicate(self, figure1_setup):
        observations, _stats = self.run(figure1_setup, [
            ("who is the wife of barack obama?", "michelle obama."),
        ])
        assert len(observations) == 1
        assert PredicatePath(("marriage", "person", "name")) in observations[0].paths

    def test_entity_weight_uniform_over_entities(self, figure1_setup):
        """Eq 4: P(e|q) uniform over entities appearing in EV pairs."""
        observations, _stats = self.run(figure1_setup, [
            ("did barack obama meet michelle obama in 1961?", "yes, in 1961."),
        ])
        assert observations
        # both entities connect to 1961 via dob... barack via dob(1961);
        # michelle's dob is 1964 so only barack survives -> weight 1.0
        entities = {o.entity for o in observations}
        for o in observations:
            assert o.entity_weight == pytest.approx(1.0 / len(entities))

    def test_no_mention_no_observation(self, figure1_setup):
        observations, stats = self.run(figure1_setup, [
            ("what should i eat tonight?", "pizza, born in 1961."),
        ])
        assert observations == []
        assert stats.pairs_with_mentions == 0

    def test_value_cap_respected(self, figure1_setup):
        _kb, view, ner, index, answer_type_of = figure1_setup
        long_answer = " ".join(["1961", "1964", "390000"] * 5)
        _obs, stats = extract_observations(
            [("when was barack obama born?", long_answer)],
            view, ner, index, answer_type_of,
            ExtractionConfig(max_values_per_answer=2),
        )
        # only the first two distinct values considered
        assert stats.candidate_ev <= 2

    def test_corpus_level_yield(self, suite, kbqa_fb):
        """On the full small corpus, most factoid pairs must yield
        observations (the signal EM learns from)."""
        stats = kbqa_fb.learn_result.extraction
        factoid = sum(1 for p in suite.corpus if p.meta.get("kind") == "factoid")
        assert stats.refined_ev > 0.5 * factoid


def test_a_corpus_scan_leaves_few_collector_tracked_objects(suite, kbqa_fb):
    """After a generation-1 collection at most a quarter of a scan's distinct
    questions may still be tracked by the cyclic GC (425 of 2 812 on the small
    suite).  Rows held as ``(tokens, mentions, spans)`` tuples left 3 140: a
    tuple is untracked only once its items are, and a row over tuples of
    ``Span`` tuples stayed tracked until a full collection, so every train
    promoted its rows into generation 2."""
    gc.collect()
    scan = scan_questions(suite.corpus.questions(), kbqa_fb.learn_result.ner)
    gc.collect(1)
    tracked, seen, stack = 0, set(), list(scan)
    while stack:
        obj = stack.pop()
        if id(obj) in seen or not isinstance(obj, (tuple, list)):
            continue
        seen.add(id(obj))
        tracked += gc.is_tracked(obj)
        stack.extend(obj)
    assert len(scan.tokens) == 2812
    assert tracked <= len(scan.tokens) // 4


def test_a_corpus_scan_holds_one_string_per_distinct_token(suite, kbqa_fb):
    """Every occurrence of a token is one string object (at default scale
    152 066 tokens of 926 distinct ones took 13.3 MB as one string each),
    and a question whose spans are all leftmost-longest keeps one tuple for
    both columns."""
    scan = scan_questions(suite.corpus.questions(), kbqa_fb.learn_result.ner)
    tokens = [token for row in scan.tokens for token in row]
    assert len(tokens) > 10 * len(set(tokens))
    assert len({id(token) for token in tokens}) == len(set(tokens))
    whole = [(m, s) for m, s in zip(scan.mentions, scan.spans) if m and m == s]
    assert len(whole) > len(scan.spans) // 2
    assert all(mentions is spans for mentions, spans in whole)
