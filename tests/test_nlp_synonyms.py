"""Tests for the synonym lexicon and Jaccard similarity."""

import pytest

from benchmarks.baselines.lexicon import SynonymLexicon, jaccard


class TestSynonymLexicon:
    def test_add_and_lookup(self):
        lex = SynonymLexicon()
        lex.add("population", "number of people", 0.9)
        assert lex.predicates_for_phrase(("number", "of", "people")) == {"population": 0.9}

    def test_lookup_missing_phrase(self):
        assert SynonymLexicon().predicates_for_phrase(("x",)) == {}

    def test_score_bounds_enforced(self):
        lex = SynonymLexicon()
        with pytest.raises(ValueError):
            lex.add("p", "phrase", 0.0)
        with pytest.raises(ValueError):
            lex.add("p", "phrase", 1.5)

    def test_empty_phrase_rejected(self):
        with pytest.raises(ValueError):
            SynonymLexicon().add("p", "   ")

    def test_repeated_add_keeps_max_score(self):
        lex = SynonymLexicon()
        lex.add("p", "word", 0.5)
        lex.add("p", "word", 0.8)
        lex.add("p", "word", 0.3)
        assert lex.predicates_for_phrase(("word",)) == {"p": 0.8}

    def test_phrase_shared_by_predicates(self):
        lex = SynonymLexicon()
        lex.add("height", "tall", 0.8)
        lex.add("elevation", "tall", 0.4)
        assert lex.predicates_for_phrase(("tall",)) == {"height": 0.8, "elevation": 0.4}

    def test_phrases_for_predicate(self):
        lex = SynonymLexicon()
        lex.add_many("population", ["population", "number of people"])
        assert lex.phrases_for_predicate("population") == {
            ("population",), ("number", "of", "people"),
        }

    def test_max_phrase_length(self):
        lex = SynonymLexicon()
        assert lex.max_phrase_length() == 0
        lex.add("p", "a b c")
        assert lex.max_phrase_length() == 3

    def test_len_counts_associations(self):
        lex = SynonymLexicon()
        lex.add("p1", "word")
        lex.add("p2", "word")
        assert len(lex) == 2


class TestJaccard:
    def test_identical(self):
        assert jaccard(["a", "b"], ["a", "b"]) == 1.0

    def test_disjoint(self):
        assert jaccard(["a"], ["b"]) == 0.0

    def test_partial_overlap(self):
        # {how, many, people} vs {number, of, people}: 1 / 5
        assert jaccard(["how", "many", "people"], ["number", "of", "people"]) == pytest.approx(0.2)

    def test_empty_inputs(self):
        assert jaccard([], []) == 0.0

    def test_duplicates_ignored(self):
        assert jaccard(["a", "a"], ["a"]) == 1.0
