"""Tests for gazetteer NER and entity linking."""

import pytest

from repro.nlp.ner import EntityRecognizer
from repro.nlp.tokenizer import tokenize

from tests.conftest import ambiguous_names


@pytest.fixture
def ner() -> EntityRecognizer:
    return EntityRecognizer({
        "barack obama": ["m.obama"],
        "obama": ["m.obama"],
        "michelle obama": ["m.michelle"],
        "honolulu": ["m.honolulu"],
        "apple": ["m.apple_co", "m.apple_fruit"],
        "new york": ["m.nyc"],
        "york": ["m.york"],
    })


class TestFindMentions:
    def test_longest_match_wins(self, ner):
        mentions = ner.find_mentions(tokenize("when was barack obama born?"))
        assert [m.surface for m in mentions] == ["barack obama"]

    def test_multiple_mentions(self, ner):
        mentions = ner.find_mentions(tokenize("is barack obama from honolulu?"))
        assert [m.surface for m in mentions] == ["barack obama", "honolulu"]

    def test_ambiguous_mention_links_all_candidates(self, ner):
        mentions = ner.find_mentions(tokenize("where is the headquarter of apple?"))
        assert len(mentions) == 1
        assert set(mentions[0].candidates) == {"m.apple_co", "m.apple_fruit"}

    def test_no_mentions(self, ner):
        assert ner.find_mentions(tokenize("what should i eat?")) == []

    def test_mention_spans_correct(self, ner):
        tokens = tokenize("when was barack obama born?")
        mention = ner.find_mentions(tokens)[0]
        assert tokens[mention.start : mention.end] == ["barack", "obama"]
        assert mention.length == 2

    def test_substring_name_not_matched_inside_longer(self, ner):
        # "new york" must win over "york".
        mentions = ner.find_mentions(tokenize("how big is new york?"))
        assert [m.surface for m in mentions] == ["new york"]

    def test_adjacent_mentions_not_merged(self, ner):
        mentions = ner.find_mentions(tokenize("obama honolulu"))
        assert [m.surface for m in mentions] == ["obama", "honolulu"]


class TestSpans:
    def test_includes_overlapping(self, ner):
        spans = ner.spans(tokenize("new york"))
        assert spans == [(0, 2, ("m.nyc",)), (1, 2, ("m.york",))]

    def test_all_spans_superset_of_mentions(self, ner):
        tokens = tokenize("is barack obama from honolulu?")
        greedy = {(m.start, m.end) for m in ner.find_mentions(tokens)}
        every = {(start, end) for start, end, _candidates in ner.spans(tokens)}
        assert greedy <= every


class TestLookup:
    def test_exact_name(self, ner):
        assert ner.lookup("barack obama") == ("m.obama",)

    def test_case_insensitive(self, ner):
        assert ner.lookup("Barack Obama") == ("m.obama",)

    def test_missing(self, ner):
        assert ner.lookup("nobody") == ()


class TestAgainstCompiledKB:
    def test_every_world_entity_findable(self, suite):
        ner = EntityRecognizer(suite.freebase.gazetteer)
        for entity in list(suite.world.entities.values())[:100]:
            tokens = tokenize(f"tell me about {entity.name} please")
            mentions = ner.find_mentions(tokens)
            assert any(entity.node in m.candidates for m in mentions), entity.name

    def test_ambiguous_world_names_link_multiple_types(self, suite):
        ner = EntityRecognizer(suite.freebase.gazetteer)
        ambiguous = ambiguous_names(suite.world)
        assert ambiguous, "the world must contain designed ambiguity"
        name, nodes = next(iter(ambiguous.items()))
        assert set(ner.lookup(name)) == set(nodes)
