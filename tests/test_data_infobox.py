"""Tests for the synthetic Infobox and the conceptnet builders."""

import pytest

from repro.data.conceptnet import build_conceptualizer, build_taxonomy, concepts_for_type
from repro.data.infobox import INFOBOX_EXCLUDED_INTENTS, Infobox, build_infobox

from tests.conftest import best_concept, pick_entity


class TestInfobox:
    def test_literal_fact_present(self, suite):
        person = pick_entity(suite.world, "person", "dob")
        infobox = suite.infobox
        assert infobox.has_fact(person.node, person.get_fact("dob")[0])

    def test_entity_fact_rendered_as_name(self, suite):
        person = pick_entity(suite.world, "person", "spouse")
        spouse_name = next(iter(suite.world.gold_values(person.node, "spouse")))
        assert suite.infobox.has_fact(person.node, spouse_name)

    def test_absent_fact(self, suite):
        person = suite.world.of_type("person")[0]
        assert not suite.infobox.has_fact(person.node, "definitely-not-a-value")

    def test_excluded_intents_not_present(self, suite):
        assert "songs" in INFOBOX_EXCLUDED_INTENTS
        band = pick_entity(suite.world, "band", "songs")
        for song_name in suite.world.gold_values(band.node, "songs"):
            assert not suite.infobox.has_fact(band.node, song_name)

    def test_attributes_carry_labels(self, suite):
        person = pick_entity(suite.world, "person", "dob")
        labels = {label for label, _v in suite.infobox.attributes(person.node)}
        assert "date of birth" in labels

    def test_len_counts_entries(self):
        box = Infobox()
        box.add("e", "l", "v")
        box.add("e", "l2", "v2")
        assert len(box) == 2

    def test_build_matches_world_fact_count(self, suite):
        rebuilt = build_infobox(suite.world)
        expected = sum(
            len(values)
            for entity in suite.world.entities.values()
            for intent, values in entity.facts.items()
            if intent not in INFOBOX_EXCLUDED_INTENTS
        )
        assert len(rebuilt) <= expected  # duplicates collapse in the set
        assert len(rebuilt) > 0


class TestConceptnetBuilders:
    def test_taxonomy_covers_all_entities(self, suite):
        taxonomy = build_taxonomy(suite.world)
        assert taxonomy.stats()["entities"] == len(suite.world.entities)

    def test_taxonomy_weights_from_world(self, suite):
        city = suite.world.of_type("city")[0]
        prior = build_taxonomy(suite.world).prior(city.node)
        assert prior["$city"] == pytest.approx(0.7)

    def test_concepts_for_type(self):
        assert "$city" in concepts_for_type("city")
        person_concepts = concepts_for_type("person")
        assert "$person" in person_concepts
        assert "$politician" in person_concepts

    def test_conceptualizer_without_extra_contexts(self, suite):
        c = build_conceptualizer(suite.world)
        city = suite.world.of_type("city")[0]
        assert best_concept(c, city.node) == "$city"

    def test_extra_contexts_sharpen(self, suite):
        c = build_conceptualizer(
            suite.world, extra_contexts={"$city": ["how many people are there in"]}
        )
        city = suite.world.of_type("city")[0]
        posterior = c.conceptualize(city.node, "how many people are there in ?".split())
        assert posterior["$city"] > 0.7
