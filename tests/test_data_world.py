"""Tests for the synthetic world generator."""

import pytest

from repro.data.world import (
    ENTITY,
    INTENT_CATALOG,
    LITERAL,
    SCHEMA_BY_INTENT,
    WorldConfig,
    WorldEntity,
    build_world,
)

from tests.conftest import ambiguous_names


class TestIntentCatalog:
    def test_intents_unique(self):
        intents = [s.intent for s in INTENT_CATALOG]
        assert len(intents) == len(set(intents))

    def test_fb_paths_unique(self):
        paths = ["->".join(s.fb_path) for s in INTENT_CATALOG]
        assert len(paths) == len(set(paths))

    def test_dbp_paths_unique(self):
        paths = ["->".join(s.dbp_path) for s in INTENT_CATALOG]
        assert len(paths) == len(set(paths))

    def test_related_intents_exist(self):
        for schema in INTENT_CATALOG:
            for related in schema.related:
                assert related in SCHEMA_BY_INTENT

    def test_cvt_detection(self):
        assert SCHEMA_BY_INTENT["spouse"].is_cvt
        assert not SCHEMA_BY_INTENT["dob"].is_cvt

    def test_literal_paths_are_single_edge(self):
        for schema in INTENT_CATALOG:
            if schema.value_kind == LITERAL:
                assert len(schema.fb_path) == 1
                assert len(schema.dbp_path) == 1

    def test_entity_paths_end_in_naming_edge(self):
        for schema in INTENT_CATALOG:
            if schema.value_kind == ENTITY:
                assert schema.fb_path[-1] in ("name", "alias")
                assert schema.dbp_path[-1] == "name"

    def test_most_intents_are_complex_in_freebase(self):
        """The paper: over 98% of KBA intents map to complex structures; in
        our Freebase-like KB a clear majority must be multi-edge."""
        complex_count = sum(1 for s in INTENT_CATALOG if len(s.fb_path) > 1)
        assert complex_count / len(INTENT_CATALOG) > 0.45


class TestWorldBuild:
    def test_deterministic(self):
        a = build_world(WorldConfig.small(seed=3))
        b = build_world(WorldConfig.small(seed=3))
        assert a.stats() == b.stats()
        assert list(a.entities) == list(b.entities)
        for node in list(a.entities)[:50]:
            assert a.entity(node).facts == b.entity(node).facts

    def test_seed_changes_world(self):
        a = build_world(WorldConfig.small(seed=3))
        b = build_world(WorldConfig.small(seed=4))
        facts_a = {(n, i, v) for n, i, v in a.iter_facts()}
        facts_b = {(n, i, v) for n, i, v in b.iter_facts()}
        assert facts_a != facts_b

    def test_entity_counts_match_config(self, world):
        config = world.config
        assert len(world.of_type("city")) == config.n_cities
        assert len(world.of_type("person")) == config.n_people
        assert len(world.of_type("country")) == config.n_countries

    def test_facts_reference_known_intents(self, world):
        for node, intent, _value in world.iter_facts():
            assert intent in SCHEMA_BY_INTENT

    def test_entity_facts_point_at_entities(self, world):
        for node, intent, value in world.iter_facts():
            if SCHEMA_BY_INTENT[intent].value_kind == ENTITY:
                assert value in world.entities, (node, intent, value)

    def test_spouse_symmetric(self, world):
        for person in world.of_type("person"):
            spouse = person.get_fact("spouse")
            if spouse:
                assert world.entity(spouse[0]).get_fact("spouse") == (person.node,)

    def test_capitals_exist_and_are_cities(self, world):
        for country in world.of_type("country"):
            capital = country.get_fact("capital")
            assert capital
            assert world.entity(capital[0]).etype == "city"

    def test_every_person_has_dob(self, world):
        assert all(p.get_fact("dob") for p in world.of_type("person"))

    def test_kb_incompleteness_designed_in(self, world):
        """Some persons must lack optional facts (drives recall < 1)."""
        people = world.of_type("person")
        assert any(not p.get_fact("spouse") for p in people)
        assert any(not p.get_fact("height") for p in people)

    def test_ambiguous_names_exist(self, world):
        ambiguous = ambiguous_names(world)
        types_covered = set()
        for _name, nodes in ambiguous.items():
            types_covered |= {world.entity(n).etype for n in nodes}
        assert "company" in types_covered and "food" in types_covered

    def test_gold_values_literal(self, world):
        person = world.of_type("person")[0]
        assert world.gold_values(person.node, "dob") == set(person.get_fact("dob"))

    def test_gold_values_entity_resolves_names(self, world):
        country = world.of_type("country")[0]
        capital_node = country.get_fact("capital")[0]
        assert world.gold_values(country.node, "capital") == {world.name_of(capital_node)}

    def test_musicians_have_instruments(self, world):
        bands = world.of_type("band")
        assert bands
        for band in bands[:5]:
            for member in band.get_fact("members"):
                assert world.entity(member).get_fact("instrument")

    def test_duplicate_node_rejected(self, world):
        with pytest.raises(ValueError):
            world.register(WorldEntity(
                node=next(iter(world.entities)), name="dup", etype="city",
                concepts=(("$city", 1.0),),
            ))

    def test_unknown_intent_rejected(self):
        entity = WorldEntity(node="x", name="x", etype="city", concepts=(("$city", 1.0),))
        with pytest.raises(KeyError):
            entity.set_fact("nonexistent_intent", "v")
