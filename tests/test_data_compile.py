"""Tests for compiling the world into Freebase-like / DBpedia-like stores."""


from repro.data.world import LITERAL, SCHEMA_BY_INTENT
from repro.kb.paths import PredicatePath, follow
from repro.kb.triple import make_literal
from repro.nlp.question_class import AnswerType

from tests.conftest import pick_entity


class TestFreebaseCompile:
    def test_every_entity_has_name_edge(self, suite):
        store = suite.freebase.store
        for node, entity in list(suite.world.entities.items())[:200]:
            assert store.objects(node, "name") == {make_literal(entity.name)}

    def test_literal_facts_direct(self, suite):
        person = pick_entity(suite.world, "person", "dob")
        dob = person.get_fact("dob")[0]
        assert suite.freebase.store.has(person.node, "dob", make_literal(dob))

    def test_spouse_goes_through_cvt(self, suite):
        person = pick_entity(suite.world, "person", "spouse")
        store = suite.freebase.store
        # no direct spouse edge
        assert not store.objects(person.node, "spouse")
        # but the CVT path reaches the spouse's name
        path = PredicatePath(("marriage", "person", "name"))
        expected = {make_literal(n) for n in suite.world.gold_values(person.node, "spouse")}
        assert follow(store, person.node, path) == expected

    def test_cvt_nodes_have_decorations(self, suite):
        person = pick_entity(suite.world, "person", "spouse")
        store = suite.freebase.store
        cvts = store.objects(person.node, "marriage")
        assert cvts
        cvt = next(iter(cvts))
        assert store.objects(cvt, "date"), "marriage CVT should carry a date"

    def test_every_intent_path_resolves_for_some_entity(self, suite):
        """Each schema path must actually reach gold values in the store."""
        store = suite.freebase.store
        for schema in SCHEMA_BY_INTENT.values():
            path = suite.freebase.expected_path(schema.intent)
            resolved = False
            for etype in schema.domain_types:
                for entity in suite.world.of_type(etype):
                    if not entity.get_fact(schema.intent):
                        continue
                    expected = {
                        make_literal(v)
                        for v in suite.world.gold_values(entity.node, schema.intent)
                    }
                    if follow(store, entity.node, path) >= expected:
                        resolved = True
                        break
                if resolved:
                    break
            assert resolved, f"{schema.intent} unreachable via {path}"

    def test_category_edges_present(self, suite):
        person = suite.world.of_type("person")[0]
        categories = suite.freebase.store.objects(person.node, "category")
        assert "$person" in categories

    def test_alias_on_subset_of_persons(self, suite):
        store = suite.freebase.store
        with_alias = [
            p for p in suite.world.of_type("person")
            if store.objects(p.node, "alias")
        ]
        assert 0 < len(with_alias) < len(suite.world.of_type("person"))


class TestDBpediaCompile:
    def test_no_cvt_nodes(self, suite):
        assert all(
            not subject.startswith("cvt.")
            for subject, _p, _o in suite.dbpedia.store.triples()
        )

    def test_spouse_direct_edge(self, suite):
        person = pick_entity(suite.world, "person", "spouse")
        spouse_node = person.get_fact("spouse")[0]
        assert suite.dbpedia.store.has(person.node, "spouse", spouse_node)

    def test_dbp_predicate_names(self, suite):
        person = pick_entity(suite.world, "person", "dob")
        dob = person.get_fact("dob")[0]
        assert suite.dbpedia.store.has(person.node, "birthDate", make_literal(dob))
        assert not suite.dbpedia.store.objects(person.node, "dob")

    def test_smaller_than_freebase(self, suite):
        # CVT mediators and alias edges make the Freebase-like store bigger.
        assert len(suite.dbpedia.store) < len(suite.freebase.store)


class TestCompiledKBSchema:
    def test_intent_path_bijection(self, suite):
        for kb in (suite.freebase, suite.dbpedia):
            for intent, path in kb.path_for_intent.items():
                assert kb.intent_for_path[str(path)] == intent

    def test_answer_type_for_known_path(self, suite):
        path = suite.freebase.expected_path("dob")
        assert suite.freebase.answer_type_for_path(path) == AnswerType.DATE

    def test_answer_type_for_unknown_path(self, suite):
        weird = PredicatePath(("marriage", "person", "dob"))
        assert suite.freebase.answer_type_for_path(weird) == AnswerType.UNKNOWN

    def test_intent_of(self, suite):
        path = suite.freebase.expected_path("spouse")
        assert suite.freebase.intent_of(path) == "spouse"
        assert suite.freebase.intent_of(PredicatePath(("x",))) is None

    def test_related_intents(self, suite):
        assert "residence" in suite.freebase.related_intents("pob")

    def test_gazetteer_covers_world(self, suite):
        for name, nodes in list(suite.world.by_name.items())[:100]:
            assert suite.freebase.gazetteer[name] == nodes

    def test_value_kinds_consistent(self, suite):
        """ENTITY intents point at resource nodes, LITERAL at literals."""
        store = suite.freebase.store
        for schema in list(SCHEMA_BY_INTENT.values()):
            head = schema.fb_path[0]
            for etype in schema.domain_types:
                entity = next(
                    (e for e in suite.world.of_type(etype) if e.get_fact(schema.intent)),
                    None,
                )
                if entity is None:
                    continue
                objects = store.objects(entity.node, head)
                assert objects
                first = next(iter(objects))
                if schema.value_kind == LITERAL:
                    assert first.startswith('"')
                else:
                    assert not first.startswith('"')
                break
