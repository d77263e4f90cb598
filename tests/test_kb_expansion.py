"""Tests for the scan-based predicate expansion (Sec 6.2)."""

import pytest

from oracles.expansion_reference import record
from repro.kb.expansion import ExpandedStore, expand_predicates
from repro.kb.paths import PredicatePath, follow
from repro.kb.store import TripleStore
from repro.kb.triple import make_literal


@pytest.fixture
def cvt_kb() -> TripleStore:
    kb = TripleStore()
    # Two married couples, one seed each direction.
    kb.add("a", "name", make_literal("alice"))
    kb.add("a", "marriage", "cvt1")
    kb.add("cvt1", "person", "b")
    kb.add("cvt1", "date", make_literal("1990"))
    kb.add("b", "name", make_literal("bob"))
    kb.add("b", "dob", make_literal("1960"))
    kb.add("a", "pob", "city")
    kb.add("city", "name", make_literal("springfield"))
    kb.add("city", "mayor", "m")
    kb.add("m", "name", make_literal("mel"))
    return kb


class TestExpandPredicates:
    def test_length_one_paths_always_recorded(self, cvt_kb):
        expanded = expand_predicates(cvt_kb, ["a"], max_length=1)
        assert expanded.objects("a", PredicatePath.single("pob")) == {"city"}

    def test_cvt_path_found_at_length_three(self, cvt_kb):
        expanded = expand_predicates(cvt_kb, ["a"], max_length=3)
        path = PredicatePath(("marriage", "person", "name"))
        assert expanded.objects("a", path) == {make_literal("bob")}

    def test_non_name_tails_not_recorded(self, cvt_kb):
        expanded = expand_predicates(cvt_kb, ["a"], max_length=3)
        assert PredicatePath(("marriage", "person", "dob")) not in expanded.distinct_paths()
        # ...but name-tailed length-2 via pob is recorded.
        assert PredicatePath(("pob", "name")) in expanded.distinct_paths()

    def test_traversal_continues_through_unrecorded_paths(self, cvt_kb):
        """marriage -> person is discarded, but marriage -> person -> name
        must still be reachable through it."""
        expanded = expand_predicates(cvt_kb, ["a"], max_length=3)
        assert PredicatePath(("marriage", "person")) not in expanded.distinct_paths()
        assert PredicatePath(("marriage", "person", "name")) in expanded.distinct_paths()

    def test_only_seeds_expanded(self, cvt_kb):
        expanded = expand_predicates(cvt_kb, ["a"], max_length=3)
        assert {s for s, _p, _o in expanded.triples()} <= {"a"}
        assert expanded.objects("city", PredicatePath(("mayor", "name"))) == set()

    def test_seeds_missing_from_store_ignored(self, cvt_kb):
        expanded = expand_predicates(cvt_kb, ["ghost"], max_length=3)
        assert len(expanded) == 0

    def test_max_length_zero_rejected(self, cvt_kb):
        with pytest.raises(ValueError):
            expand_predicates(cvt_kb, ["a"], max_length=0)

    def test_paths_between_inverse_of_objects(self, cvt_kb):
        expanded = expand_predicates(cvt_kb, ["a"], max_length=3)
        for subject, path, obj in expanded.triples():
            assert path in expanded.paths_between(subject, obj)
            assert obj in expanded.objects(subject, path)

    def test_agrees_with_follow(self, cvt_kb):
        """Materialized expansion must equal on-the-fly traversal."""
        expanded = expand_predicates(cvt_kb, ["a", "city"], max_length=3)
        for subject, path, obj in expanded.triples():
            assert obj in follow(cvt_kb, subject, path)

    def test_custom_tail_whitelist(self, cvt_kb):
        expanded = expand_predicates(
            cvt_kb, ["a"], max_length=3, tail_predicates=frozenset({"dob"})
        )
        assert PredicatePath(("marriage", "person", "dob")) in expanded.distinct_paths()
        assert PredicatePath(("marriage", "person", "name")) not in expanded.distinct_paths()


class TestExpandedStore:
    def test_record_deduplicates(self):
        store = ExpandedStore(max_length=3)
        path = PredicatePath.single("p")
        record(store, "s", path, "o")
        record(store, "s", path, "o")
        assert len(store) == 1

    def test_stats_split_direct_and_expanded(self):
        store = ExpandedStore(max_length=3)
        record(store, "s", PredicatePath.single("p"), "o")
        record(store, "s", PredicatePath(("p", "name")), "o2")
        stats = store.stats()
        assert stats["direct_paths"] == 1
        assert stats["expanded_paths"] == 1
        assert stats["spo_triples"] == 2


class TestExpansionOnCompiledKB:
    def test_spouse_reachable_on_freebase_like(self, suite):
        from tests.conftest import pick_entity

        person = pick_entity(suite.world, "person", "spouse")
        expanded = expand_predicates(suite.freebase.store, [person.node], max_length=3)
        path = PredicatePath(("marriage", "person", "name"))
        spouse_names = {make_literal(n) for n in suite.world.gold_values(person.node, "spouse")}
        assert expanded.objects(person.node, path) == spouse_names

    def test_expansion_counts_scale_with_seeds(self, suite):
        store = suite.freebase.store
        people = [e.node for e in suite.world.of_type("person")[:20]]
        small = expand_predicates(store, people[:5], max_length=3)
        large = expand_predicates(store, people, max_length=3)
        assert len(large) > len(small)
