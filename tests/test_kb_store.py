"""Tests for the triple store and its two index orderings."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.kb.store import TripleStore
from repro.kb.triple import Triple, is_literal, literal_value, make_literal

LIT_1961 = make_literal("1961")
LIT_1964 = make_literal("1964")
LIT_POP = make_literal("390000")


@pytest.fixture
def toy_store() -> TripleStore:
    """The paper's Figure 1 toy KB (Barack Obama / Honolulu fragment)."""
    kb = TripleStore()
    kb.add("a", "name", make_literal("barack obama"))
    kb.add("a", "dob", LIT_1961)
    kb.add("a", "pob", "d")
    kb.add("a", "marriage", "b")
    kb.add("b", "person", "c")
    kb.add("b", "date", make_literal("1992"))
    kb.add("c", "name", make_literal("michelle obama"))
    kb.add("c", "dob", LIT_1964)
    kb.add("d", "name", make_literal("honolulu"))
    kb.add("d", "population", LIT_POP)
    return kb


class TestTripleConventions:
    def test_make_literal_prefixes(self):
        assert make_literal("1961") == '"1961'

    def test_make_literal_idempotent(self):
        assert make_literal(make_literal("x")) == make_literal("x")

    def test_is_literal(self):
        assert is_literal(make_literal("x"))
        assert not is_literal("m.x")

    def test_literal_value_roundtrip(self):
        assert literal_value(make_literal("hello")) == "hello"

    def test_literal_value_rejects_resources(self):
        with pytest.raises(ValueError):
            literal_value("m.x")

    def test_triple_iteration(self):
        t = Triple("s", "p", "o")
        assert tuple(t) == ("s", "p", "o")


class TestTripleStore:
    def test_add_and_has(self, toy_store):
        assert toy_store.has("a", "dob", LIT_1961)
        assert not toy_store.has("a", "dob", make_literal("1999"))

    def test_add_duplicate_returns_false(self):
        kb = TripleStore()
        assert kb.add("s", "p", "o") is True
        assert kb.add("s", "p", "o") is False
        assert len(kb) == 1

    def test_objects_lookup(self, toy_store):
        assert toy_store.objects("a", "dob") == {LIT_1961}
        assert toy_store.objects("a", "pob") == {"d"}

    def test_objects_missing_subject(self, toy_store):
        assert toy_store.objects("ghost", "dob") == set()

    def test_predicates_between(self, toy_store):
        assert toy_store.predicates_between("a", "d") == {"pob"}
        assert toy_store.predicates_between("a", "c") == set()

    def test_has_subject(self, toy_store):
        assert toy_store.has_subject("a")
        assert not toy_store.has_subject(LIT_1961)

    def test_triples_scan_complete(self, toy_store):
        assert len(list(toy_store.triples())) == len(toy_store) == 10

    def test_triple_membership_operator(self, toy_store):
        assert Triple("a", "pob", "d") in toy_store
        assert Triple("a", "pob", "c") not in toy_store

    def test_add_all_counts_new(self, toy_store):
        added = toy_store.add_all([
            Triple("a", "pob", "d"),  # duplicate
            Triple("d", "country", "x"),  # new
        ])
        assert added == 1

    def test_stats(self, toy_store):
        stats = toy_store.stats()
        assert stats["triples"] == 10
        assert stats["predicates"] == 7
        assert stats["subjects"] == 4


# Small alphabets force index collisions to be exercised.
_terms = st.sampled_from(["s1", "s2", "s3", "o1", "o2"])
_preds = st.sampled_from(["p1", "p2"])


class TestTripleStoreProperties:
    @given(st.lists(st.tuples(_terms, _preds, _terms), max_size=60))
    def test_indexes_agree(self, triples):
        """SPO and OSP must answer consistently for every triple."""
        kb = TripleStore()
        for s, p, o in triples:
            kb.add(s, p, o)
        unique = set(triples)
        assert len(kb) == len(unique)
        for s, p, o in unique:
            assert o in kb.objects(s, p)
            assert p in kb.predicates_between(s, o)

    @given(st.lists(st.tuples(_terms, _preds, _terms), max_size=60))
    def test_scan_matches_insertions(self, triples):
        kb = TripleStore()
        for s, p, o in triples:
            kb.add(s, p, o)
        scanned = {(t.subject, t.predicate, t.object) for t in kb.triples()}
        assert scanned == set(triples)

    @given(st.lists(st.tuples(_terms, _preds, _terms), max_size=60))
    def test_grouped_scan_sums_to_size(self, triples):
        kb = TripleStore()
        for s, p, o in triples:
            kb.add(s, p, o)
        grouped = kb.spo_items_ids()
        assert sum(len(objs) for _s, g in grouped for objs in g.values()) == len(kb)
