"""Tests for the term dictionary."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.kb.dictionary import Dictionary


class TestDictionary:
    def test_encode_assigns_dense_ids(self):
        d = Dictionary()
        assert d.encode("a") == 0
        assert d.encode("b") == 1
        assert d.encode("c") == 2

    def test_encode_is_idempotent(self):
        d = Dictionary()
        first = d.encode("x")
        assert d.encode("x") == first
        assert len(d) == 1

    def test_decode_roundtrip(self):
        d = Dictionary()
        term_id = d.encode("barack obama")
        assert d.decode(term_id) == "barack obama"

    def test_decode_unknown_raises(self):
        d = Dictionary()
        with pytest.raises(KeyError):
            d.decode(0)

    def test_decode_negative_raises(self):
        d = Dictionary()
        d.encode("a")
        with pytest.raises(KeyError):
            d.decode(-1)

    def test_lookup_missing_returns_none(self):
        assert Dictionary().lookup("ghost") is None

    def test_contains(self):
        d = Dictionary()
        d.encode("a")
        assert "a" in d
        assert "b" not in d

    def test_terms_in_id_order(self):
        d = Dictionary()
        for term in ["z", "a", "m"]:
            d.encode(term)
        assert list(d.terms()) == ["z", "a", "m"]

    def test_from_terms_assigns_ids_in_order(self):
        d = Dictionary.from_terms(["z", "a", "m"])
        assert list(d.terms()) == ["z", "a", "m"]
        assert d.lookup("a") == 1 and d.decode(2) == "m"
        assert d.encode("new") == 3

    def test_from_terms_rejects_a_repeated_term(self):
        with pytest.raises(ValueError, match="duplicate"):
            Dictionary.from_terms(["a", "b", "a"])

    @given(st.lists(st.text(min_size=1), min_size=1, max_size=50))
    def test_roundtrip_property(self, terms):
        d = Dictionary()
        ids = [d.encode(t) for t in terms]
        for term, term_id in zip(terms, ids):
            assert d.decode(term_id) == term
            assert d.lookup(term) == d.encode(term)

    @given(st.lists(st.text(min_size=1), min_size=1, max_size=50))
    def test_size_equals_distinct_terms(self, terms):
        d = Dictionary()
        for t in terms:
            d.encode(t)
        assert len(d) == len(set(terms))
