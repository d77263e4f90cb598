"""Tests for the unified direct+expanded KB view."""

import pytest

from repro.core.kbview import KBView
from repro.kb.expansion import expand_predicates
from repro.kb.paths import PredicatePath
from repro.kb.store import TripleStore
from repro.kb.triple import make_literal


@pytest.fixture
def view_setup():
    kb = TripleStore()
    kb.add("a", "dob", make_literal("1961"))
    kb.add("a", "marriage", "cvt")
    kb.add("cvt", "person", "c")
    kb.add("c", "name", make_literal("michelle"))
    kb.add("b", "marriage", "cvt2")
    kb.add("cvt2", "person", "a")
    kb.add("a", "name", make_literal("barack"))
    expanded = expand_predicates(kb, ["a"], max_length=3)  # b NOT a seed
    return kb, KBView(kb, expanded)


SPOUSE = PredicatePath(("marriage", "person", "name"))


class TestKBView:
    def test_direct_paths_between(self, view_setup):
        _kb, view = view_setup
        assert PredicatePath.single("dob") in view.paths_between("a", make_literal("1961"))

    def test_expanded_paths_between(self, view_setup):
        _kb, view = view_setup
        assert SPOUSE in view.paths_between("a", make_literal("michelle"))

    def test_values_direct(self, view_setup):
        _kb, view = view_setup
        assert view.values("a", PredicatePath.single("dob")) == {make_literal("1961")}

    def test_values_expanded_materialized(self, view_setup):
        _kb, view = view_setup
        assert view.values("a", SPOUSE) == {make_literal("michelle")}

    def test_values_fallback_traversal_for_non_seed(self, view_setup):
        """Entity b was not a BFS seed: values must still resolve by live
        traversal (online questions mention unseen entities)."""
        _kb, view = view_setup
        assert view.values("b", SPOUSE) == {make_literal("barack")}

    def test_value_probability_uniform(self, view_setup):
        kb, view = view_setup
        kb.add("a", "dob", make_literal("1962"))  # pretend conflicting fact
        prob = view.value_probability("a", PredicatePath.single("dob"), make_literal("1961"))
        assert prob == pytest.approx(0.5)

    def test_value_probability_zero_for_absent(self, view_setup):
        _kb, view = view_setup
        assert view.value_probability("a", PredicatePath.single("dob"), make_literal("2000")) == 0.0

    def test_without_expansion_only_direct(self, view_setup):
        kb, _view = view_setup
        bare = KBView(kb)
        assert bare.max_path_length == 1
        assert bare.paths_between("a", make_literal("michelle")) == set()
        # explicit path still traversable on demand
        assert bare.values("a", SPOUSE) == {make_literal("michelle")}

    def test_max_path_length_from_expansion(self, view_setup):
        _kb, view = view_setup
        assert view.max_path_length == 3
