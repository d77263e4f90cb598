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
        assert bare.paths_between("a", make_literal("michelle")) == set()
        # explicit path still traversable on demand
        assert bare.values("a", SPOUSE) == {make_literal("michelle")}


class _DetachingExpansion:
    """An expansion that a write detaches while a read is inside it."""

    def __init__(self, view, found):
        self.view = view
        self.found = found

    def objects(self, _subject, _path):
        self.view.expanded = None
        return self.found

    def paths_between(self, _subject, _obj):
        self.view.expanded = None
        return self.found


class TestDetachedView:
    """``expanded = None``: what a trained system's view becomes on its
    first KB write.  Every multi-hop read then walks the live KB."""

    @pytest.mark.parametrize(
        "found", [frozenset({make_literal("michelle")}), frozenset()], ids=["hit", "miss"]
    )
    def test_values_reads_the_expansion_once_per_call(self, view_setup, found):
        """A detach racing a read neither fails nor loses the answer: an
        empty hit falls back to the walk."""
        kb, view = view_setup
        view.expanded = _DetachingExpansion(view, found)
        assert view.values("a", SPOUSE) == {make_literal("michelle")}
        assert view.expanded is None

    def test_paths_between_reads_the_expansion_once_per_call(self, view_setup):
        _kb, view = view_setup
        view.expanded = _DetachingExpansion(view, frozenset({SPOUSE}))
        assert view.paths_between("a", make_literal("michelle")) == {SPOUSE}
        assert view.expanded is None

    def test_detached_view_walks_every_expanded_value(self, view_setup):
        kb, view = view_setup
        bare = KBView(kb)
        triples = list(view.expanded.triples())
        assert triples
        for subject, path, _obj in triples:
            assert bare.values(subject, path) == view.values(subject, path)

    def test_detached_view_sees_an_edit_the_expansion_misses(self, view_setup):
        """Why a write detaches: the expansion describes the KB it was
        built from, the walk the KB as it is."""
        kb, view = view_setup
        kb.add("c", "name", make_literal("michelle o"))
        assert view.values("a", SPOUSE) == {make_literal("michelle")}
        view.expanded = None
        assert view.values("a", SPOUSE) == {make_literal("michelle"), make_literal("michelle o")}
        assert view.value_probability("a", SPOUSE, make_literal("michelle")) == pytest.approx(0.5)
