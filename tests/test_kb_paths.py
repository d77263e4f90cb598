"""Tests for predicate paths and traversal."""

import pytest

from repro.kb.expansion import expand_predicates
from repro.kb.paths import PredicatePath, follow
from repro.kb.store import TripleStore
from repro.kb.triple import make_literal


def paths_between(kb, subject, obj, max_length):
    """Every path of length <= ``max_length`` from ``subject`` to ``obj``:
    a one-seed expansion that keeps every tail predicate."""
    tails = frozenset(t.predicate for t in kb.triples())
    expanded = expand_predicates(kb, [subject], max_length, tail_predicates=tails)
    return set(expanded.paths_between(subject, obj))


@pytest.fixture
def figure1() -> TripleStore:
    """Figure 1: spouse runs through marriage -> person -> name."""
    kb = TripleStore()
    kb.add("a", "name", make_literal("barack obama"))
    kb.add("a", "dob", make_literal("1961"))
    kb.add("a", "marriage", "b")
    kb.add("b", "person", "c")
    kb.add("b", "date", make_literal("1992"))
    kb.add("c", "name", make_literal("michelle obama"))
    kb.add("c", "dob", make_literal("1964"))
    return kb


class TestPredicatePath:
    def test_empty_path_rejected(self):
        with pytest.raises(ValueError):
            PredicatePath(())

    def test_single(self):
        path = PredicatePath.single("dob")
        assert path.is_direct
        assert len(path) == 1

    def test_str_and_parse_roundtrip(self):
        path = PredicatePath(("marriage", "person", "name"))
        assert PredicatePath.parse(str(path)) == path

    def test_parse_rejects_malformed(self):
        with pytest.raises(ValueError):
            PredicatePath.parse("a->->b")

    def test_extend(self):
        path = PredicatePath.single("marriage").extend("person").extend("name")
        assert path.predicates == ("marriage", "person", "name")
        assert path.last == "name"
        assert not path.is_direct

    def test_paths_are_hashable_values(self):
        a = PredicatePath(("x", "y"))
        b = PredicatePath(("x", "y"))
        assert a == b
        assert len({a, b}) == 1

    def test_iteration(self):
        assert list(PredicatePath(("a", "b"))) == ["a", "b"]


class TestFollow:
    def test_direct_hop(self, figure1):
        assert follow(figure1, "a", PredicatePath.single("dob")) == {make_literal("1961")}

    def test_spouse_path(self, figure1):
        """The paper's Sec 6.1 example: V(Obama, marriage->person->name)."""
        path = PredicatePath(("marriage", "person", "name"))
        assert follow(figure1, "a", path) == {make_literal("michelle obama")}

    def test_meaningless_path_still_traverses(self, figure1):
        path = PredicatePath(("marriage", "person", "dob"))
        assert follow(figure1, "a", path) == {make_literal("1964")}

    def test_dead_end_returns_empty(self, figure1):
        path = PredicatePath(("marriage", "nonexistent"))
        assert follow(figure1, "a", path) == set()

    def test_unknown_subject(self, figure1):
        assert follow(figure1, "ghost", PredicatePath.single("dob")) == set()


class TestPathsBetween:
    """Path enumeration between two nodes is the expansion's
    ``paths_between`` (Sec 6.2); there is no separate graph walk."""

    def test_finds_direct(self, figure1):
        found = paths_between(figure1, "a", make_literal("1961"), max_length=3)
        assert PredicatePath.single("dob") in found

    def test_finds_multi_hop(self, figure1):
        found = paths_between(figure1, "a", make_literal("michelle obama"), max_length=3)
        assert PredicatePath(("marriage", "person", "name")) in found

    def test_respects_length_limit(self, figure1):
        found = paths_between(figure1, "a", make_literal("michelle obama"), max_length=2)
        assert found == set()

    def test_zero_budget(self, figure1):
        with pytest.raises(ValueError, match="max_length"):
            paths_between(figure1, "a", make_literal("1961"), max_length=0)

    def test_multiple_paths_to_same_value(self):
        kb = TripleStore()
        kb.add("s", "p1", make_literal("v"))
        kb.add("s", "p2", make_literal("v"))
        found = paths_between(kb, "s", make_literal("v"), max_length=1)
        assert found == {PredicatePath.single("p1"), PredicatePath.single("p2")}

    def test_agrees_with_networkx_reference(self):
        """Cross-check path enumeration against networkx on a random graph."""
        import itertools

        import networkx as nx

        from repro.utils.rng import SeedStream

        rng = SeedStream(3).substream("pathcheck").rng()
        kb = TripleStore()
        graph = nx.MultiDiGraph()
        nodes = [f"n{i}" for i in range(8)]
        predicates = ["p", "q", "r"]
        for _ in range(20):
            s, o = rng.choice(nodes), rng.choice(nodes)
            if s == o:
                continue
            p = rng.choice(predicates)
            kb.add(s, p, o)
            graph.add_edge(s, o, key=p)

        source, target = "n0", "n1"
        expected = set()
        for length in (1, 2, 3):
            for path_nodes in nx.all_simple_paths(graph, source, target, cutoff=length):
                if len(path_nodes) - 1 > length:
                    continue
                edge_options = [
                    list(graph[u][v]) for u, v in zip(path_nodes, path_nodes[1:])
                ]
                for combo in itertools.product(*edge_options):
                    expected.add(PredicatePath(tuple(combo)))
        found = paths_between(kb, source, target, max_length=3)
        # the expansion also walks cyclic (non-simple) routes; every simple
        # path must be found.
        assert expected <= found
