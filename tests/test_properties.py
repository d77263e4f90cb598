"""Cross-module property-based tests.

These exercise invariants that span several components: the decomposition
DP against brute force, the expansion against live traversal on random
graphs, the walk a detached view serves against the expansion before and
after random edits, and a statistical end-to-end accuracy sweep of the
trained system.  Answers after live KB writes are held to the online oracle by
``tests/test_live_updates.py::TestFreshnessByDifferential``.
"""

from __future__ import annotations

import tempfile
from contextlib import nullcontext
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.kbview import KBView
from repro.kb.expansion import ExpandedStore, expand_predicates
from repro.kb.paths import follow
from repro.kb.store import TripleStore
from repro.utils.rng import SeedStream


_nodes = st.sampled_from(["n1", "n2", "n3", "n4"])


# ---------------------------------------------------------------------------
# Expansion vs. live traversal on random graphs
# ---------------------------------------------------------------------------


class TestExpansionAgainstTraversal:
    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.tuples(_nodes, st.sampled_from(["p", "name"]), _nodes), max_size=20))
    def test_materialized_equals_followed(self, triples):
        store = TripleStore()
        for s, p, o in triples:
            store.add(s, p, o)
        seeds = ["n1", "n2"]
        expanded = expand_predicates(store, seeds, max_length=3)
        for subject, path, obj in expanded.triples():
            assert obj in follow(store, subject, path)
            assert subject in seeds

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.tuples(_nodes, st.sampled_from(["p", "name"]), _nodes), max_size=20))
    def test_tail_whitelist_invariant(self, triples):
        store = TripleStore()
        for s, p, o in triples:
            store.add(s, p, o)
        expanded = expand_predicates(store, ["n1"], max_length=3)
        for path in expanded.distinct_paths():
            assert path.is_direct or path.last in ("name", "alias")


# ---------------------------------------------------------------------------
# The walk a detached view serves vs. the expansion
# ---------------------------------------------------------------------------

_edges = st.tuples(_nodes, st.sampled_from(["p", "name"]), _nodes)
_seed_sets = st.lists(_nodes, min_size=1, max_size=3, unique=True)
# one step = one edit, or several applied inside ``kb.batch()``
_edit_steps = st.lists(
    st.lists(st.tuples(st.booleans(), _edges), min_size=1, max_size=3), max_size=6
)


def _kb(triples) -> TripleStore:
    store = TripleStore()
    for s, p, o in triples:
        store.add(s, p, o)
    return store


class TestWalkAgainstExpansion:
    """A trained system's view drops its expansion on the first KB write
    and walks ``V(e, p+)`` from then on (Sec 6.1).  That is exact only if
    the walk serves every seed what the Sec 6.2 scan stores, on the KB the
    scan saw and on any KB the writes make of it."""

    @settings(max_examples=40, deadline=None)
    @given(st.lists(_edges, max_size=14), _seed_sets, st.sampled_from([1, 2, 3]))
    def test_a_detached_view_serves_what_the_expansion_holds(self, triples, seeds, max_length):
        store = _kb(triples)
        expanded = expand_predicates(store, seeds, max_length=max_length)
        walk = KBView(store)
        for seed in seeds:
            for path in expanded.distinct_paths():
                assert walk.values(seed, path) == expanded.objects(seed, path), (seed, path)

    @pytest.mark.parametrize("arm", ["shared", "artifact"])
    @settings(max_examples=30, deadline=None)
    @given(
        triples=st.lists(_edges, max_size=10),
        seeds=_seed_sets,
        max_length=st.sampled_from([2, 3]),
        steps=_edit_steps,
    )
    def test_after_edits_the_detached_view_equals_a_fresh_expansion(
        self, arm, triples, seeds, max_length, steps
    ):
        """The view is built over the first expansion — scanned, or loaded
        from an artifact with its own dictionary — then the edits land and
        it detaches, as a trained system's does."""
        kb = _kb(triples)
        with tempfile.TemporaryDirectory() as scratch:
            expanded = expand_predicates(kb, seeds, max_length=max_length)
            if arm == "artifact":
                path = Path(scratch) / "expansion.kbqa"
                expanded.save(path)
                expanded = ExpandedStore.load(path)
            view = KBView(kb, expanded)
            for step in steps:
                with kb.batch() if len(step) > 1 else nullcontext():
                    for is_add, (s, p, o) in step:
                        (kb.add if is_add else kb.delete)(s, p, o)
            view.expanded = None
            fresh = expand_predicates(kb, seeds, max_length=max_length)
            for seed in seeds:
                for path in fresh.distinct_paths() | expanded.distinct_paths():
                    assert view.values(seed, path) == fresh.objects(seed, path), steps


# ---------------------------------------------------------------------------
# Decomposition DP vs. brute force
# ---------------------------------------------------------------------------


def _brute_force_best(decomposer, tokens) -> float:
    """Score of the best decomposition by exhaustive recursion (Eq 28)."""
    tokens = tuple(tokens)

    def best(span: tuple[str, ...]) -> float:
        score = 1.0 if decomposer.is_primitive(span) else 0.0
        n = len(span)
        for i in range(n):
            for j in range(i + 1, n + 1):
                if (i, j) == (0, n):
                    continue
                inner = best(span[i:j])
                if inner <= 0.0:
                    continue
                remainder = list(span[:i]) + ["$e"] + list(span[j:])
                score = max(score, decomposer.statistics.validity(remainder) * inner)
        return score

    return best(tokens)


class TestDecompositionOptimality:
    def test_dp_matches_brute_force_on_complex_questions(self, suite, kbqa_fb):
        from repro.nlp.tokenizer import tokenize

        questions = [q.question for q in suite.benchmark("complex").questions][:4]
        for question in questions:
            tokens = tokenize(question)
            if len(tokens) > 12:  # keep brute force tractable
                continue
            dp_score = kbqa_fb.decompose(question).score
            brute = _brute_force_best(kbqa_fb.decomposer, tokens)
            assert dp_score == pytest.approx(brute), question

    def test_dp_matches_brute_force_on_simple_bfqs(self, suite, kbqa_fb):
        from repro.nlp.tokenizer import tokenize

        city = next(e for e in suite.world.of_type("city") if e.get_fact("population"))
        question = f"how big is {city.name}?"
        dp_score = kbqa_fb.decompose(question).score
        brute = _brute_force_best(kbqa_fb.decomposer, tokenize(question))
        assert dp_score == pytest.approx(brute)


# ---------------------------------------------------------------------------
# Statistical end-to-end sweep
# ---------------------------------------------------------------------------


class TestEndToEndSweep:
    def test_seen_surface_accuracy_over_random_probes(self, suite, kbqa_fb):
        """Over many random (entity, intent, seen-surface) probes, KBQA must
        be overwhelmingly right-or-silent and never confidently wrong about
        a different entity's fact."""
        from repro.corpus.surface import train_surfaces

        rng = SeedStream(13).substream("sweep").rng()
        instances = [
            (intent, node)
            for node, entity in suite.world.entities.items()
            for intent in entity.facts
        ]
        right = wrong = refused = 0
        for _ in range(200):
            intent, node = rng.choice(instances)
            bank = train_surfaces(intent)
            surface = rng.choice(bank)
            question = surface.text.format(e=suite.world.name_of(node))
            result = kbqa_fb.answer(question)
            if not result.answered:
                refused += 1
                continue
            gold = {v.lower() for v in suite.world.gold_values(node, intent)}
            related_gold = set()
            from repro.data.world import SCHEMA_BY_INTENT

            for rel in SCHEMA_BY_INTENT[intent].related:
                related_gold |= {
                    v.lower() for v in suite.world.gold_values(node, rel)
                }
            predicted = {v.lower() for v in result.values}
            if predicted & (gold | related_gold):
                right += 1
            else:
                wrong += 1
        answered = right + wrong
        assert answered > 100, "most probes must be answered"
        assert right / answered > 0.9, (right, wrong, refused)
