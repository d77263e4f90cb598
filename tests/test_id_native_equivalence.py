"""Equivalence tests for the ID-native hot paths.

The ID-native expansion scan, the array-based EM and the cached batch
answering API are pure performance refactors: each must produce output
identical to its reference implementation (the pre-refactor code, preserved
as ``expand_predicates_baseline`` / ``run_em_reference`` in ``tests/oracles``).
"""

import random

import pytest

from oracles.em_reference import run_em_reference, to_lists
from oracles.expansion_reference import expand_predicates_baseline
from repro.core.em import EMConfig, EncodedObservations, run_em
from repro.core.learner import LearnerConfig, OfflineLearner
from repro.kb.expansion import expand_predicates
from repro.kb.paths import PredicatePath
from repro.kb.store import TripleStore
from repro.kb.triple import make_literal


def _triple_set(expanded):
    return {(s, str(p), o) for s, p, o in expanded.triples()}


class TestExpansionEquivalence:
    def test_identical_triples_on_toy_kb(self):
        kb = TripleStore()
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
        for max_length in (1, 2, 3):
            fast = expand_predicates(kb, ["a", "city"], max_length=max_length)
            slow = expand_predicates_baseline(kb, ["a", "city"], max_length=max_length)
            assert _triple_set(fast) == _triple_set(slow)
            assert len(fast) == len(slow)
            assert fast.stats() == slow.stats()

    def test_identical_triples_on_seed_fixture(self, suite):
        store = suite.freebase.store
        seeds = [e.node for e in suite.world.of_type("person")[:12]]
        seeds += [e.node for e in suite.world.of_type("city")[:6]]
        fast = expand_predicates(store, seeds, max_length=3)
        slow = expand_predicates_baseline(store, seeds, max_length=3)
        assert len(fast) == len(slow) > 0
        assert _triple_set(fast) == _triple_set(slow)
        assert fast.distinct_paths() == slow.distinct_paths()
        assert set(fast.subjects()) == set(slow.subjects())

    def test_custom_tail_whitelist_equivalent(self, suite):
        store = suite.freebase.store
        seeds = [e.node for e in suite.world.of_type("person")[:8]]
        tails = frozenset({"dob", "name"})
        fast = expand_predicates(store, seeds, max_length=2, tail_predicates=tails)
        slow = expand_predicates_baseline(store, seeds, max_length=2, tail_predicates=tails)
        assert _triple_set(fast) == _triple_set(slow)


class TestFrozenViews:
    """``objects``/``paths_between`` return shared frozen views, not copies."""

    def test_objects_returns_same_object(self, suite):
        store = suite.freebase.store
        seeds = [e.node for e in suite.world.of_type("person")[:4]]
        expanded = expand_predicates(store, seeds, max_length=3)
        subject, path, _obj = next(expanded.triples())
        first = expanded.objects(subject, path)
        assert isinstance(first, frozenset)
        assert expanded.objects(subject, path) is first

    def test_paths_between_returns_same_object(self, suite):
        store = suite.freebase.store
        seeds = [e.node for e in suite.world.of_type("person")[:4]]
        expanded = expand_predicates(store, seeds, max_length=3)
        subject, _path, obj = next(expanded.triples())
        first = expanded.paths_between(subject, obj)
        assert isinstance(first, frozenset)
        assert expanded.paths_between(subject, obj) is first

    def test_record_invalidates_frozen_view(self):
        from repro.kb.expansion import ExpandedStore

        store = ExpandedStore(max_length=3)
        path = PredicatePath.single("p")
        store.record("s", path, "o1")
        assert store.objects("s", path) == {"o1"}
        store.record("s", path, "o2")
        assert store.objects("s", path) == {"o1", "o2"}


class TestStoreStats:
    def test_incremental_resource_count_matches_full_scan(self, suite):
        from repro.kb.triple import is_literal

        store = suite.freebase.store
        recomputed = sum(1 for term in store.dictionary.terms() if not is_literal(term))
        assert store.stats()["resources"] == recomputed

    def test_resource_count_tracks_additions(self):
        kb = TripleStore()
        kb.add("s", "p", make_literal("lit"))
        assert kb.stats()["resources"] == 2  # s and p; the literal is excluded
        kb.add("s", "p", "o")  # one new resource
        kb.add("s", "p", "o")  # duplicate: no change
        assert kb.stats()["resources"] == 3

    def test_resource_count_sees_shared_dictionary_interning(self):
        """Terms interned through a shared-dictionary ExpandedStore (not via
        ``add``) must still be reflected in the resource count."""
        kb = TripleStore()
        kb.add("s", "p", "o")
        assert kb.stats()["resources"] == 3
        expanded = expand_predicates(kb, ["s"], max_length=1)
        expanded.record("brand-new", PredicatePath.single("p2"), make_literal("x"))
        assert kb.stats()["resources"] == 5  # brand-new and p2; literal excluded


def _random_observations(rng, n):
    out = []
    for _ in range(n):
        out.append(
            [
                (rng.randint(0, 5), rng.randint(0, 9), rng.choice([0.0, rng.random()]))
                for _ in range(rng.randint(1, 5))
            ]
        )
    return out


class TestEMEquivalence:
    def _assert_same(self, fast, ref):
        assert fast.iterations == ref.iterations
        assert len(fast.log_likelihood) == len(ref.log_likelihood)
        for a, b in zip(fast.log_likelihood, ref.log_likelihood):
            assert a == pytest.approx(b, abs=1e-9)
        assert fast.theta.keys() == ref.theta.keys()
        for template_id, row in ref.theta.items():
            assert fast.theta[template_id].keys() == row.keys()
            for path_id, prob in row.items():
                assert fast.theta[template_id][path_id] == pytest.approx(prob, abs=1e-9)
        assert fast.template_support.keys() == ref.template_support.keys()
        for template_id, support in ref.template_support.items():
            assert fast.template_support[template_id] == pytest.approx(support, abs=1e-9)

    def test_random_instances_match_reference(self):
        rng = random.Random(11)
        for _ in range(10):
            observations = _random_observations(rng, rng.randint(1, 30))
            config = EMConfig(max_iterations=15, tolerance=0.0)
            self._assert_same(
                run_em(observations, config), run_em_reference(observations, config)
            )

    def test_default_config_match_reference(self):
        rng = random.Random(5)
        observations = _random_observations(rng, 40)
        self._assert_same(run_em(observations), run_em_reference(observations))

    def test_seed_fixture_encoding_matches_reference(self, suite):
        """θ learned from the real offline encoding is identical either way."""
        learner = OfflineLearner(
            suite.freebase, suite.conceptualizer, LearnerConfig()
        )
        prepared = learner.encode_corpus(suite.corpus)
        encoded, _templates, _paths = prepared.encoded
        assert len(encoded) > 0
        config = EMConfig(max_iterations=25, tolerance=0.0)
        self._assert_same(run_em(encoded, config), run_em_reference(encoded, config))

    def test_encoded_roundtrip(self):
        observations = [[(0, 1, 0.5), (2, 3, 0.25)], [(1, 1, 1.0)]]
        encoded = EncodedObservations.from_observations(observations)
        assert len(encoded) == 2
        assert encoded.n_candidates == 3
        assert to_lists(encoded) == observations


class TestAnswerManyEquivalence:
    def _questions(self, suite):
        questions = [q.question for q in suite.benchmark("qald3").bfqs()][:20]
        questions += [
            "what should i eat tonight?",  # chitchat: no answer
            questions[0],  # duplicate: exercised through the answer cache
            questions[0].upper(),  # normalizes to the same cache key
        ]
        return questions

    def test_batch_equals_sequential(self, suite, kbqa_fb):
        questions = self._questions(suite)
        batch = kbqa_fb.answer_many(questions)
        sequential = [kbqa_fb.answer(q) for q in questions]
        assert batch == sequential
        assert [r.question for r in batch] == questions

    def test_batch_equals_uncached_answerer(self, suite, kbqa_fb):
        """The caches must never change an answer, only its latency."""
        from oracles.online_reference import ReferenceAnswerer

        cold = ReferenceAnswerer.shadowing(kbqa_fb.answerer)
        questions = self._questions(suite)
        assert kbqa_fb.answer_many(questions) == [cold.answer(q) for q in questions]
