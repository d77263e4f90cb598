"""Live KB add/delete flowing through every layer.

The chain under test: backend mutation -> a burst of KBChange values ->
ExpandedStore invalidation of the affected seeds + one re-expansion of just
those seeds (`repro.kb.live`) -> answer-cache invalidation -> a *different
answer*, with no retraining and no full re-expansion.
"""

import pytest

import repro.kb.live as live_module
from repro.core.system import KBQA
from repro.data.compile import compile_freebase_like
from repro.kb.expansion import expand_predicates
from repro.kb.live import LiveExpansionMaintainer
from repro.kb.paths import PredicatePath
from repro.kb.store import TripleStore
from repro.kb.triple import make_literal

SPOUSE_PATH = PredicatePath(("marriage", "person", "name"))


def _toy_kb():
    kb = TripleStore()
    kb.add("a", "name", make_literal("alice"))
    kb.add("a", "marriage", "cvt1")
    kb.add("cvt1", "person", "b")
    kb.add("b", "name", make_literal("bob"))
    kb.add("c", "name", make_literal("carol"))
    kb.add("c", "dob", make_literal("1970"))
    return kb


class TestMaintainer:
    def test_add_through_intermediate_node_updates_expansion(self):
        kb = _toy_kb()
        expanded = expand_predicates(kb, ["a", "c"], max_length=3)
        LiveExpansionMaintainer(kb, expanded, ["a", "c"])
        assert expanded.objects("a", SPOUSE_PATH) == {make_literal("bob")}
        kb.add("b", "alias", make_literal("bobby"))
        alias_path = PredicatePath(("marriage", "person", "alias"))
        assert expanded.objects("a", alias_path) == {make_literal("bobby")}

    def test_delete_removes_expanded_triples(self):
        kb = _toy_kb()
        expanded = expand_predicates(kb, ["a", "c"], max_length=3)
        LiveExpansionMaintainer(kb, expanded, ["a", "c"])
        kb.delete("cvt1", "person", "b")
        assert expanded.objects("a", SPOUSE_PATH) == frozenset()
        assert expanded.paths_between("a", make_literal("bob")) == frozenset()
        # unrelated seed untouched
        assert expanded.objects("c", PredicatePath.single("dob")) == {
            make_literal("1970")
        }

    def test_only_affected_seeds_refresh(self, monkeypatch):
        kb = _toy_kb()
        expanded = expand_predicates(kb, ["a", "c"], max_length=3)
        maintainer = LiveExpansionMaintainer(kb, expanded, ["a", "c"])
        calls = []
        real_expand = live_module.expand_predicates

        def _counting(store, seeds, **kwargs):
            seeds = list(seeds)
            calls.append(seeds)
            return real_expand(store, seeds, **kwargs)

        monkeypatch.setattr(live_module, "expand_predicates", _counting)
        kb.add("b", "alias", make_literal("bobby"))
        # edge under 'b' is reached only from seed 'a': one refresh of 'a'
        # alone, never a full re-expansion
        assert calls == [["a"]]
        assert maintainer.seeds_refreshed == 1
        calls.clear()
        kb.add("unrelated", "name", make_literal("nobody"))
        assert calls == []
        assert maintainer.events_seen == 2

    def test_seed_gaining_its_first_triples(self):
        kb = _toy_kb()
        expanded = expand_predicates(kb, ["a", "ghost"], max_length=3)
        LiveExpansionMaintainer(kb, expanded, ["a", "ghost"])
        assert not any(s == "ghost" for s, _p, _o in expanded.triples())
        kb.add("ghost", "name", make_literal("the ghost"))
        assert expanded.objects("ghost", PredicatePath.single("name")) == {
            make_literal("the ghost")
        }

    def test_an_object_that_becomes_a_subject_refreshes_its_seeds(self):
        """The scan carries no way to an object that is no subject, but its
        reach stays recorded: one reached in round 1 (``d``) and one in
        round 2 (``e``) each refresh seed ``a`` when an edge is added under
        them."""
        kb = _toy_kb()
        kb.add("a", "friend", "d")
        kb.add("cvt1", "witness", "e")
        expanded = expand_predicates(kb, ["a", "c"], max_length=3)
        LiveExpansionMaintainer(kb, expanded, ["a", "c"])
        a = kb.dictionary.lookup("a")
        for node in ("d", "e"):
            assert expanded.seeds_through(kb.dictionary.lookup(node)) == (a,)
        kb.add("d", "name", make_literal("dave"))
        kb.add("e", "alias", make_literal("eve"))
        assert expanded.objects("a", PredicatePath(("friend", "name"))) == {
            make_literal("dave")
        }
        assert expanded.objects("a", PredicatePath(("marriage", "witness", "alias"))) == {
            make_literal("eve")
        }
        fresh = expand_predicates(kb, ["a", "c"], max_length=3)
        assert set(expanded.triples()) == set(fresh.triples())
        assert dict(expanded.reach_items()) == dict(fresh.reach_items())

    def test_loaded_artifact_with_own_dictionary(self, tmp_path):
        """A reloaded expansion (own dictionary) still tracks live edits —
        the maintainer's string-level merge branch."""
        from repro.kb.expansion import ExpandedStore

        kb = _toy_kb()
        built = expand_predicates(kb, ["a", "c"], max_length=3)
        path = tmp_path / "expansion.kbqa"
        built.save(path)
        loaded = ExpandedStore.load(path)
        assert loaded.dictionary is not kb.dictionary
        LiveExpansionMaintainer(kb, loaded, ["a", "c"])
        kb.add("b", "alias", make_literal("bobby"))
        alias_path = PredicatePath(("marriage", "person", "alias"))
        assert loaded.objects("a", alias_path) == {make_literal("bobby")}
        kb.delete("cvt1", "person", "b")
        assert loaded.objects("a", SPOUSE_PATH) == frozenset()

    def test_loaded_artifact_refreshes_a_burst_in_one_scan(self, tmp_path):
        """A burst touching two seeds of a loaded artifact is rebuilt by one
        fresh expansion and one merge: at most max_length scans, and the
        result equals a fresh expansion of the edited KB."""
        from repro.kb.expansion import ExpandedStore

        kb = _toy_kb()
        path = tmp_path / "expansion.kbqa"
        expand_predicates(kb, ["a", "c"], max_length=3).save(path)
        loaded = ExpandedStore.load(path)
        maintainer = LiveExpansionMaintainer(kb, loaded, ["a", "c"])
        scans = []
        scan = kb.spo_items_ids
        kb.spo_items_ids = lambda: (scans.append(1), scan())[1]
        with kb.batch():
            kb.add("b", "alias", make_literal("bobby"))
            kb.add("c", "title", make_literal("dr"))
        assert 0 < len(scans) <= loaded.max_length
        del kb.spo_items_ids
        assert maintainer.seeds_refreshed == 2

        def contents(store):
            decode = store.dictionary.decode
            return (
                {(s, str(p), o) for s, p, o in store.triples()},
                {(decode(n), frozenset(map(decode, seeds))) for n, seeds in store.reach_items()},
            )

        assert contents(loaded) == contents(expand_predicates(kb, ["a", "c"], max_length=3))

    def test_seeded_expansion_without_reach_is_refused(self, tmp_path):
        """Seeds but no reach: only an artifact saved by an older build whose
        scan skipped reach.  Attaching would miss every refresh, so the
        maintainer refuses and names the command that regenerates it."""
        from repro.kb.expansion import ExpandedStore

        kb = _toy_kb()
        expanded = expand_predicates(kb, ["a"], max_length=3)
        expanded._reached_from.clear()
        path = tmp_path / "reachless.kbqa"
        expanded.save(path)
        for store in (expanded, ExpandedStore.load(path)):
            with pytest.raises(ValueError, match="kbqa expand --save"):
                LiveExpansionMaintainer(kb, store, ["a"])

    def test_close_detaches(self):
        kb = _toy_kb()
        expanded = expand_predicates(kb, ["a"], max_length=3)
        maintainer = LiveExpansionMaintainer(kb, expanded, ["a"])
        maintainer.close()
        kb.add("b", "alias", make_literal("bobby"))
        assert maintainer.events_seen == 0


class TestInvalidateSeed:
    def test_invalidate_then_reexpand_matches_fresh(self):
        kb = _toy_kb()
        expanded = expand_predicates(kb, ["a", "c"], max_length=3)
        before = {(s, str(p), o) for s, p, o in expanded.triples()}
        assert expanded.invalidate_seeds(["a"])
        assert not any(s == "a" for s, _p, _o in expanded.triples())
        expand_predicates(kb, ["a"], max_length=3, into=expanded)
        assert {(s, str(p), o) for s, p, o in expanded.triples()} == before

    def test_invalidate_unknown_seed_is_a_noop(self):
        kb = _toy_kb()
        expanded = expand_predicates(kb, ["a"], max_length=3)
        n = len(expanded)
        assert not expanded.invalidate_seeds(["never-seen"])
        assert len(expanded) == n

    def test_into_requires_shared_dictionary(self):
        kb = _toy_kb()
        foreign = expand_predicates(_toy_kb(), ["a"], max_length=3)
        with pytest.raises(ValueError, match="dictionary"):
            expand_predicates(kb, ["a"], max_length=3, into=foreign)


@pytest.fixture(scope="module")
def live_system(suite):
    """A fresh trained system over a private KB copy (safe to mutate)."""
    kb = compile_freebase_like(suite.world)
    return KBQA.train(kb, suite.corpus, suite.conceptualizer)


class TestSystemLevelLiveEdits:
    def _spouse_case(self, suite, system):
        for entity in suite.world.of_type("person"):
            spouses = system.kb.store.objects(entity.node, "marriage")
            if spouses:
                cvt = next(iter(spouses))
                partner = next(iter(system.kb.store.objects(cvt, "person")))
                question = f"who is the spouse of {entity.name}?"
                if system.answer(question).answered:
                    return question, cvt, partner
        raise AssertionError("no answerable spouse question in the suite")

    def test_answer_changes_after_delete_without_reexpansion(
        self, suite, live_system, monkeypatch
    ):
        question, cvt, partner = self._spouse_case(suite, live_system)
        before = live_system.answer(question)
        assert before.answered

        calls = []
        real_expand = live_module.expand_predicates

        def _counting(store, seeds, **kwargs):
            seeds = list(seeds)
            calls.append(seeds)
            return real_expand(store, seeds, **kwargs)

        monkeypatch.setattr(live_module, "expand_predicates", _counting)

        assert live_system.delete_fact(cvt, "person", partner)
        after = live_system.answer(question)
        assert after != before
        assert before.value not in after.values
        # the write was refreshed by one expansion of the seeds it affects
        n_seeds = len(live_system.maintainer.seeds)
        assert len(calls) == 1 and 0 < len(calls[0]) < n_seeds

        # restore: the answer comes back, again via one targeted refresh
        assert live_system.add_fact(cvt, "person", partner)
        restored = live_system.answer(question)
        assert restored.answered
        assert restored.value == before.value
        assert len(calls) == 2 and 0 < len(calls[1]) < n_seeds

    def test_added_fact_is_served(self, live_system):
        entity = "m.live_new_entity"
        assert live_system.add_fact(entity, "name", make_literal("zanzibar mcgee"))
        assert live_system.kb.store.has_subject(entity)
        # direct KB lookups see it immediately through the same view
        assert live_system.learn_result.kbview.values(
            entity, PredicatePath.single("name")
        ) == {make_literal("zanzibar mcgee")}
        assert live_system.delete_fact(entity, "name", make_literal("zanzibar mcgee"))

    def test_duplicate_add_is_inert(self, live_system):
        stats_before = live_system.kb.store.stats()
        refreshed_before = live_system.maintainer.seeds_refreshed
        triple = next(iter(live_system.kb.store.triples()))
        assert not live_system.add_fact(triple.subject, triple.predicate, triple.object)
        assert live_system.kb.store.stats() == stats_before
        assert live_system.maintainer.seeds_refreshed == refreshed_before


class TestBatchContext:
    """`with backend.batch():` — deferred notifications, coalesced refresh."""

    def test_bulk_load_triggers_one_rebuild_per_affected_seed(self, monkeypatch):
        kb = _toy_kb()
        expanded = expand_predicates(kb, ["a", "c"], max_length=3)
        maintainer = LiveExpansionMaintainer(kb, expanded, ["a", "c"])
        calls = []
        real_expand = live_module.expand_predicates

        def _counting(store, seeds, **kwargs):
            seeds = list(seeds)
            calls.append(seeds)
            return real_expand(store, seeds, **kwargs)

        monkeypatch.setattr(live_module, "expand_predicates", _counting)
        with kb.batch():
            # three edits, every one reaching only seed 'a'
            kb.add("b", "alias", make_literal("bobby"))
            kb.add("b", "nick", make_literal("bo"))
            kb.add("cvt1", "since", make_literal("1999"))
            assert calls == []  # nothing refreshed inside the block
        # one coalesced flush: exactly one rebuild, of 'a' alone
        assert calls == [["a"]]
        assert maintainer.seeds_refreshed == 1
        assert maintainer.events_seen == 3
        alias_path = PredicatePath(("marriage", "person", "alias"))
        assert expanded.objects("a", alias_path) == {make_literal("bobby")}

    def test_batched_burst_matches_sequential_expansion(self):
        """The coalesced refresh must land on exactly the state a
        change-by-change replay produces."""
        edits = [
            ("add", "b", "alias", make_literal("bobby")),
            ("delete", "cvt1", "person", "b"),
            ("add", "cvt1", "person", "c"),
            ("add", "c", "title", make_literal("dr")),
        ]

        def apply_edits(kb, batched: bool):
            expanded = expand_predicates(kb, ["a", "c"], max_length=3)
            LiveExpansionMaintainer(kb, expanded, ["a", "c"])
            if batched:
                with kb.batch():
                    for action, s, p, o in edits:
                        (kb.add if action == "add" else kb.delete)(s, p, o)
            else:
                for action, s, p, o in edits:
                    (kb.add if action == "add" else kb.delete)(s, p, o)
            return {(s, str(p), o) for s, p, o in expanded.triples()}

        assert apply_edits(_toy_kb(), batched=True) == apply_edits(
            _toy_kb(), batched=False
        )

    def test_nested_batches_flush_once_at_outermost_exit(self):
        kb = _toy_kb()
        expanded = expand_predicates(kb, ["a"], max_length=3)
        maintainer = LiveExpansionMaintainer(kb, expanded, ["a"])
        with kb.batch():
            kb.add("b", "alias", make_literal("bobby"))
            with kb.batch():
                kb.add("b", "nick", make_literal("bo"))
            assert maintainer.events_seen == 0  # inner exit does not flush
        assert maintainer.events_seen == 2
        assert maintainer.seeds_refreshed == 1

    def test_reads_inside_the_block_see_applied_changes(self):
        kb = _toy_kb()
        with kb.batch():
            kb.add("z", "name", make_literal("zed"))
            assert kb.has("z", "name", make_literal("zed"))
            assert kb.delete("z", "name", make_literal("zed"))

    def test_system_batch_drops_answer_cache_once(self, suite, live_system, monkeypatch):
        """KBQA.batch(): a burst of facts costs one cache invalidation."""
        clears = []
        real_clear = live_system.answerer.clear_caches
        monkeypatch.setattr(
            live_system.answerer, "clear_caches",
            lambda: (clears.append(1), real_clear())[1],
        )
        facts = [
            ("m.batch_new_1", "name", make_literal("batch one")),
            ("m.batch_new_2", "name", make_literal("batch two")),
        ]
        with live_system.batch():
            for fact in facts:
                assert live_system.add_fact(*fact)
        assert len(clears) == 1
        for subject, _p, _o in facts:
            assert live_system.kb.store.has_subject(subject)
        with live_system.batch():
            for fact in facts:
                assert live_system.delete_fact(*fact)
        assert len(clears) == 2
