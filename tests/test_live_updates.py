"""Live KB add/delete flowing through every layer.

The chain under test: backend mutation -> a burst of KBChange values -> the
trained system detaches the Sec 6.2 expansion from its online view and drops
its answer caches -> every multi-hop read walks the live KB (Sec 6.1) -> a
*different answer*, with no retraining and no re-expansion.  The expansion
describes the KB it was built from, so nothing keeps it fresh:
``TestFreshnessByDifferential`` holds the answers after random write bursts
to the string-level oracle over the KB at that epoch.
"""

import random
import sys
from contextlib import nullcontext

import pytest

import repro.kb.expansion as expansion_module
from oracles.online_reference import ReferenceAnswerer
from repro.core.kbview import KBView
from repro.core.system import KBQA
from repro.data.compile import compile_freebase_like
from repro.kb.expansion import ExpandedStore
from repro.kb.paths import PredicatePath
from repro.kb.store import TripleStore
from repro.kb.triple import make_literal


def _toy_kb():
    kb = TripleStore()
    kb.add("a", "name", make_literal("alice"))
    kb.add("a", "marriage", "cvt1")
    kb.add("cvt1", "person", "b")
    kb.add("b", "name", make_literal("bob"))
    kb.add("c", "name", make_literal("carol"))
    kb.add("c", "dob", make_literal("1970"))
    return kb


def _count_expansions(monkeypatch) -> list:
    """Route every ``expand_predicates`` a ``repro`` module holds through a
    counter; returns the list each call appends its arguments to."""
    calls = []
    real = expansion_module.expand_predicates

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for module in list(sys.modules.values()):
        if getattr(module, "expand_predicates", None) is real and module.__name__.startswith("repro"):
            monkeypatch.setattr(module, "expand_predicates", counting)
    return calls


@pytest.fixture()
def fresh_system(suite):
    """A trained system over a private KB copy that no write has touched."""
    kb = compile_freebase_like(suite.world)
    with KBQA.train(kb, suite.corpus, suite.conceptualizer) as system:
        yield system


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
        expansions = _count_expansions(monkeypatch)

        assert live_system.delete_fact(cvt, "person", partner)
        after = live_system.answer(question)
        assert after != before
        assert before.value not in after.values

        # restore: the answer comes back, walked over the restored KB
        assert live_system.add_fact(cvt, "person", partner)
        assert live_system.answer(question) == before
        assert expansions == []
        assert live_system.answerer.kbview.expanded is None

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
        triple = next(iter(live_system.kb.store.triples()))
        assert not live_system.add_fact(triple.subject, triple.predicate, triple.object)
        assert live_system.kb.store.stats() == stats_before


SPOUSE_PATH = PredicatePath(("marriage", "person", "name"))


def _spouse_reading(suite, system):
    """An answered spouse question read through the expansion: its result,
    the one CVT its path crosses and the partner behind that CVT."""
    store = system.kb.store
    for entity in suite.world.of_type("person"):
        cvts = sorted(store.objects(entity.node, "marriage"))
        if len(cvts) != 1:
            continue
        result = system.answer(f"who is the spouse of {entity.name}?")
        if result.answered and result.predicate == SPOUSE_PATH:
            return result, cvts[0], sorted(store.objects(cvts[0], "person"))[0]
    raise AssertionError("no spouse question answered through the expansion")


class TestDetachRule:
    """The expansion serves online reads only while it describes the live
    KB: the first write burst detaches it from the view every reader
    shares, and each scenario a write can create is then served by the
    Sec 6.1 walk over the live KB."""

    def test_a_write_detaches_the_view_every_reader_shares(self, fresh_system, monkeypatch):
        system = fresh_system
        view = system.learn_result.kbview
        expansion = system.learn_result.expanded
        assert system.answerer.kbview is view and view.expanded is expansion
        size, model = len(expansion), system.model
        expansions = _count_expansions(monkeypatch)
        assert system.add_fact("m.detach_probe", "name", make_literal("detach probe"))
        assert view.expanded is None
        # the expansion itself is neither rebuilt nor edited, and nothing retrains
        assert system.learn_result.expanded is expansion and len(expansion) == size
        assert system.model is model and expansions == []

    def test_the_caches_drop_after_the_view_detaches(self, fresh_system, monkeypatch):
        """A read racing the burst must not cache an answer from the
        expansion after the caches were dropped: detach comes first."""
        system = fresh_system
        seen = []
        real_clear = system.answerer.clear_caches
        monkeypatch.setattr(
            system.answerer, "clear_caches",
            lambda: (seen.append(system.answerer.kbview.expanded), real_clear())[1],
        )
        assert system.add_fact("m.detach_probe", "name", make_literal("detach probe"))
        assert seen == [None]

    @pytest.mark.parametrize("write", ["duplicate add", "absent delete", "inert batch"])
    def test_an_inert_write_keeps_the_expansion(self, fresh_system, monkeypatch, write):
        """A write that changes nothing delivers no burst, so the view keeps
        serving the expansion and the caches stay warm."""
        system = fresh_system
        clears = []
        monkeypatch.setattr(system.answerer, "clear_caches", lambda: clears.append(1))
        triple = next(iter(system.kb.store.triples()))
        with system.batch() if write == "inert batch" else nullcontext():
            if write != "absent delete":
                assert not system.add_fact(triple.subject, triple.predicate, triple.object)
            if write != "duplicate add":
                assert not system.delete_fact(triple.subject, triple.predicate, "m.no_such_node")
        assert system.answerer.kbview.expanded is system.learn_result.expanded
        assert clears == []

    def test_a_batch_that_nets_to_nothing_still_detaches(self, suite, fresh_system):
        """The rule reads no diff: a delivered burst detaches even when its
        changes cancel, and the walk then answers exactly as the expansion did."""
        system = fresh_system
        before, cvt, partner = _spouse_reading(suite, system)
        with system.batch():
            assert system.delete_fact(cvt, "person", partner)
            assert system.add_fact(cvt, "person", partner)
        assert system.answerer.kbview.expanded is None
        assert system.answer(before.question) == before

    def test_an_unrelated_write_leaves_every_answer_as_it_was(self, suite, fresh_system):
        """Walking instead of reading the expansion changes no answer: on a
        KB the write did not touch, the walk finds what the scan stored."""
        system = fresh_system
        questions = _gold_factoids(suite.corpus)
        before = system.answer_many(questions)
        assert system.add_fact("m.unrelated_entity", "name", make_literal("nobody at all"))
        assert system.answerer.kbview.expanded is None
        assert system.answer_many(questions) == before

    def test_a_batch_detaches_at_its_exit(self, fresh_system):
        system = fresh_system
        view = system.answerer.kbview
        with system.batch():
            assert system.add_fact("m.batch_probe", "name", make_literal("batch probe"))
            assert view.expanded is system.learn_result.expanded  # not delivered yet
        assert view.expanded is None

    def test_close_leaves_the_expansion_attached(self, fresh_system):
        """A closed system hears no write: nothing detaches its view."""
        system = fresh_system
        system.close()
        assert system.add_fact("m.closed_probe", "name", make_literal("closed probe"))
        assert system.answerer.kbview.expanded is system.learn_result.expanded

    def test_an_add_through_an_intermediate_node_is_served(self, suite, fresh_system):
        system = fresh_system
        before, _cvt, partner = _spouse_reading(suite, system)
        added = make_literal("a second spouse name")
        assert added not in system.learn_result.expanded.objects(before.entity, SPOUSE_PATH)
        assert system.add_fact(partner, "name", added)
        view = system.answerer.kbview
        assert added in view.values(before.entity, SPOUSE_PATH)
        after = system.answer(before.question)
        assert after.predicate == SPOUSE_PATH
        assert set(after.values) == set(before.values) | {"a second spouse name"}

    def test_a_delete_under_a_seed_removes_its_values(self, suite, fresh_system):
        system = fresh_system
        before, cvt, partner = _spouse_reading(suite, system)
        other = [
            r for r in system.answer_many(_gold_factoids(suite.corpus))
            if r.answered and r.entity != before.entity and len(r.predicate) > 1
        ]
        assert system.delete_fact(cvt, "person", partner)
        view = system.answerer.kbview
        assert view.values(before.entity, SPOUSE_PATH) == set()
        assert SPOUSE_PATH not in view.paths_between(
            before.entity, make_literal(before.value)
        )
        assert before.value not in system.answer(before.question).values
        # readings that do not cross the deleted edge answer as before
        untouched = [r for r in other if cvt not in system.kb.store.objects(r.entity, "marriage")]
        assert untouched
        assert system.answer_many([r.question for r in untouched]) == untouched

    def test_an_object_that_becomes_a_subject_is_served(self, suite, fresh_system):
        """A new CVT and partner joined to a seed: each is an object with
        no edges of its own until the next write makes it a subject."""
        system = fresh_system
        before, _cvt, _partner = _spouse_reading(suite, system)
        assert system.add_fact(before.entity, "marriage", "cvt.live_new")
        assert system.add_fact("cvt.live_new", "person", "m.live_partner")
        assert system.answerer.kbview.values(before.entity, SPOUSE_PATH) == {
            make_literal(value) for value in before.values
        }
        assert system.add_fact("m.live_partner", "name", make_literal("a late partner"))
        after = system.answer(before.question)
        assert set(after.values) == set(before.values) | {"a late partner"}

    def test_a_resumed_system_detaches_its_loaded_expansion(self, suite, tmp_path):
        """A system trained from an artifact (the expansion has its own
        dictionary) detaches it on the first write like a scanned one, and
        answers as the oracle over the edited KB."""
        path = tmp_path / "expansion.kbqa"
        kb = compile_freebase_like(suite.world)
        with KBQA.train(kb, suite.corpus, suite.conceptualizer) as scanned:
            scanned.learn_result.expanded.save(path)
        loaded = ExpandedStore.load(path)
        assert loaded.dictionary is not kb.store.dictionary
        with KBQA.train(kb, suite.corpus, suite.conceptualizer, expanded=loaded) as system:
            before, cvt, partner = _spouse_reading(suite, system)
            assert system.answerer.kbview.expanded is loaded
            assert system.delete_fact(cvt, "person", partner)
            assert system.answerer.kbview.expanded is None
            oracle = ReferenceAnswerer(
                KBView(kb.store), system.answerer.ner, system.conceptualizer,
                system.model, system.answerer.max_concepts,
            )
            after = system.answer(before.question)
            assert after == oracle.answer(before.question)
            assert before.value not in after.values


def _gold_factoids(corpus) -> list[str]:
    return list({
        pair.question: None
        for pair in corpus
        if pair.meta.get("kind") == "factoid" and not pair.meta["wrong"]
    })


class TestFreshnessByDifferential:
    """Random add/delete bursts, alone and inside ``batch()``, on the first
    or second hop of answered multi-hop readings.  After each burst every
    sampled gold answer equals the string-level oracle over a view of the
    live KB with no expansion, the system's view has detached its
    expansion, and nothing has re-run the Sec 6.2 scan.  Runs on whichever
    store ``KBQA_BACKEND`` selects."""

    BURSTS = 16
    SAMPLED = 60

    @staticmethod
    def _readings(system, questions):
        """Every answer, and the answered multi-hop ones."""
        answers = system.answer_many(questions)
        multi = [r for r in answers if r.answered and len(r.predicate) > 1]
        assert multi, "no gold question answered through an expanded predicate"
        return answers, multi

    def test_before_the_first_write_the_expansion_serves_the_seeds(
        self, suite, fresh_system, monkeypatch
    ):
        served = set()
        real_objects = ExpandedStore.objects

        def spy(store, subject, path):
            found = real_objects(store, subject, path)
            if found:
                served.add((subject, path))
            return found

        monkeypatch.setattr(ExpandedStore, "objects", spy)
        assert fresh_system.answerer.kbview.expanded is fresh_system.learn_result.expanded
        _answers, multi = self._readings(fresh_system, _gold_factoids(suite.corpus))
        assert {(r.entity, r.predicate) for r in multi} <= served
        assert {subject for subject, _path in served} <= fresh_system.learn_result.seed_entities

    def test_after_every_burst_answers_equal_the_oracle(
        self, suite, fresh_system, monkeypatch
    ):
        system = fresh_system
        store = system.kb.store
        rng = random.Random(53)
        answers, multi = self._readings(system, _gold_factoids(suite.corpus))
        single = [r for r in answers if r.answered and len(r.predicate) == 1]
        sampled = [
            r.question
            for r in rng.sample(multi, min(len(multi), self.SAMPLED // 2))
            + rng.sample(single, min(len(single), self.SAMPLED // 2))
        ]
        first_answers = {r.question: r for r in answers}
        # what an add may point a hop at: the objects seen at that hop
        pool: dict[int, list[str]] = {}
        for r in multi:
            frontier = {r.entity}
            for hop, predicate in enumerate(r.predicate.predicates[:2]):
                frontier = {o for node in frontier for o in store.objects(node, predicate)}
                pool.setdefault(hop, []).extend(sorted(frontier))
        expansions = _count_expansions(monkeypatch)
        fresh = 0

        def random_edit():
            nonlocal fresh
            reading = rng.choice(multi)
            hop = rng.randrange(2)
            subjects = {reading.entity}
            for predicate in reading.predicate.predicates[:hop]:
                subjects = {o for node in subjects for o in store.objects(node, predicate)}
            if not subjects:  # an earlier delete cut the path short
                return ("add", reading.entity, reading.predicate.predicates[0], rng.choice(pool[0]))
            subject = rng.choice(sorted(subjects))
            predicate = reading.predicate.predicates[hop]
            held = sorted(store.objects(subject, predicate))
            if held and rng.random() < 0.5:
                return ("delete", subject, predicate, rng.choice(held))
            if hop + 1 == len(reading.predicate) or rng.random() < 0.3:
                fresh += 1
                return ("add", subject, predicate, make_literal(f"fresh value {fresh}"))
            return ("add", subject, predicate, rng.choice(pool[hop]))

        def apply(edit):
            action, s, p, o = edit
            (system.add_fact if action == "add" else system.delete_fact)(s, p, o)

        changed = set()
        for burst in range(self.BURSTS):
            edits = [random_edit() for _ in range(1 if burst % 2 else rng.randint(2, 4))]
            if len(edits) == 1:
                apply(edits[0])
            else:
                with system.batch():
                    for edit in edits:
                        apply(edit)
            assert system.answerer.kbview.expanded is None
            oracle = ReferenceAnswerer(
                KBView(store), system.answerer.ner, system.conceptualizer,
                system.model, system.answerer.max_concepts,
            )
            expected = [oracle.answer(question) for question in sampled]
            assert [system.answer(question) for question in sampled] == expected, burst
            assert system.answer_many(sampled) == expected, burst
            changed.update(
                r.question for r in expected if r != first_answers[r.question]
            )
        assert expansions == []
        # the bursts moved answers, so the equality above had something to catch
        assert len(changed) >= 5, changed


class TestBatchContext:
    """`with backend.batch():` — deferred notifications, one burst."""

    def test_bulk_load_reaches_a_listener_as_one_burst(self):
        kb = _toy_kb()
        bursts = []
        kb.subscribe(bursts.append)
        with kb.batch():
            kb.add("b", "alias", make_literal("bobby"))
            kb.add("b", "nick", make_literal("bo"))
            kb.add("cvt1", "since", make_literal("1999"))
            assert bursts == []  # nothing delivered inside the block
        assert len(bursts) == 1 and len(bursts[0]) == 3

    def test_batched_burst_carries_the_sequential_changes(self):
        """The one burst of a batch holds, in order, the changes that
        change-by-change writes deliver one at a time."""
        edits = [
            ("add", "b", "alias", make_literal("bobby")),
            ("delete", "cvt1", "person", "b"),
            ("add", "cvt1", "person", "c"),
            ("add", "c", "title", make_literal("dr")),
        ]

        def bursts_of(batched: bool):
            kb = _toy_kb()
            bursts = []
            kb.subscribe(bursts.append)
            with kb.batch() if batched else nullcontext():
                for action, s, p, o in edits:
                    (kb.add if action == "add" else kb.delete)(s, p, o)
            return bursts

        sequential = bursts_of(batched=False)
        assert [len(burst) for burst in sequential] == [1] * len(edits)
        assert bursts_of(batched=True) == [tuple(c for burst in sequential for c in burst)]

    def test_nested_batches_flush_once_at_outermost_exit(self):
        kb = _toy_kb()
        bursts = []
        kb.subscribe(bursts.append)
        with kb.batch():
            kb.add("b", "alias", make_literal("bobby"))
            with kb.batch():
                kb.add("b", "nick", make_literal("bo"))
            assert bursts == []  # inner exit does not flush
        assert [len(burst) for burst in bursts] == [2]

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
