"""The online path's context plans stay coherent and bounded.

``OnlineAnswerer`` keeps one plan per de-slotted question context
``(tokens[:start], tokens[end:])``: per concept, ``Σ_w log P(w|c)``, the
template text and the ranked ``P(p|t)``.  It reads no KB state, so a KB write
leaves it warm; a model swap or a ``Conceptualizer.observe`` drops it.  Every
answer here is held to the string-level oracle or to a freshly built
answerer, score floats included, on both backends.
"""

from __future__ import annotations

import sys
import threading
import time

import pytest

from oracles.online_reference import ReferenceAnswerer
from repro.core.model import TemplateModel
from repro.core.online import OnlineAnswerer
from repro.core.system import KBQA
from repro.kb.triple import make_literal
from repro.suite import build_suite
from test_online_equivalence import HOSTILE, hand_built


def gold_stream(corpus) -> list[str]:
    return list(
        {
            pair.question: None
            for pair in corpus
            if pair.meta.get("kind") == "factoid" and not pair.meta["wrong"]
        }
    )


def fresh_answerer(answerer: OnlineAnswerer, answer_cache_size: int = 0) -> OnlineAnswerer:
    """A cold answerer over ``answerer``'s current KB view, NER, taxonomy and model."""
    return OnlineAnswerer(
        answerer.kbview, answerer.ner, answerer.conceptualizer, answerer.model,
        max_concepts=answerer.max_concepts, answer_cache_size=answer_cache_size,
    )


@pytest.fixture(scope="module", params=["memory", "disk"])
def live_system(request):
    """A system of its own (its KB and taxonomy are edited here), per backend."""
    own = build_suite("small", seed=7, backend=request.param)
    system = KBQA.train(own.freebase, own.corpus, own.conceptualizer)
    yield own, system
    system.close()
    if request.param == "disk":
        own.freebase.store.close()


@pytest.mark.parametrize("store_type", ["memory", "disk"])
def test_plans_stay_bounded_by_the_model(store_type):
    """Hostile questions and 2 000 questions around unknown templates keep no
    plan the model does not bound."""
    from repro.kb.disk import DiskTripleStore
    from repro.kb.store import TripleStore

    store = TripleStore() if store_type == "memory" else DiskTripleStore()
    try:
        kbview, ner, conceptualizer, model = hand_built(store)
        answerer = OnlineAnswerer(kbview, ner, conceptualizer, model, answer_cache_size=0)
        with_mentions = HOSTILE[4:]  # the first four name no entity
        unknown = [f"zq{i} {question}" for i in range(200) for question in with_mentions]
        assert len(unknown) >= 2000
        answerer.answer_many(unknown)
        assert answerer.cache_info()["plan_misses"] == 0
        assert answerer.cache_info()["plans"] == 0  # no context reached a known template
        answerer.answer_many(HOSTILE)
        info = answerer.cache_info()
        assert 0 < info["plans"] <= len(model)
        assert info["ranked_templates"] <= len(model)
    finally:
        if store_type == "disk":
            store.close()


def test_second_pass_over_the_gold_stream_builds_no_plan(suite, kbqa_fb):
    questions = gold_stream(suite.corpus)
    answerer = fresh_answerer(kbqa_fb.answerer)
    first = answerer.answer_many(questions)
    built = answerer.cache_info()
    assert 0 < built["plans"] <= len(kbqa_fb.model)
    assert built["plan_misses"] == built["plans"]
    assert answerer.answer_many(questions) == first
    again = answerer.cache_info()
    assert again["plan_misses"] == built["plan_misses"]
    assert again["plan_hits"] > built["plan_hits"]
    # no NER memo: every evaluation counts as one NER miss
    assert again["ner_hits"] == 0 and again["ner_misses"] == 2 * len(questions)


def test_warm_plans_survive_kb_writes(live_system):
    """``add_fact`` / ``delete_fact`` clear the answer cache and leave the
    plans; each answer equals the oracle at the same KB epoch."""
    own, system = live_system
    answerer = system.answerer
    oracle = ReferenceAnswerer.shadowing(answerer)
    questions = gold_stream(own.corpus)[:400]
    answered = [r for r in system.answer_many(questions) if r.answered]
    warm = answerer.cache_info()
    assert warm["plans"] > 0

    direct = next(r for r in answered if len(r.predicate) == 1)
    chained = next(r for r in answered if len(r.predicate) > 1)
    store = system.kb.store
    first_hop = chained.predicate.predicates[0]
    hop_object = sorted(store.objects(chained.entity, first_hop))[0]
    extra = make_literal("4242424")
    edits = [
        ("add", (direct.entity, direct.predicate.predicates[0], extra)),
        ("delete", (chained.entity, first_hop, hop_object)),
    ]
    try:
        for kind, fact in edits:
            assert (system.add_fact if kind == "add" else system.delete_fact)(*fact)
            got = system.answer_many(questions)
            assert got == [oracle.answer(question) for question in questions]
            info = answerer.cache_info()
            assert (info["plans"], info["plan_misses"]) == (warm["plans"], warm["plan_misses"])
        assert system.answer(direct.question).values != direct.values
        assert system.answer(chained.question) != chained
    finally:
        system.delete_fact(direct.entity, direct.predicate.predicates[0], extra)
        system.add_fact(chained.entity, first_hop, hop_object)
    assert system.answer_many(questions) == [oracle.answer(q) for q in questions]


def retrained_toward(model: TemplateModel, path) -> TemplateModel:
    """A 'retrained' model: every template now argmaxes ``path``."""
    retrained = TemplateModel()
    for template in model.templates():
        retrained.set_distribution(template, {str(path): 1.0}, 1.0)
    return retrained


def test_replace_model_drops_the_plans(live_system):
    own, system = live_system
    answerer = fresh_answerer(system.answerer, answer_cache_size=2048)
    questions = gold_stream(own.corpus)[:200]
    before = answerer.answer_many(questions)
    assert answerer.cache_info()["plans"] > 0

    target = next(r for r in before if r.answered)
    answerer.replace_model(retrained_toward(system.model, target.predicate))
    assert answerer.cache_info()["plans"] == 0
    after = answerer.answer_many(questions)
    assert after == fresh_answerer(answerer).answer_many(questions)
    assert after != before


def test_observe_drops_the_plans(live_system):
    """An observation moves every ``P(w|c)``: plans built before it are not
    read after it, even by an answerer that only cleared its answer cache."""
    own, system = live_system
    answerer = fresh_answerer(system.answerer, answer_cache_size=2048)
    questions = gold_stream(own.corpus)[:200]
    before = answerer.answer_many(questions)
    assert answerer.cache_info()["plans"] > 0

    conceptualizer = answerer.conceptualizer
    words = {w for q in questions for w in q.rstrip("?").split()}
    for concept in sorted(conceptualizer.network.all_concepts())[::2]:
        conceptualizer.observe(concept, sorted(words), weight=5.0)
    assert answerer.cache_info()["plans"] == 0  # stamped with the old generation
    answerer.clear_caches()
    after = answerer.answer_many(questions)
    assert after == fresh_answerer(answerer).answer_many(questions)
    assert after == [ReferenceAnswerer.shadowing(answerer).answer(q) for q in questions]
    assert [r.score for r in after] != [r.score for r in before]


def test_swaps_racing_readers_leave_no_stale_plan(live_system):
    """Three threads answer while a fourth swaps models back and forth and
    observes new words.  Whatever a reader built mid-swap, once the writer
    stops the answerer agrees with a fresh one: a plan built on an outdated
    model or outdated scores never lands where later readers look."""
    own, system = live_system
    answerer = fresh_answerer(system.answerer)
    questions = gold_stream(own.corpus)[:120]
    target = next(r for r in answerer.answer_many(questions) if r.answered)
    models = [retrained_toward(system.model, target.predicate), system.model]
    conceptualizer = answerer.conceptualizer
    stop = threading.Event()
    failures: list[BaseException] = []

    def read() -> None:
        while not stop.is_set():
            try:
                answerer.answer_many(questions)
            except BaseException as exc:  # surfaced by the assertion below
                failures.append(exc)
                return

    def write() -> None:
        for step in range(60):
            answerer.replace_model(models[step % 2])
            if step % 15 == 0:
                conceptualizer.observe("$racing", [f"racing{step}"])
            time.sleep(0.001)
        stop.set()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=fn) for fn in (read, read, read, write)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        stop.set()
        sys.setswitchinterval(interval)
    assert not failures
    assert answerer.model is system.model
    assert answerer.answer_many(questions) == fresh_answerer(answerer).answer_many(questions)
