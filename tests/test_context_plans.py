"""The online path's context plans stay coherent and bounded.

``OnlineAnswerer`` keeps one plan per de-slotted question context
``(tokens[:start], tokens[end:])`` that some learned template has
(``TemplateModel.contexts``): per concept, ``Σ_w log P(w|c)``, the template
text and the ranked ``P(p|t)``; per prior row ``P(c|e)``, the posterior's
top concepts and the one-entity readings, ranked.  Any other context reaches
no template, so it is neither scored nor kept.  It reads no
KB state, so a KB write leaves it warm; a model swap or a
``Conceptualizer.observe`` drops it, and a re-weighted entity gets a new
prior row, hence a new entry.  Every answer here is held to the string-level
oracle or to a freshly built answerer, score floats included, on both
backends.
"""

from __future__ import annotations

import sys
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles.online_reference import ReferenceAnswerer
from repro.core.fallback import FallbackIndex
from repro.core.model import TemplateModel
from repro.core.online import OnlineAnswerer
from repro.core.system import KBQA
from repro.kb.store import TripleStore
from repro.kb.triple import make_literal
from repro.nlp.ner import EntityRecognizer
from repro.nlp.tokenizer import tokenize
from repro.suite import build_suite
from repro.taxonomy.conceptualizer import Conceptualizer
from test_online_equivalence import ANSWER_CACHES, HOSTILE, REWRITES, hand_built


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
    assert again["prior_rows"] == built["prior_rows"]
    # no NER memo: every evaluation counts as one NER miss
    assert again["ner_hits"] == 0 and again["ner_misses"] == 2 * len(questions)
    assert again["evaluations"] == 2 * len(questions)


def test_prior_rows_are_bounded_by_plans_times_rows(suite, kbqa_fb):
    """One entry per (kept plan, distinct ``P(c|e)`` row) at most, however
    many entities the questions name."""
    questions = gold_stream(suite.corpus)
    answerer = fresh_answerer(kbqa_fb.answerer)
    answerer.answer_many(questions)
    network = answerer.conceptualizer.network
    named = {
        entity
        for question in questions
        for mention in answerer.ner.find_mentions(tuple(tokenize(question)))
        for entity in mention.candidates
    }
    rows = {network.prior_row(entity) for entity in named} - {()}
    info = answerer.cache_info()
    assert len(rows) < len(named)
    assert 0 < info["prior_rows"] <= info["plans"] * len(rows)
    assert info["plan_hits"] + info["plan_misses"] >= len(questions) > info["prior_rows"]


def test_gold_stream_reaches_the_walk_and_the_sum(suite, kbqa_fb, monkeypatch):
    """A one-entity question walks its row's ranked readings; a question with
    several candidates sums their rows' top concepts.  The small gold stream
    takes both branches, and each equals the oracle."""
    questions = gold_stream(suite.corpus)
    answerer = fresh_answerer(kbqa_fb.answerer)
    oracle = ReferenceAnswerer.shadowing(answerer)

    def candidates(question: str) -> int:
        mentions = answerer.ner.find_mentions(tuple(tokenize(question)))
        return sum(len(mention.candidates) for mention in mentions)

    single = [q for q in questions if candidates(q) == 1]
    several = [q for q in questions if candidates(q) > 1]
    assert single and several
    walks = []
    walk = OnlineAnswerer._first_with_values
    monkeypatch.setattr(
        OnlineAnswerer, "_first_with_values",
        lambda self, *args: walks.append(args) or walk(self, *args),
    )
    assert answerer.answer_many(single) == [oracle.answer(q) for q in single]
    assert len(walks) == len(single)
    summed = answerer.answer_many(several)
    assert summed == [oracle.answer(q) for q in several]
    assert len(walks) == len(single)  # the sum never walks
    assert any(r.answered for r in summed)


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
    """Three threads answer while a fourth swaps models back and forth,
    observes new words and re-weights answered entities.  Whatever a reader
    built mid-swap, once the writer stops the answerer agrees with a fresh
    one: a plan built on an outdated model, outdated scores or an outdated
    prior never lands where later readers look."""
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

    entities = sorted({r.entity for r in answerer.answer_many(questions) if r.answered})
    concepts = sorted(conceptualizer.network.all_concepts())

    def write() -> None:
        for step in range(60):
            answerer.replace_model(models[step % 2])
            if step % 15 == 0:
                conceptualizer.observe("$racing", [f"racing{step}"])
            if step % 4 == 0:  # re-weight: a new prior row mid-answer
                entity = entities[step % len(entities)]
                conceptualizer.network.add(entity, concepts[step % len(concepts)], 0.5)
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


# -- Hand-built prior rows ---------------------------------------------------------


def shared_row_world():
    """The hostile world plus two ``springfield``s that share one prior row
    (``$city`` only, like ``cupertino``) and ``kiwi``, a ``$fruit`` that no
    population template knows."""
    store = TripleStore()
    kbview, ner, conceptualizer, model = hand_built(store)
    store.add("m.springfield_il", "population", make_literal("116000"))
    store.add("m.springfield_ma", "population", make_literal("155000"))
    store.add("m.kiwi", "population", make_literal("7"))
    network = conceptualizer.network
    network.add("m.springfield_il", "$city", 2.0)
    network.add("m.springfield_ma", "$city", 5.0)
    network.add("m.kiwi", "$fruit", 1.0)
    gazetteer = {" ".join(name): nodes for name, nodes in ner._names.items()}
    gazetteer["springfield"] = ["m.springfield_il", "m.springfield_ma"]
    gazetteer["kiwi"] = ["m.kiwi"]
    answerer = OnlineAnswerer(
        kbview, EntityRecognizer(gazetteer), conceptualizer, model, answer_cache_size=0
    )
    return answerer, ReferenceAnswerer.shadowing(answerer)


def plan_entries(answerer: OnlineAnswerer, question: str) -> dict:
    """The prior-row entries of ``question``'s plan (one mention assumed)."""
    tokens = tuple(tokenize(question))
    (mention,) = answerer.ner.find_mentions(tokens)
    _stamp, plans = answerer._plans
    return plans[tokens[: mention.start], tokens[mention.end :]][2]


def test_two_candidates_sharing_a_row_sum_one_entry():
    answerer, oracle = shared_row_world()
    network = answerer.conceptualizer.network
    row = network.prior_row("m.springfield_il")
    assert network.prior_row("m.springfield_ma") is row is network.prior_row("m.cupertino")
    question = "what is the population of springfield?"
    got = answerer.answer(question)
    assert got == oracle.answer(question)
    assert got.entity == "m.springfield_il"  # equal scores: the entity name decides
    assert got.score == 0.5  # P(e|q) = 1/2, P(c|e,q) = θ = P(v|e,p) = 1
    assert list(plan_entries(answerer, question)) == [row]
    # the one-entity question on the same row and context reuses the entry
    assert answerer.answer("what is the population of cupertino?") == oracle.answer(
        "what is the population of cupertino?"
    )
    assert answerer.cache_info()["prior_rows"] == 1


def test_two_mentions_sum_over_both_rows():
    answerer, oracle = shared_row_world()
    question = "is São Paulo bigger than Cupertino?"
    tokens = tuple(tokenize(question))
    assert len(answerer.ner.find_mentions(tokens)) == 2
    got = answerer.answer(question)
    assert got == oracle.answer(question) and got.answered
    assert answerer.cache_info()["prior_rows"] == 2  # one per (context, row)
    assert answerer.answer(question) == got


def test_a_kept_plan_may_hold_an_empty_ordering():
    """``kiwi`` lands in a plan ``são paulo`` keeps, but none of its
    concepts has a template there: its entry is empty, and the answer is the
    oracle's no-predicate one."""
    answerer, oracle = shared_row_world()
    kept = "what is the population of são paulo?"
    assert answerer.answer(kept).answered
    question = "what is the population of kiwi?"
    got = answerer.answer(question)
    assert got == oracle.answer(question)
    assert not got.answered and not got.found_predicate
    entries = plan_entries(answerer, question)
    assert entries[answerer.conceptualizer.network.prior_row("m.kiwi")] == ((), ())
    assert answerer.answer(question) == got  # read back from the entry
    assert answerer.cache_info()["plans"] == 1


def test_reweighting_an_answered_entity_gives_it_a_new_row(live_system):
    """``network.add`` on an entity that has been answered, the answer cache
    off — what binding a mega world's gold entities does.  The entity's new
    prior row is a new key, so its next answer is conceptualized afresh;
    entities that still share its old row keep their entry."""
    own, system = live_system
    answerer = fresh_answerer(system.answerer)
    network = answerer.conceptualizer.network
    questions = gold_stream(own.corpus)[:300]
    before = answerer.answer_many(questions)
    answered = [r for r in before if r.answered]
    target, bystander = next(
        (a, b) for a in answered for b in answered
        if b.entity != a.entity and network.prior_row(b.entity) is network.prior_row(a.entity)
    )
    old_row = network.prior_row(target.entity)
    concept = sorted(network.all_concepts() - {c for c, _p in old_row})[0]
    entries = answerer.cache_info()["prior_rows"]

    network.add(target.entity, concept, 1e6)
    assert network.prior_row(target.entity) != old_row
    assert network.prior_row(bystander.entity) == old_row
    after = answerer.answer_many(questions)
    assert after == [ReferenceAnswerer.shadowing(answerer).answer(q) for q in questions]
    assert after == fresh_answerer(answerer).answer_many(questions)
    assert answerer.answer(target.question) != target
    assert answerer.answer(bystander.question) == bystander
    assert answerer.cache_info()["prior_rows"] > entries


# -- Contexts no template has ------------------------------------------------------


@pytest.fixture
def scores_made(monkeypatch) -> list:
    """Every context ``Conceptualizer.context_scores`` is asked to score."""
    made: list = []
    score = Conceptualizer.context_scores
    monkeypatch.setattr(
        Conceptualizer, "context_scores",
        lambda self, context: made.append(tuple(context)) or score(self, context),
    )
    return made


def test_held_out_rewrites_build_no_context_scores(live_system, scores_made):
    """The three held-out rewrites of every gold question de-slot to contexts
    no learned template has: one pass scores none of them and keeps no plan,
    and every answer, lane on and off, is the oracle's."""
    own, system = live_system
    held_out = [rewrite(q) for q in gold_stream(own.corpus) for rewrite in REWRITES[1:]]
    parts = system.answerer
    for fallback in (None, FallbackIndex.build(system.model)):
        answerer = OnlineAnswerer(
            parts.kbview, parts.ner, parts.conceptualizer, parts.model,
            max_concepts=parts.max_concepts, answer_cache_size=0, fallback=fallback,
        )
        got = answerer.answer_many(held_out)
        assert scores_made == []
        assert answerer.cache_info()["plans"] == 0
        oracle = ReferenceAnswerer.shadowing(answerer)
        assert got == [oracle.answer(question) for question in held_out]
        assert any(r.fallback for r in got) == (fallback is not None)


def test_plans_are_bounded_by_the_model_contexts(suite, kbqa_fb, scores_made):
    """A gold pass scores each known context it meets exactly once."""
    answerer = fresh_answerer(kbqa_fb.answerer)
    answerer.answer_many(gold_stream(suite.corpus))
    info = answerer.cache_info()
    assert 0 < info["plans"] == info["plan_misses"] == len(scores_made)
    assert info["plans"] <= len(kbqa_fb.model.contexts) < len(kbqa_fb.model)


SLOT_TEMPLATES = {
    "is $city bigger than $city ?": "population",
    "what is the $ population of $city ?": "population",
    "$ what color is $fruit ?": "color",
}


def slot_world():
    """The hostile world plus templates whose context holds a concept token
    (``$city``) or the bare ``$`` the tokenizer also emits: the model knows a
    context at *every* ``$`` token of a key, not only at its first."""
    kbview, ner, conceptualizer, model = hand_built(TripleStore())
    for template, path in SLOT_TEMPLATES.items():
        model.set_distribution(template, {path: 1.0})
    return kbview, ner, conceptualizer, model


SLOT_WORDS = (
    "$", "$city", "$fruit", "$company", "?", "what", "is", "the", "population", "of",
    "color", "bigger", "than", "who", "ceo", "apple", "cupertino", "sao paulo", "ghost",
)


def slotted(template: str, fillers) -> str:
    """``template`` with each ``$`` token replaced by the next filler (None keeps it)."""
    tokens = template.split(" ")
    fillers = iter(fillers)
    return " ".join(
        (next(fillers, None) or token) if token.startswith("$") else token for token in tokens
    )


SLOT_QUESTIONS = st.one_of(
    st.lists(st.sampled_from(SLOT_WORDS), max_size=9).map(" ".join),
    st.builds(
        slotted,
        st.sampled_from(
            [*SLOT_TEMPLATES, "what is the population of $city ?",
             "is sao paulo bigger than $city ?"]
        ),
        st.lists(st.sampled_from([None, "$", "$city", "apple", "cupertino", "sao paulo"])),
    ),
)


@pytest.fixture(scope="module")
def slot_products():
    """(product, oracle) over :func:`slot_world`, lane and answer cache on and off."""
    kbview, ner, conceptualizer, model = slot_world()
    pairs = []
    for fallback in (None, FallbackIndex.build(model)):
        for answer_cache in ANSWER_CACHES:
            product = OnlineAnswerer(
                kbview, ner, conceptualizer, model, answer_cache_size=answer_cache,
                fallback=fallback,
            )
            pairs.append((product, ReferenceAnswerer.shadowing(product)))
    return pairs


def test_a_concept_token_in_the_context_reaches_its_template(slot_products):
    product, oracle = slot_products[0]
    for question in (
        "is $city bigger than cupertino?",
        "what is the $ population of sao paulo?",
        "$ what color is apple?",
    ):
        got = product.answer(question)
        assert got == oracle.answer(question) and got.answered, question
        assert got.template is not None and got.template.count("$") == 2


@settings(max_examples=200, deadline=None)
@given(question=SLOT_QUESTIONS)
def test_questions_carrying_slot_tokens_match_the_oracle(slot_products, question):
    for product, oracle in slot_products:
        assert product.answer(question) == oracle.answer(question), question
        assert product.cache_info()["plans"] <= len(product.model.contexts)


UNKNOWN = "how many people live in cupertino?"  # no template has this context
TEMPLATE = "how many people live in $city ?"


def test_a_skipped_context_is_answered_after_replace_model():
    kbview, ner, conceptualizer, model = hand_built(TripleStore())
    answerer = OnlineAnswerer(kbview, ner, conceptualizer, model)
    assert not answerer.answer(UNKNOWN).found_predicate
    assert answerer.cache_info()["plans"] == 0  # nothing is remembered about it
    learned = TemplateModel()
    for template in model.templates():
        distribution = {str(path): p for path, p in model.predicates_for(template).items()}
        learned.set_distribution(template, distribution, model.support(template))
    learned.set_distribution(TEMPLATE, {"population": 1.0})
    answerer.replace_model(learned)
    got = answerer.answer(UNKNOWN)
    assert got == ReferenceAnswerer.shadowing(answerer).answer(UNKNOWN)
    assert (got.value, got.template, got.fallback) == ("60000", TEMPLATE, False)


@pytest.mark.parametrize("answer_cache", ANSWER_CACHES, ids=["caches-on", "caches-off"])
def test_a_skipped_context_is_answered_after_set_distribution(answer_cache):
    """A template learned into the live model: the context it adds is known
    from then on (the answer cache, when on, is cleared as after any model
    edit)."""
    kbview, ner, conceptualizer, model = hand_built(TripleStore())
    answerer = OnlineAnswerer(kbview, ner, conceptualizer, model, answer_cache_size=answer_cache)
    assert not answerer.answer(UNKNOWN).found_predicate
    model.set_distribution(TEMPLATE, {"population": 1.0})
    answerer.clear_caches()
    got = answerer.answer(UNKNOWN)
    assert got == ReferenceAnswerer.shadowing(answerer).answer(UNKNOWN)
    assert (got.value, got.template, got.fallback) == ("60000", TEMPLATE, False)
    assert answerer.cache_info()["plans"] == 1
