"""The table-driven online path against the string-level oracle.

``OnlineAnswerer`` answers a cache miss from tables built once (normalised
priors, per-concept log tables, ranked θ arrays, joined template keys);
``tests/oracles/online_reference.py`` recomputes everything per question.
Both must return the same ``AnswerResult`` — dataclass equality, score floats
included — on every gold factoid, through every held-out rewrite, with the
fallback lane on and off, the serving caches on and off, on both backends,
and whether ``answer_many`` tokenizes the questions itself or is handed
their normalized keys (as the serving layer does).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles.online_reference import ReferenceAnswerer
from repro.core.fallback import FallbackIndex
from repro.core.kbview import KBView
from repro.core.model import TemplateModel
from repro.core.online import OnlineAnswerer
from repro.core.system import KBQA
from repro.kb.disk import DiskTripleStore
from repro.kb.store import TripleStore
from repro.kb.triple import make_literal
from repro.nlp.ner import EntityRecognizer
from repro.serve import normalized_key
from repro.suite import build_suite
from repro.taxonomy.conceptualizer import Conceptualizer
from repro.taxonomy.isa import IsANetwork

# The three held-out rewordings of benchmarks/e2e/inputs.py (its copy of the
# paraphrase axis), copied again so tier-1 does not import the benchmark.
REWRITES = (
    lambda q: q,
    lambda q: "regarding " + q.rstrip("?") + ", any thoughts?",
    lambda q: q.rstrip("?") + " or not?",
    lambda q: "quick trivia: " + q,
)
ANSWER_CACHES = (2048, 0)  # on, off


def gold_questions(corpus) -> list[str]:
    questions = {
        pair.question: None
        for pair in corpus
        if pair.meta.get("kind") == "factoid" and not pair.meta["wrong"]
    }
    return [rewrite(question) for question in questions for rewrite in REWRITES]


def assert_product_equals_oracle(system: KBQA, questions: list[str]) -> None:
    """Every lane × cache configuration over ``system``'s trained parts."""
    parts = system.answerer
    keys = [normalized_key(question) for question in questions]
    for fallback in (None, FallbackIndex.build(system.model)):
        oracle = ReferenceAnswerer(
            parts.kbview, parts.ner, parts.conceptualizer, parts.model,
            parts.max_concepts, fallback,
        )
        expected = [oracle.answer(question) for question in questions]
        assert any(r.fallback for r in expected) == (fallback is not None)
        for answer_cache in ANSWER_CACHES:
            product = OnlineAnswerer(
                parts.kbview, parts.ner, parts.conceptualizer, parts.model,
                max_concepts=parts.max_concepts, answer_cache_size=answer_cache,
                fallback=fallback,
            )
            assert product.answer_many(questions) == expected
            # a second pass reads whatever the first one left in the caches
            assert product.answer_many(questions[:512]) == expected[:512]
            # the serving layer's keyed call: cold with the answer cache off
            assert product.answer_many(questions, keys) == expected
            info = product.cache_info()
            assert info["ranked_templates"] <= len(system.model)
            assert info["plans"] <= len(system.model.contexts) < len(system.model)


class TestGoldStream:
    def test_memory_backend(self, suite, kbqa_fb):
        questions = gold_questions(suite.corpus)
        assert len(questions) > 8000
        assert_product_equals_oracle(kbqa_fb, questions)

    def test_disk_backend(self):
        disk_suite = build_suite("small", seed=7, backend="disk")
        assert type(disk_suite.freebase.store) is DiskTripleStore
        with KBQA.train(
            disk_suite.freebase, disk_suite.corpus, disk_suite.conceptualizer
        ) as system:
            assert_product_equals_oracle(system, gold_questions(disk_suite.corpus))

    @pytest.mark.perf
    def test_default_scale_all_gold(self, monkeypatch):
        """The ≈ 20 k gold factoids of the benchmark's suite, four surfaces
        each; the three held-out surfaces de-slot to contexts no learned
        template has, so they build no context scores."""
        big = build_suite("default", seed=7)
        system = KBQA.train(big.freebase, big.corpus, big.conceptualizer)
        questions = gold_questions(big.corpus)
        assert len(questions) > 80_000
        assert_product_equals_oracle(system, questions)

        made = []
        score = Conceptualizer.context_scores
        monkeypatch.setattr(
            Conceptualizer, "context_scores",
            lambda self, context: made.append(context) or score(self, context),
        )
        product = OnlineAnswerer(
            system.answerer.kbview, system.answerer.ner, system.conceptualizer, system.model,
            max_concepts=system.answerer.max_concepts, answer_cache_size=0,
        )
        product.answer_many([q for i, q in enumerate(questions) if i % len(REWRITES)])
        assert made == [] and product.cache_info()["plans"] == 0
        product.answer_many(questions[:: len(REWRITES)])  # the gold surface
        assert 0 < product.cache_info()["plans"] == len(made) <= len(system.model.contexts)


# -- Hostile inputs over a hand-built world --------------------------------------


def hand_built(store) -> tuple[KBView, EntityRecognizer, Conceptualizer, TemplateModel]:
    """``apple`` names a company and a fruit, ``ghost`` is in the gazetteer
    but not in the taxonomy, ``são paulo`` folds to ASCII."""
    for s, p, o in [
        ("m.apple_co", "headquarter", "m.cupertino"),
        ("m.apple_co", "ceo", make_literal("tim cook")),
        ("m.apple_fruit", "color", make_literal("red")),
        ("m.apple_fruit", "color", make_literal("green")),
        ("m.sao_paulo", "population", make_literal("12300000")),
        ("m.cupertino", "population", make_literal("60000")),
        ("m.ghost", "population", make_literal("0")),
    ]:
        store.add(s, p, o)
    ner = EntityRecognizer(
        {
            "apple": ["m.apple_co", "m.apple_fruit"],
            "São Paulo": ["m.sao_paulo"],
            "cupertino": ["m.cupertino"],
            "ghost": ["m.ghost"],
        }
    )
    network = IsANetwork()
    network.add("m.apple_co", "$company", 6.0)
    network.add("m.apple_co", "$brand", 1.0)
    network.add("m.apple_fruit", "$fruit", 5.0)
    network.add("m.sao_paulo", "$city", 3.0)
    network.add("m.sao_paulo", "$location", 1.0)
    network.add("m.cupertino", "$city", 2.0)
    conceptualizer = Conceptualizer(network)
    conceptualizer.observe_text("$company", "who runs the headquarter ceo founded")
    conceptualizer.observe_text("$fruit", "what color taste eat ripe")
    conceptualizer.observe_text("$city", "how many people live population mayor")
    model = TemplateModel()
    model.set_distribution("who is the ceo of $company ?", {"ceo": 0.9, "headquarter": 0.1})
    model.set_distribution("who is the ceo of $brand ?", {"ceo": 0.6, "headquarter": 0.4})
    model.set_distribution("what color is $fruit ?", {"color": 1.0})
    model.set_distribution("what is the population of $city ?", {"population": 1.0})
    model.set_distribution("what is the population of $location ?", {"population": 0.5, "ceo": 0.5})
    model.set_distribution("is $city bigger than cupertino ?", {"population": 1.0})
    model.set_distribution("is sao paulo bigger than $city ?", {"population": 0.7, "ceo": 0.3})
    return KBView(store), ner, conceptualizer, model


HOSTILE = [
    "",
    "   ",
    "?",
    "what should i eat tonight?",  # no mention
    "who is the ceo of apple?",  # two candidates, context picks the company
    "what color is apple?",  # ... or the fruit
    "apple",  # ... or nothing to go on: no context at all
    "is São Paulo bigger than Cupertino?",  # two mentions
    "what is the population of são paulo?",  # non-ASCII, folded
    "What is the population of SAO PAULO?",
    "what is the population of sa\u0303o paulo?",  # combining tilde
    "what is the population of ghost?",  # entity with an empty prior
    "what is the population of 北京?",  # folds to no mention
    "what is the population of $city ?",  # a template as a question
]


@pytest.mark.parametrize("store_type", [TripleStore, DiskTripleStore])
@pytest.mark.parametrize("answer_cache", ANSWER_CACHES, ids=["caches-on", "caches-off"])
def test_hostile_inputs(store_type, answer_cache):
    store = store_type()
    try:
        kbview, ner, conceptualizer, model = hand_built(store)
        for fallback in (None, FallbackIndex.build(model)):
            product = OnlineAnswerer(
                kbview, ner, conceptualizer, model, answer_cache_size=answer_cache,
                fallback=fallback,
            )
            oracle = ReferenceAnswerer.shadowing(product)
            expected = [oracle.answer(question) for question in HOSTILE]
            assert product.answer_many(HOSTILE) == expected
            assert [product.answer(question) for question in HOSTILE] == expected
            keyed = OnlineAnswerer(  # a cold twin for the keyed call
                kbview, ner, conceptualizer, model, answer_cache_size=answer_cache,
                fallback=fallback,
            )
            keys = [normalized_key(question) for question in HOSTILE]
            assert keyed.answer_many(HOSTILE, keys) == expected
            by_question = dict(zip(HOSTILE, expected))
            assert by_question["who is the ceo of apple?"].entity == "m.apple_co"
            assert by_question["what color is apple?"].values == ("green", "red")
            assert by_question["what is the population of são paulo?"].value == "12300000"
            assert by_question["is São Paulo bigger than Cupertino?"].answered
            ghost = by_question["what is the population of ghost?"]
            assert ghost.fallback if fallback else not ghost.found_predicate
    finally:
        if store_type is DiskTripleStore:
            store.close()


# Code points that stress ``_fold``: combining marks, NFKC compatibility
# forms (fullwidth letters and ``？``, ligatures, circled and roman-numeral
# letters, super/subscripts, the Kelvin and Ohm signs, long s), letters whose
# case mapping leaves ASCII (dotted capital I, sharp s), invisible spaces
# and the lone surrogate a JSON body can carry.
FOLD_STRESS = (
    "\u0300\u0301\u0303\u0308\u0327\u0345\u20dd"
    "\uff21\uff4f\uff10\uff1f\ufb01\ufb03\u24b6\u2160\u00b2\u2082"
    "\u212a\u2126\u017f\u0130\u0131\u00df\u1e9e\u0149"
    "\u00a0\u2009\u3000\u200b\ufeff\u2019\u2014\u2212\ud800"
)
CODE_POINTS = st.one_of(
    st.characters(exclude_categories=()),  # any code point, surrogates too
    st.sampled_from(FOLD_STRESS),
    st.sampled_from("aeiou sp?'$-"),
)
EDITS = st.lists(
    st.tuples(
        st.sampled_from(["insert", "replace", "delete", "swapcase"]),
        st.integers(min_value=0, max_value=64),
        CODE_POINTS,
    ),
    min_size=1,
    max_size=4,
)


def mutate(question: str, edits) -> str:
    """Apply ``edits`` — (kind, position, code point) — to ``question``."""
    chars = list(question)
    for kind, position, code_point in edits:
        at = position % (len(chars) + 1)
        if kind == "insert":
            chars.insert(at, code_point)
        elif at < len(chars):
            if kind == "replace":
                chars[at] = code_point
            elif kind == "delete":
                del chars[at]
            else:
                chars[at] = chars[at].swapcase()
    return "".join(chars)


@pytest.fixture(scope="module")
def hand_built_products():
    """(product, oracle) over the hand-built world: both store types, caches
    on and off, the fallback lane on and off.  Module-scoped, so the caches
    carry over from one example to the next, as they do in serving."""
    stores = [TripleStore(), DiskTripleStore()]
    pairs = []
    for store in stores:
        kbview, ner, conceptualizer, model = hand_built(store)
        for fallback in (None, FallbackIndex.build(model)):
            for answer_cache in ANSWER_CACHES:
                product = OnlineAnswerer(
                    kbview, ner, conceptualizer, model, answer_cache_size=answer_cache,
                    fallback=fallback,
                )
                pairs.append((product, ReferenceAnswerer.shadowing(product)))
    yield pairs
    stores[1].close()


@settings(max_examples=150, deadline=None)
@given(question=st.sampled_from(HOSTILE), edits=EDITS)
def test_mutated_hostile_questions_match_the_oracle(hand_built_products, question, edits):
    """Whole questions mutated code point by code point still go through
    ``_fold`` -> NER -> Eq 7 -> the KB exactly as the string-level oracle
    does, on every store, cache and lane configuration."""
    mutant = mutate(question, edits)
    key = normalized_key(mutant)
    for product, oracle in hand_built_products:
        expected = oracle.answer(mutant)
        assert product.answer_many([mutant], [key]) == [expected], mutant
        assert product.answer(mutant) == expected, mutant


def test_non_concept_slot_is_refused():
    """The ``$`` invariant ``Template`` enforced still guards the joined key."""
    kbview, ner, conceptualizer, model = hand_built(TripleStore())
    conceptualizer.network._concepts_of["m.cupertino"]["city"] = 1.0  # past add()'s check
    conceptualizer.network._priors = {}
    product = OnlineAnswerer(kbview, ner, conceptualizer, model)
    with pytest.raises(ValueError, match="must be a concept"):
        product.answer("what is the population of cupertino?")
    with pytest.raises(ValueError, match="must be a concept"):
        ReferenceAnswerer.shadowing(product).answer("what is the population of cupertino?")
