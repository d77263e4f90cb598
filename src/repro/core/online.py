"""Online question answering (Sec 3.3).

Given a user question ``q0`` the answerer evaluates Eq 7:

    ``P(v|q0) = Σ_{e,p,t} P(v|e,p) · P(p|t) · P(t|e,q0) · P(e|q0)``

by enumerating the question's entity mentions (NER + KB membership), the
templates from conceptualizing each entity (``P(t|e,q)``), the learned
predicate distribution ``P(p|t)``, and the value sets ``V(e,p)``.  The
complexity is ``O(|P|)`` — linear in the candidate predicates per template —
exactly the paper's analysis.

Serving-layer hot paths (Table 14's 79 ms/question is a *systems* claim).
A cache-missing answer is table-driven — everything a question does not
change is computed once, lazily, and dropped by the write that outdates it:

* ``P(c|e)`` and the per-concept ``log P(w|c)`` tables live in
  ``repro.taxonomy``; a posterior costs one dict probe per context word per
  concept, no ``math.log`` and no normalisation pass;
* a question is a template plus an entity, and many questions share a
  template, so what the de-slotted context ``(tokens[:start], tokens[end:])``
  fixes is kept in one *plan* per context: per concept, the context's
  ``Σ_w log P(w|c)``, the template text (one ``" ".join`` over the
  question's own tokens) and ``P(p|t)`` as a ranked ``(path_str, path, θ)``
  array parsed from the model.  Plans are keyed on the contexts the model
  knows (``TemplateModel.contexts``): a context no template has reaches no
  template whatever concept fills it, so it is skipped before any
  posterior is computed — a held-out paraphrase costs NER and one set
  probe — and every known context gets its plan.  The plans cannot
  outnumber the model's contexts (no size knob); a KB write leaves them, a
  model swap or a ``Conceptualizer.observe`` drops them;
* the entity enters ``P(t|e,q)`` only through its prior row ``P(c|e)``
  (``IsANetwork.prior_row``), and thousands of entities share a handful of
  rows, so a kept plan also holds, per prior row, the posterior's top
  concepts with their templates and ``P(p|t)`` and the one-entity readings
  already summed and ranked.  A single-candidate question walks those
  readings until a KB probe returns values; a question with several
  candidates sums the rows' top concepts at its own ``P(e|q)``.  Each
  question still pays for NER and the KB probes;
* a multi-candidate Eq 7 accumulates with one dict probe per reading, sorts
  only when there is more than one, and a single value is rendered without
  the set machinery;
* no NER memo and no LRU: keyed on the whole token tuple and on
  (entity, context), the two LRUs this path once had hit 0 % of lookups on
  four of the five benchmark workloads and < 1 % on the fifth, and cost
  more than they saved;
* an optional answer cache keyed on *normalized* question text short-circuits
  repeat questions entirely;
* :meth:`OnlineAnswerer.answer_many` batches questions through the warm
  caches, deduplicating repeats on the normalized key before evaluation,
  and is equivalence-tested against per-question :meth:`answer`.

The string-level evaluation this replaced is the differential oracle in
``tests/oracles/online_reference.py``; the two are held to ``AnswerResult``
equality, score floats included.

The result distinguishes *found a predicate* (the ``#pro`` condition of
Sec 7.3.1) from *produced values*: a question whose template is known but
whose entity lacks the fact processes without an answer.

An optional *semantic fallback lane* (``repro.core.fallback``) runs only
when Eq 7 produces no value: the question's mention span is removed, the
remainder is embedded, and the learned predicate paths are scored by cosine
behind a confidence gate.  Answers recovered this way are tagged
``fallback=True``; questions the deterministic lane answers are returned
byte-identical whether or not the lane is enabled (equivalence-tested).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from itertools import repeat
from typing import Sequence

from repro.core.fallback import FallbackIndex
from repro.core.kbview import KBView
from repro.core.model import Context, TemplateModel
from repro.kb.paths import PredicatePath
from repro.kb.triple import LITERAL_PREFIX
from repro.nlp.embed import embed_tokens
from repro.nlp.ner import EntityRecognizer
from repro.nlp.tokenizer import tokenize
from repro.taxonomy.conceptualizer import Conceptualizer, ContextScores, top_concepts
from repro.taxonomy.isa import PriorRow

# ((path_str, path, θ), ...) sorted by (-θ, path_str); () for an unknown template
Ranked = tuple[tuple[str, PredicatePath, float], ...]
# ((P(c|e,q), template text, ranked), ...) for the top concepts of one prior
# row in one context, in top_concepts order, unknown templates left out
Tops = tuple[tuple[float, str, Ranked], ...]
# ((S, template text, path), ...): one entity's readings at P(e|q) = 1,
# sorted by (-S, path_str)
Ordered = tuple[tuple[float, str, PredicatePath], ...]
# one de-slotted context's scores; per concept, its template and P(p|t); and
# per prior row P(c|e), its tops and ordered readings
Plan = tuple[
    ContextScores | None, dict[str, tuple[str, Ranked]], dict[PriorRow, tuple[Tops, Ordered]]
]


@dataclass(frozen=True, slots=True)
class AnswerResult:
    """Outcome of answering one BFQ."""

    question: str
    value: str | None  # best single value (argmax_v), unquoted
    values: tuple[str, ...]  # full answer set V(e, p*) of the best reading
    score: float
    entity: str | None
    template: str | None
    predicate: PredicatePath | None
    found_predicate: bool  # the #pro condition
    candidates: tuple[tuple[str, float], ...] = field(default=())
    fallback: bool = False  # answered by the semantic fallback lane

    @property
    def answered(self) -> bool:
        return self.value is not None


class OnlineAnswerer:
    """Evaluates Eq 7 against a knowledge base view and a template model.

    ``answer_cache_size`` bounds the normalized-question answer cache (0
    disables it).  ``lookup_cache_size`` is accepted and validated but
    ignored: the NER/conceptualizer LRUs it sized are gone, and the context
    plans that replaced them are bounded by the model's contexts.
    """

    def __init__(
        self,
        kbview: KBView,
        ner: EntityRecognizer,
        conceptualizer: Conceptualizer,
        model: TemplateModel,
        max_concepts: int = 4,
        answer_cache_size: int = 2048,
        lookup_cache_size: int = 8192,
        fallback: FallbackIndex | None = None,
    ) -> None:
        self.kbview = kbview
        self.ner = ner
        self.conceptualizer = conceptualizer
        self.model = model
        self.max_concepts = max_concepts
        # Semantic fallback lane — consulted only when Eq 7 yields no value.
        self.fallback_index = fallback
        # (conceptualizer generation, {context: plan}): one tuple, so a
        # reader takes the stamp and the plans it describes in one read, and
        # a swap installs a fresh dict — a reader still holding the old one
        # fills a mapping nobody reads any more
        self._plans: tuple[int, dict[Context, Plan]] = (-1, {})
        self._plan_hits = 0
        self._plan_misses = 0
        self._evaluations = 0
        self.answer_cache_size = answer_cache_size
        self._answer_cache: OrderedDict[str, AnswerResult] = OrderedDict()
        # Library callers may answer from several threads while live-update
        # listeners clear caches from mutator threads; the lock keeps the
        # LRU's compound get/move/evict steps atomic.  Uncontended
        # acquisition is tens of nanoseconds — noise next to one Eq 7
        # evaluation.  The generation counter prevents a
        # result computed *before* a clear_caches() from being inserted
        # *after* it (which would pin a pre-invalidation answer).
        self._cache_lock = threading.Lock()
        self._cache_generation = 0
        if lookup_cache_size < 0:
            raise ValueError(f"lookup_cache_size must be >= 0, got {lookup_cache_size}")
        self.lookup_cache_size = lookup_cache_size

    # -- Answering ----------------------------------------------------------

    def answer(self, question: str) -> AnswerResult:
        """Answer one BFQ by evaluating Eq 7 over all readings."""
        tokens = tuple(tokenize(question))
        return self._answer_keyed(question, tokens, " ".join(tokens))

    def _answer_keyed(
        self, question: str, tokens: tuple[str, ...], key: str
    ) -> AnswerResult:
        """:meth:`answer` past tokenization; ``key`` is the normalized
        question (the answer-cache key), which ``answer_many`` also needs."""
        if self.answer_cache_size > 0:
            with self._cache_lock:
                generation = self._cache_generation
                cached = self._answer_cache.get(key)
                if cached is not None:
                    self._answer_cache.move_to_end(key)
            if cached is not None:
                if cached.question != question:
                    cached = replace(cached, question=question)
                return cached
            result = self._answer_tokens(question, tokens)
            with self._cache_lock:
                # Skip the insert when a clear_caches() raced the
                # evaluation: the result reflects pre-invalidation state
                # and must not outlive the invalidation in the cache.
                if generation == self._cache_generation:
                    self._answer_cache[key] = result
                    if len(self._answer_cache) > self.answer_cache_size:
                        self._answer_cache.popitem(last=False)
            return result
        return self._answer_tokens(question, tokens)

    def cached_answer(
        self, question: str | None, key: str | None = None
    ) -> AnswerResult | None:
        """Answer-cache probe: the cached result for ``question`` or None.

        Never evaluates.  The serving layer's cache-hit lane calls this on
        the event loop for every request, passing the normalized ``key`` it
        computed at submission, so the question is tokenized once (a miss
        carries the same key into :meth:`answer_many`).
        With the cache disabled it returns before touching the lock.
        ``question=None`` (with a ``key``) returns the entry the cache
        holds itself, in the spelling that first filled it: the HTTP
        front's wire memo tests that object's identity.
        """
        if self.answer_cache_size <= 0:
            return None
        if key is None:
            key = " ".join(tokenize(question))
        with self._cache_lock:
            cached = self._answer_cache.get(key)
            if cached is not None:
                self._answer_cache.move_to_end(key)
        if cached is not None and question is not None and cached.question != question:
            cached = replace(cached, question=question)
        return cached

    def answer_many(
        self, questions: Sequence[str], keys: Sequence[str] | None = None
    ) -> list[AnswerResult]:
        """Batch API: answer every question through the warm caches.

        Returns results in input order, identical to calling :meth:`answer`
        per question (regression-tested).  Repeated questions are
        deduplicated on their *normalized* key (the answer-cache key) before
        evaluation, so a batch with duplicates costs one Eq 7 evaluation per
        unique key even when the answer cache is disabled — the property the
        serving layer's micro-batching leans on.

        ``keys``, when given, holds each question's normalized key (the
        serving layer computed it at submission): the question is then not
        tokenized again, its tokens are ``key.split()`` — exact, since no
        token contains whitespace.
        """
        results: list[AnswerResult] = []
        seen: dict[str, AnswerResult] = {}
        for question, tokens, key in _keyed(questions, keys):
            hit = seen.get(key)
            if hit is None:
                hit = self._answer_keyed(question, tokens, key)
                seen[key] = hit
            elif hit.question != question:
                hit = replace(hit, question=question)
            results.append(hit)
        return results

    @property
    def fallback_enabled(self) -> bool:
        return self.fallback_index is not None

    def _answer_tokens(self, question: str, tokens: tuple[str, ...]) -> AnswerResult:
        """Cache-miss path: Eq 7 first, the fallback lane only on abstention.

        The lane never touches an answered result, so deterministic answers
        are byte-identical with the lane on or off.
        """
        self._evaluations += 1
        mentions = self.ner.find_mentions(tokens)
        result = self._answer_deterministic(question, tokens, mentions)
        if result.value is None and self.fallback_index is not None:
            recovered = self._fallback_answer(question, tokens, mentions)
            if recovered is not None:
                return recovered
        return result

    def _answer_deterministic(
        self, question: str, tokens: tuple[str, ...], mentions
    ) -> AnswerResult:
        """Eq 7 evaluation over one tokenized question."""
        candidate_entities = [
            (mention, entity) for mention in mentions for entity in mention.candidates
        ]
        if not candidate_entities:
            return self._no_answer(question)
        single = len(candidate_entities) == 1
        entity_prob = 1.0 / len(candidate_entities)  # uniform P(e|q), Sec 3.2

        conceptualizer = self.conceptualizer
        generation = conceptualizer.generation  # before any score is made
        stamp, plans = self._plans
        if stamp != generation:  # an observe() outdated every kept score
            plans = {}
            self._plans = (generation, plans)
        model = self.model  # after the plans: see replace_model
        known = model.contexts
        prior_row = conceptualizer.network.prior_row

        # Score (entity, path) readings: S = Σ_t P(e|q)·P(t|e,q)·P(p|t).
        readings: dict[tuple[str, str], list] = {}
        for mention, entity in candidate_entities:
            row = prior_row(entity)
            if not row:
                continue
            context = tokens[: mention.start], tokens[mention.end :]
            plan = plans.get(context)
            if plan is not None:
                self._plan_hits += 1
            elif context in known:
                head, tail = context
                plan = plans[context] = (conceptualizer.context_scores(head + tail), {}, {})
                self._plan_misses += 1
            else:  # no template has this context: no concept can reach one
                continue
            entry = plan[2].get(row)
            if entry is None:
                tops = self._tops(plan, row, context, model)
                entry = plan[2][row] = (tops, _ordered(tops))
            tops, ordered = entry
            if single:  # P(e|q) = 1: the row's readings are ranked already
                return self._first_with_values(question, entity, ordered)
            _accumulate(readings, entity, tops, entity_prob)

        # Rank readings, keep the best one that yields values.
        for (entity, _path_str), (score, template_text, path) in _ranked(readings):
            values = self.kbview.values(entity, path)
            if values:
                return self._answered(question, entity, score, template_text, path, values)
        return self._no_answer(question, found_predicate=bool(readings))

    def _tops(self, plan: Plan, row: PriorRow, context: Context, model: TemplateModel) -> Tops:
        """The ``max_concepts`` most probable concepts of ``P(c|e,q)`` for a
        prior row in ``plan``'s context, those whose template the model
        knows, as ``(P(c|e,q), template text, ranked P(p|t))``."""
        scores, templates, _rows = plan
        tops = []
        posterior = self.conceptualizer.posterior(row, scores)
        for concept, concept_prob in top_concepts(posterior, self.max_concepts):
            template_row = templates.get(concept)
            if template_row is None:
                template_row = templates[concept] = _template_row(model, context, concept)
            template_text, ranked = template_row
            if ranked:
                tops.append((concept_prob, template_text, ranked))
        return tuple(tops)

    def _first_with_values(
        self, question: str, entity: str, ordered: Ordered
    ) -> AnswerResult:
        """A one-entity question: the first of ``entity``'s ranked readings
        whose values exist in the KB."""
        for score, template_text, path in ordered:
            values = self.kbview.values(entity, path)
            if values:
                return self._answered(question, entity, score, template_text, path, values)
        return self._no_answer(question, found_predicate=bool(ordered))

    @staticmethod
    def _answered(
        question: str, entity: str, score: float, template_text: str,
        path: PredicatePath, values,
    ) -> AnswerResult:
        rendered = _rendered(values)
        score *= 1.0 / len(values)  # uniform P(v|e,p), Eq 6
        return AnswerResult(
            question=question,
            value=rendered[0],
            values=rendered,
            score=score,
            entity=entity,
            template=template_text,
            predicate=path,
            found_predicate=True,
            candidates=tuple(zip(rendered, repeat(score))),
        )

    def _fallback_answer(
        self, question: str, tokens: tuple[str, ...], mentions
    ) -> AnswerResult | None:
        """Semantic fallback lane: gated cosine retrieval over learned paths.

        Entity slotting reuses the deterministic lane's NER reading: for
        each mention the span is *removed* (symmetric with how templates are
        de-slotted at index build time) and the remainder embedded.  Per
        mention, the highest-ranked gated path whose values exist in the KB
        wins, entities tried in lexicographic order; across mentions the
        best (score, entity, path) triple wins.  ``None`` means the gate
        abstained — the caller keeps the deterministic result untouched.
        """
        index = self.fallback_index
        if index is None:
            return None
        found: list[tuple[tuple, float, str, PredicatePath, tuple[str, ...]]] = []
        for mention in mentions:
            if not mention.candidates:
                continue
            remainder = tokens[: mention.start] + tokens[mention.end :]
            query = embed_tokens(remainder, index.config.dim, index.config.seed)
            entities = sorted(set(mention.candidates))
            for path_str, score in index.gated_paths(query):
                path = index.path_for(path_str)
                hit = None
                for entity in entities:
                    values = self.kbview.values(entity, path)
                    if values:
                        hit = (entity, values)
                        break
                if hit is not None:
                    entity, values = hit
                    found.append(((-score, entity, path_str), score, entity, path, values))
                    break  # first ranked path with values wins for this mention
        if not found:
            return None
        found.sort(key=lambda row: row[0])
        _, score, entity, path, values = found[0]
        rendered = _rendered(values)
        value_prob = 1.0 / len(values)
        return AnswerResult(
            question=question,
            value=rendered[0],
            values=rendered,
            score=score,
            entity=entity,
            template=None,
            predicate=path,
            found_predicate=True,
            candidates=tuple((v, score * value_prob) for v in rendered),
            fallback=True,
        )

    def clear_caches(self, model_changed: bool = False) -> None:
        """Drop the answer cache.

        The context plans read no KB state and mirror the model, so by
        default they stay; pass ``model_changed=True`` after swapping
        :attr:`model` (a train-resume on a live answerer) so stale θ
        rankings are dropped too — otherwise the answerer keeps serving the
        old distribution.
        """
        with self._cache_lock:
            self._answer_cache.clear()
            self._cache_generation += 1
            if model_changed:
                # Fresh dict, not .clear(): evaluators read the old mapping
                # without the lock and must see either version whole.
                self._plans = (-1, {})

    def replace_model(
        self, model: TemplateModel, fallback: FallbackIndex | None = None
    ) -> None:
        """Swap in a retrained model (and matching fallback index) safely.

        Invalidates every model-derived cache — the answer cache and the
        context plans with their ranked θ arrays — so the next answer
        reflects the new model rather than stale rankings.  :attr:`model` is
        set before the plans are dropped and evaluations read them in the
        other order, so no plan built on the old model outlives the swap.
        """
        self.model = model
        self.fallback_index = fallback
        if fallback is not None:
            fallback.reset_counters()
        self.clear_caches(model_changed=True)

    def cache_info(self) -> dict[str, object]:
        """Serving-cache occupancy/hit counters for ops dashboards."""
        stamp, plans = self._plans
        # plans stamped before the last observe() are never read again
        plans = list(plans.values()) if stamp == self.conceptualizer.generation else []
        info: dict[str, object] = {
            "answer_cache_entries": len(self._answer_cache),
            "ranked_templates": sum(
                1 for _scores, templates, _rows in plans
                for _text, ranked in list(templates.values()) if ranked
            ),
            "plans": len(plans),
            "plan_hits": self._plan_hits,
            "plan_misses": self._plan_misses,
            # (plan, prior row) entries: at most plans × distinct P(c|e) rows
            "prior_rows": sum(len(rows) for _scores, _templates, rows in plans),
            "evaluations": self._evaluations,
            # no NER memo any more: every evaluation scans, so every one is
            # a miss (the count of evaluations past the answer cache)
            "ner_hits": 0,
            "ner_misses": self._evaluations,
        }
        if self.fallback_index is not None:
            info["fallback"] = self.fallback_index.describe()
        return info

    @staticmethod
    def _no_answer(question: str, found_predicate: bool = False) -> AnswerResult:
        return AnswerResult(
            question=question, value=None, values=(), score=0.0, entity=None,
            template=None, predicate=None, found_predicate=found_predicate,
        )


def _keyed(questions: Sequence[str], keys: Sequence[str] | None):
    """``(question, tokens, key)`` per question; ``keys`` spares the tokenizer."""
    if keys is None:
        for question in questions:
            tokens = tuple(tokenize(question))
            yield question, tokens, " ".join(tokens)
    else:
        for question, key in zip(questions, keys, strict=True):
            yield question, tuple(key.split()), key


def _template_row(model: TemplateModel, context: Context, concept: str) -> tuple[str, Ranked]:
    """A context's template for ``concept`` and its ranked ``P(p|t)``."""
    if not concept.startswith("$"):
        raise ValueError(f"slot token must be a concept: {concept!r}")
    head, tail = context
    template_text = " ".join(head + (concept,) + tail)
    distribution = model.predicates_for(template_text)
    if not distribution:
        return template_text, ()
    return template_text, tuple(
        sorted(
            ((str(path), path, theta) for path, theta in distribution.items()),
            key=lambda row: (-row[2], row[0]),
        )
    )


def _accumulate(
    readings: dict[tuple[str, str], list], entity: str, tops: Tops, entity_prob: float
) -> None:
    """Eq 7's ``S += P(e|q)·P(c|e,q)·P(p|t)`` over one candidate's top
    concepts, one dict probe per reading; a reading ``(entity, path_str)``
    maps to ``[S, first template that proposed it, path]``."""
    for concept_prob, template_text, ranked in tops:
        weight = entity_prob * concept_prob
        for path_str, path, theta in ranked:
            reading = readings.get((entity, path_str))
            if reading is None:
                readings[entity, path_str] = [weight * theta, template_text, path]
            else:
                reading[0] += weight * theta


def _ranked(readings: dict[tuple[str, str], list]) -> list[tuple[tuple[str, str], list]]:
    """Readings by ``(-S, (entity, path_str))``, sorted only when there are two."""
    ranked = list(readings.items())
    if len(ranked) > 1:
        ranked.sort(key=lambda kv: (-kv[1][0], kv[0]))
    return ranked


def _ordered(tops: Tops) -> Ordered:
    """One entity's readings at ``P(e|q) = 1``, ranked by ``(-S, path_str)``:
    what a single-candidate question walks."""
    readings: dict[tuple[str, str], list] = {}
    _accumulate(readings, "", tops, 1.0)
    return tuple((score, text, path) for _reading, (score, text, path) in _ranked(readings))


def _rendered(values) -> tuple[str, ...]:
    """A non-empty value set as display strings, sorted."""
    if len(values) == 1:
        (term,) = values
        return (render_term(term),)
    return tuple(sorted(render_term(v) for v in values))


def render_term(term: str) -> str:
    """Literal terms lose their quote prefix; resource terms pass through."""
    return term[len(LITERAL_PREFIX) :] if term.startswith(LITERAL_PREFIX) else term
