"""Online question answering (Sec 3.3).

Given a user question ``q0`` the answerer evaluates Eq 7:

    ``P(v|q0) = Σ_{e,p,t} P(v|e,p) · P(p|t) · P(t|e,q0) · P(e|q0)``

by enumerating the question's entity mentions (NER + KB membership), the
templates from conceptualizing each entity (``P(t|e,q)``), the learned
predicate distribution ``P(p|t)``, and the value sets ``V(e,p)``.  The
complexity is ``O(|P|)`` — linear in the candidate predicates per template —
exactly the paper's analysis.

Serving-layer hot paths (Table 14's 79 ms/question is a *systems* claim):

* per-template predicate distributions are parsed from the model **once**
  and cached as ranked ``(path_str, path, θ)`` arrays — no
  ``PredicatePath.parse`` per question;
* NER mention scans and conceptualizer posteriors are memoized behind
  bounded LRUs (real traffic repeats entities and phrasings);
* an optional answer cache keyed on *normalized* question text short-circuits
  repeat questions entirely;
* :meth:`OnlineAnswerer.answer_many` batches questions through the warm
  caches, deduplicating repeats on the normalized key before evaluation,
  and is equivalence-tested against per-question :meth:`answer`.

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
from functools import lru_cache
from typing import Sequence

from repro.core.fallback import FallbackIndex
from repro.core.kbview import KBView
from repro.core.model import TemplateModel
from repro.core.template import Template
from repro.kb.paths import PredicatePath
from repro.kb.triple import is_literal, literal_value
from repro.nlp.embed import embed_tokens
from repro.nlp.ner import EntityRecognizer
from repro.nlp.tokenizer import tokenize
from repro.taxonomy.conceptualizer import Conceptualizer


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
    disables it); ``lookup_cache_size`` bounds the NER/conceptualizer LRUs;
    ``precompute`` toggles the per-template ranked predicate arrays (the
    legacy per-call ``model.predicates_for`` path is kept for the perf
    harness's before/after measurement).
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
        precompute: bool = True,
        fallback: FallbackIndex | None = None,
    ) -> None:
        self.kbview = kbview
        self.ner = ner
        self.conceptualizer = conceptualizer
        self.model = model
        self.max_concepts = max_concepts
        self.precompute = precompute
        # Semantic fallback lane — consulted only when Eq 7 yields no value.
        self.fallback_index = fallback
        # template text -> ranked ((path_str, path, θ), ...), parsed once
        self._ranked: dict[str, tuple[tuple[str, PredicatePath, float], ...]] = {}
        self.answer_cache_size = answer_cache_size
        self._answer_cache: OrderedDict[str, AnswerResult] = OrderedDict()
        # The serve layer (`repro.serve`) evaluates batches on executor
        # threads while live-update listeners clear caches from mutator
        # threads; the lock keeps the LRU's compound get/move/evict steps
        # atomic.  Uncontended acquisition is tens of nanoseconds — noise
        # next to one Eq 7 evaluation.  The generation counter prevents a
        # result computed *before* a clear_caches() from being inserted
        # *after* it (which would pin a pre-invalidation answer).
        self._cache_lock = threading.Lock()
        self._cache_generation = 0
        self.lookup_cache_size = lookup_cache_size
        # the NER/conceptualizer lookups, behind bounded LRUs
        if lookup_cache_size > 0:
            self._find_mentions = lru_cache(maxsize=lookup_cache_size)(
                self._find_mentions_uncached
            )
            self._top_concepts = lru_cache(maxsize=lookup_cache_size)(
                self._top_concepts_uncached
            )
        else:
            self._find_mentions = self._find_mentions_uncached
            self._top_concepts = self._top_concepts_uncached

    # -- Memoized lookups ---------------------------------------------------

    def _find_mentions_uncached(self, tokens: tuple[str, ...]):
        return tuple(self.ner.find_mentions(tokens))

    def _top_concepts_uncached(
        self, entity: str, context: tuple[str, ...]
    ) -> tuple[tuple[str, float], ...]:
        concepts = self.conceptualizer.conceptualize(entity, context)
        return tuple(sorted(concepts.items(), key=lambda kv: (-kv[1], kv[0])))

    def _ranked_predicates(
        self, template_text: str
    ) -> tuple[tuple[str, PredicatePath, float], ...]:
        """``P(p|t)`` as a ranked array of (path_str, path, θ)."""
        if not self.precompute:
            distribution = self.model.predicates_for(template_text)
            return tuple(
                (str(path), path, theta) for path, theta in distribution.items()
            )
        ranked = self._ranked.get(template_text)
        if ranked is None:
            distribution = self.model.predicates_for(template_text)
            ranked = tuple(
                sorted(
                    ((str(path), path, theta) for path, theta in distribution.items()),
                    key=lambda row: (-row[2], row[0]),
                )
            )
            self._ranked[template_text] = ranked
        return ranked

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
        self, question: str, key: str | None = None
    ) -> AnswerResult | None:
        """Answer-cache probe: the cached result for ``question`` or None.

        Never evaluates.  The serving layer's cache-hit lane calls this on
        the event loop for every request (passing the normalized ``key`` it
        already computed for coalescing, so the question is tokenized
        once); its degraded mode uses it to keep answering while the
        evaluation backend is down or overloaded, without adding load.
        With the cache disabled it returns before touching the lock.
        """
        if self.answer_cache_size <= 0:
            return None
        if key is None:
            key = " ".join(tokenize(question))
        with self._cache_lock:
            cached = self._answer_cache.get(key)
            if cached is not None:
                self._answer_cache.move_to_end(key)
        if cached is not None and cached.question != question:
            cached = replace(cached, question=question)
        return cached

    def answer_many(self, questions: Sequence[str]) -> list[AnswerResult]:
        """Batch API: answer every question through the warm caches.

        Returns results in input order, identical to calling :meth:`answer`
        per question (regression-tested).  Repeated questions are
        deduplicated on their *normalized* key (the answer-cache key) before
        evaluation, so a batch with duplicates costs one Eq 7 evaluation per
        unique key even when the answer cache is disabled — the property the
        serving layer's micro-batching leans on.
        """
        results: list[AnswerResult] = []
        seen: dict[str, AnswerResult] = {}
        for question in questions:
            tokens = tuple(tokenize(question))
            key = " ".join(tokens)
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
        mentions = self._find_mentions(tokens)
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
        entity_prob = 1.0 / len(candidate_entities)  # uniform P(e|q), Sec 3.2

        found_predicate = False
        # Score (entity, path) readings: S = Σ_t P(e|q)·P(t|e,q)·P(p|t).
        reading_scores: dict[tuple[str, str], float] = {}
        reading_info: dict[tuple[str, str], tuple[str, PredicatePath]] = {}

        for mention, entity in candidate_entities:
            span = (mention.start, mention.end)
            context = tokens[: mention.start] + tokens[mention.end :]
            top_concepts = self._top_concepts(entity, context)
            for concept, concept_prob in top_concepts[: self.max_concepts]:
                template = Template.from_question(tokens, span, concept)
                ranked = self._ranked_predicates(template.text)
                if not ranked:
                    continue
                found_predicate = True
                for path_str, path, theta in ranked:
                    key = (entity, path_str)
                    score = entity_prob * concept_prob * theta
                    reading_scores[key] = reading_scores.get(key, 0.0) + score
                    if key not in reading_info:
                        reading_info[key] = (template.text, path)

        if not reading_scores:
            return self._no_answer(question, found_predicate)

        # Rank readings, keep the best one that yields values.
        ranked_readings = sorted(reading_scores.items(), key=lambda kv: (-kv[1], kv[0]))
        for (entity, _path_key), score in ranked_readings:
            template_text, path = reading_info[(entity, _path_key)]
            values = self.kbview.values(entity, path)
            if not values:
                continue
            rendered = tuple(sorted(render_term(v) for v in values))
            value_prob = 1.0 / len(values)
            candidates = tuple((v, score * value_prob) for v in rendered)
            return AnswerResult(
                question=question,
                value=rendered[0],
                values=rendered,
                score=score * value_prob,
                entity=entity,
                template=template_text,
                predicate=path,
                found_predicate=True,
                candidates=candidates,
            )
        return self._no_answer(question, found_predicate)

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
        rendered = tuple(sorted(render_term(v) for v in values))
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
        """Drop the answer cache and the NER/conceptualizer memos.

        The ranked-predicate arrays mirror the model, so by default they
        stay; pass ``model_changed=True`` after swapping :attr:`model` (a
        train-resume on a live answerer) so stale θ rankings are dropped
        too — otherwise the answerer keeps serving the old distribution.
        """
        with self._cache_lock:
            self._answer_cache.clear()
            self._cache_generation += 1
            if model_changed:
                # Fresh dict, not .clear(): evaluator threads read the old
                # mapping without the lock and must see either version
                # whole, never a half-cleared one.
                self._ranked = {}
        for memo in (self._find_mentions, self._top_concepts):
            cache_clear = getattr(memo, "cache_clear", None)
            if cache_clear is not None:
                cache_clear()

    def replace_model(
        self, model: TemplateModel, fallback: FallbackIndex | None = None
    ) -> None:
        """Swap in a retrained model (and matching fallback index) safely.

        Invalidates every model-derived cache — the answer cache, the
        NER/conceptualizer memos, and the ranked θ arrays — so the next
        answer reflects the new model rather than stale rankings.
        """
        self.model = model
        self.fallback_index = fallback
        if fallback is not None:
            fallback.reset_counters()
        self.clear_caches(model_changed=True)

    def cache_info(self) -> dict[str, object]:
        """Serving-cache occupancy/hit counters for ops dashboards."""
        info: dict[str, object] = {
            "answer_cache_entries": len(self._answer_cache),
            "ranked_templates": len(self._ranked),
        }
        for name, memo in (("ner", self._find_mentions), ("concepts", self._top_concepts)):
            stats = getattr(memo, "cache_info", None)
            if stats is not None:
                counters = stats()
                info[f"{name}_hits"] = counters.hits
                info[f"{name}_misses"] = counters.misses
        if self.fallback_index is not None:
            info["fallback"] = self.fallback_index.describe()
        return info

    @staticmethod
    def _no_answer(question: str, found_predicate: bool = False) -> AnswerResult:
        return AnswerResult(
            question=question, value=None, values=(), score=0.0, entity=None,
            template=None, predicate=None, found_predicate=found_predicate,
        )


def render_term(term: str) -> str:
    """Literal terms lose their quote prefix; resource terms pass through."""
    if is_literal(term):
        return literal_value(term)
    return term
