"""Deliberately naive string-level reference for the online procedure.

The evaluation ``OnlineAnswerer`` ran before its cache-miss path became
table-driven, kept as the differential oracle: no cache, no table, nothing
computed ahead of a question.  ``P(c|e)`` and ``P(w|c)`` are recomputed from
the taxonomy's raw counts with one ``math.log`` per context word per concept,
every template goes through ``Template.from_question`` (both checks), the
model is asked for ``P(p|t)`` — and parses every path — per (mention,
concept), Eq 7 accumulates into string-keyed dicts and every result is sorted
and rendered generically.  The arithmetic is the product's expression for
expression, so results are held to full ``AnswerResult`` equality, score
floats included.
"""

from __future__ import annotations

import math
from typing import Sequence

from repro.core.online import AnswerResult, OnlineAnswerer
from repro.core.template import Template
from repro.kb.triple import is_literal, literal_value
from repro.nlp.embed import embed_tokens
from repro.nlp.tokenizer import tokenize
from repro.taxonomy.conceptualizer import _STOPWORDS, Conceptualizer
from repro.taxonomy.isa import IsANetwork


def reference_prior(network: IsANetwork, entity: str) -> dict[str, float]:
    """``P(c|e)`` straight from the edge weights."""
    weights = network._concepts_of.get(entity)
    if not weights:
        return {}
    total = sum(weights.values())
    return {concept: weight / total for concept, weight in weights.items()}


def reference_log_likelihood(
    conceptualizer: Conceptualizer, concept: str, context: Sequence[str]
) -> float:
    """``log Π P(w|c)``, add-``smoothing``, straight from the word counts."""
    counts = conceptualizer._word_counts.get(concept, {})
    total = conceptualizer._concept_totals.get(concept, 0.0)
    vocab = max(len(conceptualizer._vocabulary), 1)
    denominator = total + conceptualizer.smoothing * vocab
    score = 0.0
    for word in context:
        if word in _STOPWORDS:
            continue
        score += math.log((counts.get(word, 0.0) + conceptualizer.smoothing) / denominator)
    return score


def reference_conceptualize(
    conceptualizer: Conceptualizer, entity: str, context: Sequence[str] = ()
) -> dict[str, float]:
    """``P(c|e,q)``: prior times context likelihood, softmax-normalised."""
    prior = reference_prior(conceptualizer.network, entity)
    if not prior or not context:
        return prior
    logs = {
        concept: math.log(p) + reference_log_likelihood(conceptualizer, concept, context)
        for concept, p in prior.items()
    }
    peak = max(logs.values())
    exps = {concept: math.exp(value - peak) for concept, value in logs.items()}
    total = sum(exps.values())
    return {concept: value / total for concept, value in exps.items()}


def _render(term: str) -> str:
    return literal_value(term) if is_literal(term) else term


class ReferenceAnswerer:
    """Eq 7 (and the fallback lane's hand-off) with nothing remembered."""

    def __init__(self, kbview, ner, conceptualizer, model, max_concepts=4, fallback=None):
        self.kbview = kbview
        self.ner = ner
        self.conceptualizer = conceptualizer
        self.model = model
        self.max_concepts = max_concepts
        self.fallback_index = fallback

    @classmethod
    def shadowing(cls, answerer: OnlineAnswerer) -> "ReferenceAnswerer":
        """The reference over ``answerer``'s own KB, NER, taxonomy and model."""
        return cls(
            answerer.kbview, answerer.ner, answerer.conceptualizer, answerer.model,
            answerer.max_concepts, answerer.fallback_index,
        )

    def answer(self, question: str) -> AnswerResult:
        tokens = tuple(tokenize(question))
        mentions = self.ner.find_mentions(tokens)
        result = self._eq7(question, tokens, mentions)
        if result.value is None and self.fallback_index is not None:
            return self._fallback(question, tokens, mentions) or result
        return result

    def _eq7(self, question, tokens, mentions) -> AnswerResult:
        readings = [(m, entity) for m in mentions for entity in m.candidates]
        if not readings:
            return OnlineAnswerer._no_answer(question)
        entity_prob = 1.0 / len(readings)
        found_predicate = False
        scores: dict[tuple[str, str], float] = {}
        info: dict[tuple[str, str], tuple] = {}
        for mention, entity in readings:
            context = tokens[: mention.start] + tokens[mention.end :]
            concepts = reference_conceptualize(self.conceptualizer, entity, context)
            ranked_concepts = sorted(concepts.items(), key=lambda kv: (-kv[1], kv[0]))
            for concept, concept_prob in ranked_concepts[: self.max_concepts]:
                template = Template.from_question(tokens, (mention.start, mention.end), concept)
                distribution = self.model.predicates_for(template.text)
                if not distribution:
                    continue
                found_predicate = True
                ranked = sorted(
                    ((str(path), path, theta) for path, theta in distribution.items()),
                    key=lambda row: (-row[2], row[0]),
                )
                for path_str, path, theta in ranked:
                    key = (entity, path_str)
                    scores[key] = scores.get(key, 0.0) + entity_prob * concept_prob * theta
                    if key not in info:
                        info[key] = (template.text, path)
        for key, score in sorted(scores.items(), key=lambda kv: (-kv[1], kv[0])):
            template_text, path = info[key]
            values = self.kbview.values(key[0], path)
            if not values:
                continue
            rendered = tuple(sorted(_render(v) for v in values))
            value_prob = 1.0 / len(values)
            return AnswerResult(
                question=question, value=rendered[0], values=rendered,
                score=score * value_prob, entity=key[0], template=template_text,
                predicate=path, found_predicate=True,
                candidates=tuple((v, score * value_prob) for v in rendered),
            )
        return OnlineAnswerer._no_answer(question, found_predicate)

    def _fallback(self, question, tokens, mentions) -> AnswerResult | None:
        index = self.fallback_index
        found = []
        for mention in mentions:
            if not mention.candidates:
                continue
            remainder = tokens[: mention.start] + tokens[mention.end :]
            query = embed_tokens(remainder, index.config.dim, index.config.seed)
            for path_str, score in index.gated_paths(query):
                path = index.path_for(path_str)
                hits = [
                    (entity, values)
                    for entity in sorted(set(mention.candidates))
                    if (values := self.kbview.values(entity, path))
                ]
                if hits:
                    found.append(((-score, hits[0][0], path_str), score, path, hits[0][1]))
                    break
        if not found:
            return None
        (_neg, entity, _path_str), score, path, values = min(found, key=lambda row: row[0])
        rendered = tuple(sorted(_render(v) for v in values))
        return AnswerResult(
            question=question, value=rendered[0], values=rendered, score=score,
            entity=entity, template=None, predicate=path, found_predicate=True,
            candidates=tuple((v, score * (1.0 / len(values))) for v in rendered),
            fallback=True,
        )
