"""Context-aware conceptualization: ``P(c | e, q)`` (Eq 5).

Implements the mechanism of Song et al. [25] / Kim et al. [17] the paper
plugs in: the concept distribution of a mention is its taxonomy prior
``P(c|e)`` reweighted by how well the question's *context words* (tokens
outside the mention) fit each concept under a smoothed naive-Bayes model
``P(w|c)``.

``P(w|c)`` is estimated from concept-tagged text — here, the surface
template banks of the synthetic corpus, which play the role of Probase's
co-occurrence statistics.  This resolves ``apple`` to ``$company`` in
``what is the headquarter of apple?`` because *headquarter* co-occurs with
``$company`` contexts, never with ``$fruit`` ones.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Iterable, Sequence

from repro.taxonomy.isa import IsANetwork, PriorRow

_STOPWORDS = frozenset(
    "a an the is are was were be been of in on at to for by with from what "
    "which who whom whose when where how why many much do does did 's it its "
    "there ? and or".split()
)


class Conceptualizer:
    """Computes ``P(c | e, q)`` from an is-a prior and a context model."""

    def __init__(self, network: IsANetwork, smoothing: float = 0.1) -> None:
        if smoothing <= 0:
            raise ValueError("smoothing must be positive")
        self.network = network
        self.smoothing = smoothing
        self._word_counts: dict[str, dict[str, float]] = defaultdict(dict)
        self._concept_totals: dict[str, float] = defaultdict(float)
        self._vocabulary: set[str] = set()
        # concept -> ({word: log P(w|c)}, log P(unseen|c)), built on first use.
        # Every denominator holds the vocabulary size, so one observation
        # outdates every table; readers take no lock, so each write to the
        # counts is followed by a *fresh* dict here and a table computed from
        # older counts can only land in a mapping nobody reads any more.
        self._log_tables: dict[str, tuple[dict[str, float], float]] = {}
        # bumped after every fresh mapping above: whoever reads it before
        # making ContextScores knows whether scores kept since are current
        self.generation = 0

    # -- Context model construction ----------------------------------------

    def observe(self, concept: str, words: Iterable[str], weight: float = 1.0) -> None:
        """Record that ``words`` appeared in a context about ``concept``."""
        for word in words:
            if word in _STOPWORDS:
                continue
            counts = self._word_counts[concept]
            counts[word] = counts.get(word, 0.0) + weight
            self._concept_totals[concept] += weight
            self._vocabulary.add(word)
            self._log_tables = {}
            self.generation += 1

    def observe_text(self, concept: str, text: str, weight: float = 1.0) -> None:
        self.observe(concept, text.lower().split(), weight)

    # -- Inference -----------------------------------------------------------

    def _log_table(
        self, tables: dict[str, tuple[dict[str, float], float]], concept: str
    ) -> tuple[dict[str, float], float]:
        """Build ``concept``'s add-``smoothing`` table and publish it, whole,
        into ``tables`` — the mapping the caller read *before* this looks at
        the counts (see ``__init__``)."""
        counts = self._word_counts.get(concept, {})
        total = self._concept_totals.get(concept, 0.0)
        vocab = max(len(self._vocabulary), 1)
        denominator = total + self.smoothing * vocab
        table = (
            {word: math.log((count + self.smoothing) / denominator)
             for word, count in counts.items()},
            math.log(self.smoothing / denominator),
        )
        tables[concept] = table
        return table

    def context_scores(self, context: Sequence[str]) -> ContextScores | None:
        """``Σ_w log P(w|c)`` over ``context``'s non-stop words, per concept,
        each scored on its first probe; ``None`` for an empty context.

        The scores hold the log tables current when they were made, so they
        describe this context until the next :meth:`observe` (which bumps
        :attr:`generation`); a caller that keeps them checks that first.
        """
        if not context:
            return None
        return ContextScores(self, [w for w in context if w not in _STOPWORDS])

    @staticmethod
    def posterior(prior: PriorRow, scores: ContextScores | None) -> dict[str, float]:
        """``P(c | e, q)`` from the prior row ``P(c|e)``
        (:meth:`IsANetwork.prior_row`) and the context's scores:
        ``softmax(log P(c|e) + Σ_w log P(w|c))``, or the prior itself when
        there is no context."""
        if scores is None or not prior:
            return dict(prior)
        return _softmax_from_logs(
            {concept: math.log(p) + scores[concept] for concept, p in prior}
        )

    def conceptualize(
        self, entity: str, context: Sequence[str] = ()
    ) -> dict[str, float]:
        """``P(c | e, q)`` — posterior over the entity's concepts.

        With an empty context this degrades gracefully to the prior
        ``P(c|e)``, which is what the offline procedure uses when a question
        gives no disambiguating signal.
        """
        prior = self.network.prior_row(entity)
        if not prior:
            return {}
        return self.posterior(prior, self.context_scores(context))


class ContextScores(dict):
    """``concept -> Σ_w log P(w|c)`` for one context's non-stop ``words``,
    filled on first probe from the log tables read when it was made (see
    ``Conceptualizer.__init__``)."""

    __slots__ = ("words", "_conceptualizer", "_tables")

    def __init__(self, conceptualizer: Conceptualizer, words: list[str]) -> None:
        self.words = words
        self._conceptualizer = conceptualizer
        self._tables = conceptualizer._log_tables

    def __missing__(self, concept: str) -> float:
        tables = self._tables
        logs, unseen = tables.get(concept) or self._conceptualizer._log_table(tables, concept)
        score = 0.0
        for word in self.words:
            score += logs.get(word, unseen)
        self[concept] = score
        return score


def top_concepts(posterior: dict[str, float], limit: int) -> list[tuple[str, float]]:
    """The ``limit`` most probable concepts of ``posterior``, ties by name —
    the order every consumer of ``P(c|e,q)`` enumerates templates in."""
    return sorted(posterior.items(), key=_by_probability)[:limit]


def _by_probability(item: tuple[str, float]) -> tuple[float, str]:
    return -item[1], item[0]


def _softmax_from_logs(log_scores: dict[str, float]) -> dict[str, float]:
    """Normalize log scores into a distribution without underflow."""
    peak = max(log_scores.values())
    exps = {key: math.exp(value - peak) for key, value in log_scores.items()}
    total = sum(exps.values())
    return {key: value / total for key, value in exps.items()}
