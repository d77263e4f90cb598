"""Complex question decomposition (Sec 5, Algorithm 2).

A complex question decomposes into a sequence ``A = (q̌_0, ..., q̌_k)`` where
``q̌_0`` is a concrete BFQ and each later ``q̌_i`` contains the entity
variable ``$e`` bound to the previous answer.  Validity of a pattern is
estimated from the QA corpus (Eq 26):

    ``P(q̌) = fv(q̌) / fo(q̌)``

``fo`` counts corpus questions matching the pattern under *any* substring
replacement, ``fv`` only those where the replaced substring is an entity
mention — penalizing over-general patterns like ``when $e?`` (Example 4).

The optimal decomposition maximizes ``P(A) = Π P(q̌_i)`` (Eq 27) via the
``O(|q|^4)`` dynamic program of Theorem 2.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Sequence

from repro.core.extraction import CorpusScan, scan_questions
from repro.core.model import TemplateModel
from repro.core.template import Template
from repro.nlp.ner import EntityRecognizer
from repro.nlp.tokenizer import tokenize
from repro.taxonomy.conceptualizer import Conceptualizer, top_concepts

ENTITY_VARIABLE = "$e"


def _pattern_key(tokens: Sequence[str]) -> str:
    return " ".join(tokens)


class PatternStatistics:
    """``fo`` / ``fv`` pattern counts over the QA corpus (Sec 5.2).

    Built from the offline pass's :class:`~repro.core.extraction.CorpusScan`
    (:meth:`from_scan`): its entity spans give ``fv``, and each distinct
    question is counted once, weighted by how often it occurs.  ``fo`` holds
    only patterns some indexed question validated (``fo[k] >= fv[k] > 0`` for
    every key): :meth:`validity` is 0 for any other pattern.
    """

    def __init__(self) -> None:
        self.fo: Counter[str] = Counter()
        self.fv: Counter[str] = Counter()
        self.questions_indexed = 0

    @classmethod
    def from_corpus(
        cls,
        questions: Iterable[str],
        ner: EntityRecognizer,
        max_questions: int | None = None,
        max_tokens: int = 23,
    ) -> "PatternStatistics":
        """:meth:`from_scan` over raw question strings."""
        scan = scan_questions(islice(questions, max_questions), ner)
        return cls.from_scan(scan, max_tokens=max_tokens)

    @classmethod
    def from_scan(
        cls, scan: CorpusScan, max_questions: int | None = None, max_tokens: int = 23
    ) -> "PatternStatistics":
        """Index the first ``max_questions`` scanned corpus questions, ``fv`` first.

        The entity spans are the scan's, so no second NER pass runs.  Each
        distinct question's ``fv`` and ``fo`` keys are found once and counted
        as often as the question occurs among the indexed ones (the counts
        are integers, so they equal a per-occurrence pass).
        ``max_tokens`` reflects the paper's observation that over 99% of
        corpus questions are under 23 words; longer ones are skipped.
        """
        stats = cls()
        fv, fo = stats.fv, stats.fo
        indexed: list[tuple[tuple[str, ...], int]] = []  # (tokens, occurrences)
        # prefix -> {suffix -> key} of the valid patterns, one entry per "$e"
        # token of the pattern (a question may itself contain "$e")
        valid: dict[tuple[str, ...], dict[tuple[str, ...], str]] = {}
        for row, count in Counter(islice(scan.order, max_questions)).items():
            tokens, spans = scan.tokens[row], scan.spans[row]
            if not 0 < len(tokens) <= max_tokens:
                continue
            indexed.append((tokens, count))
            seen_fv: set[str] = set()
            for start, end, _candidates in spans:
                pattern = tokens[:start] + (ENTITY_VARIABLE,) + tokens[end:]
                if len(pattern) == 1:
                    continue  # replacing everything leaves no pattern
                key = _pattern_key(pattern)
                seen_fv.add(key)
                if key not in fv:
                    for slot, token in enumerate(pattern):
                        if token == ENTITY_VARIABLE:
                            valid.setdefault(pattern[:slot], {})[pattern[slot + 1 :]] = key
            for key in seen_fv:
                fv[key] += count
        stats.questions_indexed = sum(count for _tokens, count in indexed)
        # fo: a question counts once per valid pattern it starts and ends like (prefix, suffix)
        for tokens, count in indexed:
            seen_fo: set[str] = set()
            for start in range(len(tokens)):
                suffixes = valid.get(tokens[:start])
                if suffixes is not None:
                    for end in range(start + 1, len(tokens) + 1):
                        key = suffixes.get(tokens[end:])
                        if key is not None:
                            seen_fo.add(key)
            for key in seen_fo:
                fo[key] += count
        return stats

    def validity(self, pattern_tokens: Sequence[str]) -> float:
        """``P(q̌) = fv / fo`` (0 when the pattern was never observed)."""
        key = _pattern_key(pattern_tokens)
        observed = self.fo.get(key, 0)
        if observed == 0:
            return 0.0
        return self.fv.get(key, 0) / observed


@dataclass(frozen=True, slots=True)
class Decomposition:
    """An ordered question sequence plus its score ``P(A)``.

    ``sequence[0]`` is a concrete question string; later elements contain
    ``$e`` to be bound to the previous answer.
    """

    sequence: tuple[str, ...]
    score: float

    @property
    def is_simple(self) -> bool:
        return len(self.sequence) == 1


class Decomposer:
    """Algorithm 2: dynamic programming over question substrings."""

    def __init__(
        self,
        statistics: PatternStatistics,
        ner: EntityRecognizer,
        model: TemplateModel,
        conceptualizer: Conceptualizer,
        max_concepts: int = 4,
    ) -> None:
        self.statistics = statistics
        self.ner = ner
        self.model = model
        self.conceptualizer = conceptualizer
        self.max_concepts = max_concepts

    def is_primitive(self, tokens: Sequence[str]) -> bool:
        """δ(q) — does ``tokens`` read as a directly answerable BFQ?

        True when some entity mention, conceptualized in context, yields a
        template the offline model has learned.  A mention whose de-slotted
        context no learned template has (``TemplateModel.contexts``) yields
        none whatever its concept, so it is not conceptualized; ``tokens``
        are :func:`tokenize` output, which never holds a space.
        """
        tokens = tuple(tokens)
        known = self.model.contexts
        for mention in self.ner.find_mentions(tokens):
            head, tail = tokens[: mention.start], tokens[mention.end :]
            if (head, tail) not in known:
                continue
            span = (mention.start, mention.end)
            context = head + tail
            for entity in mention.candidates:
                concepts = self.conceptualizer.conceptualize(entity, context)
                for concept, _prob in top_concepts(concepts, self.max_concepts):
                    template = Template.from_question(tokens, span, concept)
                    if template.text in self.model:
                        return True
        return False

    def decompose(self, question: str) -> Decomposition:
        """Find ``argmax_A P(A)`` (Eq 25) by the DP of Eq 28."""
        tokens = tuple(tokenize(question))
        n = len(tokens)
        if n == 0:
            return Decomposition((question,), 0.0)

        # best[(i, j)] = (P(A*), sequence) for the substring tokens[i:j].
        best: dict[tuple[int, int], tuple[float, tuple[str, ...]]] = {}

        for length in range(1, n + 1):
            for start in range(n - length + 1):
                end = start + length
                sub = tokens[start:end]
                delta = 1.0 if self.is_primitive(sub) else 0.0
                score = delta
                sequence: tuple[str, ...] = (" ".join(sub),)

                # Try every proper substring as the nested question q_j.
                for inner_start in range(start, end):
                    for inner_end in range(inner_start + 1, end + 1):
                        if (inner_start, inner_end) == (start, end):
                            continue
                        inner = best.get((inner_start, inner_end))
                        if inner is None or inner[0] <= 0.0:
                            continue
                        remainder = (
                            list(sub[: inner_start - start])
                            + [ENTITY_VARIABLE]
                            + list(sub[inner_end - start :])
                        )
                        validity = self.statistics.validity(remainder)
                        candidate = validity * inner[0]
                        if candidate > score:
                            score = candidate
                            sequence = inner[1] + (" ".join(remainder),)
                if score > 0.0:
                    best[(start, end)] = (score, sequence)

        top = best.get((0, n))
        if top is None:
            return Decomposition((" ".join(tokens),), 0.0)
        return Decomposition(top[1], top[0])
