"""Entity-value extraction from QA pairs (Sec 4.1.1).

For each QA pair ``(q, a)`` we extract

    ``EV_i = {(e, v) | e ⊂ q, v ⊂ a, ∃p (e, p, v) ∈ K}``     (Eq 8)

— entity mentions in the question, value mentions in the answer, kept only
when some (possibly expanded) predicate connects them.  The *refinement*
step then filters pairs whose predicate category conflicts with the
question's expected answer type (the UIUC-classifier check that removes
``(obama, politician)`` from a birthday question — Example 2).

Each surviving pair becomes an :class:`Observation` ``x_i = (q_i, e_i, v_i)``
carrying ``P(e|q_i)`` (Eq 4) and the pruned candidate path set used by the
EM algorithm's M-step (Eq 24).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.core.kbview import KBView
from repro.kb.paths import PredicatePath
from repro.kb.backend import KBBackend
from repro.kb.triple import is_literal
from repro.nlp.ner import EntityRecognizer
from repro.nlp.question_class import (
    AnswerType,
    answer_types_compatible,
    classify_tokens,
)
from repro.nlp.tokenizer import tokenize


@dataclass(frozen=True, slots=True)
class Observation:
    """One extracted triple ``x_i = (q_i, e_i, v_i)`` with its context."""

    question_tokens: tuple[str, ...]
    mention_span: tuple[int, int]
    entity: str
    value: str  # literal term (with the quote prefix)
    entity_weight: float  # P(e|q_i), Eq 4
    paths: tuple[PredicatePath, ...]  # predicates connecting (e, v)


@dataclass(frozen=True, slots=True)
class ExtractionConfig:
    use_refinement: bool = True
    max_values_per_answer: int = 8
    max_mentions_per_question: int = 4


@dataclass
class ExtractionStats:
    """Counters reported by Table-6-style diagnostics and tests."""

    qa_pairs: int = 0
    pairs_with_mentions: int = 0
    candidate_ev: int = 0
    connected_ev: int = 0
    refined_ev: int = 0
    refinement_rejections: int = 0
    entity_candidates_total: int = 0


class ValueIndex:
    """Token-sequence index over every literal in the store.

    Candidate values in an answer are token spans matching a known literal
    (the paper looks values up 'in the knowledge base').  Longest-match scan,
    same convention as the entity gazetteer.
    """

    def __init__(self, store: KBBackend) -> None:
        self._by_tokens: dict[tuple[str, ...], str] = {}
        by_first: dict[str, int] = defaultdict(int)
        for term in store.dictionary.terms():
            if not is_literal(term):
                continue
            tokens = tuple(tokenize(term[1:]))
            if not tokens:
                continue
            self._by_tokens[tokens] = term
            by_first[tokens[0]] = max(by_first[tokens[0]], len(tokens))
        self._max_len_by_first = dict(by_first)

    def __len__(self) -> int:
        return len(self._by_tokens)

    def find_values(self, tokens: Sequence[str]) -> list[str]:
        """Literal terms appearing as token spans (longest-match, in order)."""
        seen: set[str] = set()
        values: list[str] = []
        for _start, _end, term in self.find_value_spans(tokens):
            if term not in seen:
                seen.add(term)
                values.append(term)
        return values

    def find_value_spans(self, tokens: Sequence[str]) -> list[tuple[int, int, str]]:
        """Longest-match value spans with positions (bootstrapping needs the
        offsets to cut BOA patterns between mentions)."""
        spans: list[tuple[int, int, str]] = []
        i, n = 0, len(tokens)
        while i < n:
            longest = self._max_len_by_first.get(tokens[i], 0)
            matched = 0
            for length in range(min(longest, n - i), 0, -1):
                term = self._by_tokens.get(tuple(tokens[i : i + length]))
                if term is not None:
                    spans.append((i, i + length, term))
                    matched = length
                    break
            i += matched if matched else 1
        return spans


# Per question ``(tokens, mentions)``, a mention being ``(start, end, candidates)``.  Plain tuples,
# which the cyclic GC stops tracking: 30 k live records must not slow the Sec 6.2 scan.
CorpusScan = list[tuple[tuple[str, ...], tuple[tuple[int, int, tuple[str, ...]], ...]]]


def scan_questions(questions: Iterable[str], ner: EntityRecognizer) -> CorpusScan:
    """The offline path's one read of the corpus (seeds, Eq 8 and Sec 5.2 all consume it)."""
    return [
        (tokens, tuple((m.start, m.end, m.candidates) for m in ner.find_mentions(tokens)))
        for tokens in (tuple(tokenize(question)) for question in questions)
    ]


def extract_observations(
    qa_pairs: Iterable[tuple[str, str]],
    kbview: KBView,
    ner: EntityRecognizer,
    value_index: ValueIndex,
    answer_type_of,
    config: ExtractionConfig | None = None,
) -> tuple[list[Observation], ExtractionStats]:
    """:func:`extract_scanned` over raw ``(question, answer)`` strings."""
    pairs = list(qa_pairs)
    scan = scan_questions((question for question, _answer in pairs), ner)
    answers = (answer for _question, answer in pairs)
    return extract_scanned(scan, answers, kbview, value_index, answer_type_of, config)


def extract_scanned(
    scan: CorpusScan,
    answers: Iterable[str],
    kbview: KBView,
    value_index: ValueIndex,
    answer_type_of,
    config: ExtractionConfig | None = None,
) -> tuple[list[Observation], ExtractionStats]:
    """Run Eq 8 extraction + refinement over scanned questions and their answers.

    ``answer_type_of(path) -> AnswerType`` supplies the manually-labelled
    predicate categories of Sec 4.1.1.  Observations reuse the scan's token tuples.
    """
    config = config or ExtractionConfig()
    observations: list[Observation] = []
    stats = ExtractionStats()

    for (q_tokens, mentions), answer in zip(scan, answers):
        stats.qa_pairs += 1
        mentions = mentions[: config.max_mentions_per_question]
        if not mentions:
            continue
        stats.pairs_with_mentions += 1
        a_tokens = tokenize(answer)
        values = value_index.find_values(a_tokens)[: config.max_values_per_answer]
        if not values:
            continue
        question_type = classify_tokens(q_tokens) if config.use_refinement else AnswerType.UNKNOWN

        # Collect connected (mention, entity, value) triples first so that
        # P(e|q) can be normalized over the entities that survive (Eq 4).
        connected: list[tuple[tuple[int, int], str, str, tuple[PredicatePath, ...]]] = []
        for start, end, candidates in mentions:
            stats.entity_candidates_total += len(candidates)
            for entity in candidates:
                for value in values:
                    stats.candidate_ev += 1
                    paths = kbview.paths_between(entity, value)
                    if not paths:
                        continue
                    stats.connected_ev += 1
                    if config.use_refinement:
                        paths = {
                            p for p in paths
                            if answer_types_compatible(question_type, answer_type_of(p))
                        }
                        if not paths:
                            stats.refinement_rejections += 1
                            continue
                    connected.append(
                        ((start, end), entity, value, tuple(sorted(paths, key=str)))
                    )

        if not connected:
            continue
        distinct_entities = {entity for _span, entity, _v, _p in connected}
        entity_weight = 1.0 / len(distinct_entities)
        for span, entity, value, paths in connected:
            stats.refined_ev += 1
            observations.append(Observation(
                question_tokens=q_tokens,
                mention_span=span,
                entity=entity,
                value=value,
                entity_weight=entity_weight,
                paths=paths,
            ))
    return observations, stats
