"""Entity-value extraction from QA pairs (Sec 4.1.1).

For each QA pair ``(q, a)`` we extract

    ``EV_i = {(e, v) | e ⊂ q, v ⊂ a, ∃p (e, p, v) ∈ K}``     (Eq 8)

— entity mentions in the question, value mentions in the answer, kept only
when some (possibly expanded) predicate connects them.  The *refinement*
step then filters pairs whose predicate category conflicts with the
question's expected answer type (the UIUC-classifier check that removes
``(obama, politician)`` from a birthday question — Example 2).

Each surviving pair is an observation ``x_i = (q_i, e_i, v_i)`` carrying
``P(e|q_i)`` (Eq 4) and the pruned candidate path set used by the EM
algorithm's M-step (Eq 24), each path with its ``P(v|e,p)`` (Eq 6).
:func:`extract_records` is the one body: it works on dictionary ids and yields
plain-tuple records, which the offline learner encodes as they arrive.
:func:`extract_observations` is its door for callers holding raw pairs; it
decodes each record into an :class:`Observation`.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from operator import attrgetter
from typing import Iterable, Iterator, NamedTuple, Sequence

from repro.core.kbview import KBView
from repro.kb.paths import PredicatePath
from repro.kb.backend import KBBackend
from repro.kb.triple import is_literal
from repro.nlp.ner import EntityRecognizer, Span, leftmost_longest
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


class CorpusScan(NamedTuple):
    """The corpus questions read once each, as columns: the ``i``-th
    distinct question string (first-occurrence order) has the token tuple
    ``tokens[i]``, every gazetteer span ``spans[i]`` and their
    leftmost-longest subset ``mentions[i]`` (tuples of ``Span`` tuples),
    and ``order[j]`` is the row of the ``j``-th corpus question.

    Columns, not one ``(tokens, mentions, spans)`` tuple per row: the cyclic
    GC untracks a tuple only once its items are untracked, one level per
    collection, so a row over tuples of ``Span`` tuples stays tracked until
    a full collection, and a default-scale train promoted ~21 k of them
    into generation 2.  The column tuples are untracked by the second
    collection.

    The scan holds one string object per distinct token (152 066 tokens of
    926 distinct ones at default scale took 13.3 MB as one string each), and
    a question whose spans are all leftmost-longest shares one tuple between
    ``mentions`` and ``spans``.
    """

    tokens: list[tuple[str, ...]]
    mentions: list[tuple[Span, ...]]
    spans: list[tuple[Span, ...]]
    order: list[int]


def scan_questions(questions: Iterable[str], ner: EntityRecognizer) -> CorpusScan:
    """The offline path's one read of the corpus (seeds, Eq 8 and Sec 5.2 all
    consume it): each distinct question is tokenized once and walks the
    gazetteer once (:meth:`EntityRecognizer.spans`)."""
    row_of: dict[str, int] = {}
    # token -> itself: every row's tokens are the first-seen string objects
    vocabulary: dict[str, str] = {}
    canonical = vocabulary.setdefault
    tokens_of: list[tuple[str, ...]] = []
    mentions_of: list[tuple[Span, ...]] = []
    spans_of: list[tuple[Span, ...]] = []
    order: list[int] = []
    for question in questions:
        row = row_of.get(question)
        if row is None:
            row = row_of[question] = len(tokens_of)
            words = tokenize(question)
            tokens = tuple(map(canonical, words, words))
            spans = tuple(ner.spans(tokens))
            tokens_of.append(tokens)
            mentions_of.append(leftmost_longest(spans))
            spans_of.append(spans)
        order.append(row)
    return CorpusScan(tokens_of, mentions_of, spans_of, order)


def extract_observations(
    qa_pairs: Iterable[tuple[str, str]],
    kbview: KBView,
    ner: EntityRecognizer,
    value_index: ValueIndex,
    answer_type_of,
    config: ExtractionConfig | None = None,
) -> tuple[list[Observation], ExtractionStats]:
    """:func:`extract_records` over raw ``(question, answer)`` strings, each
    record decoded into an :class:`Observation`."""
    pairs = list(qa_pairs)
    scan = scan_questions((question for question, _answer in pairs), ner)
    answers = (answer for _question, answer in pairs)
    stats = ExtractionStats()
    records = extract_records(scan, answers, kbview, value_index, answer_type_of, stats, config)
    observations = [
        Observation(
            question_tokens=q_tokens,
            mention_span=(start, end),
            entity=entity,
            value=value,
            entity_weight=entity_weight,
            paths=tuple(path for _name, path, _value_prob in paths),
        )
        for q_tokens, start, end, entity, value, entity_weight, paths in records
    ]
    return observations, stats


# One surviving pair of Eq 8, as plain tuples: (question tokens, mention start,
# mention end, entity, value, P(e|q) of Eq 4, paths), ``paths`` being
# ``((name, path, P(v|e,p) of Eq 6), ...)`` in name order.
ExtractedRecord = tuple[
    tuple[str, ...], int, int, str, str, float, tuple[tuple[str, PredicatePath, float], ...]
]


class _PathEntry:
    """One predicate path as a pass meets it, resolved once per path key.

    ``predicate_id`` is the store's id of a length-1 path's predicate;
    ``expanded_id`` the expansion's path id of a longer one.
    """

    __slots__ = ("name", "path", "compatible", "predicate_id", "expanded_id")

    def __init__(
        self, path: PredicatePath, compatible: frozenset[AnswerType],
        predicate_id: int | None, expanded_id: int | None,
    ) -> None:
        self.name = str(path)
        self.path = path
        self.compatible = compatible  # question types the refinement lets through
        self.predicate_id = predicate_id
        self.expanded_id = expanded_id


_BY_NAME = attrgetter("name")  # Observation.paths are sorted by str(path)


def extract_records(
    scan: CorpusScan,
    answers: Iterable[str],
    kbview: KBView,
    value_index: ValueIndex,
    answer_type_of,
    stats: ExtractionStats,
    config: ExtractionConfig | None = None,
) -> Iterator[ExtractedRecord]:
    """Run Eq 8 extraction + refinement over scanned questions and their answers.

    The offline path's one extraction body: it yields one record per
    surviving pair and counts into ``stats`` as it goes, so a consumer that
    encodes each record at once (the learner) never holds them all.

    It works on dictionary ids.  The paths of a pair are the store's direct
    predicate ids (``predicates_between_ids``) joined with the expansion's
    path ids (``path_ids_between``), and ``P(v|e,p)`` is membership in, and
    the size of, the object-id set.  Each path key resolves once per pass to
    one entry holding its name, its ``PredicatePath`` and the question types
    ``answer_type_of(path) -> AnswerType`` (the manually-labelled predicate
    categories of Sec 4.1.1) lets through.  Entries are interned by predicate
    names, so a direct predicate and the expansion's length-1 path of the same
    name are one entry even when the expansion has its own dictionary (a loaded
    artifact).  Each distinct answer string is tokenized and value-scanned
    once per pass, each distinct question classified once, and records reuse
    the scan's token tuples.
    """
    config = config or ExtractionConfig()
    store, expanded = kbview.store, kbview.expanded
    dictionary = store.dictionary
    lookup, decode = dictionary.lookup, dictionary.decode
    predicates_between = store.predicates_between_ids
    objects_ids = store.objects_ids
    if expanded is None:
        path_ids_between = expanded_objects_ids = expanded_lookup = None
    else:
        path_ids_between = expanded.path_ids_between
        expanded_objects_ids = expanded.objects_ids
        expanded_lookup = (
            None if expanded.dictionary is dictionary else expanded.dictionary.lookup
        )
    answer_types = tuple(AnswerType)
    by_predicates: dict[tuple[str, ...], _PathEntry] = {}
    direct_entries: dict[int, _PathEntry] = {}  # store predicate id -> entry
    expanded_entries: dict[int, _PathEntry] = {}  # expansion path id -> entry

    def entry_for(path: PredicatePath, expanded_id: int | None) -> _PathEntry:
        entry = by_predicates.get(path.predicates)
        if entry is None:
            answer_type = answer_type_of(path)
            entry = by_predicates[path.predicates] = _PathEntry(
                path,
                frozenset(t for t in answer_types if answer_types_compatible(t, answer_type)),
                lookup(path.predicates[0]) if path.is_direct else None,
                None if path.is_direct else expanded_id,
            )
        return entry

    def direct_entry(predicate_id: int) -> _PathEntry:
        entry = direct_entries[predicate_id] = entry_for(
            PredicatePath.single(decode(predicate_id)), None
        )
        return entry

    def expanded_entry(path_id: int) -> _PathEntry:
        entry = expanded_entries[path_id] = entry_for(expanded.decode_path(path_id), path_id)
        return entry

    tokens_of, mentions_of = scan.tokens, scan.mentions
    # (value, store id, expansion id) per distinct answer string, and the
    # question type per distinct question: each read once per pass
    values_of: dict[str, tuple[tuple[str, int | None, int | None], ...]] = {}
    question_types: dict[int, AnswerType] = {}
    for row, answer in zip(scan.order, answers):
        stats.qa_pairs += 1
        mentions = mentions_of[row][: config.max_mentions_per_question]
        if not mentions:
            continue
        stats.pairs_with_mentions += 1
        q_tokens = tokens_of[row]
        value_ids = values_of.get(answer)
        if value_ids is None:
            values = value_index.find_values(tokenize(answer))[: config.max_values_per_answer]
            value_ids = values_of[answer] = tuple(
                (value, v_id, v_id if expanded_lookup is None else expanded_lookup(value))
                for value, v_id in zip(values, map(lookup, values))
            )
        if not value_ids:
            continue
        if not config.use_refinement:
            question_type = AnswerType.UNKNOWN
        elif (question_type := question_types.get(row)) is None:
            question_type = question_types[row] = classify_tokens(q_tokens)

        # Collect connected (mention, entity, value) triples first so that
        # P(e|q) can be normalized over the entities that survive (Eq 4).
        connected: list[tuple[int, int, str, str, tuple[tuple[str, PredicatePath, float], ...]]] = []
        for start, end, candidates in mentions:
            stats.entity_candidates_total += len(candidates)
            for entity in candidates:
                e_id = lookup(entity)
                e_x = e_id if expanded_lookup is None else expanded_lookup(entity)
                for value, v_id, v_x in value_ids:
                    stats.candidate_ev += 1
                    direct = (
                        predicates_between(e_id, v_id)
                        if e_id is not None and v_id is not None else ()
                    )
                    via = (
                        path_ids_between(e_x, v_x)
                        if path_ids_between is not None and e_x is not None and v_x is not None
                        else ()
                    )
                    if not direct and not via:
                        continue
                    stats.connected_ev += 1
                    entries = [direct_entries.get(p) or direct_entry(p) for p in direct]
                    entries += [expanded_entries.get(p) or expanded_entry(p) for p in via]
                    if direct and via:
                        entries = list(dict.fromkeys(entries))
                    if config.use_refinement:
                        entries = [e for e in entries if question_type in e.compatible]
                        if not entries:
                            stats.refinement_rejections += 1
                            continue
                    entries.sort(key=_BY_NAME)
                    paths = []
                    for entry in entries:
                        if entry.expanded_id is None:
                            objects = (
                                objects_ids(e_id, entry.predicate_id)
                                if e_id is not None and entry.predicate_id is not None
                                else ()
                            )
                            value_prob = 1.0 / len(objects) if v_id in objects else 0.0
                        else:
                            objects = expanded_objects_ids(e_x, entry.expanded_id)
                            if objects:
                                value_prob = 1.0 / len(objects) if v_x in objects else 0.0
                            else:  # not in the store: walk the graph (KBView.values)
                                value_prob = kbview.value_probability(entity, entry.path, value)
                        paths.append((entry.name, entry.path, value_prob))
                    connected.append((start, end, entity, value, tuple(paths)))

        if not connected:
            continue
        distinct_entities = {entity for _start, _end, entity, _v, _p in connected}
        entity_weight = 1.0 / len(distinct_entities)
        for start, end, entity, value, paths in connected:
            stats.refined_ev += 1
            yield q_tokens, start, end, entity, value, entity_weight, paths
