"""String-level reference for the offline procedure: one corpus pass per stage.

The four stage bodies ``src/`` ran before the offline path became one scan,
moved here verbatim as the differential oracle: seeds, Eq 8 extraction and the
Sec 5.2 statistics each tokenize and NER-scan every question themselves,
``fo`` is the exhaustive O(n²) enumeration (every pattern of every question,
valid or not), every template goes through ``Template.from_question`` (both
checks) and ``P(v|e,p)`` is asked once per (concept, path).  The arithmetic is
the product's expression for expression, so every output is held to equality,
floats included (``tests/test_offline_equivalence.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.core.decompose import ENTITY_VARIABLE, PatternStatistics, _pattern_key
from repro.core.em import EMResult, EncodedObservations, run_em
from repro.core.extraction import (
    ExtractionConfig,
    ExtractionStats,
    Observation,
    ValueIndex,
)
from repro.core.kbview import KBView
from repro.core.learner import LearnerConfig, OfflineLearner
from repro.core.model import TemplateModel
from repro.core.template import Template
from repro.corpus.qa import QACorpus
from repro.data.compile import CompiledKB
from repro.kb.expansion import ExpandedStore, expand_predicates
from repro.kb.paths import PredicatePath
from repro.nlp.ner import EntityRecognizer
from repro.nlp.question_class import (
    AnswerType,
    answer_types_compatible,
    classify_question,
)
from repro.nlp.tokenizer import tokenize
from repro.taxonomy.conceptualizer import Conceptualizer


def reference_collect_seed_entities(corpus: QACorpus, ner: EntityRecognizer) -> set[str]:
    """Entities mentioned in corpus questions (Sec 6.2), its own corpus pass."""
    seeds: set[str] = set()
    for question in corpus.questions():
        for mention in ner.find_mentions(tokenize(question)):
            seeds.update(mention.candidates)
    return seeds


def reference_extract_observations(
    qa_pairs: Iterable[tuple[str, str]],
    kbview: KBView,
    ner: EntityRecognizer,
    value_index: ValueIndex,
    answer_type_of,
    config: ExtractionConfig | None = None,
) -> tuple[list[Observation], ExtractionStats]:
    """Eq 8 extraction + refinement, tokenizing each question twice."""
    config = config or ExtractionConfig()
    observations: list[Observation] = []
    stats = ExtractionStats()

    for question, answer in qa_pairs:
        stats.qa_pairs += 1
        q_tokens = tuple(tokenize(question))
        mentions = ner.find_mentions(q_tokens)[: config.max_mentions_per_question]
        if not mentions:
            continue
        stats.pairs_with_mentions += 1
        a_tokens = tokenize(answer)
        values = value_index.find_values(a_tokens)[: config.max_values_per_answer]
        if not values:
            continue
        question_type = classify_question(question) if config.use_refinement else AnswerType.UNKNOWN

        # Collect connected (mention, entity, value) triples first so that
        # P(e|q) can be normalized over the entities that survive (Eq 4).
        connected: list[tuple[tuple[int, int], str, str, tuple[PredicatePath, ...]]] = []
        for mention in mentions:
            stats.entity_candidates_total += len(mention.candidates)
            for entity in mention.candidates:
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
                        ((mention.start, mention.end), entity, value, tuple(sorted(paths, key=str)))
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


def reference_pattern_statistics(
    questions: Iterable[str],
    ner: EntityRecognizer,
    max_questions: int | None = None,
    max_tokens: int = 23,
) -> PatternStatistics:
    """Exhaustive ``fo`` / ``fv``: every span of every question is joined
    into a pattern string and counted, whether or not any question validates
    it — ``fo`` here holds every pattern the corpus ever produced."""
    stats = PatternStatistics()
    for count, question in enumerate(questions):
        if max_questions is not None and count >= max_questions:
            break
        tokens = tokenize(question)
        n = len(tokens)
        if n == 0 or n > max_tokens:
            continue
        stats.questions_indexed += 1
        valid_spans = {
            (start, end) for start, end, _candidates in ner.spans(tokens)
        }
        seen_fo: set[str] = set()
        seen_fv: set[str] = set()
        for start in range(n):
            for end in range(start + 1, n + 1):
                if (start, end) == (0, n):
                    continue  # replacing everything leaves no pattern
                pattern = _pattern_key(
                    tokens[:start] + [ENTITY_VARIABLE] + tokens[end:]
                )
                seen_fo.add(pattern)
                if (start, end) in valid_spans:
                    seen_fv.add(pattern)
        stats.fo.update(seen_fo)
        stats.fv.update(seen_fv)
    return stats


def reference_encode_candidates(
    observations: list[Observation],
    kbview: KBView,
    conceptualizer: Conceptualizer,
    max_concepts_per_mention: int,
) -> tuple[EncodedObservations, list[str], list[str]]:
    """(template, path, f) candidates with a validated ``Template`` per
    (observation, concept) and ``P(v|e,p)`` inside the concept loop."""
    template_ids: dict[str, int] = {}
    path_ids: dict[str, int] = {}
    template_names: list[str] = []
    path_names: list[str] = []
    encoded = EncodedObservations()

    for obs in observations:
        start, end = obs.mention_span
        context = obs.question_tokens[:start] + obs.question_tokens[end:]
        concept_distribution = conceptualizer.conceptualize(obs.entity, context)
        if not concept_distribution:
            continue
        top_concepts = sorted(
            concept_distribution.items(), key=lambda kv: (-kv[1], kv[0])
        )[:max_concepts_per_mention]

        for concept, concept_prob in top_concepts:
            template = Template.from_question(obs.question_tokens, obs.mention_span, concept)
            t_id = template_ids.setdefault(template.text, len(template_ids))
            if t_id == len(template_names):
                template_names.append(template.text)
            for path in obs.paths:
                value_prob = kbview.value_probability(obs.entity, path, obs.value)
                f = obs.entity_weight * concept_prob * value_prob
                if f <= 0.0:
                    continue
                p_id = path_ids.setdefault(str(path), len(path_ids))
                if p_id == len(path_names):
                    path_names.append(str(path))
                encoded.append_candidate(t_id, p_id, f)
        if encoded.open_candidates:
            encoded.close_observation()
    return encoded, template_names, path_names


@dataclass
class ReferenceOffline:
    """Every intermediate of one reference offline run."""

    ner: EntityRecognizer
    seeds: set[str]
    expanded: ExpandedStore | None
    observations: list[Observation]
    extraction: ExtractionStats
    encoded: tuple[EncodedObservations, list[str], list[str]]


def reference_encode_corpus(
    kb: CompiledKB,
    corpus: QACorpus,
    conceptualizer: Conceptualizer,
    config: LearnerConfig | None = None,
) -> ReferenceOffline:
    """``OfflineLearner.encode_corpus`` stage by stage, a corpus pass each."""
    config = config or LearnerConfig()
    ner = EntityRecognizer(kb.gazetteer)
    seeds = reference_collect_seed_entities(corpus, ner)
    expanded: ExpandedStore | None = None
    if config.use_expansion and config.max_path_length > 1:
        expanded = expand_predicates(kb.store, seeds, max_length=config.max_path_length)
    kbview = KBView(kb.store, expanded)
    observations, extraction = reference_extract_observations(
        ((pair.question, pair.answer) for pair in corpus),
        kbview,
        ner,
        ValueIndex(kb.store),
        answer_type_of=kb.answer_type_for_path,
        config=ExtractionConfig(use_refinement=config.use_refinement),
    )
    encoded = reference_encode_candidates(
        observations, kbview, conceptualizer, config.max_concepts_per_mention
    )
    return ReferenceOffline(ner, seeds, expanded, observations, extraction, encoded)


def reference_model(
    reference: ReferenceOffline, config: LearnerConfig | None = None
) -> tuple[EMResult, TemplateModel]:
    """EM over the reference buffers, decoded by the product's own decoder."""
    config = config or LearnerConfig()
    encoded, template_names, path_names = reference.encoded
    em_result = run_em(encoded, config.em)
    model = OfflineLearner._build_model(
        em_result, template_names, path_names, len(reference.observations)
    )
    return em_result, model
