"""The offline procedure (Figure 3, right column).

Pipeline: corpus questions -> seed entity collection -> predicate expansion
(Sec 6.2) -> entity-value extraction (Sec 4.1) -> candidate encoding with
``f(x, z)`` (Eq 19) -> EM (Sec 4.2) -> :class:`TemplateModel`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.core.em import EMConfig, EMResult, EncodedObservations, run_em
from repro.core.extraction import (
    CorpusScan,
    ExtractedRecord,
    ExtractionConfig,
    ExtractionStats,
    ValueIndex,
    extract_records,
    scan_questions,
)
from repro.core.kbview import KBView
from repro.core.model import TemplateModel
from repro.corpus.qa import QACorpus
from repro.data.compile import CompiledKB
from repro.kb.expansion import ExpandedStore, expand_predicates
from repro.nlp.ner import EntityRecognizer
from repro.taxonomy.conceptualizer import Conceptualizer, ContextScores, top_concepts
from repro.taxonomy.isa import PriorRow


@dataclass(frozen=True, slots=True)
class LearnerConfig:
    """Offline-procedure knobs; defaults follow the paper (k = 3, Sec 6.3)."""

    max_path_length: int = 3
    use_expansion: bool = True
    use_refinement: bool = True
    max_concepts_per_mention: int = 4
    em: EMConfig = field(default_factory=EMConfig)

    def __post_init__(self) -> None:
        # below 1 the [:max_concepts] slice drops concepts (or every one)
        if self.max_concepts_per_mention < 1:
            raise ValueError(
                f"max_concepts_per_mention must be >= 1, got {self.max_concepts_per_mention}"
            )


@dataclass
class LearnResult:
    """Everything the offline phase produces."""

    model: TemplateModel
    kbview: KBView
    ner: EntityRecognizer
    expanded: ExpandedStore | None
    em: EMResult
    extraction: ExtractionStats
    n_observations: int
    n_seed_entities: int
    seed_entities: frozenset[str] = frozenset()


@dataclass
class PreparedCorpus:
    """Everything the offline phase computes before EM runs.

    ``encoded`` is ``(EncodedObservations, template_names, path_names)`` —
    the flat candidate buffers EM consumes plus the id -> name tables used to
    decode θ into the :class:`TemplateModel`.
    """

    kbview: KBView
    ner: EntityRecognizer
    expanded: ExpandedStore | None
    extraction: ExtractionStats
    encoded: tuple[EncodedObservations, list[str], list[str]]
    n_observations: int
    n_seed_entities: int
    seed_entities: frozenset[str] = frozenset()


def collect_seed_entities(corpus: QACorpus, ner: EntityRecognizer) -> set[str]:
    """Entities mentioned in corpus questions — the BFS seed reduction of
    Sec 6.2 ('we only use subjects occurring in the questions').

    Module-level so the CLI's ``kbqa expand`` can collect the same seed
    set the offline learner would use, without running the full pipeline.
    """
    return _seed_entities(scan_questions(corpus.questions(), ner))


def _seed_entities(scan: CorpusScan) -> set[str]:
    mentions = (mention for mentions in scan.mentions for mention in mentions)
    return {entity for _start, _end, candidates in mentions for entity in candidates}


class OfflineLearner:
    """Learns ``P(p|t)`` for one compiled knowledge base."""

    def __init__(
        self,
        kb: CompiledKB,
        conceptualizer: Conceptualizer,
        config: LearnerConfig | None = None,
        *,
        precomputed_expansion: ExpandedStore | None = None,
    ) -> None:
        self.kb = kb
        self.conceptualizer = conceptualizer
        self.config = config or LearnerConfig()
        self.ner = EntityRecognizer(kb.gazetteer)
        # a persisted ExpandedStore (ExpandedStore.load) skips the Sec 6.2
        # scan entirely — offline training resumes from the saved artifact
        self.precomputed_expansion = precomputed_expansion

    def learn(self, corpus: QACorpus, scan: CorpusScan | None = None) -> LearnResult:
        """Run the full offline pipeline over ``corpus`` (``scan``: see :meth:`encode_corpus`)."""
        prepared = self.encode_corpus(corpus, scan)
        encoded, template_names, path_names = prepared.encoded
        em_result = run_em(encoded, self.config.em)
        model = self._build_model(
            em_result, template_names, path_names, prepared.n_observations
        )

        return LearnResult(
            model=model,
            kbview=prepared.kbview,
            ner=prepared.ner,
            expanded=prepared.expanded,
            em=em_result,
            extraction=prepared.extraction,
            n_observations=prepared.n_observations,
            n_seed_entities=prepared.n_seed_entities,
            seed_entities=prepared.seed_entities,
        )

    def encode_corpus(self, corpus: QACorpus, scan: CorpusScan | None = None) -> PreparedCorpus:
        """Run every offline stage up to (and including) candidate encoding.

        Split out from :meth:`learn` so the perf harness can time the EM
        stage in isolation on real encoded observations.  ``scan`` is
        ``scan_questions(corpus.questions(), self.ner)`` if the caller holds
        it already (``KBQA.train`` shares it with the Sec 5.2 statistics).
        """
        if scan is None:
            scan = scan_questions(corpus.questions(), self.ner)
        seeds = _seed_entities(scan)

        expanded: ExpandedStore | None = None
        if self.config.use_expansion and self.config.max_path_length > 1:
            if self.precomputed_expansion is not None:
                expanded = self.precomputed_expansion
                if expanded.max_length != self.config.max_path_length:
                    raise ValueError(
                        f"precomputed expansion has max_length="
                        f"{expanded.max_length}, but the learner is configured "
                        f"for max_path_length={self.config.max_path_length} — "
                        "re-run `kbqa expand --save` with the matching k"
                    )
            else:
                expanded = expand_predicates(
                    self.kb.store, seeds, max_length=self.config.max_path_length
                )
        kbview = KBView(self.kb.store, expanded)

        extraction_stats = ExtractionStats()
        records = extract_records(
            scan,
            (pair.answer for pair in corpus),
            kbview,
            ValueIndex(self.kb.store),
            self.kb.answer_type_for_path,
            extraction_stats,
            ExtractionConfig(use_refinement=self.config.use_refinement),
        )
        encoded = self._encode_candidates(records)
        return PreparedCorpus(
            kbview=kbview,
            ner=self.ner,
            expanded=expanded,
            extraction=extraction_stats,
            encoded=encoded,
            n_observations=extraction_stats.refined_ev,
            n_seed_entities=len(seeds),
            seed_entities=frozenset(seeds),
        )

    # -- Stages -----------------------------------------------------------

    def _encode_candidates(
        self, records: Iterable[ExtractedRecord]
    ) -> tuple[EncodedObservations, list[str], list[str]]:
        """Expand each extracted pair into (template, path, f) candidates.

        Candidates realize the pruned enumeration of Algorithm 1 line 7-8:
        templates from conceptualizing ``e_i`` in ``q_i`` (``P(t|e,q) > 0``),
        paths connecting ``(e_i, v_i)`` (``P(v|e,p) > 0``, computed by the
        extraction body).  Candidates are appended straight into the flat CSR
        buffers of :class:`EncodedObservations` as each record arrives — EM
        never sees a nested python list, and no record outlives its turn.
        ``P(c|e,q)`` depends on the entity only through its prior row
        ``P(c|e)`` (``IsANetwork.prior_row``, shared by every entity with an
        equal prior), so it is computed once per (prior row, context) for the
        pass, from context scores computed once per context — the online
        path's arithmetic (``Conceptualizer.context_scores`` / ``posterior``).
        """
        template_ids: dict[str, int] = {}
        path_ids: dict[str, int] = {}
        template_names: list[str] = []
        path_names: list[str] = []
        encoded = EncodedObservations()
        conceptualizer = self.conceptualizer
        prior_row, posterior = conceptualizer.network.prior_row, conceptualizer.posterior
        max_concepts = self.config.max_concepts_per_mention
        # tuples throughout, so the collector untracks the memo's entries
        memo: dict[tuple[PriorRow, tuple[str, ...]], tuple[tuple[str, float], ...]] = {}
        scores_by_context: dict[tuple[str, ...], ContextScores | None] = {}

        for q_tokens, start, end, entity, _value, entity_weight, paths in records:
            row = prior_row(entity)
            if not row:
                continue
            head, tail = q_tokens[:start], q_tokens[end:]
            context = head + tail
            concepts = memo.get((row, context))
            if concepts is None:
                if context not in scores_by_context:
                    scores_by_context[context] = conceptualizer.context_scores(context)
                ranked = top_concepts(posterior(row, scores_by_context[context]), max_concepts)
                concepts = memo[row, context] = tuple(ranked)

            for concept, concept_prob in concepts:
                template_text = " ".join(head + (concept,) + tail)  # the online path's key
                t_id = template_ids.setdefault(template_text, len(template_ids))
                if t_id == len(template_names):
                    template_names.append(template_text)
                for path_name, _path, value_prob in paths:
                    f = entity_weight * concept_prob * value_prob
                    if f <= 0.0:
                        continue
                    p_id = path_ids.setdefault(path_name, len(path_ids))
                    if p_id == len(path_names):
                        path_names.append(path_name)
                    encoded.append_candidate(t_id, p_id, f)
            if encoded.open_candidates:
                encoded.close_observation()
        return encoded, template_names, path_names

    @staticmethod
    def _build_model(
        em_result: EMResult,
        template_names: list[str],
        path_names: list[str],
        n_observations: int,
    ) -> TemplateModel:
        model = TemplateModel()
        model.n_observations = n_observations
        for template_id, row in em_result.theta.items():
            distribution = {
                path_names[path_id]: prob for path_id, prob in row.items() if prob > 0
            }
            if distribution:
                model.set_distribution(
                    template_names[template_id],
                    distribution,
                    support=em_result.template_support.get(template_id, 0.0),
                )
        return model
