"""The KBQA system facade: train once, answer BFQs and complex questions.

Wires the offline procedure (learner), the online procedure (answerer) and
the decomposition machinery (Sec 5) into the two-call API a downstream user
needs: :meth:`KBQA.train` and :meth:`KBQA.answer` /
:meth:`KBQA.answer_complex`.

The facade is also where live KB updates come together: a trained system
subscribes to its backend's change stream, so :meth:`KBQA.add_fact` /
:meth:`KBQA.delete_fact` (or any direct backend mutation) flow through
per-seed expansion refresh (`repro.kb.live`) and answer-cache invalidation —
answers reflect the edit with no retraining and no full re-expansion.
Training can also resume from a persisted expansion
(``KBQA.train(..., expanded=ExpandedStore.load(path))``), skipping the
Sec 6.2 scan.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Sequence

from repro.core.decompose import (
    ENTITY_VARIABLE,
    Decomposer,
    Decomposition,
    PatternStatistics,
)
from repro.core.extraction import scan_questions
from repro.core.fallback import (
    DEFAULT_MARGIN,
    DEFAULT_THRESHOLD,
    FallbackConfig,
    FallbackIndex,
)
from repro.core.learner import LearnerConfig, LearnResult, OfflineLearner
from repro.core.online import AnswerResult, OnlineAnswerer
from repro.corpus.qa import QACorpus
from repro.data.compile import CompiledKB
from repro.kb.expansion import ExpandedStore
from repro.kb.live import LiveExpansionMaintainer
from repro.taxonomy.conceptualizer import Conceptualizer


@dataclass(frozen=True, slots=True)
class KBQAConfig:
    """End-to-end configuration (learner + decomposition + online).

    ``answer_cache_size`` bounds the online answer cache keyed on normalized
    question text (0 disables it); ``lookup_cache_size`` bounds the
    NER/conceptualizer memoization LRUs of the serving layer.

    ``fallback`` enables the semantic fallback lane (an embedding index over
    the learned predicate paths, consulted only when Eq 7 abstains);
    ``fallback_threshold`` / ``fallback_margin`` set its confidence gate.
    """

    learner: LearnerConfig = field(default_factory=LearnerConfig)
    max_concepts_online: int = 4
    pattern_max_questions: int | None = 25_000
    pattern_max_tokens: int = 23
    answer_cache_size: int = 2048
    lookup_cache_size: int = 8192
    fallback: bool = False
    fallback_threshold: float = DEFAULT_THRESHOLD
    fallback_margin: float = DEFAULT_MARGIN


@dataclass(frozen=True, slots=True)
class ComplexAnswer:
    """Result of answering a (possibly) complex question."""

    question: str
    decomposition: Decomposition
    steps: tuple[AnswerResult, ...]
    final: AnswerResult | None

    @property
    def answered(self) -> bool:
        return self.final is not None and self.final.answered

    @property
    def value(self) -> str | None:
        return self.final.value if self.final else None

    @property
    def values(self) -> tuple[str, ...]:
        return self.final.values if self.final else ()


class KBQA:
    """A trained KBQA instance over one compiled knowledge base."""

    def __init__(
        self,
        kb: CompiledKB,
        conceptualizer: Conceptualizer,
        learn_result: LearnResult,
        pattern_statistics: PatternStatistics,
        config: KBQAConfig,
        fallback_index: FallbackIndex | None = None,
    ) -> None:
        self.kb = kb
        self.conceptualizer = conceptualizer
        self.learn_result = learn_result
        self.config = config
        self.model = learn_result.model
        self.answerer = OnlineAnswerer(
            learn_result.kbview,
            learn_result.ner,
            conceptualizer,
            learn_result.model,
            max_concepts=config.max_concepts_online,
            answer_cache_size=config.answer_cache_size,
            lookup_cache_size=config.lookup_cache_size,
            fallback=fallback_index,
        )
        self.decomposer = Decomposer(
            pattern_statistics,
            learn_result.ner,
            learn_result.model,
            conceptualizer,
            max_concepts=config.max_concepts_online,
        )
        # Live-update wiring: any backend mutation invalidates the answer
        # cache, and (when an expansion exists) refreshes exactly the
        # affected seeds instead of re-running the Sec 6.2 scan.
        self.maintainer: LiveExpansionMaintainer | None = None
        if learn_result.expanded is not None:
            self.maintainer = LiveExpansionMaintainer(
                kb.store,
                learn_result.expanded,
                learn_result.seed_entities,
            )
        self._kb_unsubscribe = kb.store.subscribe(self._on_kb_change, self._on_kb_changes)

    # -- Training -------------------------------------------------------------

    @classmethod
    def train(
        cls,
        kb: CompiledKB,
        corpus: QACorpus,
        conceptualizer: Conceptualizer,
        config: KBQAConfig | None = None,
        *,
        expanded: ExpandedStore | None = None,
    ) -> "KBQA":
        """Run the full offline procedure of Figure 3 and return the system.

        Pass ``expanded`` (typically ``ExpandedStore.load(path)``) to resume
        from a persisted predicate expansion: the learner then skips the
        Sec 6.2 scan and trains directly against the loaded store.
        """
        config = config or KBQAConfig()
        # Built first, so gate settings it refuses fail before the training pass.
        fallback_config = (
            FallbackConfig(threshold=config.fallback_threshold, margin=config.fallback_margin)
            if config.fallback
            else None
        )
        learner = OfflineLearner(
            kb, conceptualizer, config.learner, precomputed_expansion=expanded
        )
        # the one read of the corpus, shared by the learner and the Sec 5.2 statistics
        scan = scan_questions(corpus.questions(), learner.ner)
        learn_result = learner.learn(corpus, scan)
        statistics = PatternStatistics.from_tokens(
            (tokens for tokens, _mentions in scan),
            learner.ner,
            max_questions=config.pattern_max_questions,
            max_tokens=config.pattern_max_tokens,
        )
        # Build the semantic fallback index once the model is final, so the
        # index sees exactly the θ the answerer will serve.
        fallback_index: FallbackIndex | None = None
        if fallback_config is not None:
            fallback_index = FallbackIndex.build(learn_result.model, fallback_config)
        return cls(
            kb, conceptualizer, learn_result, statistics, config,
            fallback_index=fallback_index,
        )

    # -- Answering ---------------------------------------------------------------

    @property
    def fallback_enabled(self) -> bool:
        """Whether the semantic fallback lane is wired into the answerer."""
        return self.answerer.fallback_enabled

    def answer(self, question: str) -> AnswerResult:
        """Answer a binary factoid question (Sec 3.3)."""
        return self.answerer.answer(question)

    def answer_many(self, questions: Sequence[str]) -> list[AnswerResult]:
        """Batch-answer BFQs through the serving caches (input order kept;
        results identical to per-question :meth:`answer`)."""
        return self.answerer.answer_many(questions)

    def cached_answer(
        self, question: str, key: str | None = None
    ) -> AnswerResult | None:
        """Answer-cache probe (never evaluates): see
        :meth:`OnlineAnswerer.cached_answer` — the serving layer's
        cache-hit lane reads the cache through this."""
        return self.answerer.cached_answer(question, key)

    # -- Live KB updates -------------------------------------------------------

    def _on_kb_change(self, _change) -> None:
        """Backend change listener: a mutated KB can invalidate any cached
        answer (the subscription order puts the expansion maintainer first,
        so the expanded store is already refreshed when this fires)."""
        self.answerer.clear_caches()

    def _on_kb_changes(self, _changes) -> None:
        """Coalesced form for a ``batch()`` burst: one cache drop per burst
        instead of one per change."""
        self.answerer.clear_caches()

    def batch(self):
        """Deferred-notification context for bulk edits.

        ``with system.batch(): ...`` applies every :meth:`add_fact` /
        :meth:`delete_fact` inside the block immediately, but coalesces the
        downstream maintenance: the expansion maintainer refreshes each
        affected seed once for the whole burst, and the answer caches are
        dropped once at exit — instead of per-change on both counts.
        """
        return self.kb.store.batch()

    def add_fact(self, subject: str, predicate: str, obj: str) -> bool:
        """Insert one triple into the live KB; returns True if new.

        The change flows through every layer without retraining: the backend
        notifies the expansion maintainer (per-seed refresh, no full
        re-expansion) and the answer caches are dropped, so the next
        :meth:`answer` sees the new fact.
        """
        return self.kb.store.add(subject, predicate, obj)

    def delete_fact(self, subject: str, predicate: str, obj: str) -> bool:
        """Remove one triple from the live KB; returns True if it existed.

        Same propagation as :meth:`add_fact` — expanded triples derived from
        the deleted edge disappear from subsequent answers immediately.
        """
        return self.kb.store.delete(subject, predicate, obj)

    def close(self) -> None:
        """Detach the system's change listeners from the KB backend.

        A trained system holds two subscriptions on its backend (expansion
        maintainer + answer-cache invalidation); the backend in turn keeps
        the system reachable through them.  Call this (or use the system as
        a context manager) when training several transient systems against
        one shared store, so discarded systems neither leak nor burn
        per-seed refreshes on later live edits.
        """
        if self.maintainer is not None:
            self.maintainer.close()
        self._kb_unsubscribe()

    def __getstate__(self) -> dict:
        """A live system does not pickle.

        The facade holds process-local wiring (backend subscriptions, the
        live expansion maintainer, unsubscribe closures) that cannot and
        must not cross a process boundary.  Serving is one process: the
        system stays in the process that trained it.
        """
        raise TypeError(
            "KBQA systems are not picklable (live backend subscriptions); "
            "share a trained system with other processes by fork"
        )

    def __enter__(self) -> "KBQA":
        """Context-manager form: ``with KBQA.train(...) as system:``."""
        return self

    def __exit__(self, *exc_info) -> None:
        """Detach from the backend on context exit."""
        self.close()

    def decompose(self, question: str) -> Decomposition:
        """Optimal decomposition of a (possibly) complex question (Sec 5)."""
        return self.decomposer.decompose(question)

    def answer_complex(self, question: str) -> ComplexAnswer:
        """Divide-and-conquer answering (Sec 5.1): decompose, then answer
        each sub-question with the previous answer substituted for ``$e``."""
        decomposition = self.decompose(question)
        if decomposition.is_simple or decomposition.score <= 0.0:
            final = self.answer(question)
            return ComplexAnswer(question, decomposition, (final,), final)

        steps: list[AnswerResult] = []
        current = self.answer(decomposition.sequence[0])
        steps.append(current)
        for pattern in decomposition.sequence[1:]:
            if not current.answered:
                return ComplexAnswer(question, decomposition, tuple(steps), None)
            next_question = pattern.replace(ENTITY_VARIABLE, current.value)
            current = self.answer(next_question)
            steps.append(current)
        return ComplexAnswer(question, decomposition, tuple(steps), current)

    # -- Introspection ---------------------------------------------------------------

    def describe(self) -> dict[str, object]:
        """Inventory numbers used by the coverage experiments (Table 12/16)."""
        expanded = self.learn_result.expanded
        return {
            "kb": self.kb.kind,
            "templates": self.model.n_templates,
            "predicates": self.model.n_predicates,
            "templates_per_predicate": round(self.model.templates_per_predicate(), 1),
            "observations": self.learn_result.n_observations,
            "seed_entities": self.learn_result.n_seed_entities,
            "expanded_spo": len(expanded) if expanded else 0,
            "em_iterations": self.learn_result.em.iterations,
        }


def train_without_expansion(
    kb: CompiledKB,
    corpus: QACorpus,
    conceptualizer: Conceptualizer,
    config: KBQAConfig | None = None,
) -> KBQA:
    """Ablation helper: KBQA restricted to direct predicates (Table 16's
    length-1 row)."""
    config = config or KBQAConfig()
    ablated = replace(config, learner=replace(config.learner, use_expansion=False))
    return KBQA.train(kb, corpus, conceptualizer, ablated)
