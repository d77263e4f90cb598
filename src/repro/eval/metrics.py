"""Evaluation metrics (Sec 7.3.1).

QALD-style accounting distinguishes *processed* (``#pro`` — the system
committed to a predicate and returned a non-null reading), *right*
(``#ri``) and *partially right* (``#par``) answers:

    ``P = #ri/#pro``, ``P* = (#ri+#par)/#pro``,
    ``R = #ri/#total``, ``R* = (#ri+#par)/#total``,
    ``R_BFQ = #ri/#BFQ`` (recall against the answerable subset).

*Partially right* follows the paper's predicate-level reading: a prediction
whose predicate is a sibling of the gold one (``place of birth`` for a
residence question) or whose value set overlaps the gold set without
matching it.

WebQuestions-style metrics are the official-script style macro averages:
per-question precision/recall/F1 over answer sets, plus ``p@1``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum


class Judgement(Enum):
    """Right / partially right / wrong, the paper's three verdicts."""

    RIGHT = "right"
    PARTIAL = "partial"
    WRONG = "wrong"


def judge(
    predicted_values: set[str],
    gold_values: set[str],
    predicted_intent: str | None = None,
    gold_intent: str | None = None,
    related_intents: tuple[str, ...] = (),
) -> Judgement:
    """Judge one answered question.

    Intent identity wins outright (the paper judges KBQA by the predicate it
    finds); otherwise exact value-set match is right, sibling intents and
    value overlap are partial.
    """
    if gold_intent is not None and predicted_intent is not None:
        if predicted_intent == gold_intent:
            return Judgement.RIGHT
        if predicted_intent in related_intents:
            return Judgement.PARTIAL
    normalized_predicted = {v.lower() for v in predicted_values}
    normalized_gold = {v.lower() for v in gold_values}
    if normalized_gold and normalized_predicted == normalized_gold:
        return Judgement.RIGHT
    if normalized_gold & normalized_predicted:
        return Judgement.PARTIAL
    return Judgement.WRONG


@dataclass
class QALDMetrics:
    """Counter set producing every column of Tables 7-9 and 11."""

    n_total: int = 0
    n_bfq: int = 0
    processed: int = 0
    right: int = 0
    partial: int = 0
    processed_bfq: int = 0
    right_bfq: int = 0

    def record(self, is_bfq: bool, processed: bool, judgement: Judgement | None) -> None:
        """Tally one evaluated question."""
        self.n_total += 1
        if is_bfq:
            self.n_bfq += 1
        if not processed:
            return
        self.processed += 1
        if is_bfq:
            self.processed_bfq += 1
        if judgement == Judgement.RIGHT:
            self.right += 1
            if is_bfq:
                self.right_bfq += 1
        elif judgement == Judgement.PARTIAL:
            self.partial += 1

    # -- Paper metrics --------------------------------------------------------

    @property
    def precision(self) -> float:
        return _ratio(self.right, self.processed)

    @property
    def precision_star(self) -> float:
        return _ratio(self.right + self.partial, self.processed)

    @property
    def recall(self) -> float:
        return _ratio(self.right, self.n_total)

    @property
    def recall_star(self) -> float:
        return _ratio(self.right + self.partial, self.n_total)

    @property
    def recall_bfq(self) -> float:
        return _ratio(self.right, self.n_bfq)

    @property
    def recall_star_bfq(self) -> float:
        return _ratio(self.right + self.partial, self.n_bfq)

    @property
    def precision_bfq(self) -> float:
        return _ratio(self.right_bfq, self.processed_bfq)

    def as_row(self) -> dict[str, float | int]:
        """The Table 7/8 column set."""
        return {
            "#pro": self.processed,
            "#ri": self.right,
            "#par": self.partial,
            "R": round(self.recall, 2),
            "R_BFQ": round(self.recall_bfq, 2),
            "R*": round(self.recall_star, 2),
            "R*_BFQ": round(self.recall_star_bfq, 2),
            "P": round(self.precision, 2),
            "P*": round(self.precision_star, 2),
        }


@dataclass
class WebQMetrics:
    """Macro-averaged set metrics in the WebQuestions official-script style."""

    f1_scores: list[float] = field(default_factory=list)
    precisions: list[float] = field(default_factory=list)
    recalls: list[float] = field(default_factory=list)
    top1_hits: int = 0
    n_total: int = 0
    n_answered: int = 0

    def record(
        self,
        predicted_values: set[str],
        top_value: str | None,
        gold_values: set[str],
    ) -> None:
        """Tally one question's answer set against its gold set."""
        self.n_total += 1
        predicted = {v.lower() for v in predicted_values}
        gold = {v.lower() for v in gold_values}
        if predicted:
            self.n_answered += 1
        overlap = len(predicted & gold)
        precision = overlap / len(predicted) if predicted else 0.0
        recall = overlap / len(gold) if gold else 0.0
        f1 = (
            2 * precision * recall / (precision + recall)
            if precision + recall > 0
            else 0.0
        )
        self.f1_scores.append(f1)
        self.precisions.append(precision)
        self.recalls.append(recall)
        if top_value is not None and top_value.lower() in gold:
            self.top1_hits += 1

    @property
    def f1(self) -> float:
        return _mean(self.f1_scores)

    @property
    def precision(self) -> float:
        """Macro precision over *answered* questions (the paper's P column
        is answered-question precision: KBQA scores 0.85 there)."""
        if self.n_answered == 0:
            return 0.0
        return sum(self.precisions) / self.n_answered

    @property
    def recall(self) -> float:
        return _mean(self.recalls)

    @property
    def precision_at_1(self) -> float:
        return _ratio(self.top1_hits, self.n_total)


def _ratio(numerator: int, denominator: int) -> float:
    return numerator / denominator if denominator else 0.0


def _mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0
