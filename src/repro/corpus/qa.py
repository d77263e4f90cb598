"""QA pair and corpus containers; a pair reads and writes one JSONL line."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator


@dataclass(frozen=True, slots=True)
class QAPair:
    """One question/answer pair from the (synthetic) community QA site.

    ``meta`` carries generator provenance — intent, entity node, clean/noisy
    flags — used only by evaluation (never by the learner, which sees just
    the text, as the paper's system does).
    """

    qid: str
    question: str
    answer: str
    meta: dict = field(default_factory=dict, hash=False, compare=False)

    def to_json(self) -> str:
        """One JSONL line for this pair."""
        return json.dumps(
            {"qid": self.qid, "question": self.question, "answer": self.answer, "meta": self.meta},
            ensure_ascii=False,
        )

    @classmethod
    def from_json(cls, line: str) -> "QAPair":
        data = json.loads(line)
        return cls(data["qid"], data["question"], data["answer"], data.get("meta", {}))


class QACorpus:
    """An ordered collection of QA pairs."""

    def __init__(self, pairs: Iterable[QAPair] = ()) -> None:
        self.pairs: list[QAPair] = list(pairs)

    def __len__(self) -> int:
        return len(self.pairs)

    def __iter__(self) -> Iterator[QAPair]:
        return iter(self.pairs)

    def __getitem__(self, index: int) -> QAPair:
        return self.pairs[index]

    def add(self, pair: QAPair) -> None:
        self.pairs.append(pair)

    def questions(self) -> Iterator[str]:
        return (pair.question for pair in self.pairs)

    def filter(self, predicate: Callable[[QAPair], bool]) -> "QACorpus":
        return QACorpus(pair for pair in self.pairs if predicate(pair))

    def head(self, count: int) -> "QACorpus":
        return QACorpus(self.pairs[:count])
