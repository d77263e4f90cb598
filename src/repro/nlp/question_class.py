"""Question classification onto the UIUC answer-type taxonomy (Li & Roth).

The paper uses question classification only to *refine* extracted
entity-value pairs: the expected answer type of the question must agree with
the category of the candidate value's predicate (Sec 4.1.1).  This module
provides the coarse UIUC classes via deterministic wh-word + head-word rules,
the standard high-precision baseline for that taxonomy.
"""

from __future__ import annotations

from enum import Enum
from typing import Sequence

from repro.nlp.tokenizer import tokenize


class AnswerType(Enum):
    """Coarse UIUC classes (DATE split out of NUM because the refinement
    step needs to distinguish birthdays from populations)."""

    HUMAN = "HUM"
    LOCATION = "LOC"
    NUMERIC = "NUM"
    DATE = "DATE"
    ENTITY = "ENTY"
    DESCRIPTION = "DESC"
    UNKNOWN = "UNK"


# Head nouns that force a class when they follow "what/which [is the]".
_HEAD_WORD_CLASSES = {
    "population": AnswerType.NUMERIC,
    "area": AnswerType.NUMERIC,
    "height": AnswerType.NUMERIC,
    "length": AnswerType.NUMERIC,
    "revenue": AnswerType.NUMERIC,
    "number": AnswerType.NUMERIC,
    "size": AnswerType.NUMERIC,
    "runtime": AnswerType.NUMERIC,
    "year": AnswerType.DATE,
    "date": AnswerType.DATE,
    "birthday": AnswerType.DATE,
    "city": AnswerType.LOCATION,
    "country": AnswerType.LOCATION,
    "capital": AnswerType.LOCATION,
    "place": AnswerType.LOCATION,
    "location": AnswerType.LOCATION,
    "headquarter": AnswerType.LOCATION,
    "headquarters": AnswerType.LOCATION,
    "river": AnswerType.LOCATION,
    "mountain": AnswerType.LOCATION,
    "wife": AnswerType.HUMAN,
    "husband": AnswerType.HUMAN,
    "spouse": AnswerType.HUMAN,
    "author": AnswerType.HUMAN,
    "ceo": AnswerType.HUMAN,
    "mayor": AnswerType.HUMAN,
    "director": AnswerType.HUMAN,
    "founder": AnswerType.HUMAN,
    "president": AnswerType.HUMAN,
    "members": AnswerType.HUMAN,
    "member": AnswerType.HUMAN,
    "currency": AnswerType.ENTITY,
    "language": AnswerType.ENTITY,
    "genre": AnswerType.ENTITY,
    "instrument": AnswerType.ENTITY,
    "name": AnswerType.ENTITY,
    "book": AnswerType.ENTITY,
    "books": AnswerType.ENTITY,
    "song": AnswerType.ENTITY,
    "songs": AnswerType.ENTITY,
}


def classify_question(question: str) -> AnswerType:
    """Classify ``question`` into a coarse UIUC answer type.

    >>> classify_question("When was Barack Obama born?")
    <AnswerType.DATE: 'DATE'>
    >>> classify_question("How many people are there in Honolulu?")
    <AnswerType.NUMERIC: 'NUM'>
    """
    return classify_tokens(tokenize(question))


def classify_tokens(tokens: Sequence[str]) -> AnswerType:
    """:func:`classify_question` for a caller that already tokenized."""
    if not tokens:
        return AnswerType.UNKNOWN

    head = _first_head_word(tokens)

    first = tokens[0]
    if first == "when":
        return AnswerType.DATE
    if first in {"who", "whom", "whose"}:
        return AnswerType.HUMAN
    if first == "where":
        return AnswerType.LOCATION
    if first == "why":
        return AnswerType.DESCRIPTION
    if first == "how":
        if len(tokens) > 1 and tokens[1] in {"many", "much", "long", "tall", "big", "large", "high", "old"}:
            return AnswerType.NUMERIC
        return AnswerType.DESCRIPTION
    if first in {"what", "which", "list", "name", "give", "in", "on"}:
        if head is not None:
            return head
        return AnswerType.ENTITY
    if first in {"is", "are", "was", "were", "does", "do", "did"}:
        return AnswerType.DESCRIPTION  # boolean questions: not BFQs
    if head is not None:
        return head
    return AnswerType.UNKNOWN


def _first_head_word(tokens: Sequence[str]) -> AnswerType | None:
    """First token with a known head-word class (skipping the wh-word)."""
    for token in tokens[1:]:
        cls = _HEAD_WORD_CLASSES.get(token)
        if cls is not None:
            return cls
    return None


def answer_types_compatible(question_type: AnswerType, value_type: AnswerType) -> bool:
    """Agreement test used by the EV refinement step (Sec 4.1.1).

    Unknown/DESC question types never veto a pair — the paper's filter only
    fires when both sides are confidently typed.  DATE is accepted where NUM
    is expected because UIUC folds dates under NUM at the coarse level.
    """
    if question_type in (AnswerType.UNKNOWN, AnswerType.DESCRIPTION):
        return True
    if value_type == AnswerType.UNKNOWN:
        return True
    if question_type == value_type:
        return True
    if question_type == AnswerType.NUMERIC and value_type == AnswerType.DATE:
        return True
    if question_type == AnswerType.ENTITY and value_type in (
        AnswerType.HUMAN,
        AnswerType.LOCATION,
    ):
        return True
    return False
