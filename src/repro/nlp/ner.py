"""Gazetteer-based named entity recognition and linking.

Stands in for Stanford NER (Sec 3.2): detects entity mentions in a token
sequence by longest-match lookup against the knowledge base's name
dictionary, and links each mention to the set of KB nodes carrying that name.
Ambiguity is preserved — a mention like ``apple`` links to both the company
and the fruit node, and downstream conceptualization disambiguates, exactly
as in the paper's pipeline.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.nlp.tokenizer import tokenize


@dataclass(frozen=True, slots=True)
class Mention:
    """An entity mention: token span [start, end) plus linked KB nodes
    (sorted, each once)."""

    start: int
    end: int
    surface: str
    candidates: tuple[str, ...]

    @property
    def length(self) -> int:
        return self.end - self.start


# A gazetteer match as a plain tuple: ``(start, end, candidates)``, no surface
# string joined, so a corpus of them costs the cyclic collector nothing.
Span = tuple[int, int, tuple[str, ...]]


class EntityRecognizer:
    """Longest-match gazetteer matcher over KB entity names.

    >>> ner = EntityRecognizer({"barack obama": ["m.obama"], "obama": ["m.obama"]})
    >>> [m.surface for m in ner.find_mentions(tokenize("when was barack obama born?"))]
    ['barack obama']
    """

    def __init__(self, gazetteer: dict[str, Iterable[str]]) -> None:
        self._names: dict[tuple[str, ...], tuple[str, ...]] = {}
        by_first: dict[str, int] = defaultdict(int)
        for name, nodes in gazetteer.items():
            tokens = tuple(tokenize(name))
            if not tokens:
                continue
            # Every candidate tuple is sorted and duplicate-free, which the
            # answer path relies on; names that tokenize alike pool their nodes.
            known = self._names.get(tokens, ())
            self._names[tokens] = tuple(sorted(set(known).union(nodes)))
            by_first[tokens[0]] = max(by_first[tokens[0]], len(tokens))
        self._max_len_by_first = dict(by_first)

    def __len__(self) -> int:
        return len(self._names)

    def lookup(self, name: str) -> tuple[str, ...]:
        """Nodes whose name is exactly ``name`` (after tokenization)."""
        return self._names.get(tuple(tokenize(name)), ())

    def find_mentions(self, tokens: Sequence[str]) -> list[Mention]:
        """Greedy leftmost-longest scan for gazetteer matches.

        Overlapping matches are suppressed in favour of the longer, earlier
        one — mirroring how a chunking NER emits non-overlapping spans.
        """
        if not isinstance(tokens, tuple):
            tokens = tuple(tokens)  # once, so every slice below is a key
        names, longest_from = self._names, self._max_len_by_first
        mentions: list[Mention] = []
        i, n = 0, len(tokens)
        while i < n:
            longest = longest_from.get(tokens[i])
            if longest is not None:  # some name starts with this token
                for length in range(min(longest, n - i), 0, -1):
                    span = tokens[i : i + length]
                    nodes = names.get(span)
                    if nodes:
                        mentions.append(Mention(i, i + length, " ".join(span), nodes))
                        i += length - 1
                        break
            i += 1
        return mentions

    def spans(self, tokens: Sequence[str]) -> list[Span]:
        """Every matching span, overlapping ones included, as plain
        ``(start, end, candidates)`` tuples ordered by start, then length.

        The decomposition statistics (Sec 5.2) need *all* valid entity spans,
        not a single segmentation, to count ``fv``; the leftmost-longest
        mentions of :meth:`find_mentions` are a linear pass over the same
        list (:func:`leftmost_longest`), so the offline pass walks the
        gazetteer once per question.
        """
        if not isinstance(tokens, tuple):
            tokens = tuple(tokens)
        names, longest_from = self._names, self._max_len_by_first
        spans: list[Span] = []
        n = len(tokens)
        for i, token in enumerate(tokens):
            longest = longest_from.get(token)
            if longest is not None:  # some name starts with this token
                for end in range(i + 1, i + min(longest, n - i) + 1):
                    nodes = names.get(tokens[i:end])
                    if nodes:
                        spans.append((i, end, nodes))
        return spans


def leftmost_longest(spans: Iterable[Span]) -> tuple[Span, ...]:
    """The spans :meth:`EntityRecognizer.find_mentions` keeps, from
    :meth:`EntityRecognizer.spans`' list: the longest span at each start,
    skipping starts inside the last kept span.  A tuple whose every span is
    kept is returned itself, not copied (most questions have one span)."""
    kept: list[Span] = []
    kept_start, covered = -1, 0
    for span in spans:  # ordered by start, then length
        start = span[0]
        if start == kept_start:  # a longer span at the kept start
            kept[-1] = span
            covered = span[1]
        elif start >= covered:
            kept.append(span)
            kept_start, covered = start, span[1]
    if type(spans) is tuple and len(kept) == len(spans):
        return spans
    return tuple(kept)
