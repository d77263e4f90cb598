"""Predicate paths — the paper's *expanded predicates* (Definition 1).

An expanded predicate ``p+ = (p1, ..., pk)`` connects subject ``s`` to object
``o`` when there is a chain ``s -p1-> s2 -p2-> ... -pk-> o`` in the store.
Paths are first-class values: the template model maps templates to paths
exactly as it maps them to direct predicates (a direct predicate is the
length-1 path).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.kb.backend import KBBackend

PATH_SEPARATOR = "->"


@dataclass(frozen=True, slots=True)
class PredicatePath:
    """An immutable sequence of predicate names."""

    predicates: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.predicates:
            raise ValueError("a predicate path needs at least one predicate")

    @classmethod
    def single(cls, predicate: str) -> "PredicatePath":
        return cls((predicate,))

    @classmethod
    def parse(cls, text: str) -> "PredicatePath":
        """Inverse of :meth:`__str__`; used by model persistence."""
        parts = [p.strip() for p in text.split(PATH_SEPARATOR)]
        if not all(parts):
            raise ValueError(f"malformed predicate path: {text!r}")
        return cls(tuple(parts))

    def __len__(self) -> int:
        return len(self.predicates)

    def __iter__(self) -> Iterator[str]:
        return iter(self.predicates)

    def __str__(self) -> str:
        return PATH_SEPARATOR.join(self.predicates)

    @property
    def is_direct(self) -> bool:
        """True for length-1 paths (plain KB predicates)."""
        return len(self.predicates) == 1

    @property
    def last(self) -> str:
        return self.predicates[-1]

    def extend(self, predicate: str) -> "PredicatePath":
        return PredicatePath(self.predicates + (predicate,))


def follow(store: KBBackend, subject: str, path: PredicatePath) -> set[str]:
    """``V(e, p+)`` — all objects reached from ``subject`` through ``path``.

    This is the online-procedure traversal of Sec 6.1 (start from the entity
    node and walk the predicate sequence).
    """
    frontier = {subject}
    for predicate in path:
        next_frontier: set[str] = set()
        for node in frontier:
            next_frontier |= store.objects(node, predicate)
        if not next_frontier:
            return set()
        frontier = next_frontier
    return frontier

