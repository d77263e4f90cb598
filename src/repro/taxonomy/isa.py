"""Probabilistic is-a network: ``P(c | e)`` for entities and concepts.

Concepts are written with a ``$`` prefix (``$city``, ``$person``) matching
the paper's template notation.  Each entity carries a weighted set of
concepts; weights normalize to the prior concept distribution ``P(c|e)``
that conceptualization starts from.
"""

from __future__ import annotations

from collections import defaultdict

# ``P(c|e)`` as ``((concept, p), ...)`` in the entity's edge order; ``()``
# for an entity the network does not know
PriorRow = tuple[tuple[str, float], ...]


def is_concept(term: str) -> bool:
    """Concept terms carry the ``$`` prefix used in templates."""
    return term.startswith("$")


class IsANetwork:
    """Entity -> concept edges with instance counts (Probase-style).

    >>> net = IsANetwork()
    >>> net.add("m.honolulu", "$city", 8.0)
    >>> net.add("m.honolulu", "$location", 2.0)
    >>> net.prior("m.honolulu")["$city"]
    0.8
    """

    def __init__(self) -> None:
        # entity -> concept weights; add() replaces an entity's dict whole
        self._concepts_of: dict[str, dict[str, float]] = {}
        self._instances_of: dict[str, set[str]] = defaultdict(set)
        # entity -> normalised P(c|e) row, filled on first use.  Readers take
        # no lock, so every write to the weights is followed by a *fresh* dict
        # here: a row computed from older weights can only land in a mapping
        # nobody reads any more.
        self._priors: dict[str, PriorRow] = {}
        # row -> the one object every entity with that row shares, replaced
        # with _priors so it holds no more rows than the network has entities
        self._interned: dict[PriorRow, PriorRow] = {}

    def add(self, entity: str, concept: str, weight: float = 1.0) -> None:
        """Record an is-a edge; repeated adds accumulate weight."""
        if not is_concept(concept):
            raise ValueError(f"concepts must start with '$': {concept!r}")
        if concept.split() != [concept]:  # a template slot is one token
            raise ValueError(f"concepts must not contain whitespace: {concept!r}")
        if weight <= 0:
            raise ValueError(f"weight must be positive, got {weight}")
        # a fresh weights dict, not an in-place write: prior_row walks an
        # entity's weights without a lock, and a dict grown mid-walk raises
        weights = dict(self._concepts_of.get(entity, ()))
        weights[concept] = weights.get(concept, 0.0) + weight
        self._concepts_of[entity] = weights
        self._instances_of[concept].add(entity)
        self._priors = {}
        self._interned = {}

    def concepts(self, entity: str) -> set[str]:
        return set(self._concepts_of.get(entity, ()))

    def instances(self, concept: str) -> set[str]:
        return set(self._instances_of.get(concept, ()))

    def all_concepts(self) -> set[str]:
        return set(self._instances_of)

    def has_entity(self, entity: str) -> bool:
        return entity in self._concepts_of

    def prior(self, entity: str) -> dict[str, float]:
        """``P(c|e)`` — concept weights normalized to a distribution."""
        return dict(self.prior_row(entity))

    def prior_row(self, entity: str) -> PriorRow:
        """``P(c|e)`` as an immutable row, ``()`` for an unknown entity.

        The row keeps the edges' order (the softmax sums in it), and entities
        whose rows are equal share one object, so the row is a cheap key for
        whatever depends on an entity only through its prior.
        """
        priors, interned = self._priors, self._interned  # before the weights
        row = priors.get(entity)
        if row is None:
            weights = self._concepts_of.get(entity)
            if not weights:
                return ()
            total = sum(weights.values())
            row = tuple((concept, weight / total) for concept, weight in weights.items())
            row = priors[entity] = interned.setdefault(row, row)
        return row

    def merge(self, other: "IsANetwork") -> None:
        """Union another network into this one (weights accumulate)."""
        for entity, weights in other._concepts_of.items():
            for concept, weight in weights.items():
                self.add(entity, concept, weight)

    def stats(self) -> dict[str, int]:
        """Entity/concept/edge counts."""
        return {
            "entities": len(self._concepts_of),
            "concepts": len(self._instances_of),
            "edges": sum(len(w) for w in self._concepts_of.values()),
        }
