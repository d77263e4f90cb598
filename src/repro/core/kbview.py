"""Unified lookup over direct and expanded predicates.

The generative model treats a predicate and an expanded predicate uniformly
(Sec 6.1: 'the KBQA model ... is flexible for expanded predicates; we only
need some slight changes').  :class:`KBView` is that adaptation point: one
interface for ``paths_between(e, v)`` (EM candidate enumeration, Eq 24) and
``values(e, p+)`` (online ``P(v|e,p)``, Eq 6), backed by the base store for
length-1 paths and by the precomputed :class:`ExpandedStore` — with a live
graph-walk fallback for entities outside the expansion's seed set.
"""

from __future__ import annotations

from repro.kb.expansion import ExpandedStore
from repro.kb.paths import PredicatePath, follow
from repro.kb.backend import KBBackend


class KBView:
    """Direct + expanded predicate lookups against one knowledge base."""

    def __init__(self, store: KBBackend, expanded: ExpandedStore | None = None) -> None:
        self.store = store
        self.expanded = expanded

    @property
    def max_path_length(self) -> int:
        return self.expanded.max_length if self.expanded else 1

    def paths_between(self, entity: str, value: str) -> set[PredicatePath]:
        """All predicate paths connecting (entity, value) — Eq 8's existence
        test and the M-step pruning set of Eq 24.

        Direct predicates are decoded fresh; the expanded contribution is a
        shared frozen view, so when there are no direct hits it is returned
        as-is without copying."""
        direct = self.store.predicates_between(entity, value)
        if self.expanded is None:
            return {PredicatePath.single(p) for p in direct}
        expanded = self.expanded.paths_between(entity, value)
        if not direct:
            return expanded
        paths = {PredicatePath.single(p) for p in direct}
        paths.update(expanded)
        return paths

    def values(self, entity: str, path: PredicatePath) -> set[str]:
        """``V(e, p+)``.  Expanded paths use the precomputed store when the
        entity was a BFS seed and fall back to a graph traversal otherwise
        (online questions may mention entities absent from the QA corpus).

        May return a shared frozen view from :class:`ExpandedStore` — treat
        the result as read-only (all in-tree callers do).
        """
        if path.is_direct:
            return self.store.objects(entity, path.predicates[0])
        if self.expanded is not None:
            found = self.expanded.objects(entity, path)
            if found:
                return found
        return follow(self.store, entity, path)

    def value_probability(self, entity: str, path: PredicatePath, value: str) -> float:
        """``P(v|e,p)`` per Eq 6: uniform over the value set."""
        values = self.values(entity, path)
        if value not in values:
            return 0.0
        return 1.0 / len(values)

    def has_entity(self, entity: str) -> bool:
        return self.store.has_subject(entity)
