"""Live KB updates — incremental expansion maintenance.

The ROADMAP's incremental-update item: a live ``add``/``delete`` on the KB
backend must flow into the expansion layer as *per-seed invalidation plus a
targeted single-seed re-expansion*, never a full re-run of the Sec 6.2 scan.

The mechanism is the reach-provenance index :func:`expand_predicates`
records during every scan (node -> seeds whose BFS scanned that node): an
edge change under subject ``s`` can only alter expanded triples of (a) seeds
whose BFS scanned ``s`` and (b) ``s`` itself when it is a seed.  Attaching
builds nothing — the index is already there, in a fresh expansion and in
every artifact :meth:`ExpandedStore.save` wrote from one.  The maintainer
subscribes to the backend's :class:`~repro.kb.backend.KBChange` stream,
resolves that affected-seed set per change, invalidates exactly those seeds'
expanded rows (:meth:`ExpandedStore.invalidate_seed`) and re-expands each
one alone — cost ``O(k * |K|)`` per affected seed versus ``O(k * |K|)``
times *all* seeds for a full rebuild, and zero when the edit touches no
seed's reach (the common case for feed-style inserts).
"""

from __future__ import annotations

from typing import Iterable

from repro.kb.backend import KBBackend, KBChange
from repro.kb.expansion import ExpandedStore, expand_predicates


class LiveExpansionMaintainer:
    """Keeps an :class:`ExpandedStore` consistent under live KB edits.

    Subscribe-and-forget: construction registers a change listener on the
    backend; every subsequent ``add``/``delete`` triggers the minimal set of
    single-seed refreshes.  The serving layer subscribes its own listener
    for the answer-cache clear.
    """

    def __init__(
        self,
        backend: KBBackend,
        expanded: ExpandedStore,
        seeds: Iterable[str],
    ) -> None:
        # A delete's affected seeds are found through edges that may no
        # longer exist, so reach must describe the pre-change KB from the
        # start.  Only an artifact saved without reach (by an older build)
        # has seeds but no reach; refuse it rather than miss refreshes.
        if expanded.seed_ids and not expanded.has_reach():
            raise ValueError(
                "expansion has seeds but no reach index; regenerate it with "
                "`kbqa expand --save`"
            )
        self.backend = backend
        self.expanded = expanded
        self.seeds = frozenset(seeds)
        self.events_seen = 0
        self.seeds_refreshed = 0
        self._unsubscribe = backend.subscribe(self._on_change, self._on_changes)

    def close(self) -> None:
        """Detach from the backend's change stream."""
        self._unsubscribe()

    # -- Change handling ---------------------------------------------------

    def affected_seeds(self, change: KBChange) -> list[str]:
        """Seed terms whose expansion the change can influence, sorted.

        An edge mutation only matters through its *subject*: expansion
        traverses out-edges, so the affected seeds are those whose BFS
        scanned the subject node (reach provenance), plus the subject itself
        when it is a registered seed (it may gain its first triples from an
        ``add``, or lose its last from a ``delete``).
        """
        subject = self.backend.decode_id(change.subject_id)
        affected: set[str] = set()
        node_id = self.expanded.dictionary.lookup(subject)
        if node_id is not None:
            decode = self.expanded.dictionary.decode
            for seed_id in self.expanded.seeds_through(node_id):
                affected.add(decode(seed_id))
        if subject in self.seeds:
            affected.add(subject)
        return sorted(affected)

    def _on_change(self, change: KBChange) -> None:
        """Backend listener: refresh every affected seed."""
        self.events_seen += 1
        for seed in self.affected_seeds(change):
            self.refresh_seed(seed)

    def _on_changes(self, changes: tuple[KBChange, ...]) -> None:
        """Coalesced handler for a ``backend.batch()`` burst.

        The affected-seed sets of every change in the burst are unioned
        *before* any refresh, so a bulk load triggers exactly one rebuild
        per affected seed rather than one per change.  Computing the union
        against the pre-burst reach index is sound because each refresh runs
        after *all* mutations are applied: a seed pulled in by any one
        change re-expands against the final state of the KB, picking up
        edges the other changes created along the way.
        """
        self.events_seen += len(changes)
        affected: set[str] = set()
        for change in changes:
            affected.update(self.affected_seeds(change))
        for seed in sorted(affected):
            self.refresh_seed(seed)

    def refresh_seed(self, seed: str) -> None:
        """Invalidate and rebuild one seed's expanded triples in place.

        The rebuild is a single-seed Sec 6.2 expansion over the backend.
        When the expanded store shares the backend's dictionary (the
        trained-in-process case) it expands directly ``into=`` the store —
        pure id-level writes, no term string built.  A loaded
        artifact carries its own dictionary, so that case expands into a
        fresh store and merges back string-level.
        """
        self.expanded.invalidate_seed(seed)
        if self.expanded.dictionary is self.backend.dictionary:
            expand_predicates(
                self.backend,
                [seed],
                max_length=self.expanded.max_length,
                tail_predicates=self.expanded.tail_predicates,
                into=self.expanded,
            )
        else:
            fresh = expand_predicates(
                self.backend,
                [seed],
                max_length=self.expanded.max_length,
                tail_predicates=self.expanded.tail_predicates,
            )
            self.expanded.merge_from(fresh)
        self.seeds_refreshed += 1
