"""Live KB updates — incremental expansion maintenance.

The ROADMAP's incremental-update item: a live ``add``/``delete`` on the KB
backend must flow into the expansion layer as *invalidation of the affected
seeds plus one Sec 6.2 expansion of just those seeds*, never a full re-run
over every seed.

The mechanism is the reach-provenance index :func:`expand_predicates`
records during every scan (node -> seeds whose BFS scanned that node): an
edge change under subject ``s`` can only alter expanded triples of (a) seeds
whose BFS scanned ``s`` and (b) ``s`` itself when it is a seed.  Attaching
builds nothing — the index is already there, in a fresh expansion and in
every artifact :meth:`ExpandedStore.save` wrote from one.  The maintainer
subscribes to the backend's :class:`~repro.kb.backend.KBChange` stream,
unions the affected seeds of a burst of changes, invalidates exactly those
seeds' expanded rows (:meth:`ExpandedStore.invalidate_seeds`) and re-expands
them together, as the paper expands all seeds together: at most ``k`` scans
of the KB per burst however many seeds it touches, and none when the edit
touches no seed's reach (the common case for feed-style inserts).
"""

from __future__ import annotations

from typing import Iterable

from repro.kb.backend import KBBackend, KBChange
from repro.kb.expansion import ExpandedStore, expand_predicates


class LiveExpansionMaintainer:
    """Keeps an :class:`ExpandedStore` consistent under live KB edits.

    Subscribe-and-forget: construction registers a change listener on the
    backend; every subsequent burst of ``add``/``delete`` calls triggers one
    refresh of the seeds it affects.  The serving layer subscribes its own
    listener for the answer-cache clear.
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
        self._unsubscribe = backend.subscribe(self._on_changes)

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
        subject = self.backend.dictionary.decode(change.subject_id)
        affected: set[str] = set()
        node_id = self.expanded.dictionary.lookup(subject)
        if node_id is not None:
            decode = self.expanded.dictionary.decode
            for seed_id in self.expanded.seeds_through(node_id):
                affected.add(decode(seed_id))
        if subject in self.seeds:
            affected.add(subject)
        return sorted(affected)

    def _on_changes(self, changes: tuple[KBChange, ...]) -> None:
        """Backend listener: refresh the seeds a burst of changes affects.

        The affected-seed sets of every change in the burst are unioned
        *before* the refresh, so a bulk load triggers one rebuild of the
        whole set rather than one per change.  Computing the union against
        the pre-burst reach index is sound because the refresh runs after
        *all* mutations are applied: a seed pulled in by any one change
        re-expands against the final state of the KB, picking up edges the
        other changes created along the way.
        """
        self.events_seen += len(changes)
        affected: set[str] = set()
        for change in changes:
            affected.update(self.affected_seeds(change))
        if affected:
            self.refresh(sorted(affected))

    def refresh(self, seeds: list[str]) -> None:
        """Invalidate and rebuild a set of seeds' expanded triples in place.

        The rebuild is one Sec 6.2 expansion of the set over the backend.
        When the expanded store shares the backend's dictionary (the
        trained-in-process case) it expands directly ``into=`` the store —
        pure id-level writes, no term string built.  A loaded artifact
        carries its own dictionary, so that case expands into a fresh store
        and merges it back in one bulk pass (:meth:`ExpandedStore.merge_from`).
        """
        self.expanded.invalidate_seeds(seeds)
        shared = self.expanded.dictionary is self.backend.dictionary
        fresh = expand_predicates(
            self.backend,
            seeds,
            max_length=self.expanded.max_length,
            tail_predicates=self.expanded.tail_predicates,
            into=self.expanded if shared else None,
        )
        if not shared:
            self.expanded.merge_from(fresh)
        self.seeds_refreshed += len(seeds)
