"""Predicate expansion — memory-efficient multi-source BFS (Sec 6.2).

The paper generates all ``(s, p+, o)`` triples with ``|p+| <= k`` whose
subject occurs in the QA corpus, by ``k`` rounds of *index + scan + join*
over the disk-resident knowledge base: build a hash index on the current
frontier, scan every triple once, and join triple subjects against the
frontier.  We follow exactly that structure (a full id-keyed scan per round,
never a per-node graph walk), which keeps the cost ``O(k * |K| + #spo)`` as
analysed in the paper.

The scan and join are *ID-native*: the frontier, the prefix paths and the
expanded ``(s, p+, o)`` triples are all dictionary-encoded integers, so
no term string or :class:`~repro.kb.triple.Triple` object is built per row.
Strings appear only at the :class:`ExpandedStore` public boundary, where
decoded results are cached as frozen views (one decode per key, shared across
calls).  The original string-level implementation is the test oracle
``tests/oracles/expansion_reference.py`` (equivalence tests and the
before/after benchmark).

The scan consumes any :class:`~repro.kb.backend.KBBackend` through its one
scan API, ``spo_items_ids()``, and runs inline in the caller: one loop, no
pool, no partitioning (DESIGN.md "Why the Sec 6.2 scan is serial" holds the
measurements).  :class:`ExpandedStore` additionally:

* records *reach provenance* (which seeds' BFS scanned which nodes), the
  index that lets live KB ``add``/``delete`` invalidate exactly the affected
  seeds (`repro.kb.live`) instead of re-expanding everything;
* serializes its id-encoded buffers together with the dictionary
  (:meth:`ExpandedStore.save` / :meth:`ExpandedStore.load`) as the canonical,
  checksummed artifact of `repro.kb.expanded_v3`, which loads back into an
  ordinary dict-backed store, so offline training resumes without
  re-scanning.

Two paper-mandated restrictions are honoured:

* only subjects from the seed set (QA-corpus entities) start paths — the
  'reduction on s' of Sec 6.2;
* paths of length >= 2 must end with a *naming* predicate (``name`` /
  ``alias``) — Sec 6.3 discards other tails as 'very weak relations'.
"""

from __future__ import annotations

from collections import defaultdict
from pathlib import Path
from typing import Iterable, Iterator

from repro.kb.backend import KBBackend
from repro.kb.dictionary import Dictionary
from repro.kb.paths import PredicatePath

DEFAULT_TAIL_PREDICATES = frozenset({"name", "alias"})

_EMPTY_FROZEN: frozenset = frozenset()

# frontier: node id -> set of (seed_id, prefix-key) provenance entries;
# the empty prefix marks a seed node at round 0.
_Frontier = dict[int, set[tuple[int, tuple[int, ...]]]]


class ExpandedStore:
    """Materialized ``(s, p+, o)`` triples produced by :func:`expand_predicates`.

    Provides the two lookups the KBQA pipeline needs — ``V(e, p+)`` and
    ``paths_between(e, v)`` — over the *expanded* predicate space, with the
    same hash-probe complexity the base store offers for direct predicates.

    Storage is id-encoded: subjects/objects are dictionary ids and each
    distinct predicate path is interned to a dense path id.  Public lookups
    return decoded **frozen views**: the decode happens at most once per key
    and the resulting frozenset is shared by every subsequent call (callers
    must not mutate results — they never did; see ``core/kbview.py`` and
    ``core/extraction.py``, which build their own sets).

    Beyond the triples the store carries the expansion's *provenance*: the
    seed ids it was built from, the tail-predicate whitelist, and a
    node -> seeds reach index — everything `repro.kb.live` needs to refresh
    one seed at a time after a live KB edit, and everything
    :meth:`save`/:meth:`load` need to round-trip a resumable artifact.
    """

    def __init__(
        self,
        max_length: int,
        dictionary: Dictionary | None = None,
        tail_predicates: frozenset[str] = DEFAULT_TAIL_PREDICATES,
    ) -> None:
        self.max_length = max_length
        self.dictionary = dictionary if dictionary is not None else Dictionary()
        self.tail_predicates = frozenset(tail_predicates)
        # seeds this store was expanded from (dictionary ids)
        self.seed_ids: set[int] = set()
        # s_id -> path_id -> {o_id}
        self._by_subject: dict[int, dict[int, set[int]]] = defaultdict(dict)
        # (s_id, o_id) -> {path_id}
        self._by_pair: dict[tuple[int, int], set[int]] = defaultdict(set)
        # path interning: tuple of predicate ids <-> dense path id
        self._path_key_to_id: dict[tuple[int, ...], int] = {}
        self._path_keys: list[tuple[int, ...]] = []
        self._triple_count = 0
        # reach provenance: node -> seeds whose BFS scanned the node.  Most
        # nodes are scanned on behalf of a single seed, so the common case
        # stores a bare int and only promotes to a set on the second seed —
        # this keeps the number of GC-tracked containers (and therefore the
        # collector's mid-scan pauses) near the pre-reach-index level.
        self._reached_from: dict[int, int | set[int]] = {}
        # decoded frozen views, built lazily, one per key
        self._decoded_paths: dict[int, PredicatePath] = {}
        self._objects_cache: dict[tuple[int, int], frozenset[str]] = {}
        self._pairs_cache: dict[tuple[int, int], frozenset[PredicatePath]] = {}

    # -- Id-level mutation / lookup ----------------------------------------

    def path_id(self, path_key: tuple[int, ...]) -> int:
        """Intern a tuple of predicate ids; returns its dense path id."""
        existing = self._path_key_to_id.get(path_key)
        if existing is not None:
            return existing
        new_id = len(self._path_keys)
        self._path_key_to_id[path_key] = new_id
        self._path_keys.append(path_key)
        return new_id

    def record_encoded(self, subject_id: int, path_key: tuple[int, ...], object_id: int) -> bool:
        """Insert one id-encoded (s, p+, o) triple (idempotent)."""
        p_id = self.path_id(path_key)
        objects = self._by_subject[subject_id].setdefault(p_id, set())
        if object_id in objects:
            return False
        objects.add(object_id)
        self._by_pair[(subject_id, object_id)].add(p_id)
        self._triple_count += 1
        # invalidate any frozen views covering this key
        self._objects_cache.pop((subject_id, p_id), None)
        self._pairs_cache.pop((subject_id, object_id), None)
        return True

    def objects_ids(self, subject_id: int, path_id: int) -> set[int] | frozenset[int]:
        """Id-level ``V(e, p+)`` (read-only view; empty is a frozenset)."""
        return self._by_subject.get(subject_id, {}).get(path_id, _EMPTY_FROZEN)

    # -- Reach provenance --------------------------------------------------

    def note_reach(self, node_id: int, seed_id: int) -> None:
        """Record that ``seed_id``'s BFS scanned ``node_id``'s out-edges."""
        existing = self._reached_from.get(node_id)
        if existing is None:
            self._reached_from[node_id] = seed_id
        elif isinstance(existing, int):
            if existing != seed_id:
                self._reached_from[node_id] = {existing, seed_id}
        else:
            existing.add(seed_id)

    def seeds_through(self, node_id: int) -> tuple[int, ...] | set[int]:
        """Seeds whose expansion scanned ``node_id`` (read-only view).

        This is the invalidation index: a base-KB edge change under subject
        ``node_id`` can only affect expanded triples of these seeds.
        """
        existing = self._reached_from.get(node_id)
        if existing is None:
            return ()
        if isinstance(existing, int):
            return (existing,)
        return existing

    def reach_items(self) -> Iterator[tuple[int, frozenset[int]]]:
        """Normalized scan of the reach index: ``(node_id, {seed_ids})``."""
        for node_id, seeds in self._reached_from.items():
            if isinstance(seeds, int):
                yield node_id, frozenset((seeds,))
            else:
                yield node_id, frozenset(seeds)

    def has_reach(self) -> bool:
        """True when the reach-provenance index is populated.

        `repro.kb.live` refuses a seeded store without reach through this:
        only an artifact saved from a store whose reach was dropped can be
        in that state.
        """
        return bool(self._reached_from)

    # -- String-boundary mutation ------------------------------------------

    def record(self, subject: str, path: PredicatePath, obj: str) -> bool:
        """Insert one (s, p+, o) triple given as strings (idempotent)."""
        encode = self.dictionary.encode
        path_key = tuple(encode(p) for p in path.predicates)
        return self.record_encoded(encode(subject), path_key, encode(obj))

    def invalidate_seed(self, seed: str) -> bool:
        """Drop every expanded triple and reach entry of one seed.

        Per-key invalidation for live KB updates: all of the seed's
        expanded ``(s, p+, o)`` rows, its pair index entries, its frozen
        views, and its reach provenance are removed so a targeted single-seed
        re-expansion (see :class:`repro.kb.live.LiveExpansionMaintainer`)
        can rebuild them.  Returns True when anything was dropped.
        """
        s = self.dictionary.lookup(seed)
        if s is None:
            return False
        removed = False
        by_path = self._by_subject.pop(s, None)
        if by_path:
            removed = True
            for p_id, object_ids in by_path.items():
                self._triple_count -= len(object_ids)
                self._objects_cache.pop((s, p_id), None)
                for o_id in object_ids:
                    pair = (s, o_id)
                    paths = self._by_pair.get(pair)
                    if paths is not None:
                        paths.discard(p_id)
                        if not paths:
                            del self._by_pair[pair]
                    self._pairs_cache.pop(pair, None)
        # the reach index has no inverse (it would double the GC-tracked
        # containers on the expansion hot path); a linear sweep is fine for
        # this rare operation
        orphaned = []
        for node_id, seeds in self._reached_from.items():
            if isinstance(seeds, int):
                if seeds == s:
                    orphaned.append(node_id)
            else:
                seeds.discard(s)
                if not seeds:
                    orphaned.append(node_id)
                elif len(seeds) == 1:
                    self._reached_from[node_id] = next(iter(seeds))
        for node_id in orphaned:
            del self._reached_from[node_id]
        if s in self.seed_ids:
            self.seed_ids.discard(s)
            removed = True
        return removed

    def merge_from(self, other: "ExpandedStore") -> int:
        """Fold another store's triples, seeds and reach into this one.

        The merge is string-level, so it is correct whether or not the two
        stores share a dictionary (a freshly loaded artifact has its own).
        Returns the number of newly inserted triples.
        """
        added = 0
        for subject, path, obj in other.triples():
            if self.record(subject, path, obj):
                added += 1
        encode = self.dictionary.encode
        decode = other.dictionary.decode
        for seed_id in other.seed_ids:
            self.seed_ids.add(encode(decode(seed_id)))
        for node_id, seeds in other.reach_items():
            node = encode(decode(node_id))
            for seed_id in seeds:
                self.note_reach(node, encode(decode(seed_id)))
        return added

    # -- Persistence -------------------------------------------------------

    def save(self, path: str | Path, format: str = "v3") -> None:
        """Serialize the id-encoded buffers together with the dictionary.

        Writes the checksummed artifact of `repro.kb.expanded_v3` (layout
        documented there), replacing ``path`` atomically.  The bytes are
        canonical: paths are written in sorted key order, subjects in id
        order, object sets sorted — so two stores whose dictionaries assign
        the same term ids (e.g. a memory and a disk backend built by the
        same add sequence) serialize to byte-identical files regardless of
        internal path/set interning order.  Stores with *differently
        ordered* dictionaries hold different ids and produce different bytes
        even for equal content.
        """
        # `format` survives for the frozen benchmarks/e2e caller; remove with it
        if format != "v3":
            raise ValueError(
                f"unknown expansion format {format!r} (the only format is 'v3')"
            )
        from repro.kb import expanded_v3  # local: that module imports this one

        expanded_v3.save(self, path)

    @classmethod
    def load(cls, path: str | Path) -> "ExpandedStore":
        """Read an artifact written by :meth:`save` into a new store.

        The whole file is checked (magic, version, size, CRC32, offset
        chains, id ranges, UTF-8) and then built in bulk into an ordinary
        dict-backed store with its own dictionary; offline training passes
        it straight to the learner (``KBQA.train(..., expanded=...)``) to
        skip the Sec 6.2 scan.  A retired or corrupt artifact raises
        :class:`ValueError` naming the file (an unreadable one, ``OSError``).
        """
        from repro.kb import expanded_v3  # local: that module imports this one

        return expanded_v3.load(path)

    # `verify` and `close` survive only for the frozen benchmarks/e2e
    # offline_train round trip, which calls both; remove them with those calls

    def verify(self) -> None:
        """No-op: :meth:`load` has already checked the whole artifact."""

    def close(self) -> None:
        """No-op: a loaded store holds no file open."""

    # -- Decoding helpers ----------------------------------------------------

    def _decode_path(self, path_id: int) -> PredicatePath:
        path = self._decoded_paths.get(path_id)
        if path is None:
            decode = self.dictionary.decode
            path = PredicatePath(tuple(decode(p) for p in self._path_keys[path_id]))
            self._decoded_paths[path_id] = path
        return path

    def _lookup_path_id(self, path: PredicatePath) -> int | None:
        lookup = self.dictionary.lookup
        key: list[int] = []
        for predicate in path.predicates:
            p = lookup(predicate)
            if p is None:
                return None
            key.append(p)
        return self._path_key_to_id.get(tuple(key))

    # -- Lookups ----------------------------------------------------------

    def objects(self, subject: str, path: PredicatePath) -> frozenset[str]:
        """``V(e, p+)`` over expanded predicates (shared frozen view)."""
        s = self.dictionary.lookup(subject)
        if s is None:
            return _EMPTY_FROZEN
        p = self._lookup_path_id(path)
        if p is None:
            return _EMPTY_FROZEN
        key = (s, p)
        cached = self._objects_cache.get(key)
        if cached is None:
            object_ids = self._by_subject.get(s, {}).get(p)
            if not object_ids:
                return _EMPTY_FROZEN
            cached = frozenset(self.dictionary.decode_many(object_ids))
            self._objects_cache[key] = cached
        return cached

    def paths_between(self, subject: str, obj: str) -> frozenset[PredicatePath]:
        """All expanded predicates connecting (subject, obj) (frozen view)."""
        lookup = self.dictionary.lookup
        s = lookup(subject)
        o = lookup(obj)
        if s is None or o is None:
            return _EMPTY_FROZEN
        key = (s, o)
        cached = self._pairs_cache.get(key)
        if cached is None:
            path_ids = self._by_pair.get(key)
            if not path_ids:
                return _EMPTY_FROZEN
            cached = frozenset(self._decode_path(p) for p in path_ids)
            self._pairs_cache[key] = cached
        return cached

    # -- Inventory ----------------------------------------------------------

    def __len__(self) -> int:
        """Number of stored (s, p+, o) triples."""
        return self._triple_count

    def distinct_paths(self) -> set[PredicatePath]:
        """All expanded predicates stored for any subject."""
        return {self._decode_path(p) for p in range(len(self._path_keys))}

    def triples(self) -> Iterator[tuple[str, PredicatePath, str]]:
        """Scan every stored (s, p+, o), decoded."""
        decode = self.dictionary.decode
        for s, by_path in self._by_subject.items():
            subject = decode(s)
            for p, object_ids in by_path.items():
                path = self._decode_path(p)
                for o in object_ids:
                    yield subject, path, decode(o)

    def triples_ids(self) -> Iterator[tuple[int, int, int]]:
        """Id-native scan: ``(s_id, path_id, o_id)`` per stored triple."""
        for s, by_path in self._by_subject.items():
            for p, object_ids in by_path.items():
                for o in object_ids:
                    yield s, p, o

    def stats(self) -> dict[str, int]:
        """Triple/subject/path counts split by direct vs expanded."""
        n_direct = sum(1 for key in self._path_keys if len(key) == 1)
        return {
            "spo_triples": self._triple_count,
            "subjects": len(self._by_subject),
            "paths": len(self._path_keys),
            "direct_paths": n_direct,
            "expanded_paths": len(self._path_keys) - n_direct,
        }


def expand_predicates(
    store: KBBackend,
    seeds: Iterable[str],
    max_length: int = 3,
    tail_predicates: frozenset[str] = DEFAULT_TAIL_PREDICATES,
    *,
    into: ExpandedStore | None = None,
) -> ExpandedStore:
    """Generate all ``(s, p+, o)`` with ``s`` in ``seeds``, ``|p+| <= max_length``.

    Implements the algorithm of Sec 6.2 entirely over dictionary ids: round
    ``i`` joins an id-keyed scan of the store (``spo_items_ids``) against the
    frontier produced by round ``i-1``.  ``frontier`` maps an intermediate
    node id to the set of ``(seed_id, prefix-key)`` ways it was reached;
    joining a subject group extends each way by the group's predicates.  The
    grouped scan probes the frontier once per *subject*, not once per triple,
    and no string leaves the dictionary during expansion.

    Passing ``into=`` appends to an existing :class:`ExpandedStore` sharing
    the backend's dictionary (used by the live maintainer for single-seed
    refreshes) instead of building a fresh one.  Every round also fills the
    reach-provenance index from its frontier (which seeds' BFS scanned which
    node), the index `repro.kb.live` resolves affected seeds through; there
    is no second BFS that rebuilds it.

    Length-1 paths are recorded unconditionally (they are ordinary KB
    predicates); longer paths are recorded only when their final predicate is
    in ``tail_predicates``, but *traversal* continues through any predicate so
    that e.g. ``marriage -> person -> name`` is reachable even though
    ``marriage -> person`` itself is discarded.
    """
    if max_length < 1:
        raise ValueError(f"max_length must be >= 1, got {max_length}")

    dictionary = store.dictionary
    if into is None:
        expanded = ExpandedStore(
            max_length=max_length, dictionary=dictionary, tail_predicates=tail_predicates
        )
    else:
        if into.dictionary is not dictionary:
            raise ValueError("`into` must share the backend's dictionary")
        expanded = into

    seed_ids: set[int] = set()
    for seed in seeds:
        seed_id = dictionary.lookup(seed)
        if seed_id is not None and store.has_subject_id(seed_id):
            seed_ids.add(seed_id)
    if not seed_ids:
        return expanded
    expanded.seed_ids.update(seed_ids)

    tail_ids = frozenset(
        tail_id
        for tail in tail_predicates
        if (tail_id := dictionary.lookup(tail)) is not None
    )

    frontier: _Frontier = {seed_id: {(seed_id, ())} for seed_id in seed_ids}
    record = expanded.record_encoded
    note_reach = expanded.note_reach

    for round_index in range(1, max_length + 1):
        # this round scans the out-edges of every frontier node on behalf
        # of the seeds that reached it
        for node_id, provenance in frontier.items():
            for seed_id, _prefix in provenance:
                note_reach(node_id, seed_id)

        is_last_round = round_index == max_length
        next_frontier: _Frontier = defaultdict(set)
        for s_id, by_predicate in store.spo_items_ids():
            provenance = frontier.get(s_id)
            if not provenance:
                continue
            for p_id, object_ids in by_predicate.items():
                is_tail = p_id in tail_ids
                for seed_id, prefix in provenance:
                    path_key = prefix + (p_id,)
                    if len(path_key) == 1 or is_tail:
                        for o_id in object_ids:
                            record(seed_id, path_key, o_id)
                    if not is_last_round:
                        extended = (seed_id, path_key)
                        for o_id in object_ids:
                            next_frontier[o_id].add(extended)
        frontier = next_frontier
    return expanded

