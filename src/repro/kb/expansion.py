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
Each round collects its output as one set of *packed* ints (an id pair is
``high << 32 | low``; every dictionary id fits the artifact's u32), sorts it
once and groups it; the store is then filled by one bulk pass, one section
at a time, each section's set freed before the next is read, so the build
peaks a few MiB above what the store keeps.  Nothing in the scan or the
store allocates a container per expanded triple, so the cyclic collector's
work does not grow with ``#spo`` (DESIGN.md "Expansion storage").  Strings
appear only at the :class:`ExpandedStore` public boundary, where decoded
results are cached as frozen views (one decode per key, shared across
calls).  The original string-level implementation is the
test oracle ``tests/oracles/expansion_reference.py`` (equivalence tests and
the before/after benchmark).

The scan consumes any :class:`~repro.kb.backend.KBBackend` through its one
scan API, ``spo_items_ids()``, and runs inline in the caller: one loop, no
pool, no partitioning (DESIGN.md "Why the Sec 6.2 scan is serial" holds the
measurements).  :class:`ExpandedStore` additionally:

* records *reach provenance* (which seeds' BFS scanned which nodes), the
  index that lets live KB ``add``/``delete`` invalidate exactly the affected
  seeds (`repro.kb.live`) instead of re-expanding everything;
* serializes its id-encoded entries together with the dictionary
  (:meth:`ExpandedStore.save` / :meth:`ExpandedStore.load`) as the canonical,
  checksummed artifact of `repro.kb.expanded_v3`, which loads back through
  the same bulk pass into an ordinary dict-backed store, so offline
  training resumes without re-scanning.

Two paper-mandated restrictions are honoured:

* only subjects from the seed set (QA-corpus entities) start paths — the
  'reduction on s' of Sec 6.2;
* paths of length >= 2 must end with a *naming* predicate (``name`` /
  ``alias``) — Sec 6.3 discards other tails as 'very weak relations'.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import chain, compress, count, pairwise, repeat, starmap
from operator import and_, ne, rshift
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from repro.kb.backend import KBBackend
from repro.kb.dictionary import Dictionary
from repro.kb.paths import PredicatePath

DEFAULT_TAIL_PREDICATES = frozenset({"name", "alias"})

_EMPTY_FROZEN: frozenset = frozenset()

# Dictionary ids are u32 in the artifact, so two of them pack into one int
# as ``high << _ID_BITS | low``.
_ID_BITS = 32
_ID_MASK = (1 << _ID_BITS) - 1

# An entry is a set of ids held as an immutable value: a bare int for one
# member, a sorted tuple of two or more.  Ints are not tracked by the cyclic
# collector and a tuple of ints is untracked on the first pass that sees it,
# so entries cost the collector nothing once built.
Entry = int | tuple[int, ...]


def _members(entry: Entry) -> tuple[int, ...]:
    """An entry's members as a sorted tuple."""
    return (entry,) if type(entry) is int else entry


def _entry(members: tuple[int, ...]) -> Entry:
    """The entry of a sorted, non-empty tuple of distinct ids."""
    return members[0] if len(members) == 1 else members


def _with(entry: Entry | None, item: int) -> Entry | None:
    """``entry`` plus ``item`` (a missing entry is empty); None if already in."""
    if entry is None:
        return item
    if type(entry) is int:
        if entry == item:
            return None
        return (entry, item) if entry < item else (item, entry)
    i = bisect_left(entry, item)
    if i < len(entry) and entry[i] == item:
        return None
    return entry[:i] + (item,) + entry[i:]


def _without(entry: Entry, item: int) -> Entry | None:
    """``entry`` minus ``item``; None when nothing is left."""
    if type(entry) is int:
        return None if entry == item else entry
    i = bisect_left(entry, item)
    if i == len(entry) or entry[i] != item:
        return entry
    return _entry(entry[:i] + entry[i + 1 :])


def _union(entry: Entry, members: tuple[int, ...]) -> Entry:
    """``entry`` merged with a sorted tuple of members (an ``into=`` refresh,
    which mostly adds one seed to a hub's reach)."""
    if len(members) == 1:
        grown = _with(entry, members[0])
        return entry if grown is None else grown
    return _entry(tuple(sorted({*_members(entry), *members})))


class Canonical(dict):
    """One int object per distinct id, for the life of one bulk build:
    ``canon[i]`` is the first ``i`` object it was asked for.

    Shifting and masking packed ints, or unpacking an artifact's section,
    makes a new int object per id *occurrence*; an id occurs in many entries
    (an object under many subjects, a seed in the reach of every node it
    scanned), so the store would keep one object per occurrence.  Passing
    each id through one map keeps one per distinct id.
    """

    __slots__ = ()

    def __missing__(self, value: int) -> int:
        self[value] = value
        return value


def _split(
    packed: list[int], low_bits: int = _ID_BITS, canon: Canonical | None = None
) -> tuple[list[int], list[int], tuple[int, ...]]:
    """Columns of sorted, distinct ``high << low_bits | low`` ints: the
    distinct highs, the offsets of each high's run (``len(highs) + 1`` of
    them), and every low.  With ``canon``, the lows are its objects.

    A group is then one slice of the lows, never a tuple grown an element at
    a time (a hub node carries thousands of members).  The runs are found in
    C, one compare per neighbour pair of highs shifted out on the fly: no
    column holds a high per value.
    """
    n = len(packed)
    if not n:
        return [], [0], ()
    highs = map(rshift, packed, repeat(low_bits))
    offsets = [0, *compress(count(1), starmap(ne, pairwise(highs))), n]
    keys = [packed[i] >> low_bits for i in offsets[:-1]]
    lows = map(and_, packed, repeat((1 << low_bits) - 1, n))
    return keys, offsets, tuple(lows if canon is None else map(canon.__getitem__, lows))


def _drained(values: set[int]) -> list[int]:
    """``values`` sorted, and the set emptied (its table freed at once)."""
    ordered = sorted(values)
    values.clear()
    return ordered


def _triple_columns(packed: list[int], canon: Canonical):
    """The :meth:`ExpandedStore._extend_triples` columns of sorted, distinct
    ``(s_id << 32 | path_id) << 32 | o_id`` ints, ids through ``canon``."""
    # heads are s_id << 32 | path_id, one per (subject, path) group
    heads, object_offsets, objects = _split(packed, canon=canon)
    subjects, group_offsets, group_paths = _split(heads, canon=canon)
    subjects = list(map(canon.__getitem__, subjects))
    return subjects, group_offsets, group_paths, object_offsets, objects


def _next_frontier(
    ways: set[int], subjects: set[int], reach: set[int]
) -> dict[int, tuple[int, ...]]:
    """The next round's frontier from a round's ``o_id << 64 | way`` ints,
    which it empties: each subject node's ways as a sorted tuple.

    Every way adds its ``node_id << 32 | seed_id`` to ``reach``: the next
    round scans the node on behalf of the way's seed, or would once a live
    add makes the node a subject.
    """
    ordered = _drained(ways)
    reach.update(map(rshift, ordered, repeat(_ID_BITS)))
    nodes, offsets, node_ways = _split(ordered, 2 * _ID_BITS)
    return {
        node: node_ways[lo:hi]
        for node, lo, hi in zip(nodes, offsets, offsets[1:])
        if node in subjects
    }


class ExpandedStore:
    """Materialized ``(s, p+, o)`` triples produced by :func:`expand_predicates`.

    Provides the two lookups the KBQA pipeline needs — ``V(e, p+)`` and
    ``paths_between(e, v)`` — over the *expanded* predicate space, with the
    same hash-probe complexity the base store offers for direct predicates.

    Storage is id-encoded: subjects/objects are dictionary ids and each
    distinct predicate path is interned to a dense path id.  Every id set is
    an immutable *entry* (a bare int for one member, a sorted tuple for
    more): writes replace an entry, never mutate one, so the store holds one
    collector-tracked container per subject and none per triple.  Id-level
    lookups return tuples (``in``/``len``/iteration); public lookups return
    decoded **frozen views**: the decode happens at most once per key and the
    resulting frozenset is shared by every subsequent call (callers must not
    mutate results — they never did; see ``core/kbview.py`` and
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
        # s_id -> path_id -> objects entry
        self._by_subject: dict[int, dict[int, Entry]] = {}
        # s_id << 32 | o_id -> path-ids entry
        self._by_pair: dict[int, Entry] = {}
        # path interning: tuple of predicate ids <-> dense path id
        self._path_key_to_id: dict[tuple[int, ...], int] = {}
        self._path_keys: list[tuple[int, ...]] = []
        self._triple_count = 0
        # reach provenance: node -> seeds entry, the seeds whose BFS scanned
        # the node (most nodes: one seed, a bare int)
        self._reached_from: dict[int, Entry] = {}
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

    def objects_ids(self, subject_id: int, path_id: int) -> tuple[int, ...]:
        """Id-level ``V(e, p+)`` as a sorted tuple (empty when absent)."""
        by_path = self._by_subject.get(subject_id)
        objects = None if by_path is None else by_path.get(path_id)
        if objects is None:
            return ()
        return (objects,) if type(objects) is int else objects

    def path_ids_between(self, subject_id: int, object_id: int) -> tuple[int, ...]:
        """Id-level ``paths_between``: path ids connecting (s, o), sorted."""
        paths = self._by_pair.get(subject_id << _ID_BITS | object_id)
        if paths is None:
            return ()
        return (paths,) if type(paths) is int else paths

    # The bulk build behind both expand_predicates and the artifact load, in
    # two passes that each take one section's sorted id columns.  Ids
    # increase within every column section they index: subjects, the paths
    # of a subject, the ids of a group, reach nodes; no group is empty.  A
    # subject or node the store already holds (only an ``into=`` refresh
    # meets one) is merged, and the frozen views over it are dropped.

    def _extend_triples(
        self,
        subjects: Sequence[int],
        group_offsets: Sequence[int],
        group_paths: Sequence[int],
        object_offsets: Sequence[int],
        objects: Sequence[int],
    ) -> None:
        """Fold triple columns into the store, ``_by_pair`` from the same
        pass: subject ``i`` holds groups ``group_offsets[i]:group_offsets[i +
        1]``, group ``g`` the path ``group_paths[g]`` and the objects
        ``objects[object_offsets[g]:object_offsets[g + 1]]``."""
        by_subject, by_pair = self._by_subject, self._by_pair
        count = self._triple_count
        for s_id, lo, hi in zip(subjects, group_offsets, group_offsets[1:]):
            by_path = by_subject.get(s_id)
            if by_path is None:
                by_path = by_subject[s_id] = {}
            base = s_id << _ID_BITS
            for group in range(lo, hi):
                p_id = group_paths[group]
                new = objects[object_offsets[group] : object_offsets[group + 1]]
                held = by_path.get(p_id)
                if held is None:
                    by_path[p_id] = _entry(new)
                else:
                    known = set(_members(held))
                    new = tuple(o for o in new if o not in known)
                    by_path[p_id] = _union(held, new)
                    self._objects_cache.pop((s_id, p_id), None)
                count += len(new)
                for o_id in new:
                    pair = base | o_id
                    paths = by_pair.setdefault(pair, p_id)
                    if paths != p_id:  # a second path between s and o
                        by_pair[pair] = _with(paths, p_id)
                        self._pairs_cache.pop((s_id, o_id), None)
        self._triple_count = count

    def _extend_reach(
        self, nodes: Sequence[int], offsets: Sequence[int], seeds: Sequence[int]
    ) -> None:
        """Fold reach columns into the store: node ``j`` was scanned for the
        seeds ``seeds[offsets[j]:offsets[j + 1]]``."""
        reached = self._reached_from
        for node_id, lo, hi in zip(nodes, offsets, offsets[1:]):
            held = reached.get(node_id)
            new = seeds[lo:hi]
            reached[node_id] = _entry(new) if held is None else _union(held, new)

    def _extend_packed(self, triples: set[int], reach: set[int]) -> None:
        """The bulk build from two sets of packed ints, which it empties:
        triples as ``(s_id << 32 | path_id) << 32 | o_id``, reach as
        ``node_id << 32 | seed_id``.

        Each set is sorted, cleared and split into columns before the next
        is read; the reach goes first, since its columns, one int object per
        distinct id, are a fraction of its set of packed ints, and are
        folded in once the triples are.  Every id goes through one
        :class:`Canonical` map, which starts from the store's seeds.
        """
        canon = Canonical(zip(self.seed_ids, self.seed_ids))
        nodes, offsets, seeds = _split(_drained(reach), canon=canon)
        nodes = list(map(canon.__getitem__, nodes))
        self._extend_triples(*_triple_columns(_drained(triples), canon))
        self._extend_reach(nodes, offsets, seeds)

    # -- Reach provenance --------------------------------------------------

    def seeds_through(self, node_id: int) -> tuple[int, ...]:
        """Seeds whose expansion scanned ``node_id``, as a sorted tuple.

        This is the invalidation index: a base-KB edge change under subject
        ``node_id`` can only affect expanded triples of these seeds.
        """
        seeds = self._reached_from.get(node_id)
        return () if seeds is None else _members(seeds)

    def reach_items(self) -> Iterator[tuple[int, frozenset[int]]]:
        """Normalized scan of the reach index: ``(node_id, {seed_ids})``."""
        for node_id, seeds in self._reached_from.items():
            yield node_id, frozenset(_members(seeds))

    def has_reach(self) -> bool:
        """True when the reach-provenance index is populated.

        `repro.kb.live` refuses a seeded store without reach through this:
        only an artifact saved from a store whose reach was dropped can be
        in that state.
        """
        return bool(self._reached_from)

    # -- Live invalidation -------------------------------------------------

    def invalidate_seeds(self, seeds: Iterable[str]) -> bool:
        """Drop every expanded triple and reach entry of a set of seeds.

        Invalidation for live KB updates: all of the seeds' expanded
        ``(s, p+, o)`` rows, their pair index entries, their frozen views and
        their reach provenance are removed, so one expansion of the set (see
        :class:`repro.kb.live.LiveExpansionMaintainer`) can rebuild them.
        Returns True when anything was dropped.
        """
        lookup = self.dictionary.lookup
        dropped = {s for seed in seeds if (s := lookup(seed)) is not None}
        if not dropped:
            return False
        removed = bool(dropped & self.seed_ids)
        self.seed_ids -= dropped
        by_pair = self._by_pair
        for s in dropped:
            by_path = self._by_subject.pop(s, None)
            if not by_path:
                continue
            removed = True
            base = s << _ID_BITS
            for p_id, objects in by_path.items():
                object_ids = _members(objects)
                self._triple_count -= len(object_ids)
                self._objects_cache.pop((s, p_id), None)
                for o_id in object_ids:
                    pair = base | o_id
                    paths = by_pair.get(pair)
                    if paths is not None:
                        rest = _without(paths, p_id)
                        if rest is None:
                            del by_pair[pair]
                        else:
                            by_pair[pair] = rest
                    self._pairs_cache.pop((s, o_id), None)
        # the reach index has no inverse (it would add a container per node
        # to the expansion); one sweep serves the whole set
        reached = self._reached_from
        changed = [
            (node_id, tuple(s for s in _members(entry) if s not in dropped))
            for node_id, entry in reached.items()
            if (entry in dropped if type(entry) is int else not dropped.isdisjoint(entry))
        ]
        for node_id, rest in changed:
            if rest:
                reached[node_id] = _entry(rest)
            else:
                del reached[node_id]
        return removed

    def merge_from(self, other: "ExpandedStore") -> int:
        """Fold another store's triples, seeds and reach into this one.

        One bulk pass: every id ``other`` uses is translated through one
        ``other id -> self id`` map (each term encoded once, so the merge is
        correct whether or not the two stores share a dictionary — a freshly
        loaded artifact has its own), and the translated ids are packed and
        folded in by :meth:`_extend_packed`.  Returns the number of newly
        inserted triples.
        """
        by_subject, reached = other._by_subject, other._reached_from
        used = {*by_subject, *reached, *other.seed_ids}
        used.update(chain.from_iterable(other._path_keys))
        for by_path in by_subject.values():
            for objects in by_path.values():
                used.update(_members(objects))
        for seeds in reached.values():
            used.update(_members(seeds))
        encode, decode = self.dictionary.encode, other.dictionary.decode
        id_of = {i: encode(decode(i)) for i in used}
        path_of = [self.path_id(tuple(map(id_of.__getitem__, key))) for key in other._path_keys]
        triples = {
            (id_of[s] << _ID_BITS | path_of[p]) << _ID_BITS | id_of[o]
            for s, p, o in other.triples_ids()
        }
        reach = {
            id_of[node] << _ID_BITS | id_of[seed]
            for node, seeds in reached.items()
            for seed in _members(seeds)
        }
        self.seed_ids.update(map(id_of.__getitem__, other.seed_ids))
        before = self._triple_count
        self._extend_packed(triples, reach)
        return self._triple_count - before

    # -- Persistence -------------------------------------------------------

    def save(self, path: str | Path, format: str = "v3") -> None:
        """Serialize the id-encoded entries together with the dictionary.

        Writes the checksummed artifact of `repro.kb.expanded_v3` (layout
        documented there), replacing ``path`` atomically.  The bytes are
        canonical: paths are written in sorted key order, subjects in id
        order, object sets sorted — so two stores whose dictionaries assign
        the same term ids (e.g. a memory and a disk backend built by the
        same add sequence) serialize to byte-identical files regardless of
        internal path interning order.  Stores with *differently
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
        chains, section order, id ranges, UTF-8) and then built in one bulk
        pass into an ordinary dict-backed store with its own dictionary;
        offline training passes it straight to the learner
        (``KBQA.train(..., expanded=...)``) to skip the Sec 6.2 scan.  A
        retired or corrupt artifact raises :class:`ValueError` naming the
        file (an unreadable one, ``OSError``).
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

    def decode_path(self, path_id: int) -> PredicatePath:
        """The :class:`PredicatePath` of a path id (decoded once, shared)."""
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
            object_ids = self.objects_ids(s, p)
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
            path_ids = self.path_ids_between(s, o)
            if not path_ids:
                return _EMPTY_FROZEN
            cached = frozenset(self.decode_path(p) for p in path_ids)
            self._pairs_cache[key] = cached
        return cached

    # -- Inventory ----------------------------------------------------------

    def __len__(self) -> int:
        """Number of stored (s, p+, o) triples."""
        return self._triple_count

    def distinct_paths(self) -> set[PredicatePath]:
        """All expanded predicates stored for any subject."""
        return {self.decode_path(p) for p in range(len(self._path_keys))}

    def triples(self) -> Iterator[tuple[str, PredicatePath, str]]:
        """Scan every stored (s, p+, o), decoded."""
        decode = self.dictionary.decode
        for s, p, o in self.triples_ids():
            yield decode(s), self.decode_path(p), decode(o)

    def triples_ids(self) -> Iterator[tuple[int, int, int]]:
        """Id-native scan: ``(s_id, path_id, o_id)`` per stored triple."""
        for s, by_path in self._by_subject.items():
            for p, objects in by_path.items():
                for o in _members(objects):
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
    node id to the sorted tuple of ways it was reached, each way one packed
    ``seed_id << 32 | prefix`` int, where a prefix (the predicate ids walked
    so far; 0 is the empty prefix of a seed at round 0) is interned to a
    small id; joining a subject group extends each way by the group's
    predicates.  The grouped scan probes the frontier once per *subject*,
    not once per triple, and no string leaves the dictionary during
    expansion.

    A round collects the next frontier as one set of packed
    ``o_id << 64 | way`` ints, sorted once and split into per-node slices,
    and adds to one set of packed ``(seed_id << 32 | path_id) << 32 | o_id``
    recorded triples.  A way goes on only to an object that is a subject of
    the store (round 1's scan collects them); any other object is only
    recorded in the reach-provenance index, as ``node_id << 32 | seed_id``,
    since a live add may make it a subject.  That index (which seeds' BFS
    scanned which node, read off every frontier — the index `repro.kb.live`
    resolves affected seeds through) and the sorted triples then fill the
    store in one bulk pass, the one an artifact load makes.  There is no
    second BFS that rebuilds reach.

    Passing ``into=`` appends to an existing :class:`ExpandedStore` sharing
    the backend's dictionary (used by the live maintainer to rebuild the
    seeds a burst of edits affects) instead of building a fresh one.

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

    # prefix id -> predicate ids; 0 is the empty prefix
    prefix_keys: list[tuple[int, ...]] = [()]
    # prefix id -> store path id of the path it spells, None when unrecorded
    recorded: list[int | None] = [None]
    # predicate id << 32 | prefix -> the extended prefix's id
    children: dict[int, int] = {}
    # a way is seed_id << 32 | prefix; a seed is reached by the empty prefix
    frontier = {seed_id: (seed_id << _ID_BITS,) for seed_id in seed_ids}
    # node_id << 32 | seed_id: the seeds whose BFS scans a node (round 1
    # scans the seeds themselves)
    reach = {seed_id << _ID_BITS | seed_id for seed_id in seed_ids}
    add_reach = reach.add
    triples: set[int] = set()  # (seed_id << 32 | path_id) << 32 | o_id
    add_triple = triples.add
    # every subject of the store, collected by round 1's scan: a way goes on
    # only to a node a later scan meets
    subjects: set[int] = set()
    way_bits = 2 * _ID_BITS

    for round_index in range(1, max_length + 1):
        is_last_round = round_index == max_length
        next_ways: set[int] = set()  # o_id << 64 | way
        add_way = next_ways.add
        for s_id, by_predicate in store.spo_items_ids():
            if round_index == 1:
                subjects.add(s_id)
            ways = frontier.get(s_id)
            if ways is None:
                continue
            for p_id, object_ids in by_predicate.items():
                if is_last_round:
                    if round_index > 1 and p_id not in tail_ids:
                        continue  # its path is not recorded, and no round follows
                    onward = ends = ()
                elif round_index == 1:
                    # subjects is whole only once this scan ends: every way
                    # goes on, and the next frontier keeps those to subjects
                    onward, ends = object_ids, ()
                else:
                    # an object that is no subject ends its ways here, as
                    # reach facts
                    onward = object_ids & subjects
                    ends = object_ids - onward
                step_base = p_id << _ID_BITS
                for way in ways:
                    prefix = way & _ID_MASK
                    child = children.get(step_base | prefix)
                    if child is None:
                        child = children[step_base | prefix] = len(prefix_keys)
                        key = prefix_keys[prefix] + (p_id,)
                        prefix_keys.append(key)
                        recorded.append(
                            expanded.path_id(key) if len(key) == 1 or p_id in tail_ids else None
                        )
                    path_id = recorded[child]
                    if path_id is not None:
                        head = (way - prefix + path_id) << _ID_BITS
                        for o_id in object_ids:
                            add_triple(head | o_id)
                    if onward:
                        extended = way - prefix + child
                        for o_id in onward:
                            add_way(o_id << way_bits | extended)
                    if ends:
                        seed = way >> _ID_BITS
                        for o_id in ends:
                            add_reach(o_id << _ID_BITS | seed)
        frontier.clear()  # the scan is done with it
        frontier = _next_frontier(next_ways, subjects, reach)
        if not frontier:
            break

    expanded._extend_packed(triples, reach)
    return expanded
