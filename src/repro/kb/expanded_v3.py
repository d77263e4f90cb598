"""The ``ExpandedStore`` artifact: mmap'd, served by binary search.

The one on-disk form of the Sec 6.2 expansion.  The file stores the
canonical content (terms, seeds, sorted path keys, grouped triples, reach)
**plus the index structure itself**: every per-count section is a prefix-sum
offset table and every id array is a binary-search index, so the reader
answers ``objects``/``paths_between``/``seeds_through`` straight off the
mapped arrays:

* :func:`load_v3` maps the file, parses the fixed header, derives every
  section boundary arithmetically and validates the total against the file
  size — **O(1) in KB size**, no dictionary, no dicts, no per-row Python
  objects;
* lookups run ``bisect`` over ``memoryview.cast`` windows of the mapping —
  term -> id through a lexicographic permutation index, subject / pair /
  reach probes over the sorted id arrays — so resident memory is whatever
  the page cache keeps warm, and every process mapping the same artifact
  shares **one** page cache;
* :meth:`ExpandedStoreV3.materialize` is the escape hatch: it inflates the
  mapping into the ordinary dict-backed form **in place** (same object
  identity, same term ids, same file-local path ids), and every mutating
  entry point (``record``/``record_encoded``/``note_reach``/
  ``invalidate_seed``/``merge_from``/``path_id``) routes through it, so a
  loaded artifact behaves exactly like a freshly expanded store the moment
  live updates begin;
* the bytes are canonical: ``load(p).save(q)`` reproduces ``p`` exactly, and
  two stores with equal content and equal term ids serialize identically
  regardless of internal interning order
  (``tests/test_expansion_persistence.py``);
* :func:`save_v3` replaces ``path`` atomically (temp file in the same
  directory, flush, ``os.replace``): a reader that has the old artifact
  mapped keeps the old inode, and a crash mid-write leaves the previous
  artifact intact.

Trust boundary: :func:`load_v3` checks structure (magic, version, exact file
size) in O(1) and every lookup bounds-checks ids and offsets before use, so
a corrupt file raises the documented :class:`ValueError` rather than decode
garbage — but *sortedness* of the index arrays is trusted by the hot path
(an unsorted index can only cause misses, never wrong decodes).
:meth:`ExpandedStoreV3.verify` is the full integrity sweep — offset
monotonicity, index sort order, id ranges, term decodability, and
pair-index/triple-section consistency — and ``kbqa expand --load`` runs it
on every artifact.  What it cannot see is a flip that turns one well-formed
artifact into another (a letter in a term); that needs a checksum, which
the layout does not carry.

Layout (all integers little-endian; u32 unless noted)::

    header    magic 8s = b"KBQAXPD3", then u32 fields: version=3,
              max_length, n_tails, n_terms, n_seeds, n_paths, n_path_ids,
              n_subjects, n_groups, n_triples, n_reach_nodes, n_reach_pairs,
              tails_blob_len, n_pairs; u64 terms_blob_len
    tails     offsets u32 x (n_tails+1), utf-8 blob (padded to 4)
    terms     offsets u64 x (n_terms+1), utf-8 blob (padded to 4)
    termsort  u32 x n_terms            term ids permuted into utf-8 byte
                                       order (term -> id binary search)
    seeds     u32 x n_seeds            (sorted)
    paths     offsets u32 x (n_paths+1), flat predicate ids u32 x n_path_ids
              (keys in sorted-tuple order == binary-searchable by key)
    subjects  subject ids u32 x n_subjects       (sorted)
              group offsets u64 x (n_subjects+1) (prefix sums -> groups)
              group path ids u32 x n_groups      (file-local, sorted per subj)
              object offsets u64 x (n_groups+1)  (prefix sums -> objects)
              object ids u32 x n_triples         (sorted per group)
    pairs     pair subject ids u32 x n_pairs     (sorted by (s, o))
              pair object ids u32 x n_pairs
              pair offsets u64 x (n_pairs+1)     (prefix sums -> pair paths)
              pair path ids u32 x n_triples      (file-local, sorted per pair)
    reach     node ids u32 x n_reach_nodes       (sorted)
              reach offsets u64 x (n_reach_nodes+1)
              seed ids u32 x n_reach_pairs       (sorted per node)

The pair section is the ``paths_between`` index (one entry per distinct
(s, o); the flat pair-path array has exactly ``n_triples`` entries because
each expanded triple contributes exactly one (s, o) -> path row).  The
format is self-contained (it carries the dictionary).  The module keeps its
``_v3`` name and magic: two earlier formats (line-JSON v1, struct-packed v2)
are retired, and :func:`load_v3` names them in its error so a stale artifact
is regenerated rather than mistaken for garbage.
"""

from __future__ import annotations

import mmap
import os
import struct
from bisect import bisect_left
from pathlib import Path
from typing import Iterator

from repro.kb.dictionary import Dictionary
from repro.kb.expansion import _EMPTY_FROZEN, ExpandedStore
from repro.kb.paths import PredicatePath

EXPANSION_V3_MAGIC = b"KBQAXPD3"
EXPANSION_V3_VERSION = 3

# leading bytes of the two retired formats; recognised only to say so
_RETIRED_MAGICS = ((b"KBQA-EXPANDED ", "v1"), (b"KBQAXPD2", "v2"))

_HEADER = struct.Struct("<8s14IQ")


def _pad4(n: int) -> int:
    return (-n) % 4


class _Cursor:
    """Sequential section reader over the mapped file, bounds-checked."""

    def __init__(self, view: memoryview, path: str | Path) -> None:
        self.view = view
        self.path = path
        self.offset = _HEADER.size

    def take(self, nbytes: int) -> memoryview:
        end = self.offset + nbytes
        if end > len(self.view):
            raise ValueError(
                f"{self.path}: truncated expansion file "
                f"(need {end} bytes, have {len(self.view)})"
            )
        chunk = self.view[self.offset : end]
        self.offset = end
        return chunk

    def u32s(self, count: int) -> memoryview:
        return self.take(4 * count).cast("I")

    def u64s(self, count: int) -> memoryview:
        return self.take(8 * count).cast("Q")

    def blob(self, nbytes: int) -> memoryview:
        chunk = self.take(nbytes)
        self.take(_pad4(nbytes))  # alignment padding
        return chunk


def _decode_strings(offsets, blob: memoryview, path: str | Path, what: str) -> list[str]:
    """Decode length-offset-framed utf-8 strings, validating monotonicity."""
    out: list[str] = []
    previous = 0
    for index in range(len(offsets) - 1):
        start, end = offsets[index], offsets[index + 1]
        if not (previous <= start <= end <= len(blob)):
            raise ValueError(f"{path}: corrupt {what} offsets")
        previous = start
        out.append(str(blob[start:end], "utf-8"))
    return out


class V3StreamWriter:
    """Buffered section writer: packs values incrementally, flushes in chunks.

    The incremental-writer seam of the v3 format: sections stream through a
    bounded buffer (~1 MiB) instead of materializing whole ``list`` +
    ``struct.pack`` images, so writing an artifact needs memory proportional
    to the *index* structures (terms, subjects, pairs), never to the triple
    count.  Output bytes are identical to the eager writer's.
    """

    _FLUSH_AT = 1 << 20

    def __init__(self, handle) -> None:
        self._handle = handle
        self._buffer = bytearray()

    def _maybe_flush(self) -> None:
        if len(self._buffer) >= self._FLUSH_AT:
            self.flush()

    def flush(self) -> None:
        if self._buffer:
            self._handle.write(self._buffer)
            self._buffer.clear()

    def raw(self, data: bytes) -> None:
        self._buffer += data
        self._maybe_flush()

    def u32s(self, values) -> int:
        """Stream an iterable of u32 values; returns how many were written."""
        count = 0
        pack = struct.Struct("<I").pack
        buffer = self._buffer
        for value in values:
            buffer += pack(value)
            count += 1
            if len(buffer) >= self._FLUSH_AT:
                self.flush()
                buffer = self._buffer
        self._maybe_flush()
        return count

    def u64s(self, values) -> int:
        """Stream an iterable of u64 values; returns how many were written."""
        count = 0
        pack = struct.Struct("<Q").pack
        buffer = self._buffer
        for value in values:
            buffer += pack(value)
            count += 1
            if len(buffer) >= self._FLUSH_AT:
                self.flush()
                buffer = self._buffer
        self._maybe_flush()
        return count

    def blob(self, chunks) -> int:
        """Stream byte chunks; returns the total blob length (pre-padding)."""
        total = 0
        for chunk in chunks:
            total += len(chunk)
            self.raw(chunk)
        return total

    def pad4(self, length: int) -> None:
        self.raw(b"\x00" * _pad4(length))


def _prefix_sums(lengths) -> "Iterator[int]":
    """0, l0, l0+l1, ... — the offset-table shape of every v3 section."""
    total = 0
    yield total
    for length in lengths:
        total += length
        yield total


def save_v3(store: "ExpandedStore", path: str | Path) -> None:
    """Serialize ``store`` in the v3 binary layout (canonical, deterministic).

    The content sections are written in canonical order (sorted path keys
    remapped to file-local ids, subjects in id order, objects and reach
    seeds sorted), so a save -> load -> save round trip is byte-exact; the
    index sections (term permutation, prefix-sum offsets, pair index) are
    derived from that canonical order and equally deterministic.

    The writer is *streaming*: every section whose size is O(triples) —
    group/object/pair arrays and their offset tables — is generated lazily
    and flows through :class:`V3StreamWriter`'s bounded buffer in multiple
    cheap passes over the store's indexes.  All header counts derive from
    O(index) sweeps up front, so nothing triple-shaped is ever held as a
    Python list.

    ``path`` is replaced atomically: the bytes go to a sibling temp file
    that is renamed over ``path`` once complete, so processes that have the
    previous artifact mapped keep reading the old inode (truncating it in
    place would SIGBUS them) and a failed write leaves ``path`` untouched.
    """
    sorted_keys = sorted(store._path_keys)
    file_path_id = {key: i for i, key in enumerate(sorted_keys)}
    remap = [file_path_id[key] for key in store._path_keys]

    tails = sorted(store.tail_predicates)
    tails_utf8 = [t.encode("utf-8") for t in tails]
    tails_blob_len = sum(len(c) for c in tails_utf8)

    # terms: keep lengths (O(n_terms) ints), not encoded blob copies
    terms = list(store.dictionary.terms())
    term_lengths = [len(term.encode("utf-8")) for term in terms]
    terms_blob_len = sum(term_lengths)

    seeds = sorted(store.seed_ids)
    n_path_ids = sum(len(key) for key in sorted_keys)

    by_subject = store._by_subject
    subject_order = sorted(by_subject)
    n_groups = sum(len(by_subject[s]) for s in subject_order)
    n_triples = sum(
        len(objs) for s in subject_order for objs in by_subject[s].values()
    )

    by_pair = store._by_pair
    n_pair_paths = sum(len(paths) for paths in by_pair.values())
    if n_pair_paths != n_triples:  # pragma: no cover - invariant
        raise ValueError(
            "pair index inconsistent with triples "
            f"({n_pair_paths} pair paths, {n_triples} triples)"
        )

    reach_sorted = sorted(store.reach_items())
    n_reach_pairs = sum(len(node_seeds) for _node, node_seeds in reach_sorted)

    header = _HEADER.pack(
        EXPANSION_V3_MAGIC,
        EXPANSION_V3_VERSION,
        store.max_length,
        len(tails),
        len(terms),
        len(seeds),
        len(sorted_keys),
        n_path_ids,
        len(subject_order),
        n_groups,
        n_triples,
        len(reach_sorted),
        n_reach_pairs,
        tails_blob_len,
        len(by_pair),
        terms_blob_len,
    )

    # per-subject groups in canonical order: remapped pids are distinct
    # within a subject (file_path_id is injective), so sorting by pid alone
    # reproduces the canonical (pid, objects) order
    def subject_groups(s_id):
        return sorted((remap[p], objs) for p, objs in by_subject[s_id].items())

    pair_keys = sorted(by_pair)

    target = Path(path)
    scratch = target.with_name(f"{target.name}.tmp{os.getpid()}")
    try:
        with open(scratch, "wb") as handle:
            out = V3StreamWriter(handle)
            out.raw(header)
            out.u32s(_prefix_sums(len(c) for c in tails_utf8))
            out.blob(tails_utf8)
            out.pad4(tails_blob_len)
            out.u64s(_prefix_sums(term_lengths))
            out.blob(term.encode("utf-8") for term in terms)
            out.pad4(terms_blob_len)
            # termsort: the lexicographic permutation is inherently a full sort
            # over the term table — O(n_terms), the largest transient this
            # writer keeps
            out.u32s(sorted(range(len(terms)), key=lambda i: terms[i].encode("utf-8")))
            out.u32s(seeds)
            out.u32s(_prefix_sums(len(key) for key in sorted_keys))
            out.u32s(pid for key in sorted_keys for pid in key)
            out.u32s(subject_order)
            out.u64s(_prefix_sums(len(by_subject[s]) for s in subject_order))
            out.u32s(pid for s in subject_order for pid, _objs in subject_groups(s))
            out.u64s(
                _prefix_sums(
                    len(objs) for s in subject_order for _pid, objs in subject_groups(s)
                )
            )
            out.u32s(
                o_id
                for s in subject_order
                for _pid, objs in subject_groups(s)
                for o_id in sorted(objs)
            )
            out.u32s(s_id for s_id, _o_id in pair_keys)
            out.u32s(o_id for _s_id, o_id in pair_keys)
            out.u64s(_prefix_sums(len(by_pair[key]) for key in pair_keys))
            out.u32s(
                pid for key in pair_keys for pid in sorted(remap[p] for p in by_pair[key])
            )
            out.u32s(node_id for node_id, _seeds in reach_sorted)
            out.u64s(_prefix_sums(len(node_seeds) for _node, node_seeds in reach_sorted))
            out.u32s(
                seed
                for _node, node_seeds in reach_sorted
                for seed in sorted(node_seeds)
            )
            out.flush()
        os.replace(scratch, target)
    except BaseException:
        scratch.unlink(missing_ok=True)
        raise


class _V3Sections:
    """The mapped artifact: header counts + memoryview windows per section.

    Owns the ``mmap`` and hands out ``memoryview.cast`` windows; every
    consumer goes through this object so :meth:`close` can account for all
    outstanding views.  Purely passive — the search logic lives in
    :class:`MappedDictionary` and :class:`ExpandedStoreV3`.
    """

    def __init__(self, path: str | Path) -> None:
        self.source_path = str(path)
        with open(path, "rb") as handle:
            try:
                self._mmap = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
            except ValueError as error:  # an empty file cannot be mapped
                raise ValueError(f"{path}: truncated expansion file (empty)") from error
        view = memoryview(self._mmap)
        self._view = view
        try:
            self._parse(view, path)
        except Exception:
            self.close()
            raise

    def _parse(self, view: memoryview, path: str | Path) -> None:
        if not EXPANSION_V3_MAGIC.startswith(bytes(view[: len(EXPANSION_V3_MAGIC)])):
            for retired_magic, retired in _RETIRED_MAGICS:
                if view[: len(retired_magic)] == retired_magic:
                    raise ValueError(
                        f"{path}: expansion format {retired} is retired; regenerate "
                        f"the artifact with `kbqa expand --save`"
                    )
            raise ValueError(f"{path}: not a {EXPANSION_V3_MAGIC!r} file")
        if len(view) < _HEADER.size:
            raise ValueError(f"{path}: truncated expansion file (no v3 header)")
        (
            _magic,
            version,
            self.max_length,
            n_tails,
            self.n_terms,
            n_seeds,
            self.n_paths,
            n_path_ids,
            self.n_subjects,
            self.n_groups,
            self.n_triples,
            self.n_reach_nodes,
            n_reach_pairs,
            tails_blob_len,
            self.n_pairs,
            terms_blob_len,
        ) = _HEADER.unpack_from(view, 0)
        if version != EXPANSION_V3_VERSION:
            raise ValueError(
                f"{path}: unsupported format version {version} "
                f"(supported: {EXPANSION_V3_VERSION})"
            )
        self.n_path_ids = n_path_ids
        self.n_reach_pairs = n_reach_pairs

        cursor = _Cursor(view, path)
        tail_offsets = cursor.u32s(n_tails + 1)
        tails_blob = cursor.blob(tails_blob_len)
        self.term_offsets = cursor.u64s(self.n_terms + 1)
        self.terms_blob = cursor.blob(terms_blob_len)
        self.term_sort = cursor.u32s(self.n_terms)
        self.seed_ids = cursor.u32s(n_seeds)
        self.path_offsets = cursor.u32s(self.n_paths + 1)
        self.path_ids = cursor.u32s(n_path_ids)
        self.subject_ids = cursor.u32s(self.n_subjects)
        self.group_offsets = cursor.u64s(self.n_subjects + 1)
        self.group_path_ids = cursor.u32s(self.n_groups)
        self.object_offsets = cursor.u64s(self.n_groups + 1)
        self.object_ids = cursor.u32s(self.n_triples)
        self.pair_subjects = cursor.u32s(self.n_pairs)
        self.pair_objects = cursor.u32s(self.n_pairs)
        self.pair_offsets = cursor.u64s(self.n_pairs + 1)
        self.pair_path_ids = cursor.u32s(self.n_triples)
        self.reach_nodes = cursor.u32s(self.n_reach_nodes)
        self.reach_offsets = cursor.u64s(self.n_reach_nodes + 1)
        self.reach_seeds = cursor.u32s(n_reach_pairs)
        if cursor.offset != len(view):
            raise ValueError(
                f"{path}: trailing bytes after the declared sections "
                f"({len(view) - cursor.offset})"
            )
        # the only strings decoded at load time: the tail-predicate
        # whitelist (a handful of entries, O(1) in KB size)
        self.tails = _decode_strings(tail_offsets, tails_blob, path, "tail-predicate")

    def term_bytes(self, term_id: int) -> memoryview:
        if not 0 <= term_id < self.n_terms:  # ids read off a corrupt termsort
            raise ValueError(f"{self.source_path}: term id {term_id} out of range")
        start = self.term_offsets[term_id]
        end = self.term_offsets[term_id + 1]
        if not 0 <= start <= end <= len(self.terms_blob):
            raise ValueError(f"{self.source_path}: corrupt dictionary offsets")
        return self.terms_blob[start:end]

    def close(self) -> None:
        for name in (
            "term_offsets", "terms_blob", "term_sort", "seed_ids",
            "path_offsets", "path_ids", "subject_ids", "group_offsets",
            "group_path_ids", "object_offsets", "object_ids",
            "pair_subjects", "pair_objects", "pair_offsets", "pair_path_ids",
            "reach_nodes", "reach_offsets", "reach_seeds",
        ):
            section = self.__dict__.pop(name, None)
            if section is not None:
                section.release()
        view = self.__dict__.pop("_view", None)
        if view is not None:
            view.release()
        mapped = self.__dict__.pop("_mmap", None)
        if mapped is not None:
            try:
                mapped.close()
            except BufferError:  # pragma: no cover - stray traceback views
                pass


class MappedDictionary:
    """Read-only ``Dictionary`` facade over the mapped term sections.

    ``decode`` slices the term blob on demand (memoized — resident strings
    are bounded by what was actually asked for, not by KB size) and
    ``lookup`` binary-searches the lexicographic permutation index.  The
    write half (``encode`` of an *unseen* term) raises ``TypeError``:
    mutation goes through :meth:`ExpandedStoreV3.materialize`, which swaps
    in a real :class:`~repro.kb.dictionary.Dictionary` with identical ids.
    """

    def __init__(self, sections: _V3Sections) -> None:
        self._sections = sections
        self._decoded: dict[int, str] = {}
        self._looked_up: dict[str, int | None] = {}

    def __len__(self) -> int:
        return self._sections.n_terms

    def __contains__(self, term: str) -> bool:
        return self.lookup(term) is not None

    def decode(self, term_id: int) -> str:
        """Term string for ``term_id``, decoded lazily off the blob."""
        cached = self._decoded.get(term_id)
        if cached is None:
            sections = self._sections
            if not 0 <= term_id < sections.n_terms:
                raise KeyError(term_id)
            cached = str(sections.term_bytes(term_id), "utf-8")
            self._decoded[term_id] = cached
        return cached

    def decode_many(self, term_ids) -> list[str]:
        decode = self.decode
        return [decode(t) for t in term_ids]

    def lookup(self, term: str) -> int | None:
        """Id of ``term`` via binary search over the byte-order permutation."""
        found = self._looked_up.get(term, _EMPTY_FROZEN)
        if found is not _EMPTY_FROZEN:
            return found
        sections = self._sections
        probe = term.encode("utf-8")
        order = sections.term_sort
        lo, hi = 0, len(order)
        while lo < hi:
            mid = (lo + hi) // 2
            if sections.term_bytes(order[mid]).tobytes() < probe:
                lo = mid + 1
            else:
                hi = mid
        found = None
        if lo < len(order):
            candidate = order[lo]
            if sections.term_bytes(candidate).tobytes() == probe:
                found = candidate
        self._looked_up[term] = found
        return found

    def encode(self, term: str) -> int:
        """Like :meth:`lookup` but raising — a mapped dictionary is frozen."""
        existing = self.lookup(term)
        if existing is None:
            raise TypeError(
                "mapped dictionary is read-only; call materialize() on the "
                "ExpandedStore before mutating it"
            )
        return existing

    def terms(self):
        decode = self.decode
        return (decode(i) for i in range(self._sections.n_terms))

    def terms_from(self, start: int):
        decode = self.decode
        return (decode(i) for i in range(start, self._sections.n_terms))


class ExpandedStoreV3(ExpandedStore):
    """An :class:`ExpandedStore` served directly from a mapped v3 artifact.

    Two modes, one object identity.  **Mapped** (after :func:`load_v3`):
    every read — ``objects``, ``paths_between``, ``seeds_through``, scans,
    stats — binary-searches the memory-mapped sections; nothing KB-sized
    lives on the Python heap.  **Materialized** (after :meth:`materialize`,
    triggered automatically by the first mutation): the ordinary dict-backed
    superclass takes over, with the same term ids and the same (file-local)
    path ids, so cached frozen views and any external id references stay
    valid across the flip.  :meth:`close` on a mapped store ends both: every
    later read, :meth:`verify` and :meth:`materialize` raise
    :class:`ValueError` naming the file instead of answering empty.
    """

    def __init__(self, sections: _V3Sections) -> None:
        super().__init__(
            max_length=sections.max_length,
            dictionary=MappedDictionary(sections),
            tail_predicates=frozenset(sections.tails),
        )
        self._mapped: _V3Sections | None = sections
        # the artifact's path once close() released the mapping
        self._closed_path: str | None = None
        n_terms = sections.n_terms
        for seed in sections.seed_ids:
            if not 0 <= seed < n_terms:
                raise ValueError(f"{sections.source_path}: term id {seed} out of range")
            self.seed_ids.add(seed)
        self._direct_paths: int | None = None

    # -- Mode management ---------------------------------------------------

    def _sections(self) -> _V3Sections | None:
        """The mapped sections, ``None`` once materialized; raises once closed."""
        if self._closed_path is not None:
            raise ValueError(f"{self._closed_path}: expansion artifact is closed")
        return self._mapped

    @property
    def is_mapped(self) -> bool:
        """True while lookups are answered from the mmap (no dict indexes)."""
        return self._mapped is not None

    def materialize(self) -> "ExpandedStoreV3":
        """Inflate the mapping into the dict-backed form, in place.

        Term ids and path ids are preserved exactly (terms re-encoded in id
        order; path keys interned in file order, which *is* sorted order),
        so views and caches built while mapped remain valid.  Idempotent;
        returns ``self``.
        """
        sections = self._sections()
        if sections is None:
            return self
        dictionary = Dictionary()
        encode = dictionary.encode
        for term in self.dictionary.terms():
            encode(term)
        self.dictionary = dictionary
        # flip modes first: the replay below runs on superclass machinery
        self._mapped = None
        self._direct_paths = None
        path_offsets = sections.path_offsets
        path_ids = sections.path_ids
        intern = super().path_id
        for index in range(sections.n_paths):
            intern(tuple(path_ids[path_offsets[index] : path_offsets[index + 1]]))
        record = super().record_encoded
        keys = self._path_keys
        subject_ids = sections.subject_ids
        group_offsets = sections.group_offsets
        group_path_ids = sections.group_path_ids
        object_offsets = sections.object_offsets
        object_ids = sections.object_ids
        for index in range(sections.n_subjects):
            s_id = subject_ids[index]
            for group in range(group_offsets[index], group_offsets[index + 1]):
                key = keys[group_path_ids[group]]
                for slot in range(object_offsets[group], object_offsets[group + 1]):
                    record(s_id, key, object_ids[slot])
        note_reach = super().note_reach
        reach_nodes = sections.reach_nodes
        reach_offsets = sections.reach_offsets
        reach_seeds = sections.reach_seeds
        for index in range(sections.n_reach_nodes):
            node_id = reach_nodes[index]
            for slot in range(reach_offsets[index], reach_offsets[index + 1]):
                note_reach(node_id, reach_seeds[slot])
        sections.close()
        return self

    def close(self) -> None:
        """Release the mapping; later reads raise.  Idempotent, and a no-op
        once materialized (the store no longer depends on the file)."""
        sections = self._mapped
        if sections is not None:
            self._mapped = None
            self._closed_path = sections.source_path
            sections.close()

    # -- Mapped search primitives ------------------------------------------

    def _subject_slot(self, s_id: int) -> int | None:
        sections = self._mapped
        ids = sections.subject_ids
        slot = bisect_left(ids, s_id, 0, sections.n_subjects)
        if slot < sections.n_subjects and ids[slot] == s_id:
            return slot
        return None

    def _group_slot(self, subject_slot: int, file_pid: int) -> int | None:
        sections = self._mapped
        lo = sections.group_offsets[subject_slot]
        hi = sections.group_offsets[subject_slot + 1]
        if not 0 <= lo <= hi <= sections.n_groups:
            raise ValueError(f"{sections.source_path}: corrupt group offsets")
        pids = sections.group_path_ids
        slot = bisect_left(pids, file_pid, lo, hi)
        if slot < hi and pids[slot] == file_pid:
            return slot
        return None

    def _object_slice(self, group_slot: int) -> memoryview:
        sections = self._mapped
        lo = sections.object_offsets[group_slot]
        hi = sections.object_offsets[group_slot + 1]
        if not 0 <= lo <= hi <= sections.n_triples:
            raise ValueError(f"{sections.source_path}: corrupt object offsets")
        return sections.object_ids[lo:hi]

    def _pair_slot(self, s_id: int, o_id: int) -> int | None:
        sections = self._mapped
        subjects = sections.pair_subjects
        objects = sections.pair_objects
        lo, hi = 0, sections.n_pairs
        while lo < hi:
            mid = (lo + hi) // 2
            if (subjects[mid], objects[mid]) < (s_id, o_id):
                lo = mid + 1
            else:
                hi = mid
        if lo < sections.n_pairs and subjects[lo] == s_id and objects[lo] == o_id:
            return lo
        return None

    def _path_key_slice(self, index: int) -> memoryview:
        sections = self._mapped
        if not 0 <= index < sections.n_paths:
            raise ValueError(f"{sections.source_path}: path id {index} out of range")
        lo = sections.path_offsets[index]
        hi = sections.path_offsets[index + 1]
        if not 0 <= lo <= hi <= sections.n_path_ids:
            raise ValueError(f"{sections.source_path}: corrupt path offsets")
        return sections.path_ids[lo:hi]

    def _check_term_id(self, term_id: int) -> int:
        if not 0 <= term_id < self._mapped.n_terms:
            raise ValueError(
                f"{self._mapped.source_path}: term id {term_id} out of range"
            )
        return term_id

    # -- Overridden id-level API -------------------------------------------

    def path_id(self, path_key: tuple[int, ...]) -> int:
        """File-local id of ``path_key`` by binary search over sorted keys."""
        if self._sections() is None:
            return super().path_id(path_key)
        existing = self._find_path_key(path_key)
        if existing is not None:
            return existing
        return self.materialize().path_id(path_key)

    def _find_path_key(self, path_key: tuple[int, ...]) -> int | None:
        """Binary search the sorted path-key section for an exact tuple."""
        sections = self._mapped
        lo, hi = 0, sections.n_paths
        while lo < hi:
            mid = (lo + hi) // 2
            if tuple(self._path_key_slice(mid)) < path_key:
                lo = mid + 1
            else:
                hi = mid
        if lo < sections.n_paths and tuple(self._path_key_slice(lo)) == path_key:
            return lo
        return None

    def _lookup_path_id(self, path: PredicatePath) -> int | None:
        if self._sections() is None:
            return super()._lookup_path_id(path)
        lookup = self.dictionary.lookup
        key: list[int] = []
        for predicate in path.predicates:
            p = lookup(predicate)
            if p is None:
                return None
            key.append(p)
        return self._find_path_key(tuple(key))

    def _decode_path(self, path_id: int) -> PredicatePath:
        if self._sections() is None:
            return super()._decode_path(path_id)
        path = self._decoded_paths.get(path_id)
        if path is None:
            decode = self.dictionary.decode
            path = PredicatePath(
                tuple(
                    decode(self._check_term_id(p))
                    for p in self._path_key_slice(path_id)
                )
            )
            self._decoded_paths[path_id] = path
        return path

    def objects_ids(self, subject_id: int, path_id: int) -> set[int] | frozenset[int]:
        """Object ids of ``(subject_id, path_id)`` as a prefix-sum slice."""
        if self._sections() is None:
            return super().objects_ids(subject_id, path_id)
        slot = self._subject_slot(subject_id)
        if slot is None:
            return _EMPTY_FROZEN
        group = self._group_slot(slot, path_id)
        if group is None:
            return _EMPTY_FROZEN
        return frozenset(self._object_slice(group))

    # mutations materialize first (a mapped store is frozen, and the mapped
    # dictionary cannot mint ids); materialize() raises once closed

    def record_encoded(self, subject_id, path_key, object_id) -> bool:
        self.materialize()
        return super().record_encoded(subject_id, path_key, object_id)

    def record(self, subject: str, path: PredicatePath, obj: str) -> bool:
        self.materialize()
        return super().record(subject, path, obj)

    def note_reach(self, node_id: int, seed_id: int) -> None:
        self.materialize()
        super().note_reach(node_id, seed_id)

    def invalidate_seed(self, seed: str) -> bool:
        self.materialize()
        return super().invalidate_seed(seed)

    def merge_from(self, other: "ExpandedStore") -> int:
        self.materialize()
        return super().merge_from(other)

    def save(self, path: str | Path, format: str = "v3") -> None:
        """Re-serialize; a mapped store reproduces its artifact's bytes."""
        # the writer walks the dict indexes, so saving goes through the
        # escape hatch (copy the file instead to duplicate an artifact)
        self.materialize()
        super().save(path, format)

    # -- Overridden reach API ----------------------------------------------

    def has_reach(self) -> bool:
        """True when the artifact's reach section is non-empty (header count)."""
        sections = self._sections()
        if sections is None:
            return super().has_reach()
        return sections.n_reach_nodes > 0

    def seeds_through(self, node_id: int) -> tuple[int, ...] | set[int]:
        """Seeds whose BFS scanned ``node_id`` (reach section slice)."""
        sections = self._sections()
        if sections is None:
            return super().seeds_through(node_id)
        nodes = sections.reach_nodes
        slot = bisect_left(nodes, node_id, 0, sections.n_reach_nodes)
        if slot >= sections.n_reach_nodes or nodes[slot] != node_id:
            return ()
        lo = sections.reach_offsets[slot]
        hi = sections.reach_offsets[slot + 1]
        if not 0 <= lo <= hi <= sections.n_reach_pairs:
            raise ValueError(f"{sections.source_path}: corrupt reach offsets")
        return tuple(sections.reach_seeds[lo:hi])

    def reach_items(self):
        """Iterate ``(node_id, seed_ids)`` reach pairs off the mmap."""
        sections = self._sections()
        if sections is None:
            yield from super().reach_items()
            return
        for slot in range(sections.n_reach_nodes):
            node_id = sections.reach_nodes[slot]
            lo = sections.reach_offsets[slot]
            hi = sections.reach_offsets[slot + 1]
            if not 0 <= lo <= hi <= sections.n_reach_pairs:
                raise ValueError(f"{sections.source_path}: corrupt reach offsets")
            yield node_id, frozenset(sections.reach_seeds[lo:hi])

    # -- Overridden lookups ------------------------------------------------

    def objects(self, subject: str, path: PredicatePath) -> frozenset[str]:
        """``V(e, p+)`` — two binary searches + one offset slice, decoded."""
        if self._sections() is None:
            return super().objects(subject, path)
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
            check = self._check_term_id
            cached = frozenset(
                self.dictionary.decode_many(check(o) for o in object_ids)
            )
            self._objects_cache[key] = cached
        return cached

    def paths_between(self, subject: str, obj: str) -> frozenset[PredicatePath]:
        """Paths joining ``subject`` to ``obj`` via the (s, o) pair index."""
        sections = self._sections()
        if sections is None:
            return super().paths_between(subject, obj)
        lookup = self.dictionary.lookup
        s = lookup(subject)
        o = lookup(obj)
        if s is None or o is None:
            return _EMPTY_FROZEN
        key = (s, o)
        cached = self._pairs_cache.get(key)
        if cached is None:
            slot = self._pair_slot(s, o)
            if slot is None:
                return _EMPTY_FROZEN
            lo = sections.pair_offsets[slot]
            hi = sections.pair_offsets[slot + 1]
            if not 0 <= lo <= hi <= sections.n_triples:
                raise ValueError(f"{sections.source_path}: corrupt pair offsets")
            cached = frozenset(
                self._decode_path(p) for p in sections.pair_path_ids[lo:hi]
            )
            self._pairs_cache[key] = cached
        return cached

    # -- Overridden inventory ----------------------------------------------

    def __len__(self) -> int:
        sections = self._sections()
        if sections is None:
            return super().__len__()
        return sections.n_triples

    def distinct_paths(self) -> set[PredicatePath]:
        """Every path in the sorted path-key section, decoded."""
        sections = self._sections()
        if sections is None:
            return super().distinct_paths()
        return {self._decode_path(p) for p in range(sections.n_paths)}

    def triples_ids(self):
        """Iterate id-level ``(s, path_key, o)`` rows without decoding."""
        sections = self._sections()
        if sections is None:
            yield from super().triples_ids()
            return
        for slot in range(sections.n_subjects):
            s_id = sections.subject_ids[slot]
            lo = sections.group_offsets[slot]
            hi = sections.group_offsets[slot + 1]
            if not 0 <= lo <= hi <= sections.n_groups:
                raise ValueError(f"{sections.source_path}: corrupt group offsets")
            for group in range(lo, hi):
                file_pid = sections.group_path_ids[group]
                for o_id in self._object_slice(group):
                    yield s_id, file_pid, o_id

    def triples(self):
        """Iterate decoded ``(subject, path, object)`` triples."""
        if self._sections() is None:
            yield from super().triples()
            return
        decode = self.dictionary.decode
        check = self._check_term_id
        for s_id, file_pid, o_id in self.triples_ids():
            yield decode(check(s_id)), self._decode_path(file_pid), decode(check(o_id))

    def stats(self) -> dict[str, int]:
        """Inventory counts read from the header — no section walk."""
        sections = self._sections()
        if sections is None:
            return super().stats()
        n_direct = self._direct_paths
        if n_direct is None:
            offsets = sections.path_offsets
            n_direct = sum(
                1
                for index in range(sections.n_paths)
                if offsets[index + 1] - offsets[index] == 1
            )
            self._direct_paths = n_direct
        return {
            "spo_triples": sections.n_triples,
            "subjects": sections.n_subjects,
            "paths": sections.n_paths,
            "direct_paths": n_direct,
            "expanded_paths": sections.n_paths - n_direct,
        }

    # -- Integrity sweep ---------------------------------------------------

    def verify(self) -> None:
        """Full artifact integrity sweep; raises :class:`ValueError`.

        Checks everything the O(1) load deliberately trusts: offset-table
        monotonicity and bounds, strict sort order of every binary-search
        index (term permutation, path keys, subject / pair / reach arrays,
        per-group object sets), id ranges, that every term is valid utf-8,
        and that the pair index is consistent with the triple sections.  Cost is one pass over the
        mapped arrays (no Python-object materialization); ``kbqa expand
        --load`` runs this on every artifact, the serve path does not.
        No-op once materialized (there is no file left to check); raises
        once closed.
        """
        sections = self._sections()
        if sections is None:
            return
        src = sections.source_path
        n_terms = sections.n_terms

        def check_sorted_ids(ids: memoryview, lo: int, hi: int, what: str) -> None:
            previous = -1
            for slot in range(lo, hi):
                value = ids[slot]
                if value >= n_terms:
                    raise ValueError(f"{src}: term id {value} out of range ({what})")
                if value <= previous:
                    raise ValueError(f"{src}: unsorted {what} index")
                previous = value

        def check_offsets(offsets: memoryview, total: int, what: str) -> None:
            if offsets[0] != 0 or offsets[len(offsets) - 1] != total:
                raise ValueError(f"{src}: corrupt {what} offsets")
            for index in range(len(offsets) - 1):
                if offsets[index] > offsets[index + 1]:
                    raise ValueError(f"{src}: corrupt {what} offsets")

        # dictionary: offsets monotonic, permutation strictly byte-ordered,
        # every term decodable
        check_offsets(sections.term_offsets, len(sections.terms_blob), "dictionary")
        previous_bytes = None
        for slot in range(n_terms):
            current = sections.term_bytes(sections.term_sort[slot]).tobytes()
            current.decode("utf-8")  # UnicodeDecodeError is a ValueError
            if previous_bytes is not None and current <= previous_bytes:
                raise ValueError(f"{src}: unsorted term permutation index")
            previous_bytes = current
        check_sorted_ids(sections.seed_ids, 0, len(sections.seed_ids), "seed")
        # paths: offsets monotonic, ids in range, keys strictly tuple-sorted
        check_offsets(sections.path_offsets, sections.n_path_ids, "path")
        for value in sections.path_ids:
            if value >= n_terms:
                raise ValueError(f"{src}: term id {value} out of range (path)")
        previous_key: tuple[int, ...] | None = None
        for index in range(sections.n_paths):
            key = tuple(self._path_key_slice(index))
            if previous_key is not None and key <= previous_key:
                raise ValueError(f"{src}: unsorted path-key index")
            previous_key = key
        # triples: subjects sorted, offsets chain, groups/objects sorted
        check_sorted_ids(sections.subject_ids, 0, sections.n_subjects, "subject")
        check_offsets(sections.group_offsets, sections.n_groups, "group")
        check_offsets(sections.object_offsets, sections.n_triples, "object")
        for slot in range(sections.n_subjects):
            previous = -1
            for group in range(
                sections.group_offsets[slot], sections.group_offsets[slot + 1]
            ):
                pid = sections.group_path_ids[group]
                if pid >= sections.n_paths:
                    raise ValueError(f"{src}: path id {pid} out of range (group)")
                if pid <= previous:
                    raise ValueError(f"{src}: unsorted group path-id index")
                previous = pid
                check_sorted_ids(
                    sections.object_ids,
                    sections.object_offsets[group],
                    sections.object_offsets[group + 1],
                    "object",
                )
        # pair index: strictly (s, o)-sorted, per-pair paths sorted, and
        # globally consistent with the triple sections (same triple set)
        check_offsets(sections.pair_offsets, sections.n_triples, "pair")
        previous_pair: tuple[int, int] | None = None
        pair_triples = 0
        for slot in range(sections.n_pairs):
            s_id = sections.pair_subjects[slot]
            o_id = sections.pair_objects[slot]
            if s_id >= n_terms or o_id >= n_terms:
                raise ValueError(f"{src}: term id out of range (pair)")
            pair = (s_id, o_id)
            if previous_pair is not None and pair <= previous_pair:
                raise ValueError(f"{src}: unsorted pair index")
            previous_pair = pair
            previous = -1
            for entry in range(
                sections.pair_offsets[slot], sections.pair_offsets[slot + 1]
            ):
                pid = sections.pair_path_ids[entry]
                if pid >= sections.n_paths:
                    raise ValueError(f"{src}: path id {pid} out of range (pair)")
                if pid <= previous:
                    raise ValueError(f"{src}: unsorted pair path-id index")
                previous = pid
                slot_subject = self._subject_slot(s_id)
                group = (
                    None if slot_subject is None else self._group_slot(slot_subject, pid)
                )
                if group is None or o_id not in set(self._object_slice(group)):
                    raise ValueError(
                        f"{src}: pair index references a missing triple "
                        f"({s_id}, path {pid}, {o_id})"
                    )
                pair_triples += 1
        if pair_triples != sections.n_triples:
            raise ValueError(
                f"{src}: pair index covers {pair_triples} triples, "
                f"header declares {sections.n_triples}"
            )
        # reach: nodes sorted, offsets chain, per-node seeds sorted
        check_sorted_ids(sections.reach_nodes, 0, sections.n_reach_nodes, "reach-node")
        check_offsets(sections.reach_offsets, sections.n_reach_pairs, "reach")
        for slot in range(sections.n_reach_nodes):
            check_sorted_ids(
                sections.reach_seeds,
                sections.reach_offsets[slot],
                sections.reach_offsets[slot + 1],
                "reach-seed",
            )


def load_v3(path: str | Path) -> ExpandedStoreV3:
    """Map a v3 artifact — O(1) in KB size, no dict materialization.

    Raises :class:`ValueError` on a bad magic (naming the retired v1/v2
    formats when it sees one), an unsupported version, or a file whose size
    disagrees with the header (truncation / trailing bytes).
    Deeper integrity (sort order of the index sections, offset chains, id
    ranges) is enforced by bounds checks on every lookup and by the explicit
    :meth:`ExpandedStoreV3.verify` sweep.
    """
    return ExpandedStoreV3(_V3Sections(path))


def is_v3_file(path: str | Path) -> bool:
    """True when ``path`` starts with the v3 magic."""
    try:
        with open(path, "rb") as handle:
            return handle.read(len(EXPANSION_V3_MAGIC)) == EXPANSION_V3_MAGIC
    except OSError:
        return False
