"""``ExpandedStore`` binary artifact format v2: struct-packed, mmap-read.

The v1 artifact (``repro.kb.expansion``) is line-oriented JSON — simple and
diffable, but reloading it costs one ``json.loads`` per line and an
intermediate Python object per row, which is exactly the reload time the
ROADMAP flags at KB scale.  v2 stores the same canonical content as flat
little-endian id arrays behind a fixed struct header:

* the **writer** emits paths/subjects/objects/reach in the identical
  canonical order as the v1 writer (sorted path keys remapped to file-local
  ids, subjects in id order, object/seed sets sorted), so v2 bytes are
  deterministic and a ``v1 -> load -> v2 -> load -> v1`` round trip is
  byte-identical at both ends (``tests/test_expansion_persistence.py``);
* the **reader** maps the file (``mmap``) and walks the id arrays through
  ``memoryview.cast`` — ids are consumed straight out of the page cache
  with no line splitting, no JSON, and no per-row temporaries, so a
  server replica (or ``kbqa expand --load``) can open an artifact zero-copy;
* every id is **bounds-checked against the header counts before use**, and
  the file size itself is validated against the header, so a truncated,
  version-bumped or corrupted artifact fails with the documented
  :class:`ValueError` instead of garbage decodes.

Layout (all integers little-endian; u32 unless noted)::

    header   magic 8s = b"KBQAXPD2", then u32 fields: version=2,
             max_length, n_tails, n_terms, n_seeds, n_paths, n_path_ids,
             n_subjects, n_groups, n_triples, n_reach_nodes, n_reach_pairs,
             tails_blob_len, pad; u64 terms_blob_len
    tails    offsets u32 x (n_tails+1), utf-8 blob (padded to 4)
    terms    offsets u64 x (n_terms+1), utf-8 blob (padded to 4)
    seeds    u32 x n_seeds                      (sorted)
    paths    offsets u32 x (n_paths+1), flat predicate ids u32 x n_path_ids
             (canonical sorted-key order; offsets index the flat array)
    triples  subject ids u32 x n_subjects       (sorted)
             group counts u32 x n_subjects
             group path ids u32 x n_groups      (file-local, sorted per subject)
             group object counts u32 x n_groups
             object ids u32 x n_triples         (sorted per group)
    reach    node ids u32 x n_reach_nodes       (sorted)
             seed counts u32 x n_reach_nodes
             seed ids u32 x n_reach_pairs       (sorted per node)

The format is self-contained (it carries the dictionary), exactly like v1;
:meth:`repro.kb.expansion.ExpandedStore.load` sniffs the magic and routes
here automatically.

v2 reloads zero-copy but still *materializes* the dict indexes before the
first lookup; `repro.kb.expanded_v3` builds the index structure into the
file itself (prefix-sum offset tables + binary-searchable id permutations,
reusing this module's cursor/packing helpers) so a v3 reload is O(1) and
lookups run straight off the mapping.
"""

from __future__ import annotations

import mmap
import struct
from array import array
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.kb.expansion import ExpandedStore

EXPANSION_V2_MAGIC = b"KBQAXPD2"
EXPANSION_V2_VERSION = 2

_HEADER = struct.Struct("<8s14IQ")


def _pad4(n: int) -> int:
    return (-n) % 4


def _u32_array(values) -> bytes:
    packed = array("I", values)
    if packed.itemsize != 4:  # pragma: no cover - exotic platforms
        packed = array("L", values)
    return packed.tobytes()


def _u64_array(values) -> bytes:
    return array("Q", values).tobytes()


def save_v2(store: "ExpandedStore", path: str | Path) -> None:
    """Serialize ``store`` in the v2 binary layout (canonical, deterministic)."""
    # canonical path order: sort interned keys, remap to file-local ids
    sorted_keys = sorted(store._path_keys)
    file_path_id = {key: i for i, key in enumerate(sorted_keys)}
    remap = [file_path_id[key] for key in store._path_keys]

    tails = sorted(store.tail_predicates)
    tails_utf8 = [t.encode("utf-8") for t in tails]
    tails_blob = b"".join(tails_utf8)
    tail_offsets: list[int] = [0]
    for chunk in tails_utf8:
        tail_offsets.append(tail_offsets[-1] + len(chunk))

    terms_utf8 = [term.encode("utf-8") for term in store.dictionary.terms()]
    terms_blob = b"".join(terms_utf8)
    term_offsets: list[int] = [0]
    for chunk in terms_utf8:
        term_offsets.append(term_offsets[-1] + len(chunk))

    seeds = sorted(store.seed_ids)

    path_offsets: list[int] = [0]
    path_ids: list[int] = []
    for key in sorted_keys:
        path_ids.extend(key)
        path_offsets.append(len(path_ids))

    subject_ids: list[int] = []
    group_counts: list[int] = []
    group_path_ids: list[int] = []
    group_obj_counts: list[int] = []
    object_ids: list[int] = []
    for s_id in sorted(store._by_subject):
        groups = sorted(
            (remap[p_id], sorted(objs)) for p_id, objs in store._by_subject[s_id].items()
        )
        subject_ids.append(s_id)
        group_counts.append(len(groups))
        for file_pid, objs in groups:
            group_path_ids.append(file_pid)
            group_obj_counts.append(len(objs))
            object_ids.extend(objs)

    reach_nodes: list[int] = []
    reach_counts: list[int] = []
    reach_seeds: list[int] = []
    for node_id, node_seeds in sorted(store.reach_items()):
        ordered = sorted(node_seeds)
        reach_nodes.append(node_id)
        reach_counts.append(len(ordered))
        reach_seeds.extend(ordered)

    header = _HEADER.pack(
        EXPANSION_V2_MAGIC,
        EXPANSION_V2_VERSION,
        store.max_length,
        len(tails),
        len(term_offsets) - 1,
        len(seeds),
        len(sorted_keys),
        len(path_ids),
        len(subject_ids),
        len(group_path_ids),
        len(object_ids),
        len(reach_nodes),
        len(reach_seeds),
        len(tails_blob),
        0,  # pad / reserved
        len(terms_blob),
    )
    with open(path, "wb") as handle:
        handle.write(header)
        handle.write(_u32_array(tail_offsets))
        handle.write(tails_blob)
        handle.write(b"\x00" * _pad4(len(tails_blob)))
        handle.write(_u64_array(term_offsets))
        handle.write(terms_blob)
        handle.write(b"\x00" * _pad4(len(terms_blob)))
        handle.write(_u32_array(seeds))
        handle.write(_u32_array(path_offsets))
        handle.write(_u32_array(path_ids))
        handle.write(_u32_array(subject_ids))
        handle.write(_u32_array(group_counts))
        handle.write(_u32_array(group_path_ids))
        handle.write(_u32_array(group_obj_counts))
        handle.write(_u32_array(object_ids))
        handle.write(_u32_array(reach_nodes))
        handle.write(_u32_array(reach_counts))
        handle.write(_u32_array(reach_seeds))


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


def load_v2(cls: type, path: str | Path) -> "ExpandedStore":
    """Reload a v2 artifact into a fresh ``cls`` instance (own dictionary).

    Raises :class:`ValueError` on a bad magic, an unsupported version, a
    truncated file, or any id out of the header-declared ranges — checked
    *before* the id is used, mirroring the v1 loader's guarantees.
    """
    with open(path, "rb") as handle:
        try:
            mapped = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
        except ValueError as error:  # an empty file cannot be mapped
            raise ValueError(f"{path}: truncated expansion file (empty)") from error
        view = memoryview(mapped)
        try:
            return _load_from_view(cls, view, path)
        finally:
            view.release()
            try:
                mapped.close()
            except BufferError:
                # a raised parse error's traceback still references the
                # section views; the mapping is reclaimed with it
                pass


def _load_from_view(cls: type, view: memoryview, path: str | Path) -> "ExpandedStore":
    if len(view) < _HEADER.size:
        raise ValueError(f"{path}: truncated expansion file (no v2 header)")
    (
        magic,
        version,
        max_length,
        n_tails,
        n_terms,
        n_seeds,
        n_paths,
        n_path_ids,
        n_subjects,
        n_groups,
        n_triples,
        n_reach_nodes,
        n_reach_pairs,
        tails_blob_len,
        _pad,
        terms_blob_len,
    ) = _HEADER.unpack_from(view, 0)
    if magic != EXPANSION_V2_MAGIC:
        raise ValueError(f"{path}: not a {EXPANSION_V2_MAGIC!r} file")
    if version != EXPANSION_V2_VERSION:
        raise ValueError(
            f"{path}: unsupported format version {version} "
            f"(supported: {EXPANSION_V2_VERSION})"
        )

    cursor = _Cursor(view, path)
    tail_offsets = cursor.u32s(n_tails + 1)
    tails_blob = cursor.blob(tails_blob_len)
    term_offsets = cursor.u64s(n_terms + 1)
    terms_blob = cursor.blob(terms_blob_len)
    seed_ids = cursor.u32s(n_seeds)
    path_offsets = cursor.u32s(n_paths + 1)
    path_ids = cursor.u32s(n_path_ids)
    subject_ids = cursor.u32s(n_subjects)
    group_counts = cursor.u32s(n_subjects)
    group_path_ids = cursor.u32s(n_groups)
    group_obj_counts = cursor.u32s(n_groups)
    object_ids = cursor.u32s(n_triples)
    reach_nodes = cursor.u32s(n_reach_nodes)
    reach_counts = cursor.u32s(n_reach_nodes)
    reach_seeds = cursor.u32s(n_reach_pairs)
    if cursor.offset != len(view):
        raise ValueError(
            f"{path}: trailing bytes after the declared sections "
            f"({len(view) - cursor.offset})"
        )

    tails = _decode_strings(tail_offsets, tails_blob, path, "tail-predicate")
    store = cls(max_length=max_length, tail_predicates=frozenset(tails))

    encode = store.dictionary.encode
    for term in _decode_strings(term_offsets, terms_blob, path, "dictionary"):
        encode(term)
    if len(store.dictionary) != n_terms:
        raise ValueError(f"{path}: dictionary count mismatch")

    def check_term_id(term_id: int) -> int:
        if not 0 <= term_id < n_terms:
            raise ValueError(f"{path}: term id {term_id} out of range")
        return term_id

    store.seed_ids = {check_term_id(s) for s in seed_ids}

    interned: list[tuple[int, ...]] = []
    for index in range(n_paths):
        start, end = path_offsets[index], path_offsets[index + 1]
        if not (0 <= start <= end <= n_path_ids):
            raise ValueError(f"{path}: corrupt path offsets")
        key = tuple(check_term_id(p) for p in path_ids[start:end])
        store.path_id(key)
        interned.append(key)

    record = store.record_encoded
    group_cursor = 0
    object_cursor = 0
    for index in range(n_subjects):
        s_id = check_term_id(subject_ids[index])
        group_end = group_cursor + group_counts[index]
        if group_end > n_groups:
            raise ValueError(f"{path}: group counts exceed the declared total")
        while group_cursor < group_end:
            file_pid = group_path_ids[group_cursor]
            if not 0 <= file_pid < n_paths:
                raise ValueError(f"{path}: path id {file_pid} out of range")
            key = interned[file_pid]
            object_end = object_cursor + group_obj_counts[group_cursor]
            if object_end > n_triples:
                raise ValueError(f"{path}: object counts exceed the declared total")
            while object_cursor < object_end:
                record(s_id, key, check_term_id(object_ids[object_cursor]))
                object_cursor += 1
            group_cursor += 1
    if group_cursor != n_groups or object_cursor != n_triples:
        raise ValueError(
            f"{path}: triple count mismatch "
            f"(header {n_triples}, loaded {object_cursor})"
        )
    if len(store) != n_triples:
        raise ValueError(
            f"{path}: triple count mismatch (header {n_triples}, loaded {len(store)})"
        )

    note_reach = store.note_reach
    pair_cursor = 0
    for index in range(n_reach_nodes):
        node_id = check_term_id(reach_nodes[index])
        pair_end = pair_cursor + reach_counts[index]
        if pair_end > n_reach_pairs:
            raise ValueError(f"{path}: reach counts exceed the declared total")
        while pair_cursor < pair_end:
            note_reach(node_id, check_term_id(reach_seeds[pair_cursor]))
            pair_cursor += 1
    if pair_cursor != n_reach_pairs:
        raise ValueError(f"{path}: reach pair count mismatch")
    return store


def is_v2_file(path: str | Path) -> bool:
    """True when ``path`` starts with the v2 magic (format sniffing)."""
    try:
        with open(path, "rb") as handle:
            return handle.read(len(EXPANSION_V2_MAGIC)) == EXPANSION_V2_MAGIC
    except OSError:
        return False
