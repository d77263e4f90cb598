"""The ``ExpandedStore`` artifact: a checksummed load format.

The one on-disk form of the Sec 6.2 expansion, so offline training resumes
without re-running the scan (``KBQA.train(..., expanded=load(path))``).
Nothing is served from the file: :func:`load` reads it whole, checks it and
builds the ordinary dict-backed :class:`~repro.kb.expansion.ExpandedStore`
in bulk.

* :func:`save` writes the canonical content — tail predicates, terms, seeds,
  path keys, grouped triples, reach — as little-endian integer arrays and
  UTF-8 blobs, then a CRC32 of everything before it.  Path keys are sorted
  and renumbered, subjects written in id order, object and reach-seed sets
  sorted, so two stores with equal content over equal term ids serialize
  identically whatever their interning order, and ``load(p).save(q)``
  reproduces ``p`` (``tests/test_expansion_persistence.py``).
* :func:`save` replaces ``path`` atomically (temp file in the same
  directory, then ``os.replace``): a failed write leaves the previous
  artifact intact.
* :func:`load` checks the magic, the version, the exact file size and the
  checksum, then every offset chain (no id group empty), every id range,
  that the id sections marked sorted below strictly increase (within each
  group where grouped; path keys are only required distinct), that every
  string is valid UTF-8 and that terms and path keys are distinct.  Any failure is a :class:`ValueError` naming the
  file.  The checked sections are then the very columns the scan's bulk
  build takes (``ExpandedStore._extend_triples`` and ``_extend_reach``).
  The ``paths_between`` pair index is not stored; it is rebuilt from the
  triples.

Layout (integers little-endian u32 unless noted; no padding)::

    header    magic 8s = b"KBQAXPD4", then u32 fields: version=4,
              max_length, n_tails, n_terms, n_seeds, n_paths, n_path_ids,
              n_subjects, n_groups, n_triples, n_reach_nodes, n_reach_pairs,
              tails_blob_len; u64 terms_blob_len
    tails     offsets x (n_tails+1), utf-8 blob
    terms     offsets u64 x (n_terms+1), utf-8 blob   (dictionary, id order)
    seeds     term ids x n_seeds                      (sorted)
    paths     offsets x (n_paths+1), predicate ids x n_path_ids (keys sorted)
    subjects  subject ids x n_subjects                (sorted)
              group offsets x (n_subjects+1)
              group path ids x n_groups               (sorted per subject)
              object offsets x (n_groups+1)
              object ids x n_triples                  (sorted per group)
    reach     node ids x n_reach_nodes                (sorted)
              reach offsets x (n_reach_nodes+1)
              seed ids x n_reach_pairs                (sorted per node)
    trailer   CRC32 of every byte before it

Three earlier formats are retired — line-JSON v1, struct-packed v2 and the
mmap-served v3, which carried term-sort and pair index sections so lookups
could binary-search the mapping — and :func:`load` names them, so a stale
artifact is regenerated rather than mistaken for garbage.  The module keeps
its ``_v3`` name because the benchmark's ``kb.expanded_v3.*`` rows name it.
"""

from __future__ import annotations

import os
import struct
import zlib
from collections import namedtuple
from itertools import accumulate, compress, filterfalse
from operator import ge, gt
from pathlib import Path

from repro.kb.dictionary import Dictionary
from repro.kb.expansion import Canonical, ExpandedStore, _members

EXPANSION_MAGIC = b"KBQAXPD4"
EXPANSION_VERSION = 4

# leading bytes of the retired formats; recognised only to say so
_RETIRED_MAGICS = ((b"KBQA-EXPANDED ", "v1"), (b"KBQAXPD2", "v2"), (b"KBQAXPD3", "v3"))

_HEADER = struct.Struct("<8s13IQ")
_Header = namedtuple(
    "_Header",
    "magic version max_length n_tails n_terms n_seeds n_paths n_path_ids "
    "n_subjects n_groups n_triples n_reach_nodes n_reach_pairs "
    "tails_blob_len terms_blob_len",
)
_TRAILER = struct.Struct("<I")


def _pack(values, code: str = "I") -> bytes:
    values = list(values)
    return struct.pack(f"<{len(values)}{code}", *values)


def _offsets(items) -> list[int]:
    """0, len(i0), len(i0)+len(i1), ... — every section's offset table."""
    return [0, *accumulate(map(len, items))]


def save(store: ExpandedStore, path: str | Path) -> None:
    """Serialize ``store`` canonically and replace ``path`` atomically."""
    sorted_keys = sorted(store._path_keys)
    file_path_id = {key: i for i, key in enumerate(sorted_keys)}
    remap = [file_path_id[key] for key in store._path_keys]
    tails = [tail.encode("utf-8") for tail in sorted(store.tail_predicates)]
    terms = [term.encode("utf-8") for term in store.dictionary.terms()]
    seeds = sorted(store.seed_ids)
    # flat int lists, not per-group containers: a save inside a trained
    # process then triggers no garbage-collection passes over its heap
    subjects = sorted(store._by_subject)
    group_offsets, group_paths, object_offsets, objects = [0], [], [0], []
    for s_id in subjects:
        by_path = store._by_subject[s_id]
        for p_id in sorted(by_path, key=remap.__getitem__):
            group_paths.append(remap[p_id])
            objects.extend(_members(by_path[p_id]))
            object_offsets.append(len(objects))
        group_offsets.append(len(group_paths))
    reach_nodes = sorted(store._reached_from)
    reach_offsets, reach_seeds = [0], []
    for node_id in reach_nodes:
        reach_seeds.extend(store.seeds_through(node_id))
        reach_offsets.append(len(reach_seeds))
    body = b"".join(
        (
            _HEADER.pack(
                EXPANSION_MAGIC,
                EXPANSION_VERSION,
                store.max_length,
                len(tails),
                len(terms),
                len(seeds),
                len(sorted_keys),
                sum(map(len, sorted_keys)),
                len(subjects),
                len(group_paths),
                len(objects),
                len(reach_nodes),
                len(reach_seeds),
                sum(map(len, tails)),
                sum(map(len, terms)),
            ),
            _pack(_offsets(tails)),
            *tails,
            _pack(_offsets(terms), "Q"),
            *terms,
            _pack(seeds),
            _pack(_offsets(sorted_keys)),
            _pack(p for key in sorted_keys for p in key),
            _pack(subjects),
            _pack(group_offsets),
            _pack(group_paths),
            _pack(object_offsets),
            _pack(objects),
            _pack(reach_nodes),
            _pack(reach_offsets),
            _pack(reach_seeds),
        )
    )
    target = Path(path)
    scratch = target.with_name(f"{target.name}.tmp{os.getpid()}")
    try:
        with open(scratch, "wb") as handle:
            handle.write(body)
            handle.write(_TRAILER.pack(zlib.crc32(body)))
        os.replace(scratch, target)
    except BaseException:
        scratch.unlink(missing_ok=True)
        raise


class _Reader:
    """Sequential, checking reader over the sections of a sealed artifact."""

    def __init__(self, data: bytes, path: str | Path) -> None:
        self.data = memoryview(data)
        self.path = path
        self.offset = _HEADER.size

    def ints(self, count: int, code: str = "I") -> tuple[int, ...]:
        values = struct.unpack_from(f"<{count}{code}", self.data, self.offset)
        self.offset += count * (8 if code == "Q" else 4)
        return values

    def offsets(self, count: int, total: int, what: str, code: str = "I", *, groups: bool = False):
        """``count + 1`` prefix sums running from 0 to ``total``, never down
        (for ``groups``, always up: an id group is never empty)."""
        values = self.ints(count + 1, code)
        down = ge if groups else gt
        if values[0] != 0 or values[-1] != total or any(map(down, values, values[1:])):
            raise ValueError(f"{self.path}: corrupt {what} offsets")
        return values

    def ids(self, count: int, bound: int, what: str, canon: Canonical) -> tuple[int, ...]:
        """An id section, each id one of ``canon``'s objects."""
        values = tuple(map(canon.__getitem__, self.ints(count)))
        if values and max(values) >= bound:
            raise ValueError(f"{self.path}: {what} id {max(values)} out of range")
        return values

    def increasing(self, values: tuple[int, ...], what: str, offsets=None) -> None:
        """``values`` strictly increase throughout, or within each group of
        ``offsets``: the bulk build takes each section as a sorted set."""
        # positions whose id does not exceed its predecessor's; with groups,
        # only a group's first id may
        drops = compress(range(1, len(values)), map(ge, values, values[1:]))
        if offsets is not None:
            drops = filterfalse(frozenset(offsets).__contains__, drops)
        position = next(drops, None)
        if position is not None:
            raise ValueError(
                f"{self.path}: {what} ids repeat or go out of order (index {position})"
            )

    def strings(self, count: int, blob_len: int, what: str, code: str) -> list[str]:
        offsets = self.offsets(count, blob_len, what, code)
        blob = self.data[self.offset : self.offset + blob_len]
        self.offset += blob_len
        try:
            return [str(blob[lo:hi], "utf-8") for lo, hi in zip(offsets, offsets[1:])]
        except UnicodeDecodeError as error:
            raise ValueError(f"{self.path}: a {what} is not valid UTF-8 ({error})") from None


def _check_frame(data: bytes, path: str | Path) -> _Header:
    """Magic, version, exact size and checksum; returns the header."""
    if not data:
        raise ValueError(f"{path}: truncated expansion file (empty)")
    if not EXPANSION_MAGIC.startswith(data[: len(EXPANSION_MAGIC)]):
        for retired_magic, retired in _RETIRED_MAGICS:
            if data.startswith(retired_magic):
                raise ValueError(
                    f"{path}: expansion format {retired} is retired; regenerate "
                    f"the artifact with `kbqa expand --save`"
                )
        raise ValueError(f"{path}: not a {EXPANSION_MAGIC!r} file")
    if len(data) < _HEADER.size:
        raise ValueError(f"{path}: truncated expansion file (no header)")
    h = _Header._make(_HEADER.unpack_from(data))
    if h.version != EXPANSION_VERSION:
        raise ValueError(
            f"{path}: unsupported format version {h.version} "
            f"(supported: {EXPANSION_VERSION})"
        )
    size = (
        _HEADER.size
        + h.tails_blob_len + h.terms_blob_len + 8 * (h.n_terms + 1)
        + 4 * (h.n_tails + 1 + h.n_seeds + h.n_paths + 1 + h.n_path_ids)
        + 4 * (2 * h.n_subjects + 1 + 2 * h.n_groups + 1 + h.n_triples)
        + 4 * (2 * h.n_reach_nodes + 1 + h.n_reach_pairs)
        + _TRAILER.size
    )
    if len(data) < size:
        raise ValueError(
            f"{path}: truncated expansion file (need {size} bytes, have {len(data)})"
        )
    if len(data) > size:
        raise ValueError(
            f"{path}: trailing bytes after the declared sections ({len(data) - size})"
        )
    (checksum,) = _TRAILER.unpack_from(data, size - _TRAILER.size)
    if zlib.crc32(memoryview(data)[: -_TRAILER.size]) != checksum:
        raise ValueError(
            f"{path}: checksum mismatch, the file is corrupt; regenerate it "
            f"with `kbqa expand --save`"
        )
    return h


def load(path: str | Path) -> ExpandedStore:
    """Read, check and build the dict-backed store of an artifact.

    Raises :class:`ValueError` on a retired or unknown format, an
    unsupported version, a wrong size, a checksum mismatch, or content the
    checksum sealed but the layout forbids (a broken offset chain, an empty
    group, an id out of range or out of order, invalid UTF-8, a repeated
    term or path key).  The store is filled by the bulk pass the Sec 6.2
    scan ends with (``ExpandedStore._extend_triples``, then
    ``_extend_reach``), which takes every id section
    as a sorted set: a sealed file that repeats a subject, path, object,
    reach node or reach seed is rejected here rather than merged.
    """
    data = Path(path).read_bytes()
    h = _check_frame(data, path)
    read = _Reader(data, path)
    tails = read.strings(h.n_tails, h.tails_blob_len, "tail predicate", "I")
    terms = read.strings(h.n_terms, h.terms_blob_len, "term", "Q")
    # one int object per distinct id, for the store to keep
    canon = Canonical()
    seeds = read.ids(h.n_seeds, h.n_terms, "seed", canon)
    path_offsets = read.offsets(h.n_paths, h.n_path_ids, "path")
    path_ids = read.ids(h.n_path_ids, h.n_terms, "predicate", canon)
    subjects = read.ids(h.n_subjects, h.n_terms, "subject", canon)
    group_offsets = read.offsets(h.n_subjects, h.n_groups, "group", groups=True)
    group_paths = read.ids(h.n_groups, h.n_paths, "path", canon)
    object_offsets = read.offsets(h.n_groups, h.n_triples, "object", groups=True)
    objects = read.ids(h.n_triples, h.n_terms, "object", canon)
    reach_nodes = read.ids(h.n_reach_nodes, h.n_terms, "reach node", canon)
    reach_offsets = read.offsets(h.n_reach_nodes, h.n_reach_pairs, "reach", groups=True)
    reach_seeds = read.ids(h.n_reach_pairs, h.n_terms, "reach seed", canon)
    del canon
    read.increasing(seeds, "seed")
    read.increasing(subjects, "subject")
    read.increasing(group_paths, "path", group_offsets)
    read.increasing(objects, "object", object_offsets)
    read.increasing(reach_nodes, "reach node")
    read.increasing(reach_seeds, "reach seed", reach_offsets)

    try:
        dictionary = Dictionary.from_terms(terms)
    except ValueError as error:
        raise ValueError(f"{path}: {error}") from None
    store = ExpandedStore(h.max_length, dictionary, frozenset(tails))
    store.seed_ids.update(seeds)
    keys = [path_ids[lo:hi] for lo, hi in zip(path_offsets, path_offsets[1:])]
    store._path_keys = keys
    store._path_key_to_id = {key: path_id for path_id, key in enumerate(keys)}
    if len(store._path_key_to_id) != h.n_paths:
        raise ValueError(f"{path}: duplicate path key")

    # the sections are read: the build holds neither the file's bytes nor
    # the triple columns beside the reach it fills
    del data, read
    store._extend_triples(subjects, group_offsets, group_paths, object_offsets, objects)
    del subjects, group_offsets, group_paths, object_offsets, objects
    store._extend_reach(reach_nodes, reach_offsets, reach_seeds)
    return store
