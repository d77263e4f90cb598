"""In-memory dictionary-encoded triple store.

Maintains two index orderings so every lookup the KBQA pipeline performs is
a hash probe:

* ``SPO`` — ``subject -> predicate -> {objects}`` for ``V(e, p)`` (Eq 6) and
  the grouped scan of the Sec 6.2 expansion;
* ``OSP`` — ``object -> subject -> {predicates}`` for
  ``predicates_between(e, v)``, the pruning step of the EM M-step (Eq 24).

KBQA never asks for the subjects of a ``(predicate, object)`` pair, so there
is no ``POS`` ordering.

The public API speaks term strings.  The hot paths (the Sec 6.2 expansion
scan, the benchmark harness) additionally get an *id-level* API —
``objects_ids``, ``predicates_between_ids``, ``triples_ids``,
``spo_items_ids`` — that exposes the
dictionary-encoded indexes directly so per-row string materialization can be
skipped entirely; callers treat the returned containers as read-only views.

:class:`TripleStore` is the in-memory implementation of the
:class:`~repro.kb.backend.KBBackend` protocol: it supports live ``add`` /
``delete`` with :class:`~repro.kb.backend.KBChange` notification.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterable, Iterator

from repro.kb.backend import ADD, DELETE, BackendBase, KBChange
from repro.kb.dictionary import Dictionary
from repro.kb.triple import Triple


class TripleStore(BackendBase):
    """A set of RDF triples with SPO/OSP hash indexes.

    Change-listener and resource-count plumbing comes from
    :class:`~repro.kb.backend.BackendBase` (shared with the disk store).

    >>> kb = TripleStore()
    >>> kb.add("m.obama", "dob", '"1961"')
    True
    >>> sorted(kb.objects("m.obama", "dob"))
    ['"1961"']
    """

    def __init__(self) -> None:
        self.dictionary = Dictionary()
        self._spo: dict[int, dict[int, set[int]]] = defaultdict(dict)
        self._osp: dict[int, dict[int, set[int]]] = defaultdict(dict)
        self._size = 0
        self._init_backend_state()

    # -- Mutation ----------------------------------------------------------

    def add(self, subject: str, predicate: str, obj: str) -> bool:
        """Insert a triple; returns False if it was already present."""
        encode = self.dictionary.encode
        s = encode(subject)
        p = encode(predicate)
        o = encode(obj)
        objects = self._spo[s].setdefault(p, set())
        if o in objects:
            return False
        objects.add(o)
        self._osp[o].setdefault(s, set()).add(p)
        self._size += 1
        if self._listeners:
            self._notify(KBChange(ADD, s, p, o))
        return True

    def add_triple(self, triple: Triple) -> bool:
        return self.add(triple.subject, triple.predicate, triple.object)

    def add_all(self, triples: Iterable[Triple]) -> int:
        """Insert many triples; returns how many were new."""
        return sum(1 for t in triples if self.add_triple(t))

    def delete(self, subject: str, predicate: str, obj: str) -> bool:
        """Remove a triple; returns False if it was not present.

        Empty index sub-maps are pruned so ``has_subject`` and the scan
        methods never see ghost subjects.  Dictionary ids are never reclaimed
        (ids are dense and append-only), so the ``resources`` stat does not
        decrease on delete.
        """
        s = self.dictionary.lookup(subject)
        p = self.dictionary.lookup(predicate)
        o = self.dictionary.lookup(obj)
        if s is None or p is None or o is None:
            return False
        by_predicate = self._spo.get(s)
        objects = by_predicate.get(p) if by_predicate else None
        if not objects or o not in objects:
            return False
        objects.remove(o)
        if not objects:
            del by_predicate[p]
            if not by_predicate:
                del self._spo[s]
        predicates = self._osp[o][s]
        predicates.remove(p)
        if not predicates:
            del self._osp[o][s]
            if not self._osp[o]:
                del self._osp[o]
        self._size -= 1
        if self._listeners:
            self._notify(KBChange(DELETE, s, p, o))
        return True

    # -- Point lookups -------------------------------------------------------

    def __len__(self) -> int:
        return self._size

    def __contains__(self, triple: Triple) -> bool:
        return self.has(triple.subject, triple.predicate, triple.object)

    def has(self, subject: str, predicate: str, obj: str) -> bool:
        """Point membership test for one triple."""
        s = self.dictionary.lookup(subject)
        p = self.dictionary.lookup(predicate)
        o = self.dictionary.lookup(obj)
        if s is None or p is None or o is None:
            return False
        return o in self._spo.get(s, {}).get(p, ())

    def objects(self, subject: str, predicate: str) -> set[str]:
        """``V(e, p)`` — all objects for a (subject, predicate) pair."""
        s = self.dictionary.lookup(subject)
        p = self.dictionary.lookup(predicate)
        if s is None or p is None:
            return set()
        decode = self.dictionary.decode
        return {decode(o) for o in self._spo.get(s, {}).get(p, ())}

    def predicates_between(self, subject: str, obj: str) -> set[str]:
        """All direct predicates p with (subject, p, obj) in the store."""
        s = self.dictionary.lookup(subject)
        o = self.dictionary.lookup(obj)
        if s is None or o is None:
            return set()
        decode = self.dictionary.decode
        return {decode(p) for p in self.predicates_between_ids(s, o)}

    def predicates_of(self, subject: str) -> set[str]:
        """All predicates leaving ``subject``."""
        s = self.dictionary.lookup(subject)
        if s is None:
            return set()
        decode = self.dictionary.decode
        return {decode(p) for p in self._spo.get(s, ())}

    def out_degree(self, subject: str) -> int:
        """Number of triples with ``subject`` as the subject (entity frequency
        in the sense of Sec 6.3)."""
        s = self.dictionary.lookup(subject)
        if s is None:
            return 0
        return sum(len(objs) for objs in self._spo.get(s, {}).values())

    def has_subject(self, subject: str) -> bool:
        s = self.dictionary.lookup(subject)
        return s is not None and s in self._spo

    # -- Id-level API (hot paths) ------------------------------------------
    #
    # These methods hand out the dictionary-encoded indexes without decoding
    # a single term.  Returned dicts/sets are the live internal structures:
    # callers must treat them as read-only views.

    def lookup_id(self, term: str) -> int | None:
        """Dictionary id of ``term`` (None when never interned)."""
        return self.dictionary.lookup(term)

    def decode_id(self, term_id: int) -> str:
        """Term string for a dictionary id."""
        return self.dictionary.decode(term_id)

    def has_subject_id(self, subject_id: int) -> bool:
        """True when ``subject_id`` occurs in subject position."""
        return subject_id in self._spo

    def objects_ids(self, subject_id: int, predicate_id: int) -> set[int] | frozenset[int]:
        """``V(e, p)`` as object ids (read-only view; empty on absence is a
        frozenset so accidental mutation raises instead of corrupting)."""
        return self._spo.get(subject_id, {}).get(predicate_id, _EMPTY_ID_SET)

    def predicates_between_ids(self, subject_id: int, object_id: int) -> set[int] | frozenset[int]:
        """Direct predicate ids p with (subject, p, object) in the store
        (read-only view)."""
        by_subject = self._osp.get(object_id)
        if by_subject is None:
            return _EMPTY_ID_SET
        return by_subject.get(subject_id, _EMPTY_ID_SET)

    def triples_ids(self) -> Iterator[tuple[int, int, int]]:
        """Scan all triples as ``(s_id, p_id, o_id)`` — the id-native
        analogue of :meth:`triples`, with zero string materialization."""
        for s, by_predicate in self._spo.items():
            for p, objects in by_predicate.items():
                for o in objects:
                    yield s, p, o

    def spo_items_ids(self) -> Iterator[tuple[int, dict[int, set[int]]]]:
        """Grouped id-keyed scan: ``(s_id, {p_id: {o_id}})`` per subject.

        This is the shape the Sec 6.2 index+scan+join wants: one frontier
        probe per *subject group* instead of one per triple.
        """
        return iter(self._spo.items())

    # -- Scans ---------------------------------------------------------------

    def triples(self) -> Iterator[Triple]:
        """Scan all triples in subject id order (the disk-scan analogue the
        expansion algorithm of Sec 6.2 relies on)."""
        decode = self.dictionary.decode
        for s, by_predicate in self._spo.items():
            subject = decode(s)
            for p, objects in by_predicate.items():
                predicate = decode(p)
                for o in objects:
                    yield Triple(subject, predicate, decode(o))

    def subjects_iter(self) -> Iterator[str]:
        """All distinct subjects."""
        decode = self.dictionary.decode
        return (decode(s) for s in self._spo)

    # -- Statistics ------------------------------------------------------------

    def stats(self) -> dict[str, int]:
        """Store-level counts used by benchmark headers and DESIGN checks.

        ``resources`` is maintained incrementally (only dictionary terms
        added since the previous call are visited), so this is O(1)
        amortized rather than a full dictionary scan per call.
        """
        self._reconcile_resources()
        return {
            "triples": self._size,
            "terms": len(self.dictionary),
            "resources": self._n_resources,
            "predicates": len({p for by_predicate in self._spo.values() for p in by_predicate}),
            "subjects": len(self._spo),
        }


_EMPTY_ID_SET: frozenset[int] = frozenset()
