"""In-memory dictionary-encoded triple store.

Maintains two index orderings so every lookup the KBQA pipeline performs is
a hash probe:

* ``SPO`` — ``subject -> predicate -> {objects}`` for ``V(e, p)`` (Eq 6) and
  the grouped scan of the Sec 6.2 expansion;
* ``OSP`` — ``object -> subject -> {predicates}`` for
  ``predicates_between(e, v)``, the pruning step of the EM M-step (Eq 24).

KBQA never asks for the subjects of a ``(predicate, object)`` pair, so there
is no ``POS`` ordering.

:class:`TripleStore` defines only the storage primitives of
:class:`~repro.kb.backend.KBBackend` — ``add``/``delete`` with
:class:`~repro.kb.backend.KBChange` notification, ``__len__``, ``stats`` and
the id-level reads, which hand out the dictionary-encoded indexes directly
(callers treat the returned containers as read-only views).  The string
reads (``objects``, ``predicates_between``, ``has``, ``triples``, ...) are
the base class's, derived from those primitives.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterator

from repro.kb.backend import ADD, DELETE, KBBackend, KBChange
from repro.kb.dictionary import Dictionary


class TripleStore(KBBackend):
    """A set of RDF triples with SPO/OSP hash indexes.

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

    def __len__(self) -> int:
        return self._size

    # -- Id-level API (hot paths) ------------------------------------------
    #
    # These methods hand out the dictionary-encoded indexes without decoding
    # a single term.  Returned dicts/sets are the live internal structures:
    # callers must treat them as read-only views.

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
