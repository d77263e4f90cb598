"""The KB contract: one class, :class:`KBBackend`.

The paper's systems story (Sec 6.2, Table 14) assumes the billion-scale KB
is queried through a uniform interface (Trinity.RDF).  At library scale the
same shape is :class:`KBBackend`: everything above the KB layer — predicate
expansion, :class:`~repro.core.kbview.KBView`, the online answerer, the CLI
and the benchmark harness — depends on this class, never on a concrete
store.  It is written in two parts:

* **storage primitives** — what each store defines over its own indexes:
  ``add``/``delete``, ``__len__``, ``stats`` and the id-level reads
  (``has_subject_id``, ``objects_ids``, ``predicates_between_ids``,
  ``triples_ids``, the grouped ``spo_items_ids`` scan);
* **derived reads** — the string boundary (``objects`` for ``V(e, p)``,
  Eq 6; ``predicates_between`` for the EM pruning, Eq 24; ``has``,
  ``has_subject``, ``triples``) and ``add_triple``/``add_all``, written
  once here over ``self.dictionary`` and the primitives, so the two stores
  cannot answer a string read differently.

Two stores ship in-tree:

* :class:`~repro.kb.store.TripleStore` — the in-memory store;
* :class:`~repro.kb.disk.DiskTripleStore` — one SQLite file; a named file
  (the mega world's ``kb.db``) is reopened, not rebuilt, by a later process.

:func:`resolve_backend_kind` is the one place that choice is made — explicit
argument over the ``KBQA_BACKEND`` environment variable over ``memory`` —
so the CLI (through the variable), the suite builder and the tests all
agree on what a backend name means.

Backends are *live*: ``add``/``delete`` mutate the indexes in place and hand
every subscribed listener a burst of :class:`KBChange` values, which is how
a trained system drops its answer caches and stops reading the expansion
(`repro.core.system.KBQA`) instead of retraining.  A write on its own is a burst of one;
:meth:`KBBackend.batch` defers notifications so a bulk load reaches each
listener as one burst instead of one call per triple.
"""

from __future__ import annotations

import os
from abc import ABC, abstractmethod
from contextlib import contextmanager
from dataclasses import dataclass
from typing import AbstractSet, Callable, Iterable, Iterator

from repro.kb.dictionary import Dictionary
from repro.kb.triple import Triple, is_literal

ADD = "add"
DELETE = "delete"


@dataclass(frozen=True, slots=True)
class KBChange:
    """One applied mutation, in dictionary-id space.

    ``action`` is :data:`ADD` or :data:`DELETE`.  Listeners receive a change
    only after the indexes already reflect it, so they may re-query the
    backend synchronously.
    """

    action: str
    subject_id: int
    predicate_id: int
    object_id: int


Listener = Callable[[tuple[KBChange, ...]], None]


class KBBackend(ABC):
    """A live, dictionary-encoded triple store.

    It holds the lookups KBQA makes and nothing else: ``objects`` for
    ``V(e, p)`` (Eq 6), ``predicates_between`` for the EM pruning (Eq 24),
    and the grouped ``spo_items_ids`` scan for the Sec 6.2 expansion.  There
    is no reverse ``(p, o) -> s`` lookup.  A store defines the abstract
    storage primitives; the string reads, the change listeners and the
    resource count are written once here.  ``_init_backend_state`` must run
    in the store's ``__init__`` after ``self.dictionary`` exists.
    """

    dictionary: Dictionary

    def _init_backend_state(self) -> None:
        """Initialize listener, batching and resource-count state."""
        self._listeners: list[Listener] = []
        self._batch_depth = 0
        self._deferred: list[KBChange] = []
        # Resource count, kept current by scanning only the dictionary tail
        # added since the last reconcile — dictionary ids are dense and
        # append-only, so this is O(1) amortized per add and correct even
        # when terms are interned through a shared dictionary (e.g. by an
        # ExpandedStore) rather than through ``add``.
        self._n_resources = 0
        self._n_terms_counted = 0

    # -- Storage primitives (each store defines these) ---------------------

    @abstractmethod
    def add(self, subject: str, predicate: str, obj: str) -> bool:
        """Insert a triple; True if new.  Notifies listeners on success."""

    @abstractmethod
    def delete(self, subject: str, predicate: str, obj: str) -> bool:
        """Remove a triple; True if present.  Notifies listeners on success."""

    @abstractmethod
    def __len__(self) -> int:
        """Number of triples."""

    @abstractmethod
    def stats(self) -> dict[str, int]:
        """Store-level counts (triples/terms/resources/predicates/subjects)."""

    @abstractmethod
    def has_subject_id(self, subject_id: int) -> bool:
        """True when ``subject_id`` occurs in subject position."""

    @abstractmethod
    def objects_ids(self, subject_id: int, predicate_id: int) -> AbstractSet[int]:
        """``V(e, p)`` as object ids (a read-only view)."""

    @abstractmethod
    def predicates_between_ids(self, subject_id: int, object_id: int) -> AbstractSet[int]:
        """Direct predicate ids between two term ids (a read-only view)."""

    @abstractmethod
    def triples_ids(self) -> Iterator[tuple[int, int, int]]:
        """Scan all triples as ``(s_id, p_id, o_id)``, in no specified order."""

    @abstractmethod
    def spo_items_ids(self) -> Iterator[tuple[int, dict[int, set[int]]]]:
        """Grouped id-keyed scan: ``(s_id, {p_id: {o_id}})`` per subject."""

    # -- Derived reads and writes (written once, over the primitives) ------

    def add_triple(self, triple: Triple) -> bool:
        """Insert one :class:`~repro.kb.triple.Triple`; True if new."""
        return self.add(triple.subject, triple.predicate, triple.object)

    def add_all(self, triples: Iterable[Triple]) -> int:
        """Insert many triples; returns how many were new."""
        return sum(1 for t in triples if self.add_triple(t))

    def objects(self, subject: str, predicate: str) -> set[str]:
        """``V(e, p)`` — all objects for a (subject, predicate) pair."""
        lookup = self.dictionary.lookup
        s = lookup(subject)
        p = lookup(predicate)
        if s is None or p is None:
            return set()
        decode = self.dictionary.decode
        return {decode(o) for o in self.objects_ids(s, p)}

    def predicates_between(self, subject: str, obj: str) -> set[str]:
        """All direct predicates p with (subject, p, obj) in the store."""
        lookup = self.dictionary.lookup
        s = lookup(subject)
        o = lookup(obj)
        if s is None or o is None:
            return set()
        decode = self.dictionary.decode
        return {decode(p) for p in self.predicates_between_ids(s, o)}

    def has(self, subject: str, predicate: str, obj: str) -> bool:
        """Point membership test for one triple."""
        lookup = self.dictionary.lookup
        s = lookup(subject)
        p = lookup(predicate)
        o = lookup(obj)
        if s is None or p is None or o is None:
            return False
        return o in self.objects_ids(s, p)

    def __contains__(self, triple: Triple) -> bool:
        return self.has(triple.subject, triple.predicate, triple.object)

    def has_subject(self, subject: str) -> bool:
        """True when ``subject`` occurs in subject position."""
        s = self.dictionary.lookup(subject)
        return s is not None and self.has_subject_id(s)

    def triples(self) -> Iterator[Triple]:
        """Scan all triples, decoded; the order is unspecified."""
        decode = self.dictionary.decode
        for s, p, o in self.triples_ids():
            yield Triple(decode(s), decode(p), decode(o))

    # -- Change listeners --------------------------------------------------

    def subscribe(self, listener: Listener) -> Callable[[], None]:
        """Register a change listener; returns an unsubscribe callable.

        A listener takes a burst: a tuple of changes in mutation order,
        delivered synchronously with the indexes already reflecting all of
        them.  A write outside :meth:`batch` is a burst of one; a
        :meth:`batch` block delivers its whole run in one call at exit.
        Unsubscribing twice is harmless.
        """
        self._listeners.append(listener)
        subscribed = [listener]

        def unsubscribe() -> None:
            # Popping forgets the listener too: it holds the subscriber, and
            # a subscriber that keeps this callable would stay in a
            # reference cycle with it after detaching.
            if subscribed:
                self._listeners.remove(subscribed.pop())

        return unsubscribe

    def _notify(self, change: KBChange) -> None:
        if self._batch_depth:
            self._deferred.append(change)
        else:
            self._deliver((change,))

    def _deliver(self, changes: tuple[KBChange, ...]) -> None:
        for listener in list(self._listeners):
            listener(changes)

    @contextmanager
    def batch(self):
        """Defer change notifications until the block exits.

        ``with backend.batch(): ...`` turns a burst of ``add``/``delete``
        calls (e.g. a bulk load) into one flush: the indexes mutate
        immediately — reads inside the block see every applied change — but
        listeners hear nothing until exit, when each gets the entire run of
        changes in a single call, so a bulk load drops a trained system's
        caches once instead of once per change.  Blocks nest; only the
        outermost exit flushes.
        """
        self._batch_depth += 1
        try:
            yield self
        finally:
            self._batch_depth -= 1
            if self._batch_depth == 0 and self._deferred:
                changes = tuple(self._deferred)
                self._deferred.clear()
                self._deliver(changes)

    def _reconcile_resources(self) -> None:
        """Fold dictionary terms added since the last call into the count."""
        n_terms = len(self.dictionary)
        if n_terms == self._n_terms_counted:
            return
        for term in self.dictionary.terms_from(self._n_terms_counted):
            if not is_literal(term):
                self._n_resources += 1
        self._n_terms_counted = n_terms


BACKEND_KINDS = ("memory", "disk")
KBQA_BACKEND_ENV = "KBQA_BACKEND"


def resolve_backend_kind(kind: str | None = None) -> str:
    """The store kind a backend name means.

    Precedence: an explicit ``kind`` wins, else the ``KBQA_BACKEND``
    environment variable (how the CI matrix pins a leg to ``disk`` without
    threading a flag through every entry point), else ``memory``.
    """
    if kind is None:
        kind = os.environ.get(KBQA_BACKEND_ENV) or "memory"
    if kind not in BACKEND_KINDS:
        raise ValueError(
            f"unknown KB backend {kind!r} (expected one of {', '.join(BACKEND_KINDS)})"
        )
    return kind


def resolve_backend(kind: str | None = None, *, path: str | None = None) -> KBBackend:
    """Construct the KB backend every layer above the KB speaks through.

    ``kind`` is resolved by :func:`resolve_backend_kind`.  ``path`` names
    the database file for the ``disk`` backend (``None`` = ephemeral temp
    file); a path on the in-memory backend cannot mean anything and raises
    ``ValueError`` rather than being silently dropped.
    """
    kind = resolve_backend_kind(kind)
    if path is not None and kind != "disk":
        raise ValueError(f"backend {kind!r} does not take a database path")
    if kind == "disk":
        from repro.kb.disk import DiskTripleStore

        return DiskTripleStore(path)
    from repro.kb.store import TripleStore

    return TripleStore()
