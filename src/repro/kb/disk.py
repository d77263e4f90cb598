"""The KB on disk: a :class:`~repro.kb.backend.KBBackend` store over SQLite.

The in-memory backend rebuilds its dict indexes from the source world on
every process start and pays O(KB) private RAM per process.  This backend
keeps the dictionary and the triple set in one SQLite file instead — the
shape of the SNIPPETS.md knowledge-graph exemplar (a terms table plus
covering indexes for sub-millisecond point lookups) — so a compiled KB

* **loads in milliseconds**: opening is one ``sqlite3.connect`` + a schema
  check, independent of triple count;
* **reopens by path**: ``kbqa mega-compile`` writes ``<dir>/kb.db`` once
  and :func:`~repro.eval.scenarios.bind_scenarios` reopens it as the
  ``mega_disk_mixed`` benchmark input without recompiling;
* **is paged, not copied**: reads go through SQLite's page cache instead of
  an O(KB) heap copy of the dictionary and the indexes.

Schema (``user_version`` guards the layout)::

    terms   (id INTEGER PRIMARY KEY, term TEXT UNIQUE)   -- the dictionary;
            ids are dense, insertion-ordered (0..n-1), exactly like the
            in-memory Dictionary, so a disk-compiled KB and a memory-compiled
            KB built by the same add sequence assign identical ids
    triples (s, p, o) PRIMARY KEY (s, p, o) WITHOUT ROWID -- covering index
            for (subject, predicate) prefix probes (V(e, p), Eq 6) and the
            ordered scan of the Sec 6.2 expansion
    idx_triples_osp ON triples (o, s, p)                  -- covering index
            for predicates_between(e, v) (the EM pruning probe, Eq 24)

Every query the store runs uses one of those two.  A file written by an
older layout that also carried a ``(p, o, s)`` index and an alias view opens
unchanged (same ``user_version``); both are left in place and unused.

The store defines only the storage primitives of
:class:`~repro.kb.backend.KBBackend` (the writes, ``__len__``, ``stats`` and
the id-level reads) plus its connection, ingest and close plumbing; the
string reads are the base class's, so they decode exactly as the in-memory
store's do.

Concurrency: WAL journal mode — readers never block the (single) writer and
vice versa; every (process, thread) gets its own lazily opened connection
(SQLite connections are neither fork- nor thread-safe: a forked child never
reuses its parent's), writes serialize on SQLite's write lock with a busy
timeout.  A term's id is minted as ``MAX(id)+1`` under that lock: inside the
insert for a single :meth:`SQLiteDictionary.encode`, and for a bulk load
(:meth:`DiskTripleStore.ingest_triples`) once per batch — the batch's
transaction opens with ``BEGIN IMMEDIATE``, so the ``MAX(id)`` read already
holds the lock that the one ``executemany`` of the batch's new terms needs,
and two writers on one file still mint dense, distinct ids.  The batch finds
its already-interned terms with ``SELECT … WHERE term IN (…)`` padded to a
fixed width of :data:`_LOOKUP_WIDTH` parameters: the ``sqlite3`` module
caches one prepared statement per statement text, so a list as wide as each
remainder would cache (and hold the memory of) one statement per width.
Change notifications (:class:`~repro.kb.backend.KBChange`) fire exactly as
for the in-memory store, for this store's own mutations.

The ``(s, p)`` object-set reads carry a small bounded memo so the serving
hot path does not re-run a query per probe; this store's mutations
invalidate it.  A write made by another process to the same file reaches
uncached reads at once but not this memo, so serve a file from the process
that writes it.
"""

from __future__ import annotations

import itertools
import os
import sqlite3
import tempfile
import threading
import weakref
from typing import Iterable, Iterator

from repro.kb.backend import ADD, DELETE, KBBackend, KBChange
from repro.kb.triple import Triple

_SCHEMA_VERSION = 1
_BUSY_TIMEOUT_S = 30.0
_OBJECTS_MEMO_CAP = 65536
_DICT_MEMO_CAP = 1 << 17
_INGEST_BATCH = 4096
# a bulk load looks terms up this many at a time, padded with NULLs (which
# match no term): one statement text, so one cached prepared statement
_LOOKUP_WIDTH = 256
_LOOKUP_TERMS = (
    "SELECT term, id FROM terms WHERE term IN (" + ", ".join("?" * _LOOKUP_WIDTH) + ")"
)

_SCHEMA = """
CREATE TABLE IF NOT EXISTS terms (
    id   INTEGER PRIMARY KEY,
    term TEXT NOT NULL UNIQUE
);
CREATE TABLE IF NOT EXISTS triples (
    s INTEGER NOT NULL,
    p INTEGER NOT NULL,
    o INTEGER NOT NULL,
    PRIMARY KEY (s, p, o)
) WITHOUT ROWID;
CREATE INDEX IF NOT EXISTS idx_triples_osp ON triples (o, s, p);
"""


def _close_connections(connections: list) -> None:
    for conn in connections:
        try:
            conn.close()
        except Exception:  # pragma: no cover - already closed / foreign thread
            pass
    connections.clear()


def _unlink_db(path: str) -> None:
    for suffix in ("", "-wal", "-shm"):
        try:
            os.unlink(path + suffix)
        except OSError:
            pass


class SQLiteDictionary:
    """``Dictionary`` facade over the store's ``terms`` table.

    Ids are dense and insertion-ordered (``MAX(id)+1`` minted under SQLite's
    write lock, per term or per bulk-load batch), matching the in-memory
    :class:`~repro.kb.dictionary.Dictionary` exactly, so id-level
    equivalence suites hold across backends.  Positive lookups and decodes
    are memoized write-through; *negative* lookups are never cached, because
    a sibling process may intern the term at any time.
    """

    def __init__(self, store: "DiskTripleStore") -> None:
        # a proxy, not a reference: the store owns its dictionary, so refcounting
        # alone frees an unclosed store (and unlinks an ephemeral file)
        self._store = weakref.proxy(store)
        self._term_to_id: dict[str, int] = {}
        self._id_to_term: dict[int, str] = {}

    def __len__(self) -> int:
        row = self._store._connection().execute("SELECT COUNT(*) FROM terms").fetchone()
        return row[0]

    def __contains__(self, term: str) -> bool:
        return self.lookup(term) is not None

    def encode(self, term: str) -> int:
        """Intern ``term``; returns its dense id (existing or freshly minted)."""
        term_id = self.lookup(term)
        if term_id is not None:
            return term_id
        conn = self._store._connection()
        # the id subquery runs inside the insert's write transaction, so
        # concurrent writers cannot mint the same id
        conn.execute(
            "INSERT OR IGNORE INTO terms (id, term) "
            "VALUES ((SELECT COALESCE(MAX(id) + 1, 0) FROM terms), ?)",
            (term,),
        )
        row = conn.execute("SELECT id FROM terms WHERE term = ?", (term,)).fetchone()
        term_id = row[0]
        self._remember(term, term_id)
        return term_id

    def _remember(self, term: str, term_id: int) -> None:
        # bounded write-through memo: a streaming mega-compile interns
        # millions of one-shot terms, so the cache resets instead of growing
        # with the dictionary
        if len(self._term_to_id) >= _DICT_MEMO_CAP:
            self._forget()
        self._term_to_id[term] = term_id
        self._id_to_term[term_id] = term

    def _remember_many(self, learned: dict[str, int]) -> None:
        if len(self._term_to_id) + len(learned) > _DICT_MEMO_CAP:
            self._forget()
            if len(learned) > _DICT_MEMO_CAP:
                return
        self._term_to_id.update(learned)
        self._id_to_term.update(zip(learned.values(), learned))

    def _forget(self) -> None:
        """Drop the memo: after a ``ROLLBACK`` it may name ids that no longer
        exist, which the next ``encode`` would mint again for another term."""
        self._term_to_id.clear()
        self._id_to_term.clear()

    def _intern(self, terms: Iterable[str]) -> dict[str, int]:
        """Ids of the distinct ``terms``, minting the missing ones.

        The batch form of :meth:`encode`: the memo answers what it can, one
        fixed-width ``IN`` lookup per :data:`_LOOKUP_WIDTH` remaining terms
        finds the interned ones, and the rest get ``MAX(id)+1, +2, …`` in
        first-occurrence order — the ids a sequential :meth:`encode` loop
        would mint — through one ``executemany``.  The caller holds the
        write lock (``BEGIN IMMEDIATE``), so no other writer can mint
        between the ``MAX(id)`` read and the insert.
        """
        ids = dict.fromkeys(terms)
        memo = self._term_to_id
        missing = []
        for term in ids:
            term_id = memo.get(term)
            if term_id is None:
                missing.append(term)
            else:
                ids[term] = term_id
        if not missing:
            return ids
        conn = self._store._connection()
        learned: dict[str, int] = {}
        for start in range(0, len(missing), _LOOKUP_WIDTH):
            part = missing[start : start + _LOOKUP_WIDTH]
            part += [None] * (_LOOKUP_WIDTH - len(part))
            learned.update(conn.execute(_LOOKUP_TERMS, part))
        fresh = [term for term in missing if term not in learned]
        if fresh:
            (next_id,) = conn.execute("SELECT COALESCE(MAX(id) + 1, 0) FROM terms").fetchone()
            minted = dict(zip(fresh, range(next_id, next_id + len(fresh))))
            conn.executemany("INSERT INTO terms (term, id) VALUES (?, ?)", minted.items())
            learned.update(minted)
        ids.update(learned)
        self._remember_many(learned)
        return ids

    def lookup(self, term: str) -> int | None:
        """Id of ``term`` if interned, else ``None`` (memoized point query)."""
        term_id = self._term_to_id.get(term)
        if term_id is not None:
            return term_id
        row = (
            self._store._connection()
            .execute("SELECT id FROM terms WHERE term = ?", (term,))
            .fetchone()
        )
        if row is None:
            return None
        term_id = row[0]
        self._remember(term, term_id)
        return term_id

    def decode(self, term_id: int) -> str:
        """Term string for ``term_id``; ``KeyError`` on an unknown id."""
        term = self._id_to_term.get(term_id)
        if term is None:
            row = (
                self._store._connection()
                .execute("SELECT term FROM terms WHERE id = ?", (term_id,))
                .fetchone()
            )
            if row is None:
                raise KeyError(term_id)
            term = row[0]
            self._remember(term, term_id)
        return term

    def decode_many(self, term_ids) -> list[str]:
        decode = self.decode
        return [decode(t) for t in term_ids]

    def terms(self) -> Iterator[str]:
        """All interned terms in dense id order (one streaming scan)."""
        for (term,) in self._store._connection().execute(
            "SELECT term FROM terms ORDER BY id"
        ):
            yield term

    def terms_from(self, start: int) -> Iterator[str]:
        """Terms with id >= ``start`` in id order (incremental snapshots)."""
        for (term,) in self._store._connection().execute(
            "SELECT term FROM terms WHERE id >= ? ORDER BY id", (start,)
        ):
            yield term


class DiskTripleStore(KBBackend):
    """The :class:`~repro.kb.backend.KBBackend` storage primitives over one
    SQLite file; the string reads are the base class's.

    ``path=None`` creates an ephemeral store in a temp file (removed when
    the owning store is closed or garbage-collected); a named path opens —
    or creates — a KB file that a later process reopens in milliseconds
    (the mega world's ``kb.db``).

    >>> kb = DiskTripleStore()
    >>> kb.add("m.obama", "dob", '"1961"')
    True
    >>> sorted(kb.objects("m.obama", "dob"))
    ['"1961"']
    """

    def __init__(self, path: str | None = None) -> None:
        self._ephemeral = path is None
        if path is None:
            fd, path = tempfile.mkstemp(prefix="kbqa-disk-", suffix=".db")
            os.close(fd)
        self._path = str(path)
        self._owner_pid = os.getpid()
        self._local = threading.local()
        self._connections: list[sqlite3.Connection] = []
        self._conn_threads: list[tuple[threading.Thread, sqlite3.Connection]] = []
        self._connections_lock = threading.Lock()
        self._objects_memo: dict[tuple[int, int], frozenset[int]] = {}
        self.dictionary = SQLiteDictionary(self)
        self._init_backend_state()
        conn = self._connection()
        conn.executescript(_SCHEMA)
        version = conn.execute("PRAGMA user_version").fetchone()[0]
        if version == 0:
            conn.execute(f"PRAGMA user_version = {_SCHEMA_VERSION}")
        elif version != _SCHEMA_VERSION:
            raise ValueError(
                f"{self._path}: unsupported KB schema version {version} "
                f"(supported: {_SCHEMA_VERSION})"
            )
        self._finalizer = weakref.finalize(
            self,
            DiskTripleStore._finalize,
            self._connections,
            self._path,
            self._ephemeral,
        )

    # -- Connections (per process x thread; SQLite is fork/thread-hostile) --

    @property
    def path(self) -> str:
        """The backing database file."""
        return self._path

    def _connection(self) -> sqlite3.Connection:
        state = self._local
        if getattr(state, "pid", None) != os.getpid():
            # forked child: the parent's connection must never be reused
            state.pid = os.getpid()
            state.conn = None
        conn = getattr(state, "conn", None)
        if conn is None:
            conn = self._open_connection()
            state.conn = conn
            with self._connections_lock:
                self._evict_dead_locked()
                self._connections.append(conn)
                self._conn_threads.append((threading.current_thread(), conn))
        return conn

    def _evict_dead_locked(self) -> None:
        """Close and drop connections owned by threads that have exited.

        Each (process, thread) gets a private connection; without eviction a
        workload that churns threads (server restarts, mutator threads,
        benchmark runs) accumulates one open SQLite handle per dead thread
        until ``close()``.  Swept under ``_connections_lock`` whenever a new
        connection registers, so the registry stays bounded by the number of
        *live* threads.  ``_connections`` keeps its list-object identity —
        the weakref finalizer closes over that exact object.
        """
        if not self._conn_threads:
            return
        live: list[tuple[threading.Thread, sqlite3.Connection]] = []
        for thread, conn in self._conn_threads:
            if thread.is_alive():
                live.append((thread, conn))
                continue
            try:
                conn.close()
            except Exception:  # pragma: no cover - already closed elsewhere
                pass
            try:
                self._connections.remove(conn)
            except ValueError:  # pragma: no cover - close() already cleared it
                pass
        self._conn_threads[:] = live

    def _open_connection(self) -> sqlite3.Connection:
        conn = sqlite3.connect(self._path, timeout=_BUSY_TIMEOUT_S, check_same_thread=False)
        conn.isolation_level = None  # autocommit; WAL orders concurrent writers
        conn.execute("PRAGMA journal_mode=WAL")
        # an ephemeral store is scratch space: crash durability is moot, so
        # skip the fsyncs; named files keep WAL-grade durability
        conn.execute(
            "PRAGMA synchronous=OFF" if self._ephemeral else "PRAGMA synchronous=NORMAL"
        )
        return conn

    @staticmethod
    def _finalize(connections: list, path: str, unlink: bool) -> None:
        _close_connections(connections)
        if unlink:
            _unlink_db(path)

    def close(self) -> None:
        """Close this process's connections, drop the memos (over 10 MB after
        a mega compile) and delete the file if ephemeral."""
        self._finalizer.detach()
        self.dictionary._forget()
        self._objects_memo.clear()
        with self._connections_lock:
            _close_connections(self._connections)
            self._conn_threads.clear()
        self._local = threading.local()
        if self._ephemeral and os.getpid() == self._owner_pid:
            _unlink_db(self._path)

    # -- Mutation ----------------------------------------------------------

    def add(self, subject: str, predicate: str, obj: str) -> bool:
        """Insert a triple; returns False if it was already present."""
        encode = self.dictionary.encode
        s = encode(subject)
        p = encode(predicate)
        o = encode(obj)
        cursor = self._connection().execute(
            "INSERT OR IGNORE INTO triples (s, p, o) VALUES (?, ?, ?)", (s, p, o)
        )
        if cursor.rowcount == 0:
            return False
        self._objects_memo.pop((s, p), None)
        if self._listeners:
            self._notify(KBChange(ADD, s, p, o))
        return True

    def ingest_triples(
        self, triples: Iterable[Triple], *, batch_size: int = _INGEST_BATCH
    ) -> int:
        """Bulk-load ``triples`` in batched write transactions (streaming seam).

        The mega-compile ingest path.  Each ``batch_size`` chunk is one
        ``BEGIN IMMEDIATE``/``COMMIT`` transaction: one interning step
        (:meth:`SQLiteDictionary._intern`) resolves the chunk's distinct
        terms, minting the new ones with the ids a sequential :meth:`add`
        loop would give them (so the dense dictionary ids stay identical to
        an in-memory store built from the same sequence — the
        backend-equivalence contract), and the rows land via one
        ``executemany``: a handful of statements and one fsync per batch
        instead of several per term and per triple.  Accepts any triple
        iterable and never holds it as a list.  Returns the number of rows
        that were new.  A chunk that raises is rolled back whole, terms
        included, and the memos forget it.  With subscribed listeners it
        falls back to per-triple adds inside one notification batch so the
        change stream stays exact.
        """
        if self._listeners:
            with self.batch():
                return self.add_all(triples)
        conn = self._connection()
        intern = self.dictionary._intern
        inserted = 0
        iterator = iter(triples)
        while True:
            chunk = list(itertools.islice(iterator, batch_size))
            if not chunk:
                break
            # IMMEDIATE: the interning step's MAX(id) read must already hold
            # the write lock its insert takes
            conn.execute("BEGIN IMMEDIATE")
            try:
                ids = intern(
                    term for t in chunk for term in (t.subject, t.predicate, t.object)
                )
                rows = [(ids[t.subject], ids[t.predicate], ids[t.object]) for t in chunk]
                before = conn.total_changes
                conn.executemany(
                    "INSERT OR IGNORE INTO triples (s, p, o) VALUES (?, ?, ?)", rows
                )
                inserted += conn.total_changes - before
            except BaseException:
                conn.execute("ROLLBACK")
                # the chunk's freshly minted term ids are gone with it
                self.dictionary._forget()
                self._objects_memo.clear()
                raise
            conn.execute("COMMIT")
            self._objects_memo.clear()
        return inserted

    def delete(self, subject: str, predicate: str, obj: str) -> bool:
        """Remove a triple; returns False if it was not present.

        Dictionary rows are never reclaimed (ids are dense and append-only,
        exactly like the in-memory store), so ``resources`` does not
        decrease on delete.
        """
        lookup = self.dictionary.lookup
        s = lookup(subject)
        p = lookup(predicate)
        o = lookup(obj)
        if s is None or p is None or o is None:
            return False
        cursor = self._connection().execute(
            "DELETE FROM triples WHERE s = ? AND p = ? AND o = ?", (s, p, o)
        )
        if cursor.rowcount == 0:
            return False
        self._objects_memo.pop((s, p), None)
        if self._listeners:
            self._notify(KBChange(DELETE, s, p, o))
        return True

    # -- Reads -------------------------------------------------------------

    def __len__(self) -> int:
        return self._connection().execute("SELECT COUNT(*) FROM triples").fetchone()[0]

    def has_subject_id(self, subject_id: int) -> bool:
        """True when ``subject_id`` occurs in subject position."""
        return (
            self._connection()
            .execute("SELECT 1 FROM triples WHERE s = ? LIMIT 1", (subject_id,))
            .fetchone()
            is not None
        )

    def objects_ids(self, subject_id: int, predicate_id: int) -> frozenset[int]:
        """``V(e, p)`` as object ids (read-only view, memoized bounded)."""
        key = (subject_id, predicate_id)
        cached = self._objects_memo.get(key)
        if cached is None:
            cached = frozenset(
                o
                for (o,) in self._connection().execute(
                    "SELECT o FROM triples WHERE s = ? AND p = ?", key
                )
            )
            if len(self._objects_memo) >= _OBJECTS_MEMO_CAP:
                self._objects_memo.clear()
            self._objects_memo[key] = cached
        return cached

    def predicates_between_ids(self, subject_id: int, object_id: int) -> frozenset[int]:
        """Direct predicate ids p with (subject, p, object) in the store."""
        return frozenset(
            p
            for (p,) in self._connection().execute(
                "SELECT p FROM triples WHERE o = ? AND s = ?", (object_id, subject_id)
            )
        )

    def triples_ids(self) -> Iterator[tuple[int, int, int]]:
        """Scan all triples as ``(s_id, p_id, o_id)``, subject-grouped."""
        yield from self._connection().execute(
            "SELECT s, p, o FROM triples ORDER BY s, p, o"
        )

    def spo_items_ids(self) -> Iterator[tuple[int, dict[int, set[int]]]]:
        """Grouped id-keyed scan: ``(s_id, {p_id: {o_id}})`` per subject.

        Built per subject from the (s, p, o) covering index, so the scan is
        one ordered sweep; the per-subject dicts are fresh (not live views).
        """
        rows = self._connection().execute("SELECT s, p, o FROM triples ORDER BY s, p, o")
        for s_id, group in itertools.groupby(rows, key=lambda row: row[0]):
            by_predicate: dict[int, set[int]] = {}
            for _s, p_id, o_id in group:
                by_predicate.setdefault(p_id, set()).add(o_id)
            yield s_id, by_predicate

    # -- Statistics ----------------------------------------------------------

    def stats(self) -> dict[str, int]:
        """Store-level counts (triples/terms/resources/predicates/subjects)."""
        self._reconcile_resources()
        conn = self._connection()
        return {
            "triples": len(self),
            "terms": len(self.dictionary),
            "resources": self._n_resources,
            "predicates": conn.execute(
                "SELECT COUNT(DISTINCT p) FROM triples"
            ).fetchone()[0],
            "subjects": conn.execute(
                "SELECT COUNT(DISTINCT s) FROM triples"
            ).fetchone()[0],
        }
