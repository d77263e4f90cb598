"""SQLite-backed :class:`~repro.kb.backend.KBBackend`: the KB on disk.

The in-memory backend rebuilds its dict indexes from the source world on
every process start and pays O(KB) private RAM per process.  This backend
keeps the dictionary and the triple set in one SQLite file instead — the
shape of the SNIPPETS.md knowledge-graph exemplar (a terms table plus
covering indexes for sub-millisecond point lookups) — so a compiled KB

* **loads in milliseconds**: opening is one ``sqlite3.connect`` + a schema
  check, independent of triple count;
* **survives restarts**: ``kbqa compile --backend disk`` writes the DB once
  and every later ``kbqa answer/serve`` run reopens it without recompiling;
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

Concurrency: WAL journal mode — readers never block the (single) writer and
vice versa; every (process, thread) gets its own lazily opened connection
(SQLite connections are neither fork- nor thread-safe: a forked child never
reuses its parent's), writes serialize on SQLite's write lock with a busy
timeout.  Change notifications (:class:`~repro.kb.backend.KBChange`) fire
exactly as for the in-memory store, for this store's own mutations.

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

from repro.kb.backend import ADD, DELETE, BackendBase, KBChange
from repro.kb.triple import Triple

_SCHEMA_VERSION = 1
_BUSY_TIMEOUT_S = 30.0
_OBJECTS_MEMO_CAP = 65536
_DICT_MEMO_CAP = 1 << 17
_INGEST_BATCH = 4096

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

    Ids are dense and insertion-ordered (``MAX(id)+1`` minted inside the
    insert, under SQLite's write lock), matching the in-memory
    :class:`~repro.kb.dictionary.Dictionary` exactly, so id-level
    equivalence suites hold across backends.  Positive lookups and decodes
    are memoized write-through; *negative* lookups are never cached, because
    a sibling process may intern the term at any time.
    """

    def __init__(self, store: "DiskTripleStore") -> None:
        self._store = store
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
            self._term_to_id.clear()
            self._id_to_term.clear()
        self._term_to_id[term] = term_id
        self._id_to_term[term_id] = term

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


class DiskTripleStore(BackendBase):
    """The :class:`~repro.kb.backend.KBBackend` protocol over one SQLite file.

    ``path=None`` creates an ephemeral store in a temp file (removed when
    the owning store is closed or garbage-collected); a named path opens —
    or creates — a persistent KB that later processes reopen in
    milliseconds.

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
        serving workload that churns executor threads (server restarts,
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
        """Close this process's connections; delete the file if ephemeral."""
        self._finalizer.detach()
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

    def add_triple(self, triple: Triple) -> bool:
        return self.add(triple.subject, triple.predicate, triple.object)

    def add_all(self, triples: Iterable[Triple]) -> int:
        """Insert many triples; returns how many were new."""
        return sum(1 for t in triples if self.add_triple(t))

    def ingest_triples(
        self, triples: Iterable[Triple], *, batch_size: int = _INGEST_BATCH
    ) -> int:
        """Bulk-load ``triples`` in batched write transactions (streaming seam).

        The mega-compile ingest path: terms are encoded in the same order a
        sequential :meth:`add` loop would encode them (so the dense
        dictionary ids stay identical to an in-memory store built from the
        same sequence — the backend-equivalence contract), but rows land via
        one ``executemany`` per ``batch_size`` chunk inside an explicit
        ``BEGIN``/``COMMIT``: one fsync per batch instead of per triple.
        Accepts any triple iterable and never holds it as a list.  Returns the
        number of rows that were new.  With subscribed listeners it falls
        back to per-triple adds inside one notification batch so the change
        stream stays exact.
        """
        if self._listeners:
            with self.batch():
                return self.add_all(triples)
        conn = self._connection()
        encode = self.dictionary.encode
        inserted = 0
        iterator = iter(triples)
        while True:
            chunk = list(itertools.islice(iterator, batch_size))
            if not chunk:
                break
            conn.execute("BEGIN")
            try:
                rows = [
                    (encode(t.subject), encode(t.predicate), encode(t.object))
                    for t in chunk
                ]
                before = conn.total_changes
                conn.executemany(
                    "INSERT OR IGNORE INTO triples (s, p, o) VALUES (?, ?, ?)", rows
                )
                inserted += conn.total_changes - before
            except BaseException:
                conn.execute("ROLLBACK")
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

    # -- Point lookups -----------------------------------------------------

    def __len__(self) -> int:
        return self._connection().execute("SELECT COUNT(*) FROM triples").fetchone()[0]

    def __contains__(self, triple: Triple) -> bool:
        return self.has(triple.subject, triple.predicate, triple.object)

    def has(self, subject: str, predicate: str, obj: str) -> bool:
        """Point membership test for one triple."""
        lookup = self.dictionary.lookup
        s = lookup(subject)
        p = lookup(predicate)
        o = lookup(obj)
        if s is None or p is None or o is None:
            return False
        return (
            self._connection()
            .execute(
                "SELECT 1 FROM triples WHERE s = ? AND p = ? AND o = ?", (s, p, o)
            )
            .fetchone()
            is not None
        )

    def objects(self, subject: str, predicate: str) -> set[str]:
        """``V(e, p)`` — all objects for a (subject, predicate) pair."""
        s = self.dictionary.lookup(subject)
        p = self.dictionary.lookup(predicate)
        if s is None or p is None:
            return set()
        decode = self.dictionary.decode
        return {decode(o) for o in self.objects_ids(s, p)}

    def predicates_between(self, subject: str, obj: str) -> set[str]:
        """All direct predicates p with (subject, p, obj) in the store."""
        s = self.dictionary.lookup(subject)
        o = self.dictionary.lookup(obj)
        if s is None or o is None:
            return set()
        decode = self.dictionary.decode
        return {
            decode(p)
            for (p,) in self._connection().execute(
                "SELECT p FROM triples WHERE o = ? AND s = ?", (o, s)
            )
        }

    def predicates_of(self, subject: str) -> set[str]:
        """All predicates leaving ``subject``."""
        s = self.dictionary.lookup(subject)
        if s is None:
            return set()
        decode = self.dictionary.decode
        return {
            decode(p)
            for (p,) in self._connection().execute(
                "SELECT DISTINCT p FROM triples WHERE s = ?", (s,)
            )
        }

    def out_degree(self, subject: str) -> int:
        """Number of triples with ``subject`` in subject position."""
        s = self.dictionary.lookup(subject)
        if s is None:
            return 0
        return (
            self._connection()
            .execute("SELECT COUNT(*) FROM triples WHERE s = ?", (s,))
            .fetchone()[0]
        )

    def has_subject(self, subject: str) -> bool:
        s = self.dictionary.lookup(subject)
        return s is not None and self.has_subject_id(s)

    # -- Id-level API (hot paths) ------------------------------------------

    def lookup_id(self, term: str) -> int | None:
        """Dictionary id of ``term`` (None when never interned)."""
        return self.dictionary.lookup(term)

    def decode_id(self, term_id: int) -> str:
        """Term string for a dictionary id."""
        return self.dictionary.decode(term_id)

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

    # -- Scans ---------------------------------------------------------------

    def triples(self) -> Iterator[Triple]:
        """Scan all triples in (s, p, o) id order, decoded."""
        decode = self.dictionary.decode
        for s, p, o in self.triples_ids():
            yield Triple(decode(s), decode(p), decode(o))

    def subjects_iter(self) -> Iterator[str]:
        """All distinct subjects."""
        decode = self.dictionary.decode
        return (
            decode(s)
            for (s,) in self._connection().execute("SELECT DISTINCT s FROM triples")
        )

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
