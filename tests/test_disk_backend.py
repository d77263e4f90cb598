"""The SQLite-backed disk store (`repro.kb.disk`).

Acceptance bar: a :class:`DiskTripleStore` built by the same add sequence
as a :class:`TripleStore` must assign identical dictionary ids, answer every
protocol read identically (randomized-KB checked), fire identical change
notifications, and carry a whole KBQA system to byte-identical
``answer_many`` output.  On top of that comes the disk-only property:
reopening a compiled file restores the store without a rebuild.
"""

import gc
import os
import random
import sys
import threading
import weakref

import pytest

from repro.core.system import KBQA
from repro.kb.backend import (
    ADD,
    BACKEND_KINDS,
    DELETE,
    KBChange,
    resolve_backend,
)
from repro.kb import disk
from repro.kb.disk import DiskTripleStore
from repro.kb.expansion import expand_predicates
from repro.kb.paths import PredicatePath
from repro.kb.store import TripleStore
from repro.kb.triple import Triple, make_literal
from repro.suite import build_suite


def _random_ops(seed: int, n_adds: int = 300, n_deletes: int = 50):
    rng = random.Random(seed)
    entities = [f"e{i}" for i in range(30)]
    values = entities + [make_literal(f"v{i}") for i in range(12)]
    predicates = [f"p{i}" for i in range(6)]
    adds = [
        (rng.choice(entities), rng.choice(predicates), rng.choice(values))
        for _ in range(n_adds)
    ]
    deletes = rng.sample(adds, n_deletes) + [("ghost", "p0", "e0")]
    return adds, deletes


class TestRandomizedEquivalence:
    @pytest.fixture(params=[3, 17, 99], ids=lambda s: f"seed{s}")
    def pair(self, request):
        mem, disk = TripleStore(), DiskTripleStore()
        adds, deletes = _random_ops(request.param)
        for s, p, o in adds:
            assert mem.add(s, p, o) == disk.add(s, p, o)
        for s, p, o in deletes:
            assert mem.delete(s, p, o) == disk.delete(s, p, o)
        yield mem, disk
        disk.close()

    def test_identical_dictionary_ids(self, pair):
        mem, disk = pair
        assert list(mem.dictionary.terms()) == list(disk.dictionary.terms())
        assert len(mem.dictionary) == len(disk.dictionary)

    def test_identical_string_reads(self, pair):
        mem, disk = pair
        assert len(mem) == len(disk)
        assert set(mem.triples()) == set(disk.triples())
        assert mem.stats() == disk.stats()
        predicates = {t.predicate for t in mem.triples()}
        for s in set(mem.dictionary.terms()) | {"ghost"}:
            assert mem.has_subject(s) == disk.has_subject(s)
            for p in predicates | {"nope"}:
                assert mem.objects(s, p) == disk.objects(s, p)

    def test_identical_id_reads(self, pair):
        mem, disk = pair
        assert set(mem.triples_ids()) == set(disk.triples_ids())
        grouped_mem = {
            s: {p: set(o) for p, o in g.items()} for s, g in mem.spo_items_ids()
        }
        grouped_disk = dict(disk.spo_items_ids())
        assert grouped_mem == grouped_disk
        for s_id, by_predicate in grouped_mem.items():
            assert disk.has_subject_id(s_id)
            for p_id, objects in by_predicate.items():
                assert set(disk.objects_ids(s_id, p_id)) == objects

    def test_identical_predicates_between_ids(self, pair):
        """Every (subject, object) id pair, connected, never connected or
        connected only by a deleted edge."""
        mem, disk = pair
        expected: dict[tuple[int, int], set[int]] = {}
        for s_id, p_id, o_id in mem.triples_ids():
            expected.setdefault((s_id, o_id), set()).add(p_id)
        term_ids = range(len(mem.dictionary))
        for s_id in term_ids:
            for o_id in term_ids:
                between = expected.get((s_id, o_id), set())
                assert set(mem.predicates_between_ids(s_id, o_id)) == between
                assert set(disk.predicates_between_ids(s_id, o_id)) == between
        assert any(len(predicates) > 1 for predicates in expected.values())

    def test_identical_expansion(self, pair):
        mem, disk = pair
        seeds = sorted(set(s for s, _p, _o in mem.triples()))[:8]
        from_mem = expand_predicates(mem, seeds, max_length=3)
        from_disk = expand_predicates(disk, seeds, max_length=3)
        assert {(s, str(p), o) for s, p, o in from_mem.triples()} == {
            (s, str(p), o) for s, p, o in from_disk.triples()
        }


class TestListenerParity:
    def test_notification_streams_identical(self):
        mem, disk = TripleStore(), DiskTripleStore()
        seen_mem: list[KBChange] = []
        seen_disk: list[KBChange] = []
        mem.subscribe(seen_mem.extend)
        disk.subscribe(seen_disk.extend)
        adds, deletes = _random_ops(5, n_adds=80, n_deletes=20)
        for s, p, o in adds:
            mem.add(s, p, o), disk.add(s, p, o)
        for s, p, o in deletes:
            mem.delete(s, p, o), disk.delete(s, p, o)
        assert seen_mem == seen_disk and seen_mem
        disk.close()

    def test_batch_coalesces(self):
        disk = DiskTripleStore()
        bursts: list[tuple[KBChange, ...]] = []
        disk.subscribe(bursts.append)
        with disk.batch():
            disk.add("a", "p", "b")
            disk.add("a", "p", "c")
            assert disk.objects("a", "p") == {"b", "c"}  # reads see writes
            disk.delete("a", "p", "b")
            assert not bursts  # deferred until exit
            assert disk.objects("a", "p") == {"c"}
        assert len(bursts) == 1 and [c.action for c in bursts[0]] == [
            ADD,
            ADD,
            DELETE,
        ]
        disk.close()

    def test_a_write_outside_batch_is_a_burst_of_one(self):
        mem, disk = TripleStore(), DiskTripleStore()
        bursts_mem: list[tuple[KBChange, ...]] = []
        bursts_disk: list[tuple[KBChange, ...]] = []
        mem.subscribe(bursts_mem.append)
        disk.subscribe(bursts_disk.append)
        for store in (mem, disk):
            store.add("a", "p", "b")
            store.delete("a", "p", "b")
        assert bursts_mem == bursts_disk
        assert [type(burst) for burst in bursts_mem] == [tuple, tuple]
        assert [[c.action for c in burst] for burst in bursts_mem] == [[ADD], [DELETE]]
        disk.close()


class TestPersistence:
    def test_reopen_restores_everything(self, tmp_path):
        path = str(tmp_path / "kb.db")
        first = DiskTripleStore(path)
        adds, _ = _random_ops(7, n_adds=120, n_deletes=0)
        for s, p, o in adds:
            first.add(s, p, o)
        snapshot = (
            len(first),
            set(first.triples()),
            list(first.dictionary.terms()),
            first.stats(),
        )
        first.close()
        reopened = DiskTripleStore(path)
        assert (
            len(reopened),
            set(reopened.triples()),
            list(reopened.dictionary.terms()),
            reopened.stats(),
        ) == snapshot
        reopened.close()

    def test_close_drops_the_memos(self, tmp_path):
        """A closed store still reopens its file on the next read, but holds
        no memo until then: a caller that keeps a closed store (a mega
        compile's) must not keep its memos."""
        store = DiskTripleStore(str(tmp_path / "kb.db"))
        store.ingest_triples([Triple("a", "p", "b"), Triple("a", "p", "c")])
        assert store.objects("a", "p") == {"b", "c"}
        store.close()
        assert not store.dictionary._term_to_id and not store.dictionary._id_to_term
        assert not store._objects_memo
        assert store.objects("a", "p") == {"b", "c"}
        store.close()

    def test_schema_version_guard(self, tmp_path):
        path = str(tmp_path / "kb.db")
        store = DiskTripleStore(path)
        store.add("a", "p", "b")
        store._connection().execute("PRAGMA user_version = 99")
        store.close()
        with pytest.raises(ValueError, match="schema version"):
            DiskTripleStore(path)

    def test_ephemeral_store_cleans_up_on_close(self):
        store = DiskTripleStore()
        path = store.path
        store.add("a", "p", "b")
        assert os.path.exists(path)
        store.close()
        assert not os.path.exists(path)
        assert not os.path.exists(path + "-wal")

    def test_a_dropped_unclosed_store_is_freed_by_refcount(self):
        """The dictionary reaches its store through a weak proxy, so a store
        dropped without ``close()`` goes at once with the collector off, and
        its ephemeral file with it; an expansion that shares the dictionary
        decodes while the store lives."""
        store = DiskTripleStore()
        cee = make_literal("cee")
        store.ingest_triples([Triple("a", "pob", "c"), Triple("c", "name", cee)])
        expanded = expand_predicates(store, ["a"], max_length=2)
        assert expanded.dictionary is store.dictionary
        assert expanded.paths_between("a", cee) == {PredicatePath(("pob", "name"))}
        path, alive = store.path, weakref.ref(store)
        enabled = gc.isenabled()
        gc.disable()
        try:
            del store
            assert alive() is None
            assert not os.path.exists(path)
        finally:
            if enabled:
                gc.enable()


class TestConnectionChurn:
    def test_thread_churn_leaves_bounded_connection_count(self):
        """Per-thread connections for dead threads are evicted, not hoarded.

        Serving workloads churn executor threads; without the dead-thread
        sweep every short-lived reader leaks one open SQLite handle into
        ``_connections`` until ``close()``."""
        import threading

        store = DiskTripleStore()
        store.add("a", "p", "b")
        for _ in range(25):
            worker = threading.Thread(target=lambda: store.objects("a", "p"))
            worker.start()
            worker.join()
        # trigger one more registration (and thus a sweep) from a new thread
        final = threading.Thread(target=lambda: store.objects("a", "p"))
        final.start()
        final.join()
        with store._connections_lock:
            store._evict_dead_locked()
            registered = len(store._connections)
        # bounded: at most the main thread's connection survives the sweep
        assert registered <= 1
        # the store still works from the surviving thread
        assert store.objects("a", "p") == {"b"}
        store.close()

    def test_concurrent_threads_keep_their_connections(self):
        """The sweep only touches *dead* threads — live readers are safe."""
        import threading

        store = DiskTripleStore()
        store.add("a", "p", "b")
        barrier = threading.Barrier(5)
        results = []

        def reader():
            store.objects("a", "p")  # register this thread's connection
            barrier.wait()  # hold all threads alive simultaneously
            results.append(store.objects("a", "p"))

        threads = [threading.Thread(target=reader) for _ in range(4)]
        for t in threads:
            t.start()
        barrier.wait()
        for t in threads:
            t.join()
        assert results == [{"b"}] * 4
        store.close()


class TestIngestTriples:
    def test_ingest_matches_sequential_adds(self):
        """The batched ingest seam assigns ids exactly like per-triple adds."""
        adds, _ = _random_ops(21, n_adds=400, n_deletes=0)
        triples = [Triple(s, p, o) for s, p, o in adds]
        sequential, batched = DiskTripleStore(), DiskTripleStore()
        expected_new = sequential.add_all(triples)
        assert batched.ingest_triples(iter(triples), batch_size=64) == expected_new
        assert list(batched.triples_ids()) == list(sequential.triples_ids())
        assert list(batched.dictionary.terms()) == list(sequential.dictionary.terms())
        sequential.close()
        batched.close()

    def test_ingest_with_listeners_keeps_change_stream(self):
        store = DiskTripleStore()
        seen: list[KBChange] = []
        store.subscribe(seen.extend)
        triples = [Triple("a", "p", f"o{i}") for i in range(5)] + [Triple("a", "p", "o0")]
        assert store.ingest_triples(triples) == 5
        assert len(seen) == 5 and all(c.action == ADD for c in seen)
        store.close()

    def test_a_rolled_back_chunk_leaves_no_ids_behind(self):
        """A chunk that raises is rolled back terms and all, so the ids it
        minted must not stay memoized: the next new term would be minted one
        of them again and two terms would share an id."""
        store, mem = DiskTripleStore(), TripleStore()
        with pytest.raises(AttributeError):
            store.ingest_triples([Triple("ghost_s", "p", "ghost_o"), ("not", "a", "triple")])
        assert len(store) == 0 and len(store.dictionary) == 0
        for s, p, o in [("fresh", "p", "x"), ("ghost_s", "p", "late")]:
            assert store.add(s, p, o) and mem.add(s, p, o)
        assert store.objects("fresh", "p") == {"x"}
        assert store.objects("ghost_s", "p") == {"late"}
        assert list(store.dictionary.terms()) == list(mem.dictionary.terms())
        assert set(store.triples_ids()) == set(mem.triples_ids())
        store.close()

    def test_interning_reads_the_term_table_per_batch_not_per_term(self):
        """A chunk's unseen terms cost one ``MAX(id)`` read plus one
        fixed-width lookup per 256 of them, not a lookup per term.  The trace
        callback reports an ``executemany`` once per row, so the inserts are
        counted apart: exactly one per fresh term."""
        n, batch_size = 3000, 500
        triples = [Triple(f"s{i}", "p", f"o{i}") for i in range(n)]
        store = DiskTripleStore()
        traced: list[str] = []
        store._connection().set_trace_callback(traced.append)
        assert store.ingest_triples(triples, batch_size=batch_size) == n
        store._connection().set_trace_callback(None)
        term_reads = [sql for sql in traced if sql.startswith("SELECT") and " FROM terms" in sql]
        term_inserts = [sql for sql in traced if sql.startswith("INSERT INTO terms")]
        batches = n // batch_size
        lookups_per_batch = -(-(2 * batch_size + 1) // disk._LOOKUP_WIDTH)
        assert len(term_reads) <= batches * (1 + lookups_per_batch)
        assert len(term_inserts) == 2 * n + 1
        # every lookup is padded to the one width: one statement text
        lookups = [sql for sql in term_reads if " IN (" in sql]
        assert lookups and all(
            len(sql[sql.index(" IN (") + 5 : -1].split(", ")) == disk._LOOKUP_WIDTH
            for sql in lookups
        )
        store.close()

    def test_writers_on_one_file_keep_ids_dense(self, tmp_path):
        """Stores on one file ingest overlapping term sets from more threads
        than cores: each batch interns under the write lock, so the terms
        table ends dense, each term once, and every triple of every load is
        in."""
        path = str(tmp_path / "kb.db")
        stores = [DiskTripleStore(path) for _ in range(3)]
        loads = [
            [Triple(f"e{i}", f"p{i % 7}", f"e{i + 1}") for i in range(start, start + 1200)]
            for start in (0, 400, 800)
        ]
        barrier = threading.Barrier(len(stores))
        errors: list[Exception] = []

        def load(store, triples):
            try:
                barrier.wait()
                store.ingest_triples(triples, batch_size=50)
            except Exception as exc:  # reported by the assertion below
                errors.append(exc)

        threads = [threading.Thread(target=load, args=pair) for pair in zip(stores, loads)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        rows = stores[0]._connection().execute("SELECT id, term FROM terms ORDER BY id").fetchall()
        expected_terms = {term for triples in loads for t in triples for term in t}
        assert [term_id for term_id, _term in rows] == list(range(len(rows)))
        assert sorted(term for _id, term in rows) == sorted(expected_terms)
        expected = {tuple(t) for triples in loads for t in triples}
        for store in stores:
            assert {tuple(t) for t in store.triples()} == expected
            store.close()

    def test_ingest_after_reopen_reuses_interned_ids(self, tmp_path):
        """A reopened store starts with an empty memo: terms already in the
        file are found by the lookup, not minted again."""
        path = str(tmp_path / "kb.db")
        before = [Triple("a", "p", "b"), Triple("c", "p", "d")]
        after = [Triple("d", "p", "a"), Triple("e", "q", "b"), Triple("a", "p", "b")]
        first = DiskTripleStore(path)
        first.ingest_triples(before)
        first.close()
        reopened, mem = DiskTripleStore(path), TripleStore()
        mem.add_all(before)
        assert reopened.ingest_triples(after) == mem.add_all(after) == 2
        assert list(reopened.dictionary.terms()) == list(mem.dictionary.terms())
        assert set(reopened.triples_ids()) == set(mem.triples_ids())
        reopened.close()

    def test_ingest_keeps_the_term_memo_bounded(self, monkeypatch):
        monkeypatch.setattr(disk, "_DICT_MEMO_CAP", 100)
        triples = [Triple(f"s{i}", "p", f"o{i % 300}") for i in range(1000)]
        store, mem = DiskTripleStore(), TripleStore()
        assert store.ingest_triples(triples, batch_size=40) == mem.add_all(triples)
        assert len(store.dictionary._term_to_id) <= 100
        assert len(store.dictionary._id_to_term) <= 100
        assert list(store.dictionary.terms()) == list(mem.dictionary.terms())
        assert set(store.triples_ids()) == set(mem.triples_ids())
        store.close()


class TestResolveBackend:
    def test_defaults_and_explicit_kinds(self, monkeypatch):
        monkeypatch.delenv("KBQA_BACKEND", raising=False)
        assert type(resolve_backend()) is TripleStore
        disk = resolve_backend("disk")
        assert type(disk) is DiskTripleStore
        disk.close()
        assert set(BACKEND_KINDS) == {"memory", "disk"}

    def test_environment_override(self, monkeypatch):
        monkeypatch.setenv("KBQA_BACKEND", "disk")
        store = resolve_backend()
        assert type(store) is DiskTripleStore
        store.close()
        # explicit argument beats the environment
        assert type(resolve_backend("memory")) is TripleStore

    def test_invalid_combinations_rejected(self):
        with pytest.raises(ValueError, match="unknown KB backend"):
            resolve_backend("paper")
        with pytest.raises(ValueError, match="does not take a database path"):
            resolve_backend("memory", path="/tmp/x.db")


class TestSystemEquivalence:
    def test_answer_many_identical_to_memory_backend(self, suite, kbqa_fb):
        """Acceptance: a system trained over the disk-compiled KB answers the
        qald3 BFQ set byte-identically to the in-memory reference."""
        disk_suite = build_suite(scale="small", seed=7, backend="disk")
        assert type(disk_suite.freebase.store) is DiskTripleStore
        assert (
            disk_suite.freebase.store.stats() == suite.freebase.store.stats()
        )
        questions = [q.question for q in suite.benchmark("qald3").bfqs()]
        questions.append("what should i eat tonight?")
        with KBQA.train(
            disk_suite.freebase, disk_suite.corpus, disk_suite.conceptualizer
        ) as disk_system:
            assert disk_system.answer_many(questions) == kbqa_fb.answer_many(
                questions
            )
            # live updates flow through the disk backend's change stream too
            before = disk_system.answer_complex("who is the mayor of mapleton?")
            assert disk_system.add_fact("e.new", "name", make_literal("Newcomer"))
            assert not disk_system.add_fact(
                "e.new", "name", make_literal("Newcomer")
            )
            after = disk_system.answer_complex("who is the mayor of mapleton?")
            assert before.values == after.values
