"""Pickle-safety of every frozen payload the process backends ship.

A field that stops pickling — a lock slipped into a store, a closure on an
answerer — would otherwise surface as an opaque traceback inside a worker
process.  These tests round-trip every payload type through
``pickle.dumps``/``loads`` in tier-1 and assert *behavioral* equality, so
the failure happens here, named, instead of in a pool.

Payload inventory (everything `repro.exec` serializes):

* KB backends (:class:`TripleStore`, :class:`ShardedTripleStore`) — thawed
  copies answer identically and are shared-nothing (no listeners cross);
* :class:`ExpandedStore` and :class:`KBView` — frozen-view lookups survive;
* the task/result structs (:class:`ShardScanTask`,
  :class:`ShardScanResult`).

A live :class:`KBQA` system is the one thing that must *refuse*: replicas
get it by ``fork``, never by pickle.
"""

from __future__ import annotations

import pickle

import pytest

from repro.core.kbview import KBView
from repro.exec.tasks import ShardScanTask, scan_shard, split_frontier_by_shard
from repro.kb.expansion import expand_predicates
from repro.kb.paths import PredicatePath
from repro.kb.sharded import ShardedTripleStore
from repro.kb.store import TripleStore
from repro.kb.triple import make_literal


def roundtrip(obj):
    """One dumps/loads cycle at the protocol the executors use."""
    return pickle.loads(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))


def _toy_kb(shards: int = 1):
    kb = ShardedTripleStore(shards=shards) if shards > 1 else TripleStore()
    kb.add("a", "name", make_literal("alice"))
    kb.add("a", "marriage", "cvt1")
    kb.add("cvt1", "person", "b")
    kb.add("b", "name", make_literal("bob"))
    kb.add("c", "dob", make_literal("1970"))
    return kb


class TestBackendPickle:
    @pytest.mark.parametrize("shards", [1, 3])
    def test_store_roundtrip_behaviorally_equal(self, shards):
        kb = _toy_kb(shards)
        thawed = roundtrip(kb)
        assert len(thawed) == len(kb)
        assert thawed.objects("a", "marriage") == kb.objects("a", "marriage")
        assert thawed.predicates() == kb.predicates()
        assert sorted(thawed.triples_ids()) == sorted(kb.triples_ids())

    def test_listeners_do_not_cross_the_boundary(self):
        kb = _toy_kb()
        events = []
        kb.subscribe(events.append)
        thawed = roundtrip(kb)
        assert thawed._listeners == []
        thawed.add("z", "name", make_literal("zed"))
        assert events == []  # shared-nothing: the copy never notifies us
        kb.add("y", "name", make_literal("why"))
        assert len(events) == 1

    def test_thawed_copy_is_independent(self):
        kb = _toy_kb()
        thawed = roundtrip(kb)
        thawed.add("only-in-copy", "name", make_literal("copy"))
        assert not kb.has_subject("only-in-copy")

    def test_shard_tables_pickle(self):
        kb = _toy_kb(shards=3)
        tables = tuple(kb.shard_table(i) for i in range(kb.n_shards))
        thawed = roundtrip(tables)
        assert [sorted(t) for t in thawed] == [sorted(t) for t in tables]


class TestExpansionPayloadPickle:
    def test_expanded_store_roundtrip(self):
        kb = _toy_kb()
        expanded = expand_predicates(kb, ["a", "c"], max_length=3, record_reach=True)
        thawed = roundtrip(expanded)
        spouse = PredicatePath(("marriage", "person", "name"))
        assert thawed.objects("a", spouse) == expanded.objects("a", spouse)
        assert thawed.paths_between("a", make_literal("bob")) == expanded.paths_between(
            "a", make_literal("bob")
        )
        assert len(thawed) == len(expanded)
        assert dict(thawed.reach_items()) == dict(expanded.reach_items())

    def test_kbview_roundtrip(self):
        kb = _toy_kb()
        expanded = expand_predicates(kb, ["a"], max_length=3)
        view = KBView(kb, expanded)
        thawed = roundtrip(view)
        spouse = PredicatePath(("marriage", "person", "name"))
        assert thawed.values("a", spouse) == view.values("a", spouse)
        assert thawed.paths_between("a", make_literal("bob")) == view.paths_between(
            "a", make_literal("bob")
        )

    def test_scan_task_roundtrip_same_scan_output(self):
        """A thawed ShardScanTask scans to the identical buffers."""
        kb = _toy_kb(shards=2)
        dictionary = kb.dictionary
        a = dictionary.lookup("a")
        frontier = {a: {(a, ())}}
        tail_ids = frozenset(
            i for t in ("name", "alias") if (i := dictionary.lookup(t)) is not None
        )
        for shard, frontier_slice in enumerate(split_frontier_by_shard(frontier, 2)):
            task = ShardScanTask(
                shard=shard,
                frontier=frontier_slice,
                tail_ids=tail_ids,
                is_last_round=False,
                table=kb.shard_table(shard),
            )
            direct = scan_shard(task)
            thawed_result = scan_shard(roundtrip(task))
            assert thawed_result.records == direct.records
            assert thawed_result.additions == direct.additions
            assert roundtrip(direct) == direct


class TestLiveSystemPickle:
    def test_kbqa_itself_refuses_to_pickle(self, kbqa_fb):
        with pytest.raises(TypeError, match="not picklable"):
            pickle.dumps(kbqa_fb)
