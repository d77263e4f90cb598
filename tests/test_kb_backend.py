"""The KB backend seam: protocol conformance and live add/delete with
change notification, on every backend.

Backend *equivalence* (same add sequence -> identical dictionary ids,
lookups, expansion bytes and answers on memory and disk) lives in
``tests/test_disk_backend.py``.
"""

import pytest

from repro.kb.backend import ADD, DELETE, KBBackend, KBChange
from repro.kb.disk import DiskTripleStore
from repro.kb.store import TripleStore
from repro.kb.triple import Triple, make_literal


# every live-mutation test runs against both backends — the disk store
# must match the in-memory semantics listener-for-listener
_BACKENDS = pytest.mark.parametrize(
    "factory", [TripleStore, DiskTripleStore], ids=["memory", "disk"]
)


def _toy(kb):
    kb.add("a", "name", make_literal("alice"))
    kb.add("a", "marriage", "cvt1")
    kb.add("cvt1", "person", "b")
    kb.add("cvt1", "date", make_literal("1990"))
    kb.add("b", "name", make_literal("bob"))
    kb.add("a", "pob", "city")
    kb.add("city", "name", make_literal("springfield"))
    kb.add("city", "mayor", "m")
    kb.add("m", "name", make_literal("mel"))
    return kb


class TestProtocolConformance:
    def test_both_implementations_satisfy_the_protocol(self):
        assert isinstance(TripleStore(), KBBackend)
        assert isinstance(DiskTripleStore(), KBBackend)


class TestDelete:
    @_BACKENDS
    def test_delete_removes_from_all_indexes(self, factory):
        kb = _toy(factory())
        n = len(kb)
        assert kb.delete("cvt1", "person", "b")
        assert len(kb) == n - 1
        assert not kb.has("cvt1", "person", "b")
        assert kb.objects("cvt1", "person") == set()
        assert kb.predicates_between("cvt1", "b") == set()
        assert kb.stats()["predicates"] == 5  # "person" had one triple

    @_BACKENDS
    def test_delete_prunes_ghost_subjects(self, factory):
        kb = _toy(factory())
        assert kb.delete("m", "name", make_literal("mel"))
        assert not kb.has_subject("m")
        assert Triple("m", "name", make_literal("mel")) not in kb

    @_BACKENDS
    def test_delete_absent_returns_false(self, factory):
        kb = _toy(factory())
        n = len(kb)
        assert not kb.delete("a", "name", make_literal("nobody"))
        assert not kb.delete("ghost", "name", make_literal("alice"))
        assert len(kb) == n

    def test_add_after_delete_round_trips(self):
        kb = _toy(TripleStore())
        assert kb.delete("a", "pob", "city")
        assert kb.add("a", "pob", "city")
        assert kb.objects("a", "pob") == {"city"}


class TestChangeNotification:
    @_BACKENDS
    def test_add_and_delete_notify(self, factory):
        kb = factory()
        changes: list[KBChange] = []
        kb.subscribe(changes.extend)
        kb.add("s", "p", "o")
        assert [c.action for c in changes] == [ADD]
        s, p, o = changes[0].subject_id, changes[0].predicate_id, changes[0].object_id
        decode = kb.dictionary.decode
        assert (decode(s), decode(p), decode(o)) == ("s", "p", "o")
        kb.delete("s", "p", "o")
        assert [c.action for c in changes] == [ADD, DELETE]
        assert changes[1] == KBChange(DELETE, s, p, o)

    @_BACKENDS
    def test_no_notification_on_noop(self, factory):
        kb = factory()
        kb.add("s", "p", "o")
        changes: list[KBChange] = []
        kb.subscribe(changes.extend)
        kb.add("s", "p", "o")  # duplicate
        kb.delete("s", "p", "missing")  # absent
        assert changes == []

    def test_unsubscribe(self):
        kb = TripleStore()
        changes: list[KBChange] = []
        unsubscribe = kb.subscribe(changes.extend)
        kb.add("s", "p", "o")
        unsubscribe()
        kb.add("s", "p", "o2")
        assert len(changes) == 1
        unsubscribe()  # idempotent
