"""String-level reference for the Sec 6.2 predicate expansion.

The original implementation of ``expand_predicates``: it scans
``store.triples()`` and joins on decoded subjects, one
:class:`~repro.kb.paths.PredicatePath` per frontier entry.  The ID-native scan
in :mod:`repro.kb.expansion` is held to the same triple set by
``tests/test_id_native_equivalence.py``; ``benchmarks/bench_offline_timecost.py``
and the ``-m perf`` floors time the two side by side.

:func:`record` and :func:`record_encoded` write one triple into an
:class:`~repro.kb.expansion.ExpandedStore`.
The product fills a store only through its bulk pass (the scan and the
artifact load); the reference scan and the store tests write one at a time.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterable

from repro.kb.backend import KBBackend
from repro.kb.expansion import _ID_BITS, DEFAULT_TAIL_PREDICATES, ExpandedStore, _with
from repro.kb.paths import PredicatePath


def expand_predicates_baseline(
    store: KBBackend,
    seeds: Iterable[str],
    max_length: int = 3,
    tail_predicates: frozenset[str] = DEFAULT_TAIL_PREDICATES,
) -> ExpandedStore:
    """The original string-level expansion, kept as the reference.

    Scans ``store.triples()`` (materializing a :class:`~repro.kb.triple.Triple`
    and three term strings per row) and joins on decoded subjects.  Equivalence
    tests assert :func:`expand_predicates` produces the identical triple set;
    ``benchmarks/bench_offline_timecost.py`` and the perf harness report the
    before/after wall-clock.
    """
    if max_length < 1:
        raise ValueError(f"max_length must be >= 1, got {max_length}")

    expanded = ExpandedStore(max_length=max_length, tail_predicates=tail_predicates)
    seed_set = {s for s in seeds if store.has_subject(s)}
    if not seed_set:
        return expanded

    frontier: dict[str, set[tuple[str, PredicatePath | None]]] = {
        seed: {(seed, None)} for seed in seed_set
    }

    for round_index in range(1, max_length + 1):
        next_frontier: dict[str, set[tuple[str, PredicatePath | None]]] = defaultdict(set)
        for triple in store.triples():
            provenance = frontier.get(triple.subject)
            if not provenance:
                continue
            for seed, prefix in provenance:
                path = (
                    PredicatePath.single(triple.predicate)
                    if prefix is None
                    else prefix.extend(triple.predicate)
                )
                if len(path) == 1 or path.last in tail_predicates:
                    record(expanded, seed, path, triple.object)
                if round_index < max_length:
                    next_frontier[triple.object].add((seed, path))
        frontier = next_frontier

    return expanded


def record(expanded: ExpandedStore, subject: str, path: PredicatePath, obj: str) -> bool:
    """Insert one (s, p+, o) triple given as strings (idempotent)."""
    encode = expanded.dictionary.encode
    path_key = tuple(encode(p) for p in path.predicates)
    return record_encoded(expanded, encode(subject), path_key, encode(obj))


def record_encoded(
    expanded: ExpandedStore, subject_id: int, path_key: tuple[int, ...], object_id: int
) -> bool:
    """Insert one id-encoded (s, p+, o) triple (idempotent)."""
    p_id = expanded.path_id(path_key)
    by_path = expanded._by_subject.get(subject_id)
    if by_path is None:
        by_path = expanded._by_subject[subject_id] = {}
    objects = _with(by_path.get(p_id), object_id)
    if objects is None:
        return False
    by_path[p_id] = objects
    pair = subject_id << _ID_BITS | object_id
    expanded._by_pair[pair] = _with(expanded._by_pair.get(pair), p_id)
    expanded._triple_count += 1
    # invalidate any frozen views covering this key
    expanded._objects_cache.pop((subject_id, p_id), None)
    expanded._pairs_cache.pop((subject_id, object_id), None)
    return True

