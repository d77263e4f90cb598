"""String-level reference for the Sec 6.2 predicate expansion.

The original implementation of ``expand_predicates``: it scans
``store.triples()`` and joins on decoded subjects, one
:class:`~repro.kb.paths.PredicatePath` per frontier entry.  The ID-native scan
in :mod:`repro.kb.expansion` is held to the same triple set by
``tests/test_id_native_equivalence.py``; ``benchmarks/bench_offline_timecost.py``
and the ``-m perf`` floors time the two side by side.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterable

from repro.kb.backend import KBBackend
from repro.kb.expansion import DEFAULT_TAIL_PREDICATES, ExpandedStore
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
                    expanded.record(seed, path, triple.object)
                if round_index < max_length:
                    next_frontier[triple.object].add((seed, path))
        frontier = next_frontier

    return expanded
