"""Selection of the expansion length ``k`` (Sec 6.3, Eq 29, Table 4).

``valid(k)`` counts, over the most frequent entities, the ``(s, p+, o)``
triples of length exactly ``k`` whose (subject, object) pair also appears as
a direct fact in the Infobox.  A length whose triples mostly fail the check
adds noise rather than coverage; the paper picks the largest ``k`` before
the collapse (k = 3 on their data).
"""

from __future__ import annotations

from repro.data.infobox import Infobox
from repro.kb.expansion import expand_predicates
from repro.kb.backend import KBBackend
from repro.kb.triple import is_literal, literal_value


def top_entities_by_frequency(store: KBBackend, count: int) -> list[str]:
    """Entities ordered by triple frequency, then name (the paper samples
    the top 17,000 'because they have richer facts'); one grouped scan."""
    decode = store.dictionary.decode
    ranked = []
    for s_id, by_predicate in store.spo_items_ids():
        subject = decode(s_id)
        if subject.startswith("m."):  # entity nodes, not CVT mediators
            ranked.append((-sum(map(len, by_predicate.values())), subject))
    ranked.sort()
    return [subject for _neg_degree, subject in ranked[:count]]


def valid_k(
    store: KBBackend,
    infobox: Infobox,
    max_length: int = 3,
    sample_entities: int = 500,
) -> dict[int, int]:
    """Compute ``valid(k)`` for each ``k`` in ``1..max_length`` (Eq 29)."""
    entities = top_entities_by_frequency(store, sample_entities)
    expanded = expand_predicates(store, entities, max_length=max_length)
    counts = {k: 0 for k in range(1, max_length + 1)}
    for subject, path, obj in expanded.triples():
        if not is_literal(obj):
            continue
        if infobox.has_fact(subject, literal_value(obj)):
            counts[len(path)] += 1
    return counts


def choose_k(valid_counts: dict[int, int], collapse_ratio: float = 0.5) -> int:
    """Pick the largest k before valid(k) collapses (paper's Sec 6.3 rule).

    A length ``k`` is kept while ``valid(k)`` retains at least
    ``collapse_ratio`` of the previous length's count *or* still contributes
    a nontrivial number of meaningful facts; the paper keeps k = 3 despite
    the drop because the surviving triples are the CVT relations.
    """
    if not valid_counts:
        return 1
    chosen = 1
    previous = valid_counts.get(1, 0)
    for k in sorted(valid_counts)[1:]:
        current = valid_counts[k]
        if previous > 0 and current == 0:
            break
        chosen = k
        if previous > 0 and current / previous < collapse_ratio:
            break
        previous = current
    return chosen
