"""The expansion's immutable entries: GC footprint and hub nodes.

Every id set of an :class:`ExpandedStore` is a bare int (one member) or a
sorted tuple (more), and the Sec 6.2 scan collects packed ints instead of
per-node sets.  Two things follow and are held here:

* the collector-tracked objects a scan or a load leaves behind do not grow
  with the number of expanded triples (ints are never tracked, and a tuple
  of ints is untracked on the first collection that sees it);
* at the benchmark's scale a scan or a load allocates little beyond the
  store it returns (its bulk build fills the store one section at a time);
* the store keeps one int object per distinct id, not one per occurrence;
* a hub — one node reached by thousands of seeds, whose frontier entry and
  reach entry are thousand-member tuples — expands, invalidates, refreshes
  and round-trips exactly like the string-level reference
  (``tests/oracles/expansion_reference.py``).
"""

import gc
import tracemalloc

import pytest

from oracles.expansion_reference import expand_predicates_baseline, reach_reference
from repro.core.learner import collect_seed_entities
from repro.kb.expansion import ExpandedStore, _members, expand_predicates
from repro.kb.live import LiveExpansionMaintainer
from repro.kb.store import TripleStore
from repro.kb.triple import make_literal
from repro.nlp.ner import EntityRecognizer
from repro.suite import build_suite


def _people_kb(n_people: int) -> TripleStore:
    """People with names, spouses and home cities; cities with mayors."""
    kb = TripleStore()
    for city in range(7):
        kb.add(f"city{city}", "name", make_literal(f"city {city}"))
        kb.add(f"city{city}", "mayor", f"mayor{city}")
        kb.add(f"mayor{city}", "name", make_literal(f"mayor {city}"))
    for person in range(n_people):
        kb.add(f"p{person}", "name", make_literal(f"person {person}"))
        kb.add(f"p{person}", "born_in", f"city{person % 7}")
        kb.add(f"p{person}", "marriage", f"m{person}")
        kb.add(f"m{person}", "person", f"p{(person + 1) % n_people}")
        kb.add(f"m{person}", "date", make_literal(str(1900 + person % 100)))
    return kb


def _retained(build):
    """``build()`` and the collector-tracked objects it leaves behind once a
    full collection has run."""
    gc.collect()
    before = len(gc.get_objects())
    built = build()
    gc.collect()
    return built, len(gc.get_objects()) - before


def _traced(build):
    """``build()``, tracemalloc's peak above the start, and what is still
    allocated above the start on return (what the result holds)."""
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        built = build()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return built, peak - start, held - start


def _decoded(expanded: ExpandedStore):
    """Triples and reach of an expansion, as strings."""
    decode = expanded.dictionary.decode
    return (
        {(s, str(p), o) for s, p, o in expanded.triples()},
        {
            decode(node): frozenset(decode(seed) for seed in seeds)
            for node, seeds in expanded.reach_items()
        },
    )


def _reference(kb: TripleStore, seeds, max_length: int = 3):
    baseline = expand_predicates_baseline(kb, seeds, max_length=max_length)
    return (
        {(s, str(p), o) for s, p, o in baseline.triples()},
        reach_reference(kb, seeds, max_length),
    )


class TestGcFootprint:
    # the store object, its few dicts and lists, its seed set and tail
    # frozenset, and the dictionary a load brings: a handful, at any size
    BOUND = 40

    @pytest.mark.parametrize("n_people", [40, 400])
    def test_a_scan_retains_a_constant_number_of_tracked_objects(self, n_people):
        kb = _people_kb(n_people)
        seeds = [f"p{person}" for person in range(n_people)]
        expanded, retained = _retained(lambda: expand_predicates(kb, seeds, max_length=3))
        assert len(expanded) >= 5 * n_people
        assert retained <= self.BOUND, (
            f"{retained} tracked objects retained for {len(expanded)} triples"
        )

    @pytest.mark.parametrize("n_people", [40, 400])
    def test_a_load_retains_a_constant_number_of_tracked_objects(self, n_people, tmp_path):
        kb = _people_kb(n_people)
        seeds = [f"p{person}" for person in range(n_people)]
        path = tmp_path / "expansion.kbqa"
        expand_predicates(kb, seeds, max_length=3).save(path)
        loaded, retained = _retained(lambda: ExpandedStore.load(path))
        assert len(loaded) >= 5 * n_people
        assert retained <= self.BOUND, (
            f"{retained} tracked objects retained for {len(loaded)} triples"
        )

    @pytest.mark.perf
    def test_default_scale_scan_and_load_stay_under_5000_tracked_objects(self, tmp_path):
        """At the benchmark's scale, before any full collection: what a scan
        or a load adds is what the collector's next full pass walks (a
        load added 80 071 with one container per set)."""
        suite = build_suite("default", seed=7)
        kb = suite.freebase
        seeds = collect_seed_entities(suite.corpus, EntityRecognizer(kb.gazetteer))
        gc.collect()
        before = len(gc.get_objects())
        expanded = expand_predicates(kb.store, seeds, max_length=3)
        scanned = len(gc.get_objects()) - before
        path = tmp_path / "expansion.kbqa"
        expanded.save(path)
        del expanded
        gc.collect()
        before = len(gc.get_objects())
        loaded = ExpandedStore.load(path)
        added = len(gc.get_objects()) - before
        assert len(loaded) > 30_000
        assert scanned <= 5_000, f"the scan added {scanned} tracked objects"
        assert added <= 5_000, f"the load added {added} tracked objects"

    @pytest.mark.perf
    def test_default_scale_scan_and_load_peak_near_what_they_hold(self, tmp_path):
        """tracemalloc's peak above what the returned store holds (5.6 MiB
        scanned, 6.7 MiB loaded; 3.1 and 2.0 MiB above).  The scan's was
        16.3 MiB when it carried a way to every object, subject or not, and
        its bulk build held the scan's sets, their sorted lists, every
        column and the growing store at once; the load's was 4.8 MiB when it
        held the file's bytes and every section through the build.  The
        stores held 8.4 and 9.2 MiB while they kept an int object per id
        occurrence."""
        suite = build_suite("default", seed=7)
        kb = suite.freebase
        seeds = collect_seed_entities(suite.corpus, EntityRecognizer(kb.gazetteer))
        expanded, scan_peak, scan_held = _traced(
            lambda: expand_predicates(kb.store, seeds, max_length=3)
        )
        path = tmp_path / "expansion.kbqa"
        expanded.save(path)
        del expanded
        loaded, load_peak, load_held = _traced(lambda: ExpandedStore.load(path))
        assert len(loaded) > 30_000
        mib = 1 << 20
        assert scan_peak - scan_held <= 6 * mib, (
            f"the scan peaked {(scan_peak - scan_held) / mib:.1f} MiB above "
            f"the {scan_held / mib:.1f} MiB its store holds"
        )
        assert load_peak - load_held <= 4 * mib, (
            f"the load peaked {(load_peak - load_held) / mib:.1f} MiB above "
            f"the {load_held / mib:.1f} MiB its store holds"
        )


def _held_ids(expanded: ExpandedStore) -> list[int]:
    """Every id the store keeps: seeds, subjects, path ids, objects, reach
    nodes and their seeds (occurrences, not distinct values)."""
    held = list(expanded.seed_ids)
    for s_id, by_path in expanded._by_subject.items():
        held.append(s_id)
        for p_id, objects in by_path.items():
            held.append(p_id)
            held.extend(_members(objects))
    for node_id, seeds in expanded._reached_from.items():
        held.append(node_id)
        held.extend(_members(seeds))
    return held


class TestOneIntPerId:
    """Shifting packed ints apart, or unpacking an artifact, makes an int
    object per id occurrence; the bulk build keeps one per distinct id."""

    def _assert_one_object_per_id(self, expanded: ExpandedStore) -> None:
        held = _held_ids(expanded)
        assert max(held) > 256  # past CPython's cached small ints
        assert len({id(i) for i in held}) == len(set(held)), (
            f"{len(held)} ids held as {len({id(i) for i in held})} objects "
            f"for {len(set(held))} distinct ids"
        )

    def test_after_a_scan(self):
        kb = _people_kb(400)
        seeds = [f"p{person}" for person in range(400)]
        self._assert_one_object_per_id(expand_predicates(kb, seeds, max_length=3))

    def test_after_a_load(self, tmp_path):
        kb = _people_kb(400)
        seeds = [f"p{person}" for person in range(400)]
        path = tmp_path / "expansion.kbqa"
        expand_predicates(kb, seeds, max_length=3).save(path)
        self._assert_one_object_per_id(ExpandedStore.load(path))


class TestHubs:
    """One node reached by 2 000 seeds through two predicates."""

    N_SEEDS = 2_000

    @pytest.fixture()
    def hub_kb(self):
        kb = TripleStore()
        kb.add("hub", "name", make_literal("the hub"))
        for leaf in range(3):
            kb.add("hub", "part", f"leaf{leaf}")
            kb.add(f"leaf{leaf}", "name", make_literal(f"leaf {leaf}"))
        for seed in range(self.N_SEEDS):
            kb.add(f"s{seed}", "name", make_literal(f"seed {seed}"))
            kb.add(f"s{seed}", "member_of", "hub")
            if seed % 3 == 0:  # a second prefix into the hub
                kb.add(f"s{seed}", "visited", "hub")
        return kb

    @pytest.fixture()
    def seeds(self):
        return [f"s{seed}" for seed in range(self.N_SEEDS)]

    def test_expansion_and_reach_equal_the_reference(self, hub_kb, seeds):
        expanded = expand_predicates(hub_kb, seeds, max_length=3)
        triples, reach = _decoded(expanded)
        assert (triples, reach) == _reference(hub_kb, seeds)
        assert len(reach["hub"]) == self.N_SEEDS
        hub_id = expanded.dictionary.lookup("hub")
        assert len(expanded.seeds_through(hub_id)) == self.N_SEEDS

    def test_invalidate_and_refresh_equal_the_reference(self, hub_kb, seeds):
        expanded = expand_predicates(hub_kb, seeds, max_length=3)
        maintainer = LiveExpansionMaintainer(hub_kb, expanded, seeds)
        dropped = seeds[::250]
        assert expanded.invalidate_seeds(dropped)
        kept = [seed for seed in seeds if seed not in dropped]
        assert _decoded(expanded) == _reference(hub_kb, kept)
        maintainer.refresh(dropped)
        assert _decoded(expanded) == _reference(hub_kb, seeds)
        # an edit under the hub refreshes every seed through it, once, in
        # one expansion: at most max_length scans of the KB, not that many
        # per seed
        scans = []
        scan = hub_kb.spo_items_ids
        hub_kb.spo_items_ids = lambda: (scans.append(1), scan())[1]
        with hub_kb.batch():
            hub_kb.add("hub", "part", "leaf9")
            hub_kb.add("leaf9", "name", make_literal("leaf 9"))
        assert 0 < len(scans) <= expanded.max_length
        del hub_kb.spo_items_ids
        assert maintainer.seeds_refreshed == len(dropped) + self.N_SEEDS
        assert _decoded(expanded) == _reference(hub_kb, seeds)
        maintainer.close()

    def test_save_load_round_trip_equals_the_reference(self, hub_kb, seeds, tmp_path):
        path = tmp_path / "hub.kbqa"
        expand_predicates(hub_kb, seeds, max_length=3).save(path)
        loaded = ExpandedStore.load(path)
        assert _decoded(loaded) == _reference(hub_kb, seeds)
        resaved = tmp_path / "hub2.kbqa"
        loaded.save(resaved)
        assert resaved.read_bytes() == path.read_bytes()
