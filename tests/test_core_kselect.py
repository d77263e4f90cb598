"""Tests for valid(k) and the expansion-length selection (Sec 6.3)."""

from collections import Counter

import pytest

from repro.core.kselect import choose_k, top_entities_by_frequency, valid_k
from repro.kb.disk import DiskTripleStore
from repro.kb.store import TripleStore


def _out_degrees(store) -> Counter:
    """Triples per subject, counted off the decoded scan."""
    return Counter(t.subject for t in store.triples())


def _reference_top_entities(store, count: int) -> list[str]:
    """The per-subject formulation the grouped scan replaced: every
    subject's out-degree, entity nodes only, by degree then name."""
    degrees = _out_degrees(store)
    subjects = [(degrees[s], s) for s in degrees if s.startswith("m.")]
    subjects.sort(key=lambda pair: (-pair[0], pair[1]))
    return [s for _degree, s in subjects[:count]]


class TestTopEntities:
    def test_ordered_by_out_degree(self, suite):
        store = suite.freebase.store
        top = top_entities_by_frequency(store, 10)
        degrees = [_out_degrees(store)[e] for e in top]
        assert degrees == sorted(degrees, reverse=True)

    @pytest.mark.parametrize("kb", ["freebase", "dbpedia"])
    @pytest.mark.parametrize("factory", [TripleStore, DiskTripleStore], ids=["memory", "disk"])
    def test_matches_the_reference_on_both_backends(self, suite, kb, factory):
        store = factory()
        store.add_all(getattr(suite, kb).store.triples())
        for count in (10, 500, len(store)):
            expected = _reference_top_entities(store, count)
            assert top_entities_by_frequency(store, count) == expected

    def test_excludes_cvt_nodes(self, suite):
        top = top_entities_by_frequency(suite.freebase.store, 100)
        assert all(not node.startswith("cvt.") for node in top)

    def test_count_respected(self, suite):
        assert len(top_entities_by_frequency(suite.freebase.store, 5)) == 5


class TestValidK:
    def test_table4_shape_freebase(self, suite):
        """Table 4's KBA shape: valid(2) > valid(1), collapse at k=3."""
        counts = valid_k(suite.freebase.store, suite.infobox, 3, sample_entities=200)
        assert counts[2] > counts[1]
        assert counts[3] < 0.7 * counts[2]
        assert counts[3] > 0  # the surviving CVT relations are real

    def test_table4_shape_dbpedia(self, suite):
        """DBpedia's shape: k=3 collapses to almost nothing (no CVTs)."""
        counts = valid_k(suite.dbpedia.store, suite.infobox, 3, sample_entities=200)
        assert counts[2] > 0
        assert counts[3] < 0.1 * counts[2]

    def test_more_entities_more_valid(self, suite):
        small = valid_k(suite.freebase.store, suite.infobox, 2, sample_entities=50)
        large = valid_k(suite.freebase.store, suite.infobox, 2, sample_entities=200)
        assert large[1] >= small[1]

    def test_keys_cover_all_lengths(self, suite):
        counts = valid_k(suite.freebase.store, suite.infobox, 3, sample_entities=20)
        assert set(counts) == {1, 2, 3}


class TestChooseK:
    def test_paper_choice_is_three(self, suite):
        counts = valid_k(suite.freebase.store, suite.infobox, 3, sample_entities=200)
        assert choose_k(counts) == 3

    def test_zero_tail_excluded(self):
        assert choose_k({1: 100, 2: 120, 3: 0}) == 2

    def test_collapse_included_then_stop(self):
        # the paper keeps k=3 despite the drop (meaningful CVTs survive)
        assert choose_k({1: 100, 2: 120, 3: 20, 4: 15}) == 3

    def test_empty(self):
        assert choose_k({}) == 1

    def test_single_level(self):
        assert choose_k({1: 10}) == 1
