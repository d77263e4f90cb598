"""ExpandedStore persistence: save -> load round trip, format guards, and
training resumption (``KBQA.train(..., expanded=...)`` must answer without
re-running ``expand_predicates``).

Three artifact formats are locked down here: the v1 line-JSON layout, the
binary mmap v2 layout (`repro.kb.expanded_v2`), and the disk-native v3
layout (`repro.kb.expanded_v3`) whose sorted index sections answer lookups
by binary search straight off the mmap.  The equivalence suites prove the
formats are interchangeable to the byte: converting in any direction
reproduces the other side's canonical bytes, content (seeds, tails, reach)
survives, and systems trained from any artifact answer identically — with
the v3 store staying mapped (zero dict materialization) through serving.
"""

import struct

import pytest

import repro.core.learner as learner_module
from repro.core.system import KBQA
from repro.kb.expanded_v2 import EXPANSION_V2_MAGIC, EXPANSION_V2_VERSION, is_v2_file
from repro.kb.expanded_v3 import EXPANSION_V3_MAGIC, EXPANSION_V3_VERSION, is_v3_file
from repro.kb.expansion import (
    EXPANDED_FORMAT_ENV,
    EXPANSION_FORMAT_VERSION,
    EXPANSION_MAGIC,
    ExpandedStore,
    expand_predicates,
)
from repro.kb.paths import PredicatePath
from repro.kb.store import TripleStore
from repro.kb.triple import make_literal


@pytest.fixture()
def expanded(suite):
    seeds = [e.node for e in suite.world.of_type("person")[:12]]
    seeds += [e.node for e in suite.world.of_type("city")[:6]]
    return expand_predicates(
        suite.freebase.store, seeds, max_length=3, record_reach=True
    )


class TestRoundTrip:
    def test_triples_stats_and_inventory_survive(self, expanded, tmp_path):
        path = tmp_path / "expansion.kbqa"
        expanded.save(path)
        loaded = ExpandedStore.load(path)
        assert len(loaded) == len(expanded) > 0
        assert loaded.stats() == expanded.stats()
        assert loaded.max_length == expanded.max_length
        assert loaded.tail_predicates == expanded.tail_predicates
        assert {(s, str(p), o) for s, p, o in loaded.triples()} == {
            (s, str(p), o) for s, p, o in expanded.triples()
        }
        assert loaded.distinct_paths() == expanded.distinct_paths()
        assert set(loaded.subjects()) == set(expanded.subjects())

    def test_frozen_views_equal_after_reload(self, expanded, tmp_path):
        path = tmp_path / "expansion.kbqa"
        expanded.save(path)
        loaded = ExpandedStore.load(path)
        subject, p_plus, obj = next(expanded.triples())
        assert loaded.objects(subject, p_plus) == expanded.objects(subject, p_plus)
        assert loaded.paths_between(subject, obj) == expanded.paths_between(subject, obj)
        assert loaded.paths_of(subject) == expanded.paths_of(subject)
        # the reloaded store serves shared frozen views exactly like the original
        assert loaded.objects(subject, p_plus) is loaded.objects(subject, p_plus)

    def test_seed_and_reach_provenance_survive(self, expanded, tmp_path):
        path = tmp_path / "expansion.kbqa"
        expanded.save(path)
        loaded = ExpandedStore.load(path)
        decode_old = expanded.dictionary.decode
        decode_new = loaded.dictionary.decode
        assert {decode_new(s) for s in loaded.seed_ids} == {
            decode_old(s) for s in expanded.seed_ids
        }
        old_reach = {
            decode_old(node): {decode_old(s) for s in seeds}
            for node, seeds in expanded.reach_items()
        }
        new_reach = {
            decode_new(node): {decode_new(s) for s in seeds}
            for node, seeds in loaded.reach_items()
        }
        assert new_reach == old_reach

    def test_save_is_deterministic(self, expanded, tmp_path):
        first = tmp_path / "first.kbqa"
        second = tmp_path / "second.kbqa"
        expanded.save(first)
        expanded.save(second)
        assert first.read_bytes() == second.read_bytes()

    def test_reload_of_reload_is_byte_identical(self, expanded, tmp_path):
        original = tmp_path / "original.kbqa"
        again = tmp_path / "again.kbqa"
        expanded.save(original)
        ExpandedStore.load(original).save(again)
        assert original.read_bytes() == again.read_bytes()


class TestFormatGuards:
    def test_rejects_wrong_magic(self, tmp_path):
        path = tmp_path / "bad.kbqa"
        path.write_text("NOT-AN-EXPANSION 1\n{}\n")
        with pytest.raises(ValueError, match=EXPANSION_MAGIC):
            ExpandedStore.load(path)

    def test_rejects_unsupported_version(self, tmp_path):
        path = tmp_path / "future.kbqa"
        path.write_text(f"{EXPANSION_MAGIC} {EXPANSION_FORMAT_VERSION + 1}\n{{}}\n")
        with pytest.raises(ValueError, match="version"):
            ExpandedStore.load(path)

    def test_rejects_empty_file(self, tmp_path):
        path = tmp_path / "empty.kbqa"
        path.write_text("")
        with pytest.raises(ValueError, match="empty"):
            ExpandedStore.load(path)

    def test_rejects_truncated_triples(self, expanded, tmp_path):
        path = tmp_path / "truncated.kbqa"
        expanded.save(path, format="v1")  # this test edits v1 lines
        lines = path.read_text().splitlines()
        # drop the final subject group line but keep the header counts
        n_reach = sum(1 for _ in expanded.reach_items())
        del lines[-1 - n_reach]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises((ValueError, IndexError)):
            ExpandedStore.load(path)

    def test_rejects_out_of_range_ids_at_load_time(self, tmp_path):
        """Corrupt ids must fail the documented load-time ValueError, not a
        KeyError at first decode."""
        kb = TripleStore()
        kb.add("s", "name", make_literal("x"))
        expanded = expand_predicates(kb, ["s"], max_length=1)
        path = tmp_path / "corrupt.kbqa"
        expanded.save(path, format="v1")  # this test edits v1 lines
        lines = path.read_text().splitlines()
        # the last line is the single subject group: [s, [[p, [o]]]] — point
        # its object id far past the dictionary
        import json

        s_id, groups = json.loads(lines[-1])
        groups[0][1] = [9999]
        lines[-1] = json.dumps([s_id, groups])
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="out of range"):
            ExpandedStore.load(path)

    def test_mismatched_max_length_rejected_at_train(self, suite, tmp_path):
        """A k=2 artifact must not silently override a k=3 learner config."""
        seeds = [e.node for e in suite.world.of_type("person")[:4]]
        short = expand_predicates(suite.freebase.store, seeds, max_length=2)
        path = tmp_path / "short.kbqa"
        short.save(path)
        with pytest.raises(ValueError, match="max_length"):
            KBQA.train(
                suite.freebase,
                suite.corpus,
                suite.conceptualizer,
                expanded=ExpandedStore.load(path),
            )

    def test_special_characters_round_trip(self, tmp_path):
        kb = TripleStore()
        tricky = make_literal('line\nbreak "and\ttab"')
        kb.add("s", "name", tricky)
        expanded = expand_predicates(kb, ["s"], max_length=1)
        path = tmp_path / "tricky.kbqa"
        expanded.save(path)
        loaded = ExpandedStore.load(path)
        assert loaded.objects("s", PredicatePath.single("name")) == {tricky}


class TestV2Format:
    """The binary mmap v2 artifact: byte-level v1<->v2 equivalence plus the
    rejection paths a corrupted/foreign v2 file must take."""

    def test_v1_v2_round_trip_is_byte_identical_both_ways(self, expanded, tmp_path):
        """Acceptance: converting v2 -> v1 reproduces the direct v1 bytes,
        and v1 -> v2 reproduces the direct v2 bytes."""
        v1, v2 = tmp_path / "a.v1", tmp_path / "a.v2"
        expanded.save(v1, format="v1")
        expanded.save(v2, format="v2")
        assert is_v2_file(v2) and not is_v2_file(v1)
        via_v2 = tmp_path / "b.v1"
        ExpandedStore.load(v2).save(via_v2, format="v1")
        assert via_v2.read_bytes() == v1.read_bytes()
        via_v1 = tmp_path / "b.v2"
        ExpandedStore.load(v1).save(via_v1, format="v2")
        assert via_v1.read_bytes() == v2.read_bytes()

    def test_v2_save_is_deterministic(self, expanded, tmp_path):
        first, second = tmp_path / "first.v2", tmp_path / "second.v2"
        expanded.save(first, format="v2")
        expanded.save(second, format="v2")
        assert first.read_bytes() == second.read_bytes()

    def test_seeds_tails_and_reach_survive_v2(self, expanded, tmp_path):
        path = tmp_path / "expansion.v2"
        expanded.save(path, format="v2")
        loaded = ExpandedStore.load(path)
        assert loaded.tail_predicates == expanded.tail_predicates
        assert loaded.max_length == expanded.max_length
        assert loaded.stats() == expanded.stats()
        decode_old, decode_new = expanded.dictionary.decode, loaded.dictionary.decode
        assert {decode_new(s) for s in loaded.seed_ids} == {
            decode_old(s) for s in expanded.seed_ids
        }
        assert {
            decode_new(n): {decode_new(s) for s in seeds}
            for n, seeds in loaded.reach_items()
        } == {
            decode_old(n): {decode_old(s) for s in seeds}
            for n, seeds in expanded.reach_items()
        }
        assert {(s, str(p), o) for s, p, o in loaded.triples()} == {
            (s, str(p), o) for s, p, o in expanded.triples()
        }

    def test_answer_many_identical_from_v1_and_v2_artifacts(
        self, suite, kbqa_fb, tmp_path
    ):
        """Acceptance: systems resumed from a v1 and a v2 artifact of the
        same expansion answer the qald3 BFQ set identically."""
        expanded = kbqa_fb.learn_result.expanded
        v1, v2 = tmp_path / "e.v1", tmp_path / "e.v2"
        expanded.save(v1, format="v1")
        expanded.save(v2, format="v2")
        questions = [q.question for q in suite.benchmark("qald3").bfqs()]
        with KBQA.train(
            suite.freebase, suite.corpus, suite.conceptualizer,
            expanded=ExpandedStore.load(v1),
        ) as from_v1, KBQA.train(
            suite.freebase, suite.corpus, suite.conceptualizer,
            expanded=ExpandedStore.load(v2),
        ) as from_v2:
            assert from_v1.answer_many(questions) == from_v2.answer_many(questions)
            assert from_v2.answer_many(questions) == kbqa_fb.answer_many(questions)

    def test_special_characters_round_trip_v2(self, tmp_path):
        kb = TripleStore()
        tricky = make_literal('line\nbreak "and\ttab" é中')
        kb.add("s", "name", tricky)
        expanded = expand_predicates(kb, ["s"], max_length=1)
        path = tmp_path / "tricky.v2"
        expanded.save(path, format="v2")
        loaded = ExpandedStore.load(path)
        assert loaded.objects("s", PredicatePath.single("name")) == {tricky}

    def test_env_selects_v2_default(self, expanded, tmp_path, monkeypatch):
        """The CI leg's KBQA_EXPANDED_FORMAT=v2 must flip the *default*
        save format while format= stays authoritative."""
        monkeypatch.setenv(EXPANDED_FORMAT_ENV, "v2")
        by_env = tmp_path / "by_env.kbqa"
        expanded.save(by_env)
        assert is_v2_file(by_env)
        pinned = tmp_path / "pinned.kbqa"
        expanded.save(pinned, format="v1")
        assert not is_v2_file(pinned)
        monkeypatch.setenv(EXPANDED_FORMAT_ENV, "v9")
        with pytest.raises(ValueError, match="unknown expansion format"):
            expanded.save(tmp_path / "nope.kbqa")

    def test_rejects_truncated_v2(self, expanded, tmp_path):
        path = tmp_path / "whole.v2"
        expanded.save(path, format="v2")
        data = path.read_bytes()
        for cut in (len(data) - 7, len(data) // 2, 40):
            clipped = tmp_path / f"clipped-{cut}.v2"
            clipped.write_bytes(data[:cut])
            with pytest.raises(ValueError, match="truncat|header"):
                ExpandedStore.load(clipped)

    def test_rejects_version_mismatch_v2(self, expanded, tmp_path):
        path = tmp_path / "future.v2"
        expanded.save(path, format="v2")
        data = bytearray(path.read_bytes())
        # the version is the first u32 after the 8-byte magic
        struct.pack_into("<I", data, len(EXPANSION_V2_MAGIC), EXPANSION_V2_VERSION + 1)
        path.write_bytes(bytes(data))
        with pytest.raises(ValueError, match="version"):
            ExpandedStore.load(path)

    def test_rejects_out_of_bounds_ids_v2(self, tmp_path):
        """A corrupt object id past the dictionary fails the documented
        load-time ValueError, before any decode uses it."""
        kb = TripleStore()
        kb.add("s", "name", make_literal("x"))
        expanded = expand_predicates(kb, ["s"], max_length=1)
        path = tmp_path / "corrupt.v2"
        expanded.save(path, format="v2")
        data = bytearray(path.read_bytes())
        # the single object id is the last u32 before the (empty) reach
        # sections; with one triple and no reach it is the final u32
        struct.pack_into("<I", data, len(data) - 4, 9999)
        path.write_bytes(bytes(data))
        with pytest.raises(ValueError, match="out of range"):
            ExpandedStore.load(path)

    def test_rejects_trailing_garbage_v2(self, expanded, tmp_path):
        path = tmp_path / "padded.v2"
        expanded.save(path, format="v2")
        path.write_bytes(path.read_bytes() + b"\x00\x00\x00\x00")
        with pytest.raises(ValueError, match="trailing"):
            ExpandedStore.load(path)

    def test_cli_expand_save_v2_and_sniffing_load(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "expansion.v2"
        code = main(
            ["expand", "--scale", "small", "--save", str(path),
             "--expanded-format", "v2"]
        )
        assert code == 0 and is_v2_file(path)
        saved = capsys.readouterr().out
        assert "saved expansion" in saved and "spo_triples=" in saved
        assert main(["expand", "--load", str(path)]) == 0
        loaded = capsys.readouterr().out
        # identical inventory whichever format backed the artifact
        assert saved.splitlines()[1:] == loaded.splitlines()[1:]


class TestV3Format:
    """The disk-native v3 artifact: lookups answered by binary search
    straight off the mmap (no dict materialization), byte-level v1/v2/v3
    interchangeability, and the rejection paths of a corrupt file — cheap
    structural ones at load, index-consistency ones via ``verify()`` (the
    ``kbqa expand --load`` integrity gate)."""

    def test_v2_v3_round_trip_is_byte_identical_both_ways(self, expanded, tmp_path):
        """Acceptance: converting v3 -> v2 reproduces the direct v2 bytes,
        and v2 -> v3 reproduces the direct v3 bytes (and v3 -> v1 the
        direct v1 bytes)."""
        v1, v2, v3 = tmp_path / "a.v1", tmp_path / "a.v2", tmp_path / "a.v3"
        expanded.save(v1, format="v1")
        expanded.save(v2, format="v2")
        expanded.save(v3, format="v3")
        assert is_v3_file(v3) and not is_v3_file(v2) and not is_v2_file(v3)
        via_v3 = tmp_path / "b.v2"
        ExpandedStore.load(v3).save(via_v3, format="v2")
        assert via_v3.read_bytes() == v2.read_bytes()
        via_v2 = tmp_path / "b.v3"
        ExpandedStore.load(v2).save(via_v2, format="v3")
        assert via_v2.read_bytes() == v3.read_bytes()
        via_v3_v1 = tmp_path / "b.v1"
        ExpandedStore.load(v3).save(via_v3_v1, format="v1")
        assert via_v3_v1.read_bytes() == v1.read_bytes()

    def test_v3_save_is_deterministic(self, expanded, tmp_path):
        first, second = tmp_path / "first.v3", tmp_path / "second.v3"
        expanded.save(first, format="v3")
        expanded.save(second, format="v3")
        assert first.read_bytes() == second.read_bytes()

    def test_loads_mapped_and_lookups_match_materialized(self, expanded, tmp_path):
        """Acceptance: every read API of the mapped store is byte-identical
        to the materialized reference, and serving those reads leaves the
        store mapped — zero dict materialization on the lookup path."""
        path = tmp_path / "expansion.v3"
        expanded.save(path, format="v3")
        mapped = ExpandedStore.load(path)
        reference = ExpandedStore.load(path).materialize()
        assert mapped.is_mapped and not reference.is_mapped
        mapped.verify()
        assert mapped.stats() == reference.stats() == expanded.stats()
        assert len(mapped) == len(reference)
        assert mapped.distinct_paths() == reference.distinct_paths()
        assert set(mapped.subjects()) == set(reference.subjects())
        assert {(s, str(p), o) for s, p, o in mapped.triples()} == {
            (s, str(p), o) for s, p, o in reference.triples()
        }
        for subject in reference.subjects():
            assert {str(p) for p in mapped.paths_of(subject)} == {
                str(p) for p in reference.paths_of(subject)
            }
            for p_plus in reference.paths_of(subject):
                assert mapped.objects(subject, p_plus) == reference.objects(
                    subject, p_plus
                )
                assert mapped.value_count(subject, p_plus) == reference.value_count(
                    subject, p_plus
                )
                for obj in reference.objects(subject, p_plus):
                    assert {str(p) for p in mapped.paths_between(subject, obj)} == {
                        str(p) for p in reference.paths_between(subject, obj)
                    }
        assert mapped.objects("no-such-subject", next(iter(reference.distinct_paths()))) == set()
        assert mapped.is_mapped, "a read materialized the mapped store"

    def test_seeds_tails_and_reach_survive_v3(self, expanded, tmp_path):
        path = tmp_path / "expansion.v3"
        expanded.save(path, format="v3")
        loaded = ExpandedStore.load(path)
        assert loaded.tail_predicates == expanded.tail_predicates
        assert loaded.max_length == expanded.max_length
        assert loaded.has_reach() == expanded.has_reach()
        decode_old, decode_new = expanded.dictionary.decode, loaded.dictionary.decode
        assert {decode_new(s) for s in loaded.seed_ids} == {
            decode_old(s) for s in expanded.seed_ids
        }
        assert {
            decode_new(n): {decode_new(s) for s in seeds}
            for n, seeds in loaded.reach_items()
        } == {
            decode_old(n): {decode_old(s) for s in seeds}
            for n, seeds in expanded.reach_items()
        }
        assert loaded.is_mapped

    def test_answer_many_identical_from_v3_artifact(self, suite, kbqa_fb, tmp_path):
        """Acceptance: a system resumed from a v3 artifact answers the qald3
        BFQ set byte-identically to the live reference — and the artifact
        store is still mapped afterwards (the serve path never built the
        dict indexes)."""
        expanded = kbqa_fb.learn_result.expanded
        path = tmp_path / "e.v3"
        expanded.save(path, format="v3")
        questions = [q.question for q in suite.benchmark("qald3").bfqs()]
        loaded = ExpandedStore.load(path)
        assert loaded.is_mapped
        with KBQA.train(
            suite.freebase, suite.corpus, suite.conceptualizer, expanded=loaded
        ) as from_v3:
            assert from_v3.answer_many(questions) == kbqa_fb.answer_many(questions)
            assert loaded.is_mapped, "serving materialized the mapped artifact"

    def test_write_materializes_automatically(self, expanded, tmp_path):
        path = tmp_path / "expansion.v3"
        expanded.save(path, format="v3")
        loaded = ExpandedStore.load(path)
        assert loaded.is_mapped
        before = {(s, str(p), o) for s, p, o in loaded.triples()}
        loaded.record("zz-new", PredicatePath.single("name"), make_literal("zz"))
        assert not loaded.is_mapped
        assert {(s, str(p), o) for s, p, o in loaded.triples()} == before | {
            ("zz-new", "name", make_literal("zz"))
        }

    def test_env_selects_v3_default(self, expanded, tmp_path, monkeypatch):
        monkeypatch.setenv(EXPANDED_FORMAT_ENV, "v3")
        by_env = tmp_path / "by_env.kbqa"
        expanded.save(by_env)
        assert is_v3_file(by_env)
        pinned = tmp_path / "pinned.kbqa"
        expanded.save(pinned, format="v2")
        assert is_v2_file(pinned)

    def test_special_characters_round_trip_v3(self, tmp_path):
        kb = TripleStore()
        tricky = make_literal('line\nbreak "and\ttab" é中')
        kb.add("s", "name", tricky)
        expanded = expand_predicates(kb, ["s"], max_length=1)
        path = tmp_path / "tricky.v3"
        expanded.save(path, format="v3")
        loaded = ExpandedStore.load(path)
        assert loaded.is_mapped
        assert loaded.objects("s", PredicatePath.single("name")) == {tricky}

    def test_rejects_truncated_v3(self, expanded, tmp_path):
        path = tmp_path / "whole.v3"
        expanded.save(path, format="v3")
        data = path.read_bytes()
        for cut in (len(data) - 7, len(data) // 2, 40, 0):
            clipped = tmp_path / f"clipped-{cut}.v3"
            clipped.write_bytes(data[:cut])
            with pytest.raises(ValueError, match="truncat|header"):
                ExpandedStore.load(clipped)

    def test_rejects_version_mismatch_v3(self, expanded, tmp_path):
        path = tmp_path / "future.v3"
        expanded.save(path, format="v3")
        data = bytearray(path.read_bytes())
        struct.pack_into("<I", data, len(EXPANSION_V3_MAGIC), EXPANSION_V3_VERSION + 1)
        path.write_bytes(bytes(data))
        with pytest.raises(ValueError, match="version"):
            ExpandedStore.load(path)

    def test_rejects_trailing_garbage_v3(self, expanded, tmp_path):
        path = tmp_path / "padded.v3"
        expanded.save(path, format="v3")
        path.write_bytes(path.read_bytes() + b"\x00\x00\x00\x00")
        with pytest.raises(ValueError, match="trailing"):
            ExpandedStore.load(path)

    def test_verify_rejects_unsorted_seed_index(self, expanded, tmp_path):
        """Load stays O(1) on an unsorted index; the ``verify()`` sweep (run
        by ``kbqa expand --load``) is what rejects it."""
        path = tmp_path / "unsorted.v3"
        expanded.save(path, format="v3")
        data = bytearray(path.read_bytes())
        seed_ids = sorted(expanded.seed_ids)
        assert len(seed_ids) >= 2
        # walk the wire format to the seeds section: header, tails, terms,
        # termsort (blobs padded to 4-byte alignment), seeds
        header = struct.Struct("<8s14IQ")
        fields = header.unpack_from(data, 0)
        n_tails, n_terms, n_seeds = fields[3], fields[4], fields[5]
        tails_blob_len, terms_blob_len = fields[13], fields[15]
        offset = header.size
        offset += 4 * (n_tails + 1) + tails_blob_len + (-tails_blob_len) % 4
        offset += 8 * (n_terms + 1) + terms_blob_len + (-terms_blob_len) % 4
        offset += 4 * n_terms  # term-sort permutation
        assert n_seeds == len(seed_ids)
        assert data[offset : offset + 4 * n_seeds] == struct.pack(
            f"<{n_seeds}I", *seed_ids
        ), "seed section offset arithmetic out of step with the writer"
        swapped = [seed_ids[1], seed_ids[0]] + seed_ids[2:]
        data[offset : offset + 4 * n_seeds] = struct.pack(f"<{n_seeds}I", *swapped)
        path.write_bytes(bytes(data))
        corrupt = ExpandedStore.load(path)  # structural load succeeds
        with pytest.raises(ValueError, match="unsorted"):
            corrupt.verify()

    def test_verify_rejects_out_of_bounds_ids(self, expanded, tmp_path):
        """An id past the dictionary deep in the index sections passes the
        O(1) load and fails the full sweep."""
        path = tmp_path / "oob.v3"
        expanded.save(path, format="v3")
        data = bytearray(path.read_bytes())
        # the file ends with the reach seed-id u32 array
        struct.pack_into("<I", data, len(data) - 4, 0x7FFFFFFF)
        path.write_bytes(bytes(data))
        corrupt = ExpandedStore.load(path)
        with pytest.raises(ValueError):
            corrupt.verify()

    def test_cli_expand_save_v3_and_verifying_load(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "expansion.v3"
        code = main(
            ["expand", "--scale", "small", "--save", str(path),
             "--expanded-format", "v3"]
        )
        assert code == 0 and is_v3_file(path)
        saved = capsys.readouterr().out
        assert "saved expansion" in saved and "spo_triples=" in saved
        assert main(["expand", "--load", str(path)]) == 0
        loaded = capsys.readouterr().out
        assert saved.splitlines()[1:] == loaded.splitlines()[1:]

    def test_cli_load_rejects_corrupt_v3(self, tmp_path, capsys):
        """The --load integrity gate: a byte-flipped v3 artifact exits 1
        with the CLI error contract, caught by verify() even when the
        structural load succeeds."""
        from repro.cli import main

        path = tmp_path / "expansion.v3"
        assert main(
            ["expand", "--scale", "small", "--save", str(path),
             "--expanded-format", "v3"]
        ) == 0
        capsys.readouterr()
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0xFF
        bad = tmp_path / "corrupt.v3"
        bad.write_bytes(bytes(data))
        assert main(["expand", "--load", str(bad)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("kbqa expand: error:")


class TestV3RandomizedEquivalence:
    """Mapped binary-search answers vs materialized-dict answers across
    randomized KBs — byte-identical everywhere."""

    @pytest.mark.parametrize("seed", [1, 23])
    def test_random_kb_lookup_equivalence(self, seed, tmp_path):
        import random

        rng = random.Random(seed)
        kb = TripleStore()
        entities = [f"n{i}" for i in range(25)]
        predicates = [f"p{i}" for i in range(5)] + ["name"]
        for _ in range(250):
            kb.add(rng.choice(entities), rng.choice(predicates), rng.choice(
                entities + [make_literal(f"v{rng.randrange(10)}")]
            ))
        seeds = rng.sample(entities, 6)
        expanded = expand_predicates(kb, seeds, max_length=3, record_reach=True)
        path = tmp_path / f"r{seed}.v3"
        expanded.save(path, format="v3")
        mapped = ExpandedStore.load(path)
        assert mapped.is_mapped
        mapped.verify()
        assert mapped.stats() == expanded.stats()
        assert {(s, str(p), o) for s, p, o in mapped.triples()} == {
            (s, str(p), o) for s, p, o in expanded.triples()
        }
        for subject in expanded.subjects():
            for p_plus in expanded.paths_of(subject):
                assert mapped.objects(subject, p_plus) == expanded.objects(
                    subject, p_plus
                )
                assert mapped.value_count(subject, p_plus) == expanded.value_count(
                    subject, p_plus
                )
        assert mapped.is_mapped


class TestTrainingResumption:
    def test_train_from_saved_expansion_skips_the_scan(
        self, suite, kbqa_fb, tmp_path, monkeypatch
    ):
        """Acceptance: a saved expansion reloads and answers without
        re-running ``expand_predicates``."""
        expanded = kbqa_fb.learn_result.expanded
        path = tmp_path / "expansion.kbqa"
        expanded.save(path)
        loaded = ExpandedStore.load(path)

        def _forbidden(*args, **kwargs):
            raise AssertionError("expand_predicates must not run on resume")

        monkeypatch.setattr(learner_module, "expand_predicates", _forbidden)
        resumed = KBQA.train(
            suite.freebase, suite.corpus, suite.conceptualizer, expanded=loaded
        )
        questions = [q.question for q in suite.benchmark("qald3").bfqs()]
        assert resumed.answer_many(questions) == kbqa_fb.answer_many(questions)
        assert resumed.model.n_templates == kbqa_fb.model.n_templates


class TestExpandCli:
    def test_save_then_load(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "expansion.kbqa"
        assert main(["expand", "--scale", "small", "--save", str(path)]) == 0
        assert path.is_file()
        saved = capsys.readouterr().out
        assert "saved expansion" in saved and "spo_triples=" in saved
        assert main(["expand", "--load", str(path)]) == 0
        loaded = capsys.readouterr().out
        assert "loaded expansion" in loaded
        # identical inventory lines after the save/load banner
        assert saved.splitlines()[1:] == loaded.splitlines()[1:]

    def test_requires_exactly_one_of_save_load(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["expand", "--scale", "small"]) == 1
        assert "exactly one of" in capsys.readouterr().err
        path = tmp_path / "x.kbqa"
        code = main(
            ["expand", "--save", str(path), "--load", str(path), "--scale", "small"]
        )
        assert code == 1

    def test_load_missing_file_fails_cleanly(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["expand", "--load", str(tmp_path / "missing.kbqa")]) == 1
        assert "error" in capsys.readouterr().err
