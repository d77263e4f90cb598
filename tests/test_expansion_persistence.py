"""ExpandedStore persistence: save -> load round trip, format guards, and
training resumption (``KBQA.train(..., expanded=...)`` must answer without
re-running ``expand_predicates``).

One artifact format is locked down here (`repro.kb.expanded_v3`): a load
format whose bytes are canonical (``load(p).save(q)`` reproduces ``p``, and a
memory and a disk backend built by the same adds save identical bytes),
``save`` replaces its target atomically, the three retired formats are
refused by name, and an exhaustive single-byte mutation fuzzer checks that
``load`` rejects every corrupt file with ``ValueError`` — the CRC32 trailer
catches each flip, and the checks behind it are tested on re-sealed files.
"""

import random
import struct
import zlib

import pytest

import repro.core.learner as learner_module
from repro.core.system import KBQA
from repro.kb import expanded_v3
from repro.kb.disk import DiskTripleStore
from repro.kb.expanded_v3 import EXPANSION_MAGIC, EXPANSION_VERSION
from repro.kb.expansion import ExpandedStore, expand_predicates
from repro.kb.paths import PredicatePath
from repro.kb.store import TripleStore
from repro.kb.triple import make_literal


HEADER = struct.Struct("<8s13IQ")

# the first bytes a file of each retired format starts with, built by hand
# (no legacy writer is kept): v1 was a magic line plus a JSON header line,
# v2 and v3 one fixed struct header under their own magics and versions
RETIRED_HEADER = struct.Struct("<8s14IQ")
RETIRED_HEADERS = {
    "v1": b'KBQA-EXPANDED 1\n{"max_length":3,"paths":0,"reach_nodes":0,'
          b'"subjects":0,"tail_predicates":["alias","name"],"terms":0,"triples":0}\n[]\n',
    "v2": RETIRED_HEADER.pack(b"KBQAXPD2", 2, 3, *([0] * 13)),
    "v3": RETIRED_HEADER.pack(b"KBQAXPD3", 3, 3, *([0] * 13)),
}


def section_offsets(data) -> dict[str, tuple[int, int]]:
    """``name -> (start, end)`` byte range of every section, in file order,
    re-derived from the header the way the module docstring lays it out."""
    (
        _magic, _version, _max_length, n_tails, n_terms, n_seeds, n_paths,
        n_path_ids, n_subjects, n_groups, n_triples, n_reach_nodes,
        n_reach_pairs, tails_blob_len, terms_blob_len,
    ) = HEADER.unpack_from(data, 0)
    sizes = [
        ("header", HEADER.size),
        ("tail_offsets", 4 * (n_tails + 1)),
        ("tails_blob", tails_blob_len),
        ("term_offsets", 8 * (n_terms + 1)),
        ("terms_blob", terms_blob_len),
        ("seeds", 4 * n_seeds),
        ("path_offsets", 4 * (n_paths + 1)),
        ("path_ids", 4 * n_path_ids),
        ("subject_ids", 4 * n_subjects),
        ("group_offsets", 4 * (n_subjects + 1)),
        ("group_path_ids", 4 * n_groups),
        ("object_offsets", 4 * (n_groups + 1)),
        ("object_ids", 4 * n_triples),
        ("reach_nodes", 4 * n_reach_nodes),
        ("reach_offsets", 4 * (n_reach_nodes + 1)),
        ("reach_seeds", 4 * n_reach_pairs),
        ("checksum", 4),
    ]
    offsets, cursor = {}, 0
    for name, size in sizes:
        offsets[name] = (cursor, cursor + size)
        cursor += size
    assert cursor == len(data), "section arithmetic out of step with the writer"
    return offsets


def reseal(data: bytearray) -> bytes:
    """``data`` with its CRC32 trailer recomputed, so a deliberate
    corruption reaches the checks that sit behind the checksum."""
    struct.pack_into("<I", data, len(data) - 4, zlib.crc32(data[:-4]))
    return bytes(data)


@pytest.fixture()
def expanded(suite):
    seeds = [e.node for e in suite.world.of_type("person")[:12]]
    seeds += [e.node for e in suite.world.of_type("city")[:6]]
    return expand_predicates(suite.freebase.store, seeds, max_length=3)


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

    def test_frozen_views_equal_after_reload(self, expanded, tmp_path):
        path = tmp_path / "expansion.kbqa"
        expanded.save(path)
        loaded = ExpandedStore.load(path)
        subject, p_plus, obj = next(expanded.triples())
        assert loaded.objects(subject, p_plus) == expanded.objects(subject, p_plus)
        assert loaded.paths_between(subject, obj) == expanded.paths_between(subject, obj)
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

    def test_memory_and_disk_backends_save_identical_bytes(self, suite, tmp_path):
        """The canonical-bytes promise of ``save``: a memory and a disk store
        built by the same adds assign the same term ids, so the same seeds
        expand to byte-identical artifacts."""
        memory, disk = TripleStore(), DiskTripleStore()
        try:
            for triple in suite.freebase.store.triples():
                memory.add(triple.subject, triple.predicate, triple.object)
                disk.add(triple.subject, triple.predicate, triple.object)
            seeds = [e.node for e in suite.world.of_type("person")[:12]]
            seeds += [e.node for e in suite.world.of_type("city")[:6]]
            for name, store in (("memory", memory), ("disk", disk)):
                expand_predicates(store, seeds, max_length=3).save(tmp_path / name)
        finally:
            disk.close()
        assert len(memory) > 0
        saved = (tmp_path / "memory").read_bytes()
        assert saved == (tmp_path / "disk").read_bytes()
        assert len(ExpandedStore.load(tmp_path / "memory")) > 0


class TestFormatGuards:
    def test_rejects_wrong_magic(self, tmp_path):
        path = tmp_path / "bad.kbqa"
        path.write_text("NOT-AN-EXPANSION 1\n{}\n")
        with pytest.raises(ValueError, match="KBQAXPD4"):
            ExpandedStore.load(path)

    def test_rejects_empty_file(self, tmp_path):
        path = tmp_path / "empty.kbqa"
        path.write_text("")
        with pytest.raises(ValueError, match="empty"):
            ExpandedStore.load(path)

    @pytest.mark.parametrize("name", sorted(RETIRED_HEADERS))
    def test_retired_format_is_named(self, name, tmp_path):
        """A v1 / v2 / v3 file must not fall through to "not a KBQAXPD4
        file": the error names the retired format and how to regenerate it."""
        path = tmp_path / f"old.{name}"
        path.write_bytes(RETIRED_HEADERS[name])
        with pytest.raises(ValueError, match=rf"{name} is retired.*kbqa expand --save"):
            ExpandedStore.load(path)

    @pytest.mark.parametrize("name", sorted(RETIRED_HEADERS))
    def test_cli_refuses_retired_format_without_traceback(self, name, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / f"old.{name}"
        path.write_bytes(RETIRED_HEADERS[name])
        for argv, prefix in (
            (["expand", "--load", str(path)], "kbqa expand: error:"),
            (
                ["answer", "--scale", "small", "--expansion", str(path), "who?"],
                "kbqa answer: error:",
            ),
        ):
            assert main(argv) == 1
            err = capsys.readouterr().err
            assert err.startswith(prefix) and "Traceback" not in err
            assert f"{name} is retired" in err and "kbqa expand --save" in err

    def test_cli_refuses_a_corrupt_artifact_by_checksum(self, tmp_path, capsys):
        """One letter of one term flipped: every entry point that reads an
        artifact refuses it, naming the checksum, instead of training on
        it."""
        from repro.cli import main

        path = tmp_path / "expansion.kbqa"
        assert main(["expand", "--scale", "small", "--save", str(path)]) == 0
        capsys.readouterr()
        data = bytearray(path.read_bytes())
        start, end = section_offsets(data)["terms_blob"]
        letter = next(i for i in range(start, end) if chr(data[i]).islower())
        data[letter] ^= 0x20  # lower case -> upper case: still valid UTF-8
        bad = tmp_path / "corrupt.kbqa"
        bad.write_bytes(bytes(data))
        for argv, prefix in (
            (["expand", "--load", str(bad)], "kbqa expand: error:"),
            (
                [
                    "answer", "--scale", "small", "--expansion", str(bad),
                    "what is the population of mapleton?",
                ],
                "kbqa answer: error:",
            ),
        ):
            assert main(argv) == 1
            captured = capsys.readouterr()
            assert captured.err.startswith(prefix) and "Traceback" not in captured.err
            assert "checksum" in captured.err and str(bad) in captured.err
            assert "A:" not in captured.out

    def test_save_accepts_only_the_one_format(self, expanded, tmp_path):
        path = tmp_path / "expansion.kbqa"
        expanded.save(path)
        assert path.read_bytes().startswith(EXPANSION_MAGIC)
        for retired in ("v1", "v2"):
            with pytest.raises(ValueError, match="unknown expansion format"):
                expanded.save(tmp_path / "nope.kbqa", format=retired)
        assert not (tmp_path / "nope.kbqa").exists()

    def test_rejects_out_of_range_ids_at_load_time(self, tmp_path):
        """An id past the dictionary, sealed under a valid checksum, fails
        the documented ValueError at load, not a KeyError at first decode."""
        kb = TripleStore()
        kb.add("s", "name", make_literal("x"))
        expanded = expand_predicates(kb, ["s"], max_length=1)
        path = tmp_path / "corrupt.kbqa"
        expanded.save(path)
        data = bytearray(path.read_bytes())
        seeds_at = section_offsets(data)["seeds"][0]
        assert struct.unpack_from("<I", data, seeds_at) == tuple(expanded.seed_ids)
        struct.pack_into("<I", data, seeds_at, 9999)
        path.write_bytes(reseal(data))
        with pytest.raises(ValueError, match="seed id 9999 out of range"):
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


class TestV3Format:
    """The artifact of `repro.kb.expanded_v3`: canonical bytes, a loaded
    store that answers exactly like the live one and takes writes, and the
    rejection paths of a corrupt file."""

    def test_round_trip_is_byte_identical_after_churn(self, expanded, tmp_path):
        """Acceptance: ``load(p).save(q)`` reproduces ``p``'s bytes — from a
        freshly loaded store, and from one that was mutated and reverted."""
        original = tmp_path / "a.kbqa"
        expanded.save(original)
        via_load = tmp_path / "b.kbqa"
        ExpandedStore.load(original).save(via_load)
        assert via_load.read_bytes() == original.read_bytes()

        churned = ExpandedStore.load(original)
        pristine = ExpandedStore.load(original)
        seed = churned.dictionary.decode(min(churned.seed_ids))
        assert churned.invalidate_seed(seed)  # drops the seed's rows and reach
        assert len(churned) < len(pristine)
        churned.merge_from(pristine)  # and back: same content, rebuilt indexes
        via_churned = tmp_path / "c.kbqa"
        churned.save(via_churned)
        assert via_churned.read_bytes() == original.read_bytes()

    def test_v3_save_is_deterministic(self, expanded, tmp_path):
        """Equal content over the same term ids serializes identically
        whatever order the triples were interned in."""
        reordered = ExpandedStore(
            expanded.max_length, expanded.dictionary, expanded.tail_predicates
        )
        for s_id, p_id, o_id in reversed(list(expanded.triples_ids())):
            reordered.record_encoded(s_id, expanded._path_keys[p_id], o_id)
        reordered.seed_ids = set(expanded.seed_ids)
        for node_id, seeds in reversed(list(expanded.reach_items())):
            for seed_id in seeds:
                reordered.note_reach(node_id, seed_id)
        assert reordered._path_keys != expanded._path_keys
        first, second = tmp_path / "first.kbqa", tmp_path / "second.kbqa"
        expanded.save(first)
        reordered.save(second)
        assert first.read_bytes() == second.read_bytes()

    def test_loaded_lookups_match_the_live_store(self, expanded, tmp_path):
        """Acceptance: every read API of the loaded store, the rebuilt
        ``paths_between`` index included, equals the live store's (the
        dictionary is written in id order, so ids agree too)."""
        path = tmp_path / "expansion.kbqa"
        expanded.save(path)
        loaded = ExpandedStore.load(path)
        assert loaded.stats() == expanded.stats()
        assert len(loaded) == len(expanded)
        assert list(loaded.dictionary.terms()) == list(expanded.dictionary.terms())
        assert loaded.distinct_paths() == expanded.distinct_paths()
        assert set(loaded.triples_ids()) == {
            (s, loaded._path_key_to_id[expanded._path_keys[p]], o)
            for s, p, o in expanded.triples_ids()
        }
        for subject, p_plus in {(s, p) for s, p, _o in expanded.triples()}:
            assert loaded.objects(subject, p_plus) == expanded.objects(subject, p_plus)
            for obj in expanded.objects(subject, p_plus):
                assert loaded.paths_between(subject, obj) == expanded.paths_between(
                    subject, obj
                )
        for node_id, _seeds in expanded.reach_items():
            assert set(loaded.seeds_through(node_id)) == set(
                expanded.seeds_through(node_id)
            )
        assert loaded.objects("no-such-subject", next(iter(expanded.distinct_paths()))) == set()

    def test_seeds_tails_and_reach_survive_v3(self, expanded, tmp_path):
        path = tmp_path / "expansion.kbqa"
        expanded.save(path)
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

    def test_answer_many_identical_from_v3_artifact(self, suite, kbqa_fb, tmp_path):
        """Acceptance: a system resumed from an artifact answers the qald3
        BFQ set byte-identically to the live reference."""
        expanded = kbqa_fb.learn_result.expanded
        path = tmp_path / "e.kbqa"
        expanded.save(path)
        questions = [q.question for q in suite.benchmark("qald3").bfqs()]
        loaded = ExpandedStore.load(path)
        with KBQA.train(
            suite.freebase, suite.corpus, suite.conceptualizer, expanded=loaded
        ) as from_artifact:
            assert from_artifact.answer_many(questions) == kbqa_fb.answer_many(questions)

    def test_loaded_store_takes_writes(self, expanded, tmp_path):
        path = tmp_path / "expansion.kbqa"
        expanded.save(path)
        loaded = ExpandedStore.load(path)
        before = {(s, str(p), o) for s, p, o in loaded.triples()}
        zz = make_literal("zz")
        assert loaded.record("zz-new", PredicatePath.single("name"), zz)
        assert {(s, str(p), o) for s, p, o in loaded.triples()} == before | {
            ("zz-new", "name", zz)
        }
        assert loaded.paths_between("zz-new", zz) == {PredicatePath.single("name")}
        assert len(loaded) == len(expanded) + 1

    def test_special_characters_round_trip_v3(self, tmp_path):
        kb = TripleStore()
        tricky = make_literal('line\nbreak "and\ttab" é中')
        kb.add("s", "name", tricky)
        expanded = expand_predicates(kb, ["s"], max_length=1)
        path = tmp_path / "tricky.kbqa"
        expanded.save(path)
        loaded = ExpandedStore.load(path)
        assert loaded.objects("s", PredicatePath.single("name")) == {tricky}

    def test_rejects_truncated_v3(self, expanded, tmp_path):
        path = tmp_path / "whole.kbqa"
        expanded.save(path)
        data = path.read_bytes()
        for cut in (len(data) - 7, len(data) // 2, 40, 0):
            clipped = tmp_path / f"clipped-{cut}.kbqa"
            clipped.write_bytes(data[:cut])
            with pytest.raises(ValueError, match="truncat|header"):
                ExpandedStore.load(clipped)

    def test_rejects_version_mismatch_v3(self, expanded, tmp_path):
        path = tmp_path / "future.kbqa"
        expanded.save(path)
        data = bytearray(path.read_bytes())
        struct.pack_into("<I", data, len(EXPANSION_MAGIC), EXPANSION_VERSION + 1)
        path.write_bytes(bytes(data))
        with pytest.raises(ValueError, match="version"):
            ExpandedStore.load(path)

    def test_rejects_trailing_garbage_v3(self, expanded, tmp_path):
        path = tmp_path / "padded.kbqa"
        expanded.save(path)
        path.write_bytes(path.read_bytes() + b"\x00\x00\x00\x00")
        with pytest.raises(ValueError, match="trailing"):
            ExpandedStore.load(path)

    def test_cli_expand_save_v3_and_verifying_load(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "expansion.kbqa"
        code = main(["expand", "--scale", "small", "--save", str(path)])
        assert code == 0 and path.read_bytes().startswith(EXPANSION_MAGIC)
        saved = capsys.readouterr().out
        assert "saved expansion" in saved and "spo_triples=" in saved
        assert main(["expand", "--load", str(path)]) == 0
        loaded = capsys.readouterr().out
        assert saved.splitlines()[1:] == loaded.splitlines()[1:]

    def test_cli_load_rejects_corrupt_v3(self, tmp_path, capsys):
        """The --load integrity gate: a byte-flipped artifact exits 1 with
        the CLI error contract."""
        from repro.cli import main

        path = tmp_path / "expansion.kbqa"
        assert main(["expand", "--scale", "small", "--save", str(path)]) == 0
        capsys.readouterr()
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0xFF
        bad = tmp_path / "corrupt.kbqa"
        bad.write_bytes(bytes(data))
        assert main(["expand", "--load", str(bad)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("kbqa expand: error:") and "checksum" in err


class TestAtomicSave:
    """``save`` replaces its target by rename, never by truncation."""

    def test_failed_write_keeps_the_previous_artifact(
        self, expanded, tmp_path, monkeypatch
    ):
        path = tmp_path / "expansion.kbqa"
        expanded.save(path)
        before = path.read_bytes()

        def disk_full(data):
            raise OSError("no space left on device")

        # the body is already in the temp file when the trailer's CRC is taken
        monkeypatch.setattr(expanded_v3.zlib, "crc32", disk_full)
        with pytest.raises(OSError, match="no space"):
            expanded.save(path)
        assert path.read_bytes() == before
        assert list(tmp_path.glob("*.tmp*")) == []


class TestMutationFuzzer:
    """Exhaustive single-byte corruption of a small artifact.

    Every byte of the pristine file is flipped under three masks, and
    ``load`` must reject every mutant with ``ValueError`` and nothing else.
    The checks that sit behind the checksum — offset chains, id ranges
    (``TestFormatGuards``), UTF-8 — each keep one test on a file whose CRC
    was re-sealed after the corruption, so that the check itself rejects
    it.
    """

    SEED = 22
    MASKS = (0x01, 0x80, 0xFF)

    @pytest.fixture()
    def pristine(self, tmp_path):
        rng = random.Random(self.SEED)
        kb = TripleStore()
        entities = [f"n{i}" for i in range(10)]
        for _ in range(40):
            kb.add(
                rng.choice(entities),
                rng.choice(["p0", "p1", "name"]),
                rng.choice(entities + [make_literal(f"v{rng.randrange(6)}é")]),
            )
        store = expand_predicates(kb, rng.sample(entities, 3), max_length=3)
        path = tmp_path / "pristine.kbqa"
        store.save(path)
        return store, path.read_bytes()

    def test_every_single_byte_flip_is_rejected(self, pristine, tmp_path):
        _store, data = pristine
        sections = section_offsets(data)
        path = tmp_path / "mutant.kbqa"
        for position in range(len(data)):
            section = next(n for n, (a, b) in sections.items() if a <= position < b)
            for mask in self.MASKS:
                mutant = bytearray(data)
                mutant[position] ^= mask
                path.write_bytes(mutant)
                where = f"offset={position} ({section}) xor={mask:#04x}"
                try:
                    ExpandedStore.load(path)
                except ValueError:
                    continue
                except Exception as error:  # anything but ValueError is the defect
                    pytest.fail(f"{where}: {type(error).__name__}: {error}")
                pytest.fail(f"{where}: the mutant loaded")

    def test_load_rejects_a_broken_offset_chain(self, pristine, tmp_path):
        _store, data = pristine
        mutant = bytearray(data)
        start, end = section_offsets(data)["object_offsets"]
        total = struct.unpack_from("<I", data, end - 4)[0]
        struct.pack_into("<I", mutant, start + 4, total + 1)  # runs past the end
        path = tmp_path / "offsets.kbqa"
        path.write_bytes(reseal(mutant))
        with pytest.raises(ValueError, match="corrupt object offsets"):
            ExpandedStore.load(path)

    def test_load_rejects_an_undecodable_term(self, pristine, tmp_path):
        _store, data = pristine
        mutant = bytearray(data)
        _start, end = section_offsets(data)["terms_blob"]
        mutant[end - 1] = 0xFF  # last byte of the last term
        path = tmp_path / "undecodable.kbqa"
        path.write_bytes(reseal(mutant))
        with pytest.raises(ValueError, match="term is not valid UTF-8"):
            ExpandedStore.load(path)


class TestV3RandomizedEquivalence:
    """Loaded answers vs the live store's across randomized KBs —
    identical everywhere."""

    @pytest.mark.parametrize("seed", [1, 23])
    def test_random_kb_lookup_equivalence(self, seed, tmp_path):
        rng = random.Random(seed)
        kb = TripleStore()
        entities = [f"n{i}" for i in range(25)]
        predicates = [f"p{i}" for i in range(5)] + ["name"]
        for _ in range(250):
            kb.add(rng.choice(entities), rng.choice(predicates), rng.choice(
                entities + [make_literal(f"v{rng.randrange(10)}")]
            ))
        seeds = rng.sample(entities, 6)
        expanded = expand_predicates(kb, seeds, max_length=3)
        path = tmp_path / f"r{seed}.kbqa"
        expanded.save(path)
        loaded = ExpandedStore.load(path)
        assert loaded.stats() == expanded.stats()
        assert {(s, str(p), o) for s, p, o in loaded.triples()} == {
            (s, str(p), o) for s, p, o in expanded.triples()
        }
        for subject, p_plus, obj in expanded.triples():
            assert loaded.objects(subject, p_plus) == expanded.objects(subject, p_plus)
            assert loaded.paths_between(subject, obj) == expanded.paths_between(
                subject, obj
            )


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
