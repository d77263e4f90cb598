"""ExpandedStore persistence: save -> load round trip, format guards, and
training resumption (``KBQA.train(..., expanded=...)`` must answer without
re-running ``expand_predicates``).

One artifact format is locked down here (`repro.kb.expanded_v3`): its sorted
index sections answer lookups by binary search straight off the mmap, its
bytes are canonical (``load(p).save(q)`` reproduces ``p``), ``save`` replaces
its target atomically, the two retired formats are refused by name, and a
seeded single-byte mutation fuzzer checks that a corrupt file can only ever
raise ``ValueError`` and that whatever ``verify()`` accepts is
self-consistent.
"""

import json
import os
import random
import struct
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro.core.learner as learner_module
from repro.core.system import KBQA
from repro.kb import expanded_v3
from repro.kb.expanded_v3 import EXPANSION_V3_MAGIC, EXPANSION_V3_VERSION, is_v3_file
from repro.kb.expansion import ExpandedStore, expand_predicates
from repro.kb.paths import PredicatePath
from repro.kb.store import TripleStore
from repro.kb.triple import make_literal


SRC = Path(__file__).resolve().parent.parent / "src"

HEADER = struct.Struct("<8s14IQ")

# the first bytes a file of each retired format starts with, built by hand
# (no legacy writer is kept): v1 was a magic line plus a JSON header line,
# v2 the same fixed struct header as v3 under its own magic and version
RETIRED_HEADERS = {
    "v1": b'KBQA-EXPANDED 1\n{"max_length":3,"paths":0,"reach_nodes":0,'
          b'"subjects":0,"tail_predicates":["alias","name"],"terms":0,"triples":0}\n[]\n',
    "v2": HEADER.pack(b"KBQAXPD2", 2, 3, *([0] * 13)),
}


def section_offsets(data) -> dict[str, tuple[int, int]]:
    """``name -> (start, end)`` byte range of every section, in file order,
    re-derived from the header the way the module docstring lays it out."""
    (
        _magic, _version, _max_length, n_tails, n_terms, n_seeds, n_paths,
        n_path_ids, n_subjects, n_groups, n_triples, n_reach_nodes,
        n_reach_pairs, tails_blob_len, n_pairs, terms_blob_len,
    ) = HEADER.unpack_from(data, 0)
    sizes = [
        ("header", HEADER.size),
        ("tail_offsets", 4 * (n_tails + 1)),
        ("tails_blob", tails_blob_len + (-tails_blob_len) % 4),
        ("term_offsets", 8 * (n_terms + 1)),
        ("terms_blob", terms_blob_len + (-terms_blob_len) % 4),
        ("termsort", 4 * n_terms),
        ("seeds", 4 * n_seeds),
        ("path_offsets", 4 * (n_paths + 1)),
        ("path_ids", 4 * n_path_ids),
        ("subject_ids", 4 * n_subjects),
        ("group_offsets", 8 * (n_subjects + 1)),
        ("group_path_ids", 4 * n_groups),
        ("object_offsets", 8 * (n_groups + 1)),
        ("object_ids", 4 * n_triples),
        ("pair_subjects", 4 * n_pairs),
        ("pair_objects", 4 * n_pairs),
        ("pair_offsets", 8 * (n_pairs + 1)),
        ("pair_path_ids", 4 * n_triples),
        ("reach_nodes", 4 * n_reach_nodes),
        ("reach_offsets", 8 * (n_reach_nodes + 1)),
        ("reach_seeds", 4 * n_reach_pairs),
    ]
    offsets, cursor = {}, 0
    for name, size in sizes:
        offsets[name] = (cursor, cursor + size)
        cursor += size
    assert cursor == len(data), "section arithmetic out of step with the writer"
    return offsets


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


class TestFormatGuards:
    def test_rejects_wrong_magic(self, tmp_path):
        path = tmp_path / "bad.kbqa"
        path.write_text("NOT-AN-EXPANSION 1\n{}\n")
        with pytest.raises(ValueError, match="KBQAXPD3"):
            ExpandedStore.load(path)

    def test_rejects_empty_file(self, tmp_path):
        path = tmp_path / "empty.kbqa"
        path.write_text("")
        with pytest.raises(ValueError, match="empty"):
            ExpandedStore.load(path)

    @pytest.mark.parametrize("name", sorted(RETIRED_HEADERS))
    def test_retired_format_is_named(self, name, tmp_path):
        """A v1 / v2 file must not fall through to "not a KBQAXPD3 file":
        the error names the retired format and how to regenerate it."""
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

    def test_save_accepts_only_the_one_format(self, expanded, tmp_path):
        path = tmp_path / "expansion.kbqa"
        expanded.save(path)
        assert is_v3_file(path)
        for retired in ("v1", "v2"):
            with pytest.raises(ValueError, match="unknown expansion format"):
                expanded.save(tmp_path / "nope.kbqa", format=retired)
        assert not (tmp_path / "nope.kbqa").exists()

    def test_rejects_out_of_range_ids_at_load_time(self, tmp_path):
        """The one id array the O(1) load reads in full — the seeds — fails
        the documented load-time ValueError, not a KeyError at first decode
        (ids deeper in the index sections are ``verify()``'s job)."""
        kb = TripleStore()
        kb.add("s", "name", make_literal("x"))
        expanded = expand_predicates(kb, ["s"], max_length=1)
        path = tmp_path / "corrupt.kbqa"
        expanded.save(path)
        data = bytearray(path.read_bytes())
        seeds_at = section_offsets(data)["seeds"][0]
        assert struct.unpack_from("<I", data, seeds_at) == tuple(expanded.seed_ids)
        struct.pack_into("<I", data, seeds_at, 9999)
        path.write_bytes(bytes(data))
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


class TestV3Format:
    """The artifact itself: lookups answered by binary search straight off
    the mmap (no dict materialization), canonical bytes, and the rejection
    paths of a corrupt file — cheap structural ones at load,
    index-consistency ones via ``verify()`` (the ``kbqa expand --load``
    integrity gate)."""

    def test_round_trip_is_byte_identical_mapped_and_materialized(
        self, expanded, tmp_path
    ):
        """Acceptance: ``load(p).save(q)`` reproduces ``p``'s bytes — from a
        store that is still mapped, and from one that was materialized,
        mutated and reverted."""
        original = tmp_path / "a.v3"
        expanded.save(original)
        assert is_v3_file(original)
        mapped = ExpandedStore.load(original)
        assert mapped.is_mapped
        via_mapped = tmp_path / "b.v3"
        mapped.save(via_mapped)
        assert via_mapped.read_bytes() == original.read_bytes()

        churned = ExpandedStore.load(original)
        pristine = ExpandedStore.load(original)
        seed = churned.dictionary.decode(min(churned.seed_ids))
        assert churned.invalidate_seed(seed)  # materializes, drops the seed's rows
        assert not churned.is_mapped and len(churned) < len(pristine)
        churned.merge_from(pristine)  # and back: same content, rebuilt indexes
        via_churned = tmp_path / "c.v3"
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
        first, second = tmp_path / "first.v3", tmp_path / "second.v3"
        expanded.save(first)
        reordered.save(second)
        assert first.read_bytes() == second.read_bytes()

    def test_loads_mapped_and_lookups_match_materialized(self, expanded, tmp_path):
        """Acceptance: every read API of the mapped store is byte-identical
        to the materialized reference, and serving those reads leaves the
        store mapped — zero dict materialization on the lookup path."""
        path = tmp_path / "expansion.v3"
        expanded.save(path)
        mapped = ExpandedStore.load(path)
        reference = ExpandedStore.load(path).materialize()
        assert mapped.is_mapped and not reference.is_mapped
        mapped.verify()
        assert mapped.stats() == reference.stats() == expanded.stats()
        assert len(mapped) == len(reference)
        assert mapped.distinct_paths() == reference.distinct_paths()
        assert {(s, str(p), o) for s, p, o in mapped.triples()} == {
            (s, str(p), o) for s, p, o in reference.triples()
        }
        for subject, p_plus in {(s, p) for s, p, _o in reference.triples()}:
            assert mapped.objects(subject, p_plus) == reference.objects(subject, p_plus)
            for obj in reference.objects(subject, p_plus):
                assert {str(p) for p in mapped.paths_between(subject, obj)} == {
                    str(p) for p in reference.paths_between(subject, obj)
                }
        assert mapped.objects("no-such-subject", next(iter(reference.distinct_paths()))) == set()
        assert mapped.is_mapped, "a read materialized the mapped store"

    def test_seeds_tails_and_reach_survive_v3(self, expanded, tmp_path):
        path = tmp_path / "expansion.v3"
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
        assert loaded.is_mapped

    def test_answer_many_identical_from_v3_artifact(self, suite, kbqa_fb, tmp_path):
        """Acceptance: a system resumed from a v3 artifact answers the qald3
        BFQ set byte-identically to the live reference — and the artifact
        store is still mapped afterwards (the serve path never built the
        dict indexes)."""
        expanded = kbqa_fb.learn_result.expanded
        path = tmp_path / "e.v3"
        expanded.save(path)
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
        expanded.save(path)
        loaded = ExpandedStore.load(path)
        assert loaded.is_mapped
        before = {(s, str(p), o) for s, p, o in loaded.triples()}
        loaded.record("zz-new", PredicatePath.single("name"), make_literal("zz"))
        assert not loaded.is_mapped
        assert {(s, str(p), o) for s, p, o in loaded.triples()} == before | {
            ("zz-new", "name", make_literal("zz"))
        }

    def test_special_characters_round_trip_v3(self, tmp_path):
        kb = TripleStore()
        tricky = make_literal('line\nbreak "and\ttab" é中')
        kb.add("s", "name", tricky)
        expanded = expand_predicates(kb, ["s"], max_length=1)
        path = tmp_path / "tricky.v3"
        expanded.save(path)
        loaded = ExpandedStore.load(path)
        assert loaded.is_mapped
        assert loaded.objects("s", PredicatePath.single("name")) == {tricky}

    def test_rejects_truncated_v3(self, expanded, tmp_path):
        path = tmp_path / "whole.v3"
        expanded.save(path)
        data = path.read_bytes()
        for cut in (len(data) - 7, len(data) // 2, 40, 0):
            clipped = tmp_path / f"clipped-{cut}.v3"
            clipped.write_bytes(data[:cut])
            with pytest.raises(ValueError, match="truncat|header"):
                ExpandedStore.load(clipped)

    def test_rejects_version_mismatch_v3(self, expanded, tmp_path):
        path = tmp_path / "future.v3"
        expanded.save(path)
        data = bytearray(path.read_bytes())
        struct.pack_into("<I", data, len(EXPANSION_V3_MAGIC), EXPANSION_V3_VERSION + 1)
        path.write_bytes(bytes(data))
        with pytest.raises(ValueError, match="version"):
            ExpandedStore.load(path)

    def test_rejects_trailing_garbage_v3(self, expanded, tmp_path):
        path = tmp_path / "padded.v3"
        expanded.save(path)
        path.write_bytes(path.read_bytes() + b"\x00\x00\x00\x00")
        with pytest.raises(ValueError, match="trailing"):
            ExpandedStore.load(path)

    def test_verify_rejects_unsorted_seed_index(self, expanded, tmp_path):
        """Load stays O(1) on an unsorted index; the ``verify()`` sweep (run
        by ``kbqa expand --load``) is what rejects it."""
        path = tmp_path / "unsorted.v3"
        expanded.save(path)
        data = bytearray(path.read_bytes())
        seed_ids = sorted(expanded.seed_ids)
        assert len(seed_ids) >= 2
        offset, end = section_offsets(data)["seeds"]
        n_seeds = (end - offset) // 4
        assert data[offset:end] == struct.pack(f"<{n_seeds}I", *seed_ids)
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
        expanded.save(path)
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
        code = main(["expand", "--scale", "small", "--save", str(path)])
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
        assert main(["expand", "--scale", "small", "--save", str(path)]) == 0
        capsys.readouterr()
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0xFF
        bad = tmp_path / "corrupt.v3"
        bad.write_bytes(bytes(data))
        assert main(["expand", "--load", str(bad)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("kbqa expand: error:")


_SPOUSE = PredicatePath(("marriage", "person", "name"))

# every reader a mapped artifact serves, plus the two sweeps over the file
_CLOSED_READERS = {
    "objects": lambda store: store.objects("a", _SPOUSE),
    "paths_between": lambda store: store.paths_between("a", make_literal("bob")),
    "objects_ids": lambda store: store.objects_ids(0, 0),
    "seeds_through": lambda store: store.seeds_through(0),
    "reach_items": lambda store: list(store.reach_items()),
    "has_reach": lambda store: store.has_reach(),
    "len": len,
    "distinct_paths": lambda store: store.distinct_paths(),
    "triples": lambda store: list(store.triples()),
    "triples_ids": lambda store: list(store.triples_ids()),
    "stats": lambda store: store.stats(),
    "verify": lambda store: store.verify(),
    "materialize": lambda store: store.materialize(),
    "record": lambda store: store.record("z", PredicatePath.single("name"), "zz"),
}


class TestClosedArtifact:
    """A closed mapped artifact fails by name instead of answering empty."""

    @pytest.fixture()
    def closed(self, tmp_path):
        kb = TripleStore()
        kb.add("a", "marriage", "cvt1")
        kb.add("cvt1", "person", "b")
        kb.add("b", "name", make_literal("bob"))
        path = tmp_path / "closed.kbqa"
        expand_predicates(kb, ["a"], max_length=3).save(path)
        store = ExpandedStore.load(path)
        assert store.objects("a", _SPOUSE) == {make_literal("bob")}
        store.close()
        store.close()  # idempotent
        return store, path

    @pytest.mark.parametrize("reader", sorted(_CLOSED_READERS))
    def test_every_reader_raises_naming_the_file(self, closed, reader):
        store, path = closed
        with pytest.raises(ValueError, match="closed") as error:
            _CLOSED_READERS[reader](store)
        assert str(path) in str(error.value)

    def test_close_after_materialize_keeps_the_store_readable(self, expanded, tmp_path):
        path = tmp_path / "materialized.kbqa"
        expanded.save(path)
        store = ExpandedStore.load(path).materialize()
        store.close()
        assert len(store) == len(expanded)


class TestAtomicSave:
    """``save`` replaces its target by rename, never by truncation."""

    def test_overwrite_leaves_mapped_readers_on_the_old_artifact(
        self, expanded, tmp_path
    ):
        """A reader that has the artifact mapped keeps answering from the
        old bytes while a writer saves different content to the same path;
        a fresh load sees the new content.  Runs in a child process: an
        in-place truncation kills the reader with SIGBUS."""
        path = tmp_path / "served.kbqa"
        expanded.save(path)
        child = textwrap.dedent(
            """
            import json, sys
            from repro.kb.expansion import ExpandedStore, expand_predicates
            from repro.kb.store import TripleStore
            from repro.kb.triple import make_literal

            path = sys.argv[1]
            reader = ExpandedStore.load(path)
            kb = TripleStore()
            kb.add("s", "name", make_literal("x"))
            expand_predicates(kb, ["s"], max_length=1).save(path)
            after = sorted((s, str(p), o) for s, p, o in reader.triples())
            fresh = sorted((s, str(p), o) for s, p, o in ExpandedStore.load(path).triples())
            json.dump({"mapped": reader.is_mapped, "after": after, "fresh": fresh}, sys.stdout)
            """
        )
        done = subprocess.run(
            [sys.executable, "-c", child, str(path)],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": str(SRC)},
        )
        assert done.returncode == 0, f"reader died ({done.returncode}): {done.stderr}"
        seen = json.loads(done.stdout)
        assert seen["mapped"]
        assert seen["after"] == sorted(
            [s, str(p), o] for s, p, o in expanded.triples()
        )
        assert seen["fresh"] == [["s", "name", make_literal("x")]]
        assert list(tmp_path.glob("*.tmp*")) == []

    def test_failed_write_keeps_the_previous_artifact(
        self, expanded, tmp_path, monkeypatch
    ):
        path = tmp_path / "expansion.kbqa"
        expanded.save(path)
        before = path.read_bytes()

        def disk_full(self, length):
            raise OSError("no space left on device")

        # pad4 first runs after the header and the tails sections are out
        monkeypatch.setattr(expanded_v3.V3StreamWriter, "pad4", disk_full)
        with pytest.raises(OSError, match="no space"):
            expanded.save(path)
        assert path.read_bytes() == before
        assert list(tmp_path.glob("*.tmp*")) == []


class TestMutationFuzzer:
    """Seeded single-byte corruption of a small artifact (ROADMAP 5(b)).

    Every mutant must fail closed — ``ValueError`` or a normal return from
    ``load``, ``verify()`` and every probe, never another exception — and a
    mutant ``verify()`` accepts must be *self-consistent*: its index
    sections agree with its content sections, i.e. the mapped probes equal
    the probes of its own materialized copy.  A flip that turns one
    well-formed artifact into another (a letter in a term, an id that stays
    in order) needs a checksum to catch — a layout change; the test prints
    how many mutants fall in that class.
    """

    SEED = 22
    PER_SECTION = 24

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
        path = tmp_path / "pristine.v3"
        store.save(path)
        return store, path.read_bytes()

    REJECTED = object()

    @classmethod
    def closed(cls, step, *args):
        """``step(*args)``, or ``REJECTED`` if it failed the documented way."""
        try:
            return step(*args)
        except ValueError:
            return cls.REJECTED

    @staticmethod
    def probe_all(store, keys):
        subject_paths, pairs, nodes = keys
        return (
            [store.objects(s, p) for s, p in subject_paths],
            [store.paths_between(s, o) for s, o in pairs],
            [frozenset(store.seeds_through(node)) for node in nodes],
            sorted((s, str(p), o) for s, p, o in store.triples()),
        )

    def test_single_byte_mutants_fail_closed_or_stay_self_consistent(
        self, pristine, tmp_path, capsys
    ):
        store, data = pristine
        subject_paths = list(dict.fromkeys((s, p) for s, p, _o in store.triples()))
        keys = (
            subject_paths,
            [(s, o) for s, p in subject_paths for o in store.objects(s, p)],
            [node for node, _seeds in store.reach_items()],
        )
        sections = section_offsets(data)
        rng = random.Random(self.SEED)
        positions = list(range(*sections["header"]))
        for name, (start, end) in sections.items():
            if name != "header":
                positions += rng.sample(
                    range(start, end), min(self.PER_SECTION, end - start)
                )
        assert len(positions) - HEADER.size >= 300

        path = tmp_path / "mutant.v3"
        undetected: dict[str, int] = {}
        for position in positions:
            mask = rng.randrange(1, 256)
            mutant = bytearray(data)
            mutant[position] ^= mask
            path.write_bytes(mutant)
            section = next(n for n, (a, b) in sections.items() if a <= position < b)
            where = f"seed={self.SEED} offset={position} ({section}) xor={mask:#04x}"
            try:
                mapped = self.closed(ExpandedStore.load, path)
                if mapped is self.REJECTED:
                    continue
                try:
                    verified = self.closed(mapped.verify) is not self.REJECTED
                    answers = self.closed(self.probe_all, mapped, keys)
                finally:
                    mapped.close()
                if verified:
                    assert answers is not self.REJECTED, "verify() passed, a probe raised"
                    own_copy = ExpandedStore.load(path).materialize()
                    assert answers == self.probe_all(own_copy, keys), (
                        "index sections disagree with content sections"
                    )
                    undetected[section] = undetected.get(section, 0) + 1
            except Exception as error:  # anything but ValueError is the defect
                pytest.fail(f"{where}: {type(error).__name__}: {error}")
        with capsys.disabled():
            print(
                f"\nmutation fuzzer seed={self.SEED}: {len(positions)} mutants, "
                f"{sum(undetected.values())} well-formed under verify() "
                f"(undetectable without a checksum): {dict(sorted(undetected.items()))}"
            )

    def test_verify_rejects_an_undecodable_term(self, pristine, tmp_path):
        """Fuzzer regression: a term byte flipped to invalid utf-8 that kept
        the permutation sorted passed ``verify()`` and failed at first decode."""
        _store, data = pristine
        mutant = bytearray(data)
        start, end = section_offsets(data)["terms_blob"]
        terms_blob_len = HEADER.unpack_from(data, 0)[15]
        mutant[start + terms_blob_len - 1] = 0xFF  # last byte of the last term
        path = tmp_path / "undecodable.v3"
        path.write_bytes(mutant)
        with pytest.raises(ValueError, match="utf-8"):
            ExpandedStore.load(path).verify()

    def test_lookup_through_a_corrupt_termsort_is_a_value_error(
        self, pristine, tmp_path
    ):
        """Fuzzer regression: an out-of-range id in the term permutation
        surfaced as IndexError from the term -> id binary search."""
        store, data = pristine
        mutant = bytearray(data)
        start, end = section_offsets(data)["termsort"]
        for offset in range(start + 3, end, 4):  # high byte of every entry
            mutant[offset] = 0x7F
        path = tmp_path / "termsort.v3"
        path.write_bytes(mutant)
        corrupt = ExpandedStore.load(path)
        subject, p_plus, _obj = next(store.triples())
        with pytest.raises(ValueError, match="out of range"):
            corrupt.objects(subject, p_plus)
        with pytest.raises(ValueError, match="out of range"):
            corrupt.verify()


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
        expanded = expand_predicates(kb, seeds, max_length=3)
        path = tmp_path / f"r{seed}.v3"
        expanded.save(path)
        mapped = ExpandedStore.load(path)
        assert mapped.is_mapped
        mapped.verify()
        assert mapped.stats() == expanded.stats()
        assert {(s, str(p), o) for s, p, o in mapped.triples()} == {
            (s, str(p), o) for s, p, o in expanded.triples()
        }
        for subject, p_plus in {(s, p) for s, p, _o in expanded.triples()}:
            assert mapped.objects(subject, p_plus) == expanded.objects(subject, p_plus)
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
