"""Mega-corpus compiler + model-binding contracts.

* **Streaming equivalence** — the chunked, bounded-memory compile against the
  disk backend must produce byte-for-byte the same knowledge (triples, term
  ids, gold rows) as the identical sequence against the in-memory store:
  streaming is an execution strategy, never a semantic one.
* **Scenario recall** — the model bound to a small build holds the gold
  contract: every plain gold question answers exactly right, a superseded
  fact answers old then new, benign unicode renditions answer identically,
  held-out rewordings abstain rather than guess; and the manifest's
  bounded-memory accounting (peak resident = anchor + one chunk, not the
  whole world).
* **Relocatable builds** — a renamed, moved or copied build binds the
  ``kb.db`` beside its manifest, never the path spelled at compile time.
* **Temporal supersession through serve** — a ``/facts`` delete+add pair on a
  live ``kbqa serve`` HTTP front must make the *fresh* fact win on the very
  next ``/answer`` (``apply()`` between two batches, end to end).
"""

import asyncio
import json
import random
import shutil
import unicodedata
import urllib.request

import pytest

from repro.core.system import KBQA
from repro.corpus.mega import MegaSpec, compile_mega
from repro.eval.scenarios import bind_scenarios
from repro.serve import AsyncAnswerer, BackgroundServer, ServeConfig
from repro.suite import build_suite

SMALL = dict(chunk_people=300, chunk_cities=80, gold_per_chunk=12)


def _small_spec(seed: int, triples: int = 6000) -> MegaSpec:
    return MegaSpec(triples=triples, seed=seed, **SMALL)


class TestStreamingEquivalence:
    @pytest.mark.parametrize("seed", random.Random(0x5EED).sample(range(1000), 2))
    def test_disk_and_memory_builds_agree(self, tmp_path, seed):
        spec = _small_spec(seed)
        disk = compile_mega(spec, tmp_path / "disk", backend="disk")
        memory = compile_mega(spec, tmp_path / "memory", backend="memory")
        try:
            # same insertion sequence -> same dense term ids -> identical
            # id-level triple streams, not merely equal decoded sets
            assert sorted(disk.kb.store.triples_ids()) == sorted(
                memory.kb.store.triples_ids()
            )
            assert list(disk.kb.store.dictionary.terms()) == list(
                memory.kb.store.dictionary.terms()
            )
            disk_gold = (tmp_path / "disk" / "gold.jsonl").read_bytes()
            memory_gold = (tmp_path / "memory" / "gold.jsonl").read_bytes()
            assert disk_gold == memory_gold
            for key, value in disk.manifest.items():
                if key in ("backend", "kb_path", "ru_maxrss_kb"):
                    continue
                assert memory.manifest[key] == value, key
        finally:
            disk.kb.store.close()

    def test_resident_bound_is_chunk_shaped(self, tmp_path):
        build = compile_mega(
            _small_spec(seed=7, triples=9000), tmp_path / "m", backend="memory"
        )
        manifest = build.manifest
        chunk_entities = SMALL["chunk_people"] + SMALL["chunk_cities"]
        assert manifest["chunks"] > 1  # actually streamed, not one blob
        assert (
            manifest["peak_resident_entities"]
            == manifest["anchor_entities"] + chunk_entities
        )
        assert manifest["peak_resident_entities"] < manifest["total_entities"]


class TestScenarioRecall:
    @pytest.fixture(scope="class")
    def mega_dir(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("mega")
        build = compile_mega(_small_spec(seed=7, triples=9000), out)
        build.kb.store.close()
        return out

    def test_all_axes_hold_the_gold_contract(self, mega_dir):
        binding = bind_scenarios(mega_dir)
        try:
            target = binding.target
            plain = binding.gold["plain"]
            assert plain and binding.gold["temporal"]
            for pair in plain:  # plain gold recall 1.0
                assert _answers_gold(target, pair.question, pair)

            async def supersede_each():
                store = binding.store
                async with AsyncAnswerer(target, ServeConfig()) as answerer:
                    for pair in binding.gold["temporal"]:
                        edit = pair.meta["supersede"]
                        before = await answerer.answer(pair.question)
                        assert _values(before) == (edit["old_value"],)

                        def supersede(edit=edit):
                            store.delete(edit["subject"], edit["predicate"], edit["old_object"])
                            store.add(edit["subject"], edit["predicate"], edit["new_object"])

                        await answerer.apply(supersede)
                        after = await answerer.answer(pair.question)
                        assert _values(after) == (edit["new_value"],)  # the fresh fact wins

            asyncio.run(supersede_each())

            assert any(not pair.question.isascii() for pair in plain)
            for pair in plain:  # benign unicode renditions fold to the same answer
                benign = _strip_diacritics(pair.question).replace("'", "\u2019")
                benign = benign.replace("?", "\uff1f")
                assert _answers_gold(target, benign, pair), benign

            for i, pair in enumerate(plain):  # unseen surfaces abstain, never guess
                heldout = _HELDOUT_REWRITES[i % len(_HELDOUT_REWRITES)](pair.question)
                assert not target.answer(heldout).answered, heldout
        finally:
            binding.close()

    def test_binding_leaves_no_listener_on_the_suite_store(self, mega_dir, monkeypatch):
        """The system trained for the binding is closed once the target has
        its model and conceptualizer: its two subscriptions go with it."""
        built = []

        def recording_build_suite(*args, **kwargs):
            built.append(build_suite(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr("repro.eval.scenarios.build_suite", recording_build_suite)
        binding = bind_scenarios(mega_dir)
        try:
            (suite,) = built
            assert suite.freebase.store._listeners == []
            pair = binding.gold["plain"][0]
            assert _answers_gold(binding.target, pair.question, pair)
        finally:
            binding.close()

    def test_memory_backend_build_is_rejected(self, tmp_path, monkeypatch):
        build = compile_mega(_small_spec(seed=7), tmp_path / "m", backend="memory")
        monkeypatch.setattr(KBQA, "train", _no_training)
        with pytest.raises(ValueError, match="kb_path"):
            bind_scenarios(tmp_path / "m")
        assert build.manifest["kb_path"] is None


class TestRelocatedBuild:
    @pytest.fixture
    def mega_dir(self, tmp_path):
        build = compile_mega(_small_spec(seed=7), tmp_path / "compiled")
        build.kb.store.close()
        return tmp_path / "compiled"

    def test_renamed_build_binds_its_own_store(self, mega_dir):
        moved = mega_dir.rename(mega_dir.with_name("moved"))
        binding = bind_scenarios(moved)
        try:
            for pair in binding.gold["plain"]:
                assert _answers_gold(binding.target, pair.question, pair)
        finally:
            binding.close()

    def test_writes_through_a_copy_leave_the_original_untouched(self, mega_dir):
        original = (mega_dir / "kb.db").read_bytes()
        copy = shutil.copytree(mega_dir, mega_dir.with_name("copy"))
        binding = bind_scenarios(copy)
        try:
            pair = binding.gold["temporal"][0]
            edit = pair.meta["supersede"]
            binding.store.delete(edit["subject"], edit["predicate"], edit["old_object"])
            binding.store.add(edit["subject"], edit["predicate"], edit["new_object"])
            assert _values(binding.target.answer(pair.question)) == (edit["new_value"],)
        finally:
            binding.close()
        assert (mega_dir / "kb.db").read_bytes() == original
        assert sorted(path.name for path in mega_dir.iterdir()) == [
            "gold.jsonl", "kb.db", "manifest.json",
        ]

    def test_directory_without_kb_db_is_rejected_before_training(self, mega_dir, monkeypatch):
        (mega_dir / "kb.db").unlink()
        monkeypatch.setattr(KBQA, "train", _no_training)
        with pytest.raises(ValueError, match=r"kb\.db"):
            bind_scenarios(mega_dir)
        assert not (mega_dir / "kb.db").exists()  # and no empty database left behind


# held-out rewordings: surfaces the template model never trained on
_HELDOUT_REWRITES = (
    lambda q: "regarding " + q.rstrip("?") + ", any thoughts?",
    lambda q: q.rstrip("?") + " or not?",
    lambda q: "quick trivia: " + q,
)


def _values(result) -> tuple:
    return tuple(sorted(result.values)) if result.answered else ()


def _answers_gold(target, question: str, pair) -> bool:
    return _values(target.answer(question)) == tuple(pair.meta["values"])


def _strip_diacritics(question: str) -> str:
    """ASCII-only rendition of a diacritic-bearing name (José -> Jose)."""
    decomposed = unicodedata.normalize("NFD", question)
    return "".join(ch for ch in decomposed if not unicodedata.combining(ch))


def _no_training(*_args, **_kwargs):
    raise AssertionError("bind_scenarios trained before rejecting the build")


def _post(url: str, payload: dict) -> tuple[int, dict]:
    request = urllib.request.Request(
        url,
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(request) as response:
        return response.status, json.loads(response.read().decode("utf-8"))


class TestTemporalSupersessionThroughServe:
    def test_fresh_fact_wins_after_facts_supersession(self):
        suite = build_suite("small", seed=7)
        system = KBQA.train(suite.freebase, suite.corpus, suite.conceptualizer)
        # pick a person with exactly one residence and a different target city
        world = suite.world
        person = next(
            e
            for e in world.of_type("person")
            if len(e.get_fact("residence")) == 1
        )
        old_city = world.entity(person.get_fact("residence")[0])
        new_city = next(
            c for c in world.of_type("city") if c.node != old_city.node
        )
        question = f"where does {person.name} live?"
        with BackgroundServer(system, ServeConfig(max_batch=8)) as bg:
            _status, before = _post(bg.url + "/answer", {"question": question})
            assert before["answered"] is True
            assert before["values"] == [old_city.name]

            for op, obj in (("delete", old_city.node), ("add", new_city.node)):
                status, body = _post(
                    bg.url + "/facts",
                    {
                        "op": op,
                        "subject": person.node,
                        "predicate": "residence",
                        "object": obj,
                    },
                )
                assert status == 200
                assert body["changed"] is True

            _status, after = _post(bg.url + "/answer", {"question": question})
            assert after["answered"] is True
            assert after["values"] == [new_city.name]  # the fresh fact wins
