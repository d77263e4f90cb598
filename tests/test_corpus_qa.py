"""Tests for QA containers and the corpus generator."""

import hashlib
import json
import random
from collections import Counter

import pytest

from repro.corpus.generator import CorpusConfig, generate_corpus
from repro.corpus.qa import QACorpus, QAPair
from repro.corpus.surface import SURFACES, held_out_surfaces, train_surfaces
from repro.data.world import SCHEMA_BY_INTENT


class TestQAPair:
    def test_json_roundtrip(self):
        pair = QAPair("q1", "when was obama born?", "in 1961.", {"intent": "dob"})
        restored = QAPair.from_json(pair.to_json())
        assert restored == pair
        assert restored.meta == {"intent": "dob"}

    def test_meta_not_in_equality(self):
        a = QAPair("q1", "q?", "a.", {"x": 1})
        b = QAPair("q1", "q?", "a.", {"x": 2})
        assert a == b


class TestQACorpus:
    def test_filter(self):
        corpus = QACorpus([QAPair("a", "x?", "y."), QAPair("b", "z?", "w.")])
        filtered = corpus.filter(lambda p: p.qid == "a")
        assert len(filtered) == 1

    def test_head(self):
        corpus = QACorpus([QAPair(str(i), "q?", "a.") for i in range(10)])
        assert len(corpus.head(3)) == 3

    def test_questions_iterator(self):
        corpus = QACorpus([QAPair("a", "x?", "y.")])
        assert list(corpus.questions()) == ["x?"]


class TestSurfaceBank:
    def test_every_intent_has_surfaces(self):
        for intent in SCHEMA_BY_INTENT:
            assert intent in SURFACES, f"no surfaces for {intent}"
            assert train_surfaces(intent), f"no train surfaces for {intent}"

    def test_every_intent_has_heldout_surface(self):
        for intent in SCHEMA_BY_INTENT:
            assert held_out_surfaces(intent), f"no held-out surface for {intent}"

    def test_surfaces_have_entity_slot(self):
        for intent, surfaces in SURFACES.items():
            for surface in surfaces:
                assert "{e}" in surface.text, (intent, surface.text)

    def test_ambiguous_surface_shared(self):
        population = {s.text for s in SURFACES["population"]}
        area = {s.text for s in SURFACES["area"]}
        assert "how big is {e}?" in population & area

    def test_train_and_test_disjoint(self):
        for intent in SURFACES:
            train = {s.text for s in train_surfaces(intent)}
            test = {s.text for s in held_out_surfaces(intent)}
            assert not train & test


class TestGenerateCorpus:
    def test_deterministic(self, world):
        config = CorpusConfig.small(seed=5)
        a = generate_corpus(world, config)
        b = generate_corpus(world, config)
        assert [p.question for p in a] == [p.question for p in b]
        assert [p.answer for p in a] == [p.answer for p in b]

    def test_target_size(self, corpus):
        assert len(corpus) == 4000

    def test_factoid_pairs_embed_entity_name(self, world, corpus):
        for pair in corpus.pairs[:300]:
            if pair.meta.get("kind") != "factoid":
                continue
            name = world.name_of(pair.meta["entity"])
            assert name in pair.question

    def test_clean_answers_contain_gold_value(self, corpus):
        checked = 0
        for pair in corpus.pairs:
            if pair.meta.get("kind") != "factoid" or pair.meta.get("wrong"):
                continue
            values = pair.meta["values"]
            assert any(v in pair.answer for v in values), pair.answer
            checked += 1
            if checked >= 300:
                break
        assert checked == 300

    def test_noise_rates_roughly_respected(self, corpus):
        n = len(corpus)
        chitchat = sum(1 for p in corpus if p.meta.get("kind") == "chitchat")
        wrong = sum(1 for p in corpus if p.meta.get("wrong"))
        assert 0.02 * n < chitchat < 0.09 * n
        assert 0.01 * n < wrong < 0.08 * n

    def test_rare_intents_underrepresented(self, corpus):
        counts = Counter(p.meta["intent"] for p in corpus if p.meta.get("intent"))
        assert counts.get("flows_through", 0) < counts["population"] / 5

    def test_test_only_surfaces_never_used(self, corpus):
        used = {p.meta["surface"] for p in corpus if p.meta.get("kind") == "factoid"}
        for intent in SURFACES:
            for surface in held_out_surfaces(intent):
                assert surface.text not in used

    def test_example2_trap_present(self, corpus):
        """Some dob answers must mention the profession (Example 2)."""
        professions = {"politician", "actor", "scientist", "musician", "author"}
        found = any(
            p.meta.get("intent") == "dob" and any(prof in p.answer for prof in professions)
            for p in corpus
        )
        assert found

    def test_empty_world_rejected(self):
        from repro.data.world import World, WorldConfig

        empty = World(WorldConfig.small())
        with pytest.raises(ValueError):
            generate_corpus(empty, CorpusConfig.small())


def _corpus_sha256(corpus) -> str:
    digest = hashlib.sha256()
    for pair in corpus:
        line = json.dumps(
            [pair.qid, pair.question, pair.answer, pair.meta], ensure_ascii=False, sort_keys=True
        )
        digest.update(line.encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()


def _model_json(model) -> bytes:
    """The model's ``P(p|t)``, supports and observation count as one JSON
    document, built through the public API in the model's template order."""
    payload = {
        "format_version": 1,
        "n_observations": model.n_observations,
        "templates": {
            template: {
                "support": model.support(template),
                "theta": {str(path): prob for path, prob in model.predicates_for(template).items()},
            }
            for template in model.templates()
        },
    }
    return json.dumps(payload, ensure_ascii=False).encode("utf-8")


def _model_sha256(model) -> str:
    return hashlib.sha256(_model_json(model)).hexdigest()


class TestPinnedDigests:
    """The corpus and the model learned from it, pinned byte for byte.

    The values were recorded before the generator drew from precomputed
    ``cum_weights``, which must not move a single pair.  A change that is
    meant to alter the corpus must re-pin these and say why.
    """

    SMALL_CORPUS = "d823ff1986fdc056f0df40399ae1b85bd5bbc178b0b7f1b840b3777d7643c3ec"
    DEFAULT_CORPUS = "1032eb82d6486e550d658ff54f6bd201062dc3cbca44d9e0043afdfaa9d97184"
    SMALL_MODEL = "ff551edebcbb82ab31b74ff924bd29dedc07599d0ad7057ea5d9c9615159ccb5"

    def test_small_corpus(self, corpus):
        assert _corpus_sha256(corpus) == self.SMALL_CORPUS

    def test_default_corpus(self):
        from repro.data.world import WorldConfig, build_world

        world = build_world(WorldConfig(seed=7))
        assert _corpus_sha256(generate_corpus(world, CorpusConfig(seed=7))) == self.DEFAULT_CORPUS

    def test_small_model(self, kbqa_fb):
        assert _model_sha256(kbqa_fb.model) == self.SMALL_MODEL

    def test_no_per_draw_weights(self, world, monkeypatch):
        """Every weighted draw passes precomputed ``cum_weights``: with
        ``weights=`` CPython re-accumulates the whole list on each call."""
        original = random.Random.choices
        calls = []

        def recorder(self, population, weights=None, *, cum_weights=None, k=1):
            calls.append((weights is None, cum_weights is not None))
            return original(self, population, weights, cum_weights=cum_weights, k=k)

        monkeypatch.setattr(random.Random, "choices", recorder)
        generate_corpus(world, CorpusConfig.small())
        assert calls
        assert all(no_weights and has_cum for no_weights, has_cum in calls)
