"""Tests for benchmark construction and the sentence corpus."""


from repro.corpus.benchmark import (
    build_complex_benchmark,
    build_qald_like,
    build_webquestions_like,
)
from repro.corpus.surface import SURFACES

from benchmarks.baselines.sentences import SENTENCE_TEMPLATES, generate_sentences


class TestQALDLikeBenchmarks:
    def test_ratio_matches_table5(self, suite):
        """Table 5: QALD-5 12/50, QALD-3 41/99, QALD-1 27/50."""
        expectations = {"qald5": (50, 12), "qald3": (99, 41), "qald1": (50, 27)}
        for name, (total, bfq) in expectations.items():
            bench = suite.benchmark(name)
            assert bench.n_total == total, name
            assert bench.n_bfq == bfq, name

    def test_deterministic(self, world):
        a = build_qald_like("t", world, seed=9, n_bfq_seen=5, n_nonbfq=5)
        b = build_qald_like("t", world, seed=9, n_bfq_seen=5, n_nonbfq=5)
        assert [q.question for q in a.questions] == [q.question for q in b.questions]

    def test_qids_unique(self, suite):
        for bench in suite.benchmarks.values():
            qids = [q.qid for q in bench.questions]
            assert len(qids) == len(set(qids))

    def test_bfq_gold_values_from_world(self, suite, world):
        for bq in suite.benchmark("qald3").bfqs():
            if bq.gold_intent is None:
                continue
            assert bq.gold_values == frozenset(world.gold_values(bq.entity, bq.gold_intent))

    def test_categories_present(self, suite):
        categories = {q.category for q in suite.benchmark("qald3").questions}
        assert "bfq_seen" in categories
        assert "bfq_unseen" in categories
        assert "bfq_ambiguous" in categories
        assert any(c.startswith("nonbfq") for c in categories)

    def test_unseen_questions_use_heldout_surfaces(self, suite):
        train_texts = {
            s.text for surfaces in SURFACES.values() for s in surfaces if not s.test_only
        }
        for bq in suite.benchmark("qald3").questions:
            if bq.category != "bfq_unseen":
                continue
            # Rebuild the surface by replacing the entity name with {e}.
            name = suite.world.name_of(bq.entity)
            surface = bq.question.replace(name, "{e}")
            assert surface not in train_texts

    def test_nonbfq_have_no_gold_intent(self, suite):
        for bq in suite.benchmark("qald3").questions:
            if not bq.is_bfq and bq.category != "complex":
                assert bq.gold_intent is None

    def test_superlative_gold_correct(self, suite, world):
        for bq in suite.benchmark("webquestions").questions:
            if bq.category != "nonbfq_superlative":
                continue
            if "city has the largest population" in bq.question:
                best = max(
                    (c for c in world.of_type("city") if c.get_fact("population")),
                    key=lambda c: int(c.get_fact("population")[0]),
                )
                assert bq.gold_values == frozenset({best.name})


class TestWebQuestionsLike:
    def test_size_and_ratio(self, suite):
        bench = suite.benchmark("webquestions")
        assert bench.n_total == 200
        assert 0.25 < bench.bfq_ratio < 0.45

    def test_scalable(self, world):
        bench = build_webquestions_like(world, seed=3, total=60)
        assert bench.n_total == 60


class TestComplexBenchmark:
    def test_eight_questions(self, suite):
        assert suite.benchmark("complex").n_total == 8

    def test_patterns_cover_table15_shapes(self, suite):
        patterns = {q.meta["pattern"] for q in suite.benchmark("complex").questions}
        assert any("capital" in p for p in patterns)
        assert any("spouse" in p for p in patterns)
        assert any("ceo" in p for p in patterns)

    def test_gold_values_nonempty(self, suite):
        for q in suite.benchmark("complex").questions:
            assert q.gold_values

    def test_deterministic(self, world):
        a = build_complex_benchmark(world, seed=7)
        b = build_complex_benchmark(world, seed=7)
        assert [q.question for q in a.questions] == [q.question for q in b.questions]


class TestSentences:
    def test_generated_count(self, sentences):
        assert len(sentences) == 4000

    def test_sentences_mention_entity_and_value(self, sentences):
        for sentence in sentences[:50]:
            # every sentence comes from a template with both slots filled
            assert len(sentence.split()) >= 4

    def test_templates_have_slots(self):
        for intent, templates in SENTENCE_TEMPLATES.items():
            for t in templates:
                assert "{e}" in t and "{v}" in t, (intent, t)

    def test_deterministic(self, world):
        assert generate_sentences(world, 100, seed=3) == generate_sentences(world, 100, seed=3)

    def test_only_covered_intents_render(self):
        from repro.data.world import SCHEMA_BY_INTENT

        # bootstrapping's coverage gap: CVT intents have no sentence templates
        assert "members" not in SENTENCE_TEMPLATES
        assert "songs" not in SENTENCE_TEMPLATES
        for intent in SENTENCE_TEMPLATES:
            assert intent in SCHEMA_BY_INTENT
