"""Tests for pattern statistics and the decomposition DP (Sec 5)."""

import pytest

from repro.core.decompose import PatternStatistics
from repro.nlp.ner import EntityRecognizer

from tests.conftest import pick_entity


@pytest.fixture
def example4_stats():
    """The paper's Example 4: two 'when was X born?' questions."""
    ner = EntityRecognizer({
        "barack obama": ["a"], "michelle obama": ["c"],
    })
    questions = [
        "when was barack obama born?",
        "when was michelle obama born?",
    ]
    return PatternStatistics.from_corpus(questions, ner)


class TestPatternStatistics:
    def test_example4_valid_pattern(self, example4_stats):
        """'when was $e born ?' matches both questions validly: P = 1."""
        assert example4_stats.validity("when was $e born ?".split()) == pytest.approx(1.0)

    def test_example4_overgeneral_pattern(self, example4_stats):
        """'when $e ?' matches both, but never on an entity span: P = 0."""
        assert example4_stats.validity("when $e ?".split()) == pytest.approx(0.0)

    def test_unseen_pattern_zero(self, example4_stats):
        assert example4_stats.validity("how large is $e ?".split()) == 0.0

    def test_fo_counts_questions_not_spans(self, example4_stats):
        # both questions produce 'when was $e born ?' (from several spans in
        # principle) but fo counts each question once
        assert example4_stats.fo["when was $e born ?"] == 2
        assert example4_stats.fv["when was $e born ?"] == 2

    def test_fo_counts_any_substring_of_a_valid_pattern(self):
        """``fo`` counts a question matching a valid pattern under *any*
        substring replacement, entity or not — once per question."""
        ner = EntityRecognizer({"barack obama": ["a"], "michelle obama": ["c"]})
        stats = PatternStatistics.from_corpus(
            [
                "when was barack obama born?",
                "when was michelle obama born?",
                "when was the old bridge born?",  # matches on a non-entity span
                "where was barack obama born?",
            ],
            ner,
        )
        assert stats.fo["when was $e born ?"] == 3
        assert stats.fv["when was $e born ?"] == 2
        assert stats.validity("when was $e born ?".split()) == pytest.approx(2 / 3)
        assert stats.validity("where was $e born ?".split()) == 1.0

    def test_partial_entity_span_not_valid(self, example4_stats):
        # replacing only the first name ('barack' / 'michelle') is observed
        # in both questions but never on a full entity span
        pattern = "when was $e obama born ?"
        assert example4_stats.fv[pattern] == 0
        assert example4_stats.validity(pattern.split()) == 0.0

    def test_fo_holds_only_validated_patterns(self, example4_stats):
        """The contract ``validity`` rests on: a stored key was validated by
        some question and observed at least as often as validated."""
        assert set(example4_stats.fo) == set(example4_stats.fv) == {"when was $e born ?"}
        for key, observed in example4_stats.fo.items():
            assert observed >= example4_stats.fv[key] > 0

    def test_long_questions_skipped(self):
        ner = EntityRecognizer({"x": ["n"]})
        long_question = " ".join(["word"] * 30) + " x?"
        stats = PatternStatistics.from_corpus([long_question], ner, max_tokens=23)
        assert stats.questions_indexed == 0

    def test_max_questions_cap(self):
        ner = EntityRecognizer({"x": ["n"]})
        stats = PatternStatistics.from_corpus(
            ["what is x?"] * 100, ner, max_questions=10
        )
        assert stats.questions_indexed == 10


class TestDecomposition:
    def test_simple_bfq_stays_whole(self, suite, kbqa_fb):
        city = pick_entity(suite.world, "city", "population")
        decomposition = kbqa_fb.decompose(f"what is the population of {city.name}?")
        assert decomposition.is_simple
        assert decomposition.score == pytest.approx(1.0)

    def test_capital_population_decomposes(self, suite, kbqa_fb):
        country = pick_entity(suite.world, "country", "capital")
        question = f"how many people are there in the capital of {country.name}?"
        decomposition = kbqa_fb.decompose(question)
        assert len(decomposition.sequence) == 2
        assert decomposition.sequence[0] == f"the capital of {country.name}"
        assert decomposition.sequence[1] == "how many people are there in $e ?"
        assert decomposition.score > 0.0

    def test_spouse_dob_decomposes(self, suite, kbqa_fb):
        person = pick_entity(suite.world, "person", "spouse")
        question = f"when was {person.name} 's wife born?"
        decomposition = kbqa_fb.decompose(question)
        assert len(decomposition.sequence) == 2
        assert decomposition.sequence[0] == f"{person.name} 's wife"
        assert decomposition.sequence[1] == "when was $e born ?"

    def test_undecomposable_scores_zero(self, kbqa_fb):
        decomposition = kbqa_fb.decompose("what should i eat tonight?")
        assert decomposition.is_simple
        assert decomposition.score == 0.0

    def test_empty_question(self, kbqa_fb):
        decomposition = kbqa_fb.decompose("")
        assert decomposition.score == 0.0

    def test_is_primitive_on_known_template(self, suite, kbqa_fb):
        from repro.nlp.tokenizer import tokenize

        city = pick_entity(suite.world, "city", "population")
        tokens = tokenize(f"what is the population of {city.name}?")
        assert kbqa_fb.decomposer.is_primitive(tokens)

    def test_is_primitive_rejects_unknown(self, kbqa_fb):
        from repro.nlp.tokenizer import tokenize

        assert not kbqa_fb.decomposer.is_primitive(tokenize("utterly novel phrasing here"))

    def test_complex_questions_decompose_as_without_the_context_skip(
        self, suite, kbqa_fb, monkeypatch
    ):
        """δ(q) skips mentions whose context no learned template has; the
        DP over every complex benchmark question must not notice."""
        from repro.core.decompose import Decomposer
        from repro.core.template import Template
        from repro.taxonomy.conceptualizer import top_concepts

        decomposer = kbqa_fb.decomposer
        questions = [bq.question for bq in suite.benchmark("complex").questions]
        calls = []
        conceptualize = decomposer.conceptualizer.conceptualize
        monkeypatch.setattr(
            decomposer.conceptualizer, "conceptualize",
            lambda *args: calls.append(args) or conceptualize(*args),
        )
        product = [decomposer.decompose(question) for question in questions]
        skipping = len(calls)

        def reference_is_primitive(self, tokens) -> bool:
            tokens = tuple(tokens)
            for mention in self.ner.find_mentions(tokens):
                span = (mention.start, mention.end)
                context = tokens[: mention.start] + tokens[mention.end :]
                for entity in mention.candidates:
                    concepts = self.conceptualizer.conceptualize(entity, context)
                    for concept, _prob in top_concepts(concepts, self.max_concepts):
                        if Template.from_question(tokens, span, concept).text in self.model:
                            return True
            return False

        monkeypatch.setattr(Decomposer, "is_primitive", reference_is_primitive)
        calls.clear()
        assert [decomposer.decompose(question) for question in questions] == product
        assert any(len(d.sequence) > 1 for d in product)
        assert 0 < skipping * 4 < len(calls)


class TestComplexAnswering:
    def test_capital_population_chain(self, suite, kbqa_fb):
        country = pick_entity(suite.world, "country", "capital")
        capital = suite.world.entity(country.get_fact("capital")[0])
        question = f"how many people are there in the capital of {country.name}?"
        answer = kbqa_fb.answer_complex(question)
        assert answer.answered
        assert answer.value in suite.world.gold_values(capital.node, "population")
        assert len(answer.steps) == 2

    def test_spouse_dob_chain(self, suite, kbqa_fb):
        person = pick_entity(suite.world, "person", "spouse")
        spouse = suite.world.entity(person.get_fact("spouse")[0])
        answer = kbqa_fb.answer_complex(f"when was {person.name} 's wife born?")
        assert answer.answered
        assert answer.value in suite.world.gold_values(spouse.node, "dob")

    def test_simple_question_passes_through(self, suite, kbqa_fb):
        city = pick_entity(suite.world, "city", "population")
        answer = kbqa_fb.answer_complex(f"what is the population of {city.name}?")
        assert answer.answered
        assert len(answer.steps) == 1

    def test_broken_chain_returns_unanswered(self, suite, kbqa_fb):
        person = next(
            p for p in suite.world.of_type("person") if not p.get_fact("spouse")
        )
        answer = kbqa_fb.answer_complex(f"when was {person.name} 's wife born?")
        assert not answer.answered

    def test_complex_benchmark_mostly_answered(self, suite, kbqa_fb):
        """Table 15's claim: KBQA answers the bulk of the complex set."""
        benchmark = suite.benchmark("complex")
        answered_right = 0
        for bq in benchmark.questions:
            answer = kbqa_fb.answer_complex(bq.question)
            if answer.answered and set(answer.values) & set(bq.gold_values):
                answered_right += 1
        assert answered_right >= benchmark.n_total - 2
