"""Failure injection and adversarial-input tests.

A production QA system faces malformed questions, corrupted artifacts and
degenerate corpora; every failure here must be a clean refusal or a clear
exception — never a crash or a silent wrong answer.
"""

import json

import pytest

from repro.core.em import EMConfig
from repro.core.learner import LearnerConfig, OfflineLearner
from repro.core.model import TemplateModel
from repro.corpus.qa import QACorpus, QAPair


class TestAdversarialQuestions:
    @pytest.mark.parametrize("question", [
        "",
        "?",
        "???",
        "        ",
        "$person $city $company",
        "' or 1=1 --",
        "\\n\\t\\r",
        "🦊🦊🦊",
        "a" * 500,
        "when was when was when was born born born?",
    ])
    def test_garbage_questions_refused_cleanly(self, kbqa_fb, question):
        result = kbqa_fb.answer(question)
        assert not result.answered

    def test_very_long_question_decomposes_without_blowup(self, suite, kbqa_fb):
        city = next(e for e in suite.world.of_type("city") if e.get_fact("population"))
        long_question = ("really " * 30) + f"what is the population of {city.name}?"
        result = kbqa_fb.answer_complex(long_question)
        # over the 23-token pattern cap: fine to refuse, must not hang/crash
        assert result is not None

    def test_question_that_is_only_an_entity(self, suite, kbqa_fb):
        city = suite.world.of_type("city")[0]
        result = kbqa_fb.answer(city.name)
        # a bare entity has no learnable template ('$city' alone)
        assert result.value is None or isinstance(result.value, str)

    def test_entity_at_question_start_and_end(self, suite, kbqa_fb):
        person = next(p for p in suite.world.of_type("person") if p.get_fact("dob"))
        for question in (
            f"{person.name} was born when?",
            f"when was {person.name}",
        ):
            result = kbqa_fb.answer(question)  # must not raise
            assert result.question == question

    def test_unicode_apostrophe_variants(self, suite, kbqa_fb):
        person = next(p for p in suite.world.of_type("person") if p.get_fact("spouse"))
        ascii_q = f"who is {person.name} 's wife?"
        unicode_q = f"who is {person.name}’s wife?"
        assert kbqa_fb.answer(ascii_q).value == kbqa_fb.answer(unicode_q).value


class TestCorruptedArtifacts:
    def test_model_with_negative_probability(self):
        with pytest.raises(ValueError):
            TemplateModel().set_distribution("t $x", {"p": -0.5}, support=1.0)

    def test_corrupted_corpus_line(self):
        with pytest.raises(json.JSONDecodeError):
            QAPair.from_json("not json")


class TestDegenerateTraining:
    def test_empty_corpus_yields_empty_model(self, suite):
        learner = OfflineLearner(
            suite.freebase, suite.conceptualizer,
            LearnerConfig(em=EMConfig(max_iterations=2)),
        )
        result = learner.learn(QACorpus())
        assert result.model.n_templates == 0
        assert result.n_observations == 0

    def test_chitchat_only_corpus(self, suite):
        corpus = QACorpus([
            QAPair(f"c{i}", "what should i eat tonight?", "pizza, always pizza.")
            for i in range(20)
        ])
        learner = OfflineLearner(
            suite.freebase, suite.conceptualizer,
            LearnerConfig(em=EMConfig(max_iterations=2)),
        )
        result = learner.learn(corpus)
        assert result.model.n_templates == 0

    def test_system_with_empty_model_refuses_everything(self, suite):
        from repro.core.system import KBQA, KBQAConfig

        system = KBQA.train(
            suite.freebase, QACorpus(), suite.conceptualizer, KBQAConfig()
        )
        assert not system.answer("what is the population of anything?").answered
        complex_result = system.answer_complex("how big is the capital of x?")
        assert not complex_result.answered

    def test_contradictory_corpus_still_trains(self, suite):
        """A corpus asserting wrong values for every question must not crash
        training — connecting paths simply do not exist (Eq 8 filters)."""
        city = next(e for e in suite.world.of_type("city") if e.get_fact("population"))
        corpus = QACorpus([
            QAPair(f"w{i}", f"what is the population of {city.name}?", "it 's 123456789.")
            for i in range(10)
        ])
        learner = OfflineLearner(
            suite.freebase, suite.conceptualizer,
            LearnerConfig(em=EMConfig(max_iterations=2)),
        )
        result = learner.learn(corpus)
        template = "what is the population of $city ?"
        # nothing learnable from unconnected values
        assert template not in result.model or result.model.support(template) == 0


class TestValueCollisions:
    def test_colliding_year_values_do_not_confuse_intents(self, suite, kbqa_fb):
        """A founding year can equal a birth year; templates must still map
        to their own intents because EM aggregates over many instances."""
        dob_best = kbqa_fb.model.best_path("when was $person born ?")
        founded_best = kbqa_fb.model.best_path("when was $city founded ?")
        assert dob_best is not None and str(dob_best[0]) == "dob"
        if founded_best is not None:
            assert str(founded_best[0]) == "founded"
