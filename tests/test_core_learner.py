"""Tests for the offline learner (Figure 3's right column)."""

import gc
import tracemalloc

import pytest

from repro.core.learner import LearnerConfig, OfflineLearner
from repro.core.em import EMConfig
from repro.core.system import KBQA
from repro.kb.paths import PredicatePath
from repro.suite import build_suite


class TestLearnedModel:
    def test_core_templates_learned(self, kbqa_fb):
        model = kbqa_fb.model
        for template in [
            "what is the population of $city ?",
            "how many people are there in $city ?",
            "when was $person born ?",
            "who is the wife of $person ?",
        ]:
            assert template in model, template

    def test_population_template_maps_to_population(self, kbqa_fb):
        best = kbqa_fb.model.best_path("how many people are there in $city ?")
        assert best is not None
        assert best[0] == PredicatePath.single("population")
        assert best[1] > 0.8

    def test_spouse_template_maps_to_cvt_path(self, kbqa_fb):
        best = kbqa_fb.model.best_path("who is the wife of $person ?")
        assert best is not None
        assert best[0] == PredicatePath(("marriage", "person", "name"))

    def test_ambiguous_template_is_distribution(self, kbqa_fb):
        """'how big is $city ?' is used for population (w=0.7) and area
        (w=0.3): the learned P(p|t) must spread mass over both."""
        dist = kbqa_fb.model.predicates_for("how big is $city ?")
        assert dist, "ambiguous template must be learned"
        population = dist.get(PredicatePath.single("population"), 0.0)
        area = dist.get(PredicatePath.single("area"), 0.0)
        assert population > 0.0 and area > 0.0
        assert population > area  # matches the generation weights

    def test_concept_variants_learned(self, kbqa_fb):
        """Conceptualization produces several templates per surface."""
        templates = set(kbqa_fb.model.templates())
        person_variant = "when was $person born ?"
        profession_variants = {
            f"when was ${p} born ?"
            for p in ("politician", "actor", "scientist", "musician", "author")
        }
        assert person_variant in templates
        assert profession_variants & templates

    def test_n_to_one_mapping(self, kbqa_fb):
        """The paper: templates-to-predicates is n:1 — many templates per
        predicate path (Table 12 reports thousands)."""
        model = kbqa_fb.model
        assert model.n_templates > 5 * model.n_predicates

    def test_dbpedia_model_uses_dbp_names(self, kbqa_dbp):
        best = kbqa_dbp.model.best_path("what is the population of $city ?")
        assert best is not None
        assert best[0] == PredicatePath.single("populationTotal")

    def test_dbpedia_spouse_is_two_hops(self, kbqa_dbp):
        best = kbqa_dbp.model.best_path("who is the wife of $person ?")
        assert best is not None
        assert best[0] == PredicatePath(("spouse", "name"))


class TestLearnerConfigurations:
    def test_no_expansion_drops_cvt_templates(self, suite):
        config = LearnerConfig(use_expansion=False, em=EMConfig(max_iterations=5))
        learner = OfflineLearner(suite.freebase, suite.conceptualizer, config)
        result = learner.learn(suite.corpus)
        assert result.expanded is None
        assert "who is the wife of $person ?" not in result.model
        # direct-literal templates still learned
        assert "what is the population of $city ?" in result.model

    def test_expansion_multiplies_coverage(self, suite, kbqa_fb):
        """Table 16's claim: expansion multiplies templates and predicates."""
        config = LearnerConfig(use_expansion=False, em=EMConfig(max_iterations=5))
        without = OfflineLearner(suite.freebase, suite.conceptualizer, config).learn(suite.corpus)
        with_exp = kbqa_fb.model
        assert with_exp.n_templates > 1.5 * without.model.n_templates
        assert with_exp.n_predicates > 1.3 * without.model.n_predicates

    def test_seed_entities_from_corpus(self, kbqa_fb, suite):
        """Sec 6.2's reduction: seeds are corpus entities, far fewer than
        the KB's full entity set."""
        n_seeds = kbqa_fb.learn_result.n_seed_entities
        assert 0 < n_seeds <= len(suite.world.entities)

    def test_em_ran_and_improved(self, kbqa_fb):
        lls = kbqa_fb.learn_result.em.log_likelihood
        assert len(lls) >= 2
        assert lls[-1] >= lls[0]

    def test_refinement_off_keeps_more_pairs(self, suite):
        base = LearnerConfig(em=EMConfig(max_iterations=3))
        no_refine = LearnerConfig(use_refinement=False, em=EMConfig(max_iterations=3))
        with_r = OfflineLearner(suite.freebase, suite.conceptualizer, base).learn(suite.corpus)
        without_r = OfflineLearner(suite.freebase, suite.conceptualizer, no_refine).learn(suite.corpus)
        assert without_r.n_observations >= with_r.n_observations
        assert with_r.extraction.refinement_rejections > 0


@pytest.mark.perf
def test_default_scale_train_peaks_at_most_26_mib_above_the_suite():
    """tracemalloc's peak during ``KBQA.train`` above the built suite.  It
    was 39.3 MiB while the corpus scan held one string per token occurrence
    and the expansion's bulk build held its inputs beside the store; the
    candidate encoding, with the scan and the expansion held, sets it now."""
    suite = build_suite("default", seed=7)
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        KBQA.train(suite.freebase, suite.corpus, suite.conceptualizer)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak <= 26 << 20, f"the train peaked {peak / (1 << 20):.1f} MiB above the suite"
