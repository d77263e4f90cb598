"""Tests for the template model container."""

import pytest

from repro.core.model import TemplateModel
from repro.kb.paths import PredicatePath

from benchmarks.model_inventory import stats_by_path_length, templates_for_path, top_templates


@pytest.fixture
def model() -> TemplateModel:
    m = TemplateModel()
    m.set_distribution(
        "how many people are there in $city ?",
        {"population": 0.9, "area": 0.1},
        support=50.0,
    )
    m.set_distribution(
        "who is the wife of $person ?",
        {"marriage->person->name": 1.0},
        support=30.0,
    )
    m.set_distribution(
        "what is the area of $city ?",
        {"area": 1.0},
        support=10.0,
    )
    m.n_observations = 90
    return m


class TestTemplateModel:
    def test_contains(self, model):
        assert "who is the wife of $person ?" in model
        assert "unknown $x ?" not in model

    def test_predicates_for(self, model):
        dist = model.predicates_for("how many people are there in $city ?")
        assert dist[PredicatePath.single("population")] == pytest.approx(0.9)

    def test_predicates_for_unknown_template(self, model):
        assert model.predicates_for("nope $x") == {}

    def test_best_path(self, model):
        path, prob = model.best_path("how many people are there in $city ?")
        assert path == PredicatePath.single("population")
        assert prob == pytest.approx(0.9)

    def test_best_path_unknown(self, model):
        assert model.best_path("nope $x") is None

    def test_distribution_renormalized(self):
        m = TemplateModel()
        m.set_distribution("t $x", {"a": 2.0, "b": 2.0})
        assert m.predicates_for("t $x")[PredicatePath.single("a")] == pytest.approx(0.5)

    def test_zero_mass_rejected(self):
        m = TemplateModel()
        with pytest.raises(ValueError):
            m.set_distribution("t $x", {"a": 0.0})
        with pytest.raises(ValueError):
            m.set_distribution("t $x", {})

    def test_inventory_counts(self, model):
        assert model.n_templates == 3
        assert model.n_predicates == 3  # population, area, marriage path
        assert model.templates_per_predicate() == pytest.approx(1.0)

    def test_top_templates_by_support(self, model):
        top = top_templates(model, 2)
        assert top[0] == "how many people are there in $city ?"
        assert top[1] == "who is the wife of $person ?"

    def test_templates_for_path(self, model):
        spouse = PredicatePath(("marriage", "person", "name"))
        assert templates_for_path(model, spouse) == ["who is the wife of $person ?"]

    def test_stats_by_path_length(self, model):
        stats = stats_by_path_length(model)
        assert stats[1]["templates"] == 2
        assert stats[3]["templates"] == 1
        assert stats[3]["predicates"] == 1
