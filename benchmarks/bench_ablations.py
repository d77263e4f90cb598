"""Ablations of the design choices DESIGN.md calls out.

Not a paper table — these isolate the contribution of each mechanism:

* **EM vs count-and-vote init** (Eq 23 alone): does iterating EM sharpen
  ``P(p|t)`` on ambiguous templates?
* **EV refinement on/off** (Sec 4.1): does the answer-type filter improve
  the learned model's predicate-inference precision?
* **Expansion length k in {1, 2, 3}**: coverage growth per length.
"""

import pytest

from repro.core.em import EMConfig
from repro.core.learner import LearnerConfig, OfflineLearner
from repro.core.system import KBQA, KBQAConfig
from repro.eval.runner import evaluate_qald
from repro.kb.paths import PredicatePath
from repro.utils.tables import Table

from benchmarks.conftest import emit
from benchmarks.model_inventory import stats_by_path_length


@pytest.fixture(scope="module")
def init_only_model(bench_suite):
    """Zero EM iterations: theta stays the Eq 23 initializer (uniform over
    the predicates co-occurring with each template)."""
    config = LearnerConfig(em=EMConfig(max_iterations=0))
    learner = OfflineLearner(bench_suite.freebase, bench_suite.conceptualizer, config)
    return learner.learn(bench_suite.corpus).model


def test_ablation_em_iterations(benchmark, bench_suite, fb_system, init_only_model):
    """EM must not lose (and typically sharpens) the majority predicate on
    ambiguous templates compared to the initializer."""
    ambiguous = "how big is $city ?"
    full = fb_system.model.predicates_for(ambiguous)
    init = init_only_model.predicates_for(ambiguous)
    population = PredicatePath.single("population")

    table = Table(
        ["estimator", "theta(population | 'how big is $city ?')", "templates"],
        title="Ablation: EM iterations vs initializer",
    )
    table.add_row(["initializer only (Eq 23)", round(init.get(population, 0.0), 3), init_only_model.n_templates])
    table.add_row(["full EM", round(full.get(population, 0.0), 3), fb_system.model.n_templates])
    emit(table, "ablation_em.txt")

    # The initializer spreads mass uniformly over co-occurring predicates;
    # EM concentrates it on the majority explanation.
    assert full.get(population, 0.0) > init.get(population, 0.0)
    assert full.get(population, 0.0) > 0.5

    benchmark(
        lambda: OfflineLearner(
            bench_suite.freebase,
            bench_suite.conceptualizer,
            LearnerConfig(em=EMConfig(max_iterations=3)),
        ).learn(bench_suite.corpus.head(500))
    )


def _observation_noise_rate(bench_suite, use_refinement: bool, sample: int = 1500):
    """Fraction of extracted observations whose value is NOT the generating
    pair's gold value — the training noise the EM has to overcome."""
    from repro.core.extraction import ExtractionConfig, ValueIndex, extract_observations
    from repro.core.kbview import KBView
    from repro.kb.expansion import expand_predicates
    from repro.nlp.ner import EntityRecognizer

    kb = bench_suite.freebase
    ner = EntityRecognizer(kb.gazetteer)
    value_index = ValueIndex(kb.store)
    pairs = [p for p in bench_suite.corpus if p.meta.get("kind") == "factoid"][:sample]
    seeds = {e for p in pairs for e in ner.lookup(bench_suite.world.name_of(p.meta["entity"]))}
    kbview = KBView(kb.store, expand_predicates(kb.store, seeds, 3))
    config = ExtractionConfig(use_refinement=use_refinement)

    total = noisy = 0
    for pair in pairs:
        observations, _stats = extract_observations(
            [(pair.question, pair.answer)], kbview, ner, value_index,
            kb.answer_type_for_path, config,
        )
        gold_values = {v.lower() for v in pair.meta["values"]}
        for obs in observations:
            total += 1
            if obs.value[1:].lower() not in gold_values:
                noisy += 1
    return noisy / total if total else 0.0, total


def test_ablation_refinement(benchmark, bench_suite, fb_system):
    """The Sec 4.1 answer-type filter cuts training noise: without it, more
    wrong (entity, value) pairs survive extraction (Example 2's trap)."""
    noise_with, n_with = _observation_noise_rate(bench_suite, use_refinement=True)
    noise_without, n_without = _observation_noise_rate(bench_suite, use_refinement=False)

    config = KBQAConfig(learner=LearnerConfig(use_refinement=False))
    system_noref = KBQA.train(
        bench_suite.freebase, bench_suite.corpus, bench_suite.conceptualizer, config
    )
    bench = bench_suite.benchmark("qald3")
    with_ref, _ = evaluate_qald(fb_system, bench, bench_suite.freebase)
    without_ref, _ = evaluate_qald(system_noref, bench, bench_suite.freebase)

    table = Table(
        ["variant", "observations", "noisy obs rate", "P", "P*", "R_BFQ"],
        title="Ablation: entity-value refinement",
    )
    table.add_row([
        "with refinement", n_with, f"{noise_with:.1%}",
        round(with_ref.precision, 2), round(with_ref.precision_star, 2),
        round(with_ref.recall_bfq, 2),
    ])
    table.add_row([
        "without refinement", n_without, f"{noise_without:.1%}",
        round(without_ref.precision, 2), round(without_ref.precision_star, 2),
        round(without_ref.recall_bfq, 2),
    ])
    emit(table, "ablation_refinement.txt")

    assert noise_without > noise_with, "refinement must cut observation noise"
    assert with_ref.precision >= without_ref.precision - 0.02

    benchmark(fb_system.answer, bench.questions[0].question)


def test_ablation_expansion_length(benchmark, bench_suite, fb_system):
    """Template coverage per expansion length k (Table 4/16 mechanism)."""
    counts = {}
    for k in (1, 2, 3):
        config = LearnerConfig(
            max_path_length=k, use_expansion=k > 1, em=EMConfig(max_iterations=5)
        )
        learner = OfflineLearner(bench_suite.freebase, bench_suite.conceptualizer, config)
        model = learner.learn(bench_suite.corpus).model
        counts[k] = (model.n_templates, model.n_predicates)

    table = Table(
        ["k", "#templates", "#predicates"],
        title="Ablation: expansion length",
    )
    for k, (templates, predicates) in counts.items():
        table.add_row([k, templates, predicates])
    emit(table, "ablation_k.txt")

    assert counts[2][0] > counts[1][0], "k=2 unlocks entity-valued intents"
    assert counts[3][0] > counts[2][0], "k=3 unlocks CVT intents"
    assert counts[3][1] > counts[1][1]

    benchmark(stats_by_path_length, fb_system.model)
