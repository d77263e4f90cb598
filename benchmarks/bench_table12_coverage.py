"""Table 12 — coverage of predicate inference: KBQA vs bootstrapping.

Paper: KBQA learns 27,126,355 templates / 2782 predicates on KBA (and
1.17M/4690 on Freebase, 863K/1434 on DBpedia) versus bootstrapping's 471,920
BOA patterns / 283 predicates — despite bootstrapping using a larger corpus.
Shape to reproduce: template learning covers an order of magnitude more
templates and strictly more predicates than pattern bootstrapping, because
(a) conceptualized templates multiply per surface and (b) bootstrapping
cannot reach CVT-mediated relations from flat sentences.
"""

from repro.utils.tables import Table

from benchmarks.baselines.bootstrapping import BootstrapLearner
from benchmarks.conftest import emit

PAPER_ROWS = [
    ["KBQA+KBA (paper)", "41M QA", 27126355, 2782, 9751],
    ["KBQA+Freebase (paper)", "41M QA", 1171303, 4690, 250],
    ["KBQA+DBpedia (paper)", "41M QA", 862758, 1434, 602],
    ["Bootstrapping (paper)", "256M sentences", 471920, 283, 4639],
]


def test_table12_coverage(benchmark, bench_suite, bench_sentences, fb_system, dbp_system):
    boot = BootstrapLearner(bench_suite.freebase).learn(bench_sentences)

    table = Table(
        ["system", "corpus", "templates", "predicates", "templates/predicate"],
        title="Table 12: coverage of predicate inference",
    )
    for row in PAPER_ROWS:
        table.add_row(row)
    for label, model in [
        ("KBQA+freebase-like (measured)", fb_system.model),
        ("KBQA+dbpedia-like (measured)", dbp_system.model),
    ]:
        table.add_row([
            label, f"{len(bench_suite.corpus)} QA",
            model.n_templates, model.n_predicates,
            round(model.templates_per_predicate(), 1),
        ])
    table.add_row([
        "Bootstrapping (measured)", f"{len(bench_sentences)} sentences",
        boot.n_patterns, boot.n_predicates, round(boot.n_patterns / max(boot.n_predicates, 1), 1),
    ])
    emit(table, "table12_coverage.txt")

    assert fb_system.model.n_templates > 10 * boot.n_patterns
    assert fb_system.model.n_predicates > boot.n_predicates
    assert dbp_system.model.n_templates > 10 * boot.n_patterns

    learner = BootstrapLearner(bench_suite.freebase)
    benchmark(learner.learn, bench_sentences[:500])
