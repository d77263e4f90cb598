"""Table 16 — effectiveness of predicate expansion.

Paper: expanded predicates (length 2..k) contribute 26.7M templates over
2536 predicates versus 467K templates over 246 direct predicates — a 57x
template and 10.3x predicate multiplier.  The magnitude tracks how much of
the KB is CVT-encoded; the shape to reproduce is that expansion multiplies
both counts substantially.
"""

from repro.utils.tables import Table

from benchmarks.conftest import emit
from benchmarks.model_inventory import stats_by_path_length

PAPER = {"len1": (467393, 246), "len2k": (26658962, 2536), "ratio": (57.0, 10.3)}


def test_table16_expansion_effect(benchmark, fb_system, fb_system_noexp):
    by_length = stats_by_path_length(fb_system.model)
    len1 = by_length.get(1, {"templates": 0, "predicates": 0})
    len2k_templates = sum(
        v["templates"] for length, v in by_length.items() if length >= 2
    )
    len2k_predicates = sum(
        v["predicates"] for length, v in by_length.items() if length >= 2
    )

    table = Table(
        ["length", "paper #templates", "paper #predicates", "#templates", "#predicates"],
        title="Table 16: effectiveness of predicate expansion",
    )
    table.add_row(["1", PAPER["len1"][0], PAPER["len1"][1], len1["templates"], len1["predicates"]])
    table.add_row(["2 to k", PAPER["len2k"][0], PAPER["len2k"][1], len2k_templates, len2k_predicates])
    ratio_t = len2k_templates / max(len1["templates"], 1)
    ratio_p = len2k_predicates / max(len1["predicates"], 1)
    table.add_row(["ratio", PAPER["ratio"][0], PAPER["ratio"][1], round(ratio_t, 1), round(ratio_p, 1)])

    # Cross-check against the ablated system (trained without expansion).
    noexp = fb_system_noexp.model
    table.add_row([
        "no-expansion ablation", "-", "-", noexp.n_templates, noexp.n_predicates,
    ])
    emit(table, "table16_expansion.txt")

    assert len2k_templates > len1["templates"], "expansion adds the majority of templates"
    assert len2k_predicates > 0.5 * len1["predicates"]
    assert fb_system.model.n_templates > 1.5 * noexp.n_templates
    assert fb_system.model.n_predicates > 1.3 * noexp.n_predicates

    benchmark(stats_by_path_length, fb_system.model)
