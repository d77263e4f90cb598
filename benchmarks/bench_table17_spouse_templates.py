"""Table 17 — learned templates for ``marriage -> person -> name``.

Paper lists five templates learned for the spouse path ("Who is $person
marry to?", "Who is $person's husband?", ...).  We print the top templates
whose argmax predicate is that expanded path and assert they are spouse
phrasings.
"""

from repro.kb.paths import PredicatePath
from repro.utils.tables import Table

from benchmarks.conftest import emit
from benchmarks.model_inventory import templates_for_path

PAPER_TEMPLATES = [
    "who is $person marry to?",
    "who is $person's husband?",
    "what is $person's wife's name?",
    "who is the husband of $person?",
    "who is marry to $person?",
]

SPOUSE_WORDS = ("wife", "husband", "marry", "married", "spouse", "knot")


def test_table17_spouse_templates(benchmark, fb_system):
    spouse_path = PredicatePath(("marriage", "person", "name"))
    learned = templates_for_path(fb_system.model, spouse_path, count=10)

    table = Table(
        ["paper template", "measured template"],
        title="Table 17: templates for marriage->person->name",
    )
    for i in range(max(len(PAPER_TEMPLATES), min(len(learned), 10))):
        paper = PAPER_TEMPLATES[i] if i < len(PAPER_TEMPLATES) else ""
        ours = learned[i] if i < len(learned) else ""
        table.add_row([paper, ours])
    emit(table, "table17_spouse_templates.txt")

    assert len(learned) >= 5, "at least five spouse templates learned"
    spouse_like = [
        t for t in learned if any(w in t for w in SPOUSE_WORDS)
    ]
    assert len(spouse_like) >= 0.8 * len(learned), learned
    # conceptualization variety: more than one concept appears in the slot
    concepts = {tok for t in learned for tok in t.split() if tok.startswith("$")}
    assert len(concepts) >= 2

    benchmark(templates_for_path, fb_system.model, spouse_path, 10)
