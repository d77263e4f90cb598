"""Table 6 — average candidate counts per random variable.

Paper (over KBA): P(e|q) 18.7 entities/question, P(t|e,q) 2.3 templates per
entity-question, P(p|t) 119.0 predicates per template, P(v|e,p) 3.69 values
per entity-predicate.  The magnitudes scale with KB size; the reproduction
must show the same *uncertainty structure*: every variable has more than one
candidate on average, which is what justifies the probabilistic framework
(Sec 7.2).
"""

from repro.nlp.tokenizer import tokenize
from repro.utils.tables import Table

from benchmarks.conftest import emit

PAPER = {"P(e|q)": 18.7, "P(t|e,q)": 2.3, "P(p|t)": 119.0, "P(v|e,p)": 3.69}


def _measure(fb_system, bench_suite):
    questions = [q.question for q in bench_suite.benchmark("qald3").questions]
    ner = fb_system.learn_result.ner
    conceptualizer = fb_system.conceptualizer

    entity_counts, concept_counts = [], []
    for question in questions:
        tokens = tuple(tokenize(question))
        mentions = ner.find_mentions(tokens)
        candidates = [e for m in mentions for e in m.candidates]
        if not candidates:
            continue
        entity_counts.append(len(candidates))
        for mention in mentions:
            context = tokens[: mention.start] + tokens[mention.end :]
            for entity in mention.candidates:
                concepts = conceptualizer.conceptualize(entity, context)
                if concepts:
                    concept_counts.append(len(concepts))

    model = fb_system.model
    predicate_counts = [
        len(model.predicates_for(t)) for t in model.templates()
    ]

    expanded = fb_system.learn_result.expanded
    value_counts = []
    for subject, path, _obj in list(expanded.triples())[:20000]:
        value_counts.append(len(expanded.objects(subject, path)))

    mean = lambda xs: sum(xs) / len(xs) if xs else 0.0
    return {
        "P(e|q)": mean(entity_counts),
        "P(t|e,q)": mean(concept_counts),
        "P(p|t)": mean(predicate_counts),
        "P(v|e,p)": mean(value_counts),
    }


def test_table06_choice_statistics(benchmark, fb_system, bench_suite):
    measured = _measure(fb_system, bench_suite)

    table = Table(
        ["probability", "explanation", "paper avg", "measured avg"],
        title="Table 6: average choices per random variable",
    )
    explanations = {
        "P(e|q)": "#entities for a question",
        "P(t|e,q)": "#templates for an entity-question pair",
        "P(p|t)": "#predicates for a template",
        "P(v|e,p)": "#values for an entity-predicate pair",
    }
    for key in PAPER:
        table.add_row([key, explanations[key], PAPER[key], round(measured[key], 2)])
    emit(table, "table06_choices.txt")

    # The uncertainty structure: more than one candidate on average for the
    # variables the paper highlights as ambiguous.
    assert measured["P(t|e,q)"] > 1.0, "conceptualization is ambiguous"
    assert measured["P(p|t)"] > 1.0, "templates map to several predicates"
    assert measured["P(v|e,p)"] >= 1.0

    conceptualizer = fb_system.conceptualizer
    entity = next(iter(bench_suite.world.entities))
    benchmark(conceptualizer.conceptualize, entity, ("how", "big", "is"))
