"""Predicate expansion tour (Sec 6): CVT paths, valid(k), learned templates.

Shows why multi-edge predicates matter: the spouse relation simply does not
exist as a direct edge in the Freebase-like KB.  Then reproduces the
valid(k) selection and lists what the model learned for the spouse path.

Run:  python examples/predicate_expansion_tour.py
"""

from repro.core.kselect import choose_k, valid_k
from repro.core.system import KBQA
from repro.kb.expansion import expand_predicates
from repro.kb.paths import PredicatePath
from repro.suite import build_suite
from repro.utils.tables import Table


def main() -> None:
    suite = build_suite("small", seed=7)
    store = suite.freebase.store
    person = next(e for e in suite.world.of_type("person") if e.get_fact("spouse"))
    spouse_name = next(iter(suite.world.gold_values(person.node, "spouse")))

    print(f"entity: {person.name} ({person.node}); spouse: {spouse_name}\n")
    print("direct predicates leaving the entity:")
    direct = expand_predicates(store, [person.node], max_length=1)
    print(" ", sorted(str(path) for path in direct.distinct_paths()))
    print("note: no 'spouse' edge — the relation runs through a CVT node.\n")

    expanded = expand_predicates(store, [person.node], max_length=3)
    spouse_path = PredicatePath(("marriage", "person", "name"))
    print(f"expanded predicates from {person.name} "
          f"({len(expanded.distinct_paths())} distinct paths), spouse path:")
    print(f"  V(e, {spouse_path}) = {sorted(expanded.objects(person.node, spouse_path))}\n")

    print("valid(k) against the Infobox (Sec 6.3):")
    counts = valid_k(store, suite.infobox, max_length=3, sample_entities=200)
    table = Table(["k", "valid(k)"])
    for k, count in counts.items():
        table.add_row([k, count])
    table.print()
    print(f"chosen k = {choose_k(counts)} (the paper also chooses 3)\n")

    print("training KBQA to see what the spouse path's templates look like...")
    system = KBQA.train(suite.freebase, suite.corpus, suite.conceptualizer)
    model = system.model
    # the templates whose argmax P(p|t) is the spouse path, by support
    templates = sorted(
        (t for t in model.templates() if model.best_path(t)[0] == spouse_path),
        key=lambda t: (-model.support(t), t),
    )[:8]
    print(f"top templates learned for {spouse_path}:")
    for template in templates:
        print(f"  {template}   (support {model.support(template):.1f})")


if __name__ == "__main__":
    main()
