"""Shared fixtures: a small world/suite and trained systems, built once.

Everything here is session-scoped and deterministic (seed 7), so the whole
test suite pays the build/train cost exactly once per interpreter.
"""

from __future__ import annotations

import pytest

from repro.core.system import KBQA
from repro.suite import Suite, build_suite

from benchmarks.baselines.sentences import generate_sentences


@pytest.fixture(scope="session")
def suite() -> Suite:
    """The small-scale synthetic setup used across the test suite."""
    return build_suite("small", seed=7)


@pytest.fixture(scope="session")
def world(suite):
    return suite.world


@pytest.fixture(scope="session")
def freebase(suite):
    return suite.freebase


@pytest.fixture(scope="session")
def dbpedia(suite):
    return suite.dbpedia


@pytest.fixture(scope="session")
def corpus(suite):
    return suite.corpus


@pytest.fixture(scope="session")
def conceptualizer(suite):
    return suite.conceptualizer


@pytest.fixture(scope="session")
def sentences(suite) -> list[str]:
    """The small setup's declarative sentences: the bootstrapping baseline's
    text, which the product never reads."""
    return generate_sentences(suite.world, 4_000, seed=suite.seed)


@pytest.fixture(scope="session")
def kbqa_fb(suite) -> KBQA:
    """KBQA trained on the Freebase-like KB (the main system under test)."""
    return KBQA.train(suite.freebase, suite.corpus, suite.conceptualizer)


@pytest.fixture(scope="session")
def kbqa_dbp(suite) -> KBQA:
    """KBQA trained on the DBpedia-like KB."""
    return KBQA.train(suite.dbpedia, suite.corpus, suite.conceptualizer)


def pick_entity(world, etype: str, *required_intents: str):
    """First entity of ``etype`` carrying all ``required_intents`` facts."""
    for entity in world.of_type(etype):
        if all(entity.get_fact(intent) for intent in required_intents):
            return entity
    raise AssertionError(f"no {etype} with facts {required_intents}")


def ambiguous_names(world) -> dict[str, list[str]]:
    """Names carried by entities of more than one type."""
    out: dict[str, list[str]] = {}
    for name, nodes in world.by_name.items():
        types = {world.entities[n].etype for n in nodes}
        if len(types) > 1:
            out[name] = list(nodes)
    return out


def best_concept(conceptualizer, entity: str, context=()) -> str | None:
    """The most probable concept of ``P(c|e,q)`` (ties by name), or None for
    an unknown entity."""
    posterior = conceptualizer.conceptualize(entity, context)
    if not posterior:
        return None
    return max(posterior.items(), key=lambda kv: (kv[1], kv[0]))[0]


def context_log_likelihood(conceptualizer, concept: str, context) -> float:
    """``log Π P(w|c)`` over ``context``'s non-stop words, read through
    ``Conceptualizer.context_scores`` (0.0 for an empty context)."""
    scores = conceptualizer.context_scores(context)
    return 0.0 if scores is None else scores[concept]
