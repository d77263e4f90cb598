"""Seeded request streams over gold-aligned questions.

The *data* (world, corpus, mega build) is fixed by ``spec.DATA_SEED``; the
``--seed`` argument only drives what is built here: shuffle order, Zipf
draws, Poisson gaps, rewrite choice, write schedule.  Every question carries
its gold value set, so each timed operation is also a correctness check.
"""

from __future__ import annotations

import itertools
import random
from typing import Callable, Iterable, Sequence

Gold = tuple[str, frozenset[str]]  # (question, expected value set)

# Rewordings the template model never trained on, so Eq 7 abstains and the
# fallback lane answers or abstains.  Copied from the scenario harness's
# paraphrase axis on purpose: importing its private tuple would tie the
# benchmark's inputs to a refactor of the program under test.
HELDOUT_REWRITES: tuple[Callable[[str], str], ...] = (
    lambda q: "regarding " + q.rstrip("?") + ", any thoughts?",
    lambda q: q.rstrip("?") + " or not?",
    lambda q: "quick trivia: " + q,
)


def gold_factoids(corpus: Iterable) -> list[Gold]:
    """Distinct gold factoid questions of a suite corpus, in corpus order."""
    seen: dict[str, frozenset[str]] = {}
    for pair in corpus:
        meta = pair.meta
        if meta.get("kind") == "factoid" and not meta["wrong"]:
            seen.setdefault(pair.question, frozenset(meta["values"]))
    return list(seen.items())


def shuffled_cycle(items: Sequence[Gold], seed: int) -> "itertools.cycle[Gold]":
    """Endless pass over a seed-shuffled copy of ``items``."""
    order = list(items)
    random.Random(seed).shuffle(order)
    return itertools.cycle(order)


def heldout_cycle(items: Sequence[Gold], seed: int) -> "itertools.cycle[Gold]":
    """Like :func:`shuffled_cycle`, each question through one seeded rewrite."""
    rng = random.Random(seed)
    order = [(rng.choice(HELDOUT_REWRITES)(question), gold) for question, gold in items]
    rng.shuffle(order)
    return itertools.cycle(order)


def take(stream: Iterable[Gold], count: int) -> list[Gold]:
    return list(itertools.islice(stream, count))


def zipf_draws(items: Sequence[Gold], count: int, exponent: float, rng: random.Random) -> list[Gold]:
    """``count`` draws with P(rank k) ~ k^-exponent.

    Rank follows the data order, not the seed: which questions are hot is a
    property of the traffic a deployment sees, and reshuffling it per seed
    would make accuracy swing with whether a mislabelled pair landed on rank 1.
    """
    weights = list(itertools.accumulate((rank + 1) ** -exponent for rank in range(len(items))))
    return rng.choices(items, cum_weights=weights, k=count)


def poisson_due_times(rate_per_s: float, duration_s: float, rng: random.Random) -> list[float]:
    """Arrival offsets (seconds from phase start) of a Poisson process."""
    due: list[float] = []
    clock = rng.expovariate(rate_per_s)
    while clock < duration_s:
        due.append(clock)
        clock += rng.expovariate(rate_per_s)
    return due
