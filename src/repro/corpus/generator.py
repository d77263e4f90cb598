"""Synthetic QA corpus generator (the Yahoo! Answers stand-in).

Reproduces the observation structure of Table 3: each pair is a natural
language question about one entity fact plus a chatty reply embedding the
value among other tokens.  Noise channels (rates in :class:`CorpusConfig`):

* **wrong answers** — the reply carries another entity's value for the same
  intent; extraction drops most of these because the (entity, value) pair has
  no connecting predicate (Eq 8 acts as the filter);
* **extra facts** — the reply volunteers a second, unrelated fact about the
  entity (Example 2's profession trap generalized), creating competing
  entity-value pairs the EM and refinement must out-weigh;
* **chit-chat** — pairs with no factoid content at all.

Some intents are marked *rare*, receiving a small sampling weight: they
reproduce the paper's failure analysis where rare predicates lack training
support (12 of 15 QALD-3 misses).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate

from repro.corpus import surface
from repro.corpus.qa import QACorpus, QAPair
from repro.data.world import SCHEMA_BY_INTENT, World
from repro.nlp.question_class import AnswerType
from repro.utils.rng import SeedStream

# Intents deliberately under-represented in the corpus (rare predicates).
RARE_INTENT_WEIGHTS = {
    "flows_through": 0.03,
    "pages": 0.05,
    "students": 0.05,
    "elevation": 0.08,
}


@dataclass(frozen=True, slots=True)
class CorpusConfig:
    """Knobs for corpus size and noise rates."""

    seed: int = 7
    target_pairs: int = 30_000
    wrong_answer_rate: float = 0.04
    chitchat_rate: float = 0.05
    extra_fact_rate: float = 0.10
    intent_weights: dict[str, float] = field(default_factory=lambda: dict(RARE_INTENT_WEIGHTS))

    @classmethod
    def small(cls, seed: int = 7) -> "CorpusConfig":
        return cls(seed=seed, target_pairs=4_000)


def generate_corpus(world: World, config: CorpusConfig | None = None) -> QACorpus:
    """Generate a QA corpus against ``world`` (deterministic in the seed)."""
    config = config or CorpusConfig()
    rng = SeedStream(config.seed).substream("corpus").rng()
    corpus = QACorpus()

    # Weighted draws pass cumulative weights built once: ``choices(weights=)``
    # re-accumulates the whole list on every call, and the same sums give the
    # same single ``random()`` draw and bisect, so the corpus is unchanged.
    instances, cum_weights = _fact_instances(world, config)
    if not instances:
        raise ValueError("world has no facts to generate a corpus from")
    surfaces_by_intent = {}
    for intent in SCHEMA_BY_INTENT:
        surfaces = surface.train_surfaces(intent)
        surfaces_by_intent[intent] = (surfaces, list(accumulate(s.weight for s in surfaces)))
    wrong_pools = _intent_pools(world)

    for index in range(config.target_pairs):
        qid = f"qa{index:07d}"
        if rng.random() < config.chitchat_rate:
            question, answer = rng.choice(surface.CHITCHAT)
            corpus.add(QAPair(qid, question, answer, {"kind": "chitchat"}))
            continue

        intent, node = rng.choices(instances, cum_weights=cum_weights, k=1)[0]
        entity = world.entity(node)
        surfaces, surface_cum_weights = surfaces_by_intent[intent]
        chosen = rng.choices(surfaces, cum_weights=surface_cum_weights, k=1)[0]
        question = chosen.text.format(e=entity.name)

        gold_values = sorted(world.gold_values(node, intent))
        wrong = rng.random() < config.wrong_answer_rate
        if wrong:
            pool = wrong_pools[entity.etype, intent]
            answer_values = [_wrong_value(rng, world, pool, intent, node) or gold_values[0]]
        else:
            answer_values = gold_values

        answer = _render_answer(rng, world, intent, node, answer_values)
        if rng.random() < config.extra_fact_rate:
            extra = _extra_fact_sentence(rng, world, node, exclude=intent)
            if extra:
                answer = f"{answer} {extra}"

        corpus.add(QAPair(qid, question, answer, {
            "kind": "factoid",
            "intent": intent,
            "entity": node,
            "surface": chosen.text,
            "wrong": wrong,
            "values": gold_values,
        }))
    return corpus


def _fact_instances(world: World, config: CorpusConfig):
    """(intent, node) pool and its cumulative sampling weights."""
    instances: list[tuple[str, str]] = []
    weights: list[float] = []
    for node, entity in world.entities.items():
        for intent in entity.facts:
            if intent not in surface.SURFACES:
                continue
            instances.append((intent, node))
            weights.append(config.intent_weights.get(intent, 1.0))
    return instances, list(accumulate(weights))


def _intent_pools(world: World) -> dict[tuple[str, str], list[str]]:
    """(etype, intent) -> nodes of that type carrying the intent.

    Kept in ``by_type`` order: ``rng.choice`` draws by index, so the order
    decides which wrong value a pair gets.
    """
    pools: dict[tuple[str, str], list[str]] = {}
    for etype, nodes in world.by_type.items():
        for node in nodes:
            for intent in world.entity(node).facts:
                pools.setdefault((etype, intent), []).append(node)
    return pools


def _wrong_value(rng, world: World, pool: list[str], intent: str, node: str) -> str | None:
    """A plausible-but-wrong value: the same intent's value on another entity."""
    candidates = [other for other in pool if other != node]
    if not candidates:
        return None
    other = rng.choice(candidates)
    values = sorted(world.gold_values(other, intent))
    return rng.choice(values) if values else None


def _render_answer(rng, world: World, intent: str, node: str, values: list[str]) -> str:
    """Embed the value(s) in a reply sentence."""
    schema = SCHEMA_BY_INTENT[intent]
    joined = " , ".join(values)
    specific = surface.ANSWER_SURFACES.get(intent)
    if specific and rng.random() < 0.6:
        template = rng.choice(specific)
    else:
        template = rng.choice(
            surface.GENERIC_ANSWERS.get(schema.answer_type, surface.GENERIC_ANSWERS[AnswerType.ENTITY])
        )
    profession_names = sorted(world.gold_values(node, "profession"))
    profession = profession_names[0] if profession_names else "person"
    return template.format(v=joined, e=world.name_of(node), profession=profession)


def _extra_fact_sentence(rng, world: World, node: str, exclude: str) -> str | None:
    """A bonus sentence stating a different fact about the same entity."""
    entity = world.entity(node)
    other_intents = [i for i in entity.facts if i != exclude and i in SCHEMA_BY_INTENT]
    if not other_intents:
        return None
    other = rng.choice(other_intents)
    values = sorted(world.gold_values(node, other))
    if not values:
        return None
    label = SCHEMA_BY_INTENT[other].label
    return f"by the way , the {label} is {rng.choice(values)} ."
