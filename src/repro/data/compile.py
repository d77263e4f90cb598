"""Compile the synthetic world into RDF stores.

Two encodings of the same ground truth, mirroring the paper's KBs:

* :func:`compile_freebase_like` — attribute facts are direct literal edges,
  relations to other entities are entity edges (answer literal one ``name``
  hop away), and several relations run through **CVT mediator nodes** exactly
  like Freebase compounds: ``(s, marriage, cvt), (cvt, person, o)`` with
  decoration edges (marriage date, membership year) hanging off the mediator.
  The spouse intent therefore *only* resolves through the expanded predicate
  ``marriage -> person -> name`` — this is what makes predicate expansion
  (Sec 6) necessary, reproducing the paper's claim that over 98% of intents
  map to complex structures.
* :func:`compile_dbpedia_like` — flat direct predicates with DBpedia-flavored
  names (``populationTotal``, ``birthPlace``).

:class:`CompiledKB` bundles the store with the intent <-> predicate-path
mapping used by training refinement and by evaluation judging.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.data.world import (
    INTENT_CATALOG,
    LITERAL,
    SCHEMA_BY_INTENT,
    World,
)
from repro.kb.backend import KBBackend, resolve_backend
from repro.kb.paths import PredicatePath
from repro.kb.triple import make_literal
from repro.nlp.question_class import AnswerType
from repro.utils.rng import stable_hash

# Decoration predicates attached to CVT nodes.  They create *meaningless*
# length-3 paths (e.g. ``marriage -> person -> dob``) whose rejection by the
# Infobox validation drives the valid(k) collapse at k=3 (Table 4).
_CVT_DECORATIONS = {
    "spouse": ("date", lambda salt: str(1950 + salt % 70)),
    "members": ("since", lambda salt: str(1950 + salt % 70)),
    "board_members": ("since", lambda salt: str(1980 + salt % 40)),
    "songs": ("track", lambda salt: str(1 + salt % 12)),
}


@dataclass
class CompiledKB:
    """A triple store plus the schema map tying paths back to intents.

    ``world`` is the generating :class:`World` for suite-built KBs and may
    be ``None`` for hand-built stores (e.g. the paper's Figure 1 toy KB).
    """

    kind: str
    store: KBBackend
    world: World | None
    path_for_intent: dict[str, PredicatePath]
    intent_for_path: dict[str, str]
    gazetteer: dict[str, list[str]] = field(default_factory=dict)

    def answer_type_for_path(self, path: PredicatePath) -> AnswerType:
        """Manual predicate category labels of Sec 4.1.1 (schema-derived)."""
        intent = self.intent_for_path.get(str(path))
        if intent is None:
            return AnswerType.UNKNOWN
        return SCHEMA_BY_INTENT[intent].answer_type

    def expected_path(self, intent: str) -> PredicatePath:
        return self.path_for_intent[intent]

    def intent_of(self, path: PredicatePath) -> str | None:
        return self.intent_for_path.get(str(path))

    def related_intents(self, intent: str) -> tuple[str, ...]:
        return SCHEMA_BY_INTENT[intent].related


def _schema_paths(kind: str) -> tuple[dict[str, PredicatePath], dict[str, str]]:
    path_for_intent: dict[str, PredicatePath] = {}
    intent_for_path: dict[str, str] = {}
    for schema in INTENT_CATALOG:
        raw = schema.fb_path if kind == "freebase" else schema.dbp_path
        path = PredicatePath(tuple(raw))
        path_for_intent[schema.intent] = path
        key = str(path)
        if key in intent_for_path:
            raise ValueError(f"duplicate predicate path {key} in {kind} schema")
        intent_for_path[key] = schema.intent
    return path_for_intent, intent_for_path


def _base_entity_triples(store: KBBackend, world: World, with_alias: bool) -> None:
    for node, entity in world.entities.items():
        store.add(node, "name", make_literal(entity.name))
        # A quarter of persons carry an alias edge (Freebase-style sparse
        # aliases): enough for alias-tailed expanded predicates to exist
        # (Table 18) without shadowing the canonical ``name`` paths in EM.
        if with_alias and entity.etype == "person" and stable_hash(node) % 4 == 0:
            store.add(node, "alias", make_literal(entity.name))
        for concept, _weight in entity.concepts:
            store.add(node, "category", concept)


def _gazetteer(world: World) -> dict[str, list[str]]:
    return {name: list(nodes) for name, nodes in world.by_name.items()}


def compile_freebase_like(
    world: World,
    backend: str | None = None,
    db_path: str | None = None,
) -> CompiledKB:
    """World -> Freebase-like store (CVT mediators for compound relations).

    ``backend``/``db_path`` select the store kind via
    :func:`~repro.kb.backend.resolve_backend` (``"disk"`` compiles straight
    into a SQLite file; a ``db_path`` names it, as the mega build's
    ``<dir>/kb.db`` that :func:`~repro.eval.scenarios.bind_scenarios` opens
    as the ``mega_disk_mixed`` benchmark input).  The add sequence is
    identical for every backend, so all builds assign the same dictionary
    ids (equivalence-tested).
    """
    store = resolve_backend(backend, path=db_path)
    _base_entity_triples(store, world, with_alias=True)
    cvt_counter = 0
    for node, intent, value in world.iter_facts():
        schema = SCHEMA_BY_INTENT[intent]
        if schema.value_kind == LITERAL:
            store.add(node, schema.fb_path[0], make_literal(value))
        elif not schema.is_cvt:
            store.add(node, schema.fb_path[0], value)
        else:
            cvt = f"cvt.{intent}_{cvt_counter:06d}"
            cvt_counter += 1
            store.add(node, schema.fb_path[0], cvt)
            store.add(cvt, schema.fb_path[1], value)
            decoration = _CVT_DECORATIONS.get(intent)
            if decoration is not None:
                pred, make_value = decoration
                salt = stable_hash(node, intent, value)
                store.add(cvt, pred, make_literal(make_value(salt)))
    path_for_intent, intent_for_path = _schema_paths("freebase")
    return CompiledKB(
        kind="freebase",
        store=store,
        world=world,
        path_for_intent=path_for_intent,
        intent_for_path=intent_for_path,
        gazetteer=_gazetteer(world),
    )


def compile_dbpedia_like(world: World, backend: str | None = None) -> CompiledKB:
    """World -> DBpedia-like store (direct predicates, no mediators).

    ``backend`` selects the store kind as in :func:`compile_freebase_like`.
    """
    store = resolve_backend(backend)
    _base_entity_triples(store, world, with_alias=False)
    for node, intent, value in world.iter_facts():
        schema = SCHEMA_BY_INTENT[intent]
        if schema.value_kind == LITERAL:
            store.add(node, schema.dbp_path[0], make_literal(value))
        else:
            store.add(node, schema.dbp_path[0], value)
    path_for_intent, intent_for_path = _schema_paths("dbpedia")
    return CompiledKB(
        kind="dbpedia",
        store=store,
        world=world,
        path_for_intent=path_for_intent,
        intent_for_path=intent_for_path,
        gazetteer=_gazetteer(world),
    )
