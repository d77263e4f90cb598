"""Streaming mega-corpus compiler: N-million-triple worlds in bounded memory.

The paper's headline claim is online QA over billion-triple KBs, but the
suite's `build_world` holds every entity in memory before compiling — fine at
10^3 triples, impossible at 10^6+.  :func:`compile_mega` instead streams:

* a **small anchor world** (the ordinary ``WorldConfig.small`` build) is
  compiled first and supplies the shared fact targets — cities, countries
  and value-pool entities every minted fact points at;
* entities are then minted in fixed-size **chunks**
  (:func:`~repro.data.world.mint_chunk`): each chunk derives from
  ``(seed, chunk index)`` alone, its triples are generated lazily and flow
  straight into the store through the batched
  :meth:`~repro.kb.disk.DiskTripleStore.ingest_triples` seam — the full
  fact list never exists in memory;
* **aligned gold QA pairs** are emitted per chunk as the facts are
  generated, streamed to ``gold.jsonl``: plain rows (the read query set),
  ``temporal`` rows carrying an old→new supersession edit, and ``churn``
  rows naming the mutation targets for sustained-write workloads.

Peak resident state is the anchor world plus one chunk, independent of the
triple target; ``manifest.json`` records the accounting
(``peak_resident_entities``) plus ``ru_maxrss`` for observability, and
``kbqa mega-compile --max-rss-mb`` asserts the bound.

The same code path runs against the in-memory backend (``backend="memory"``)
— identical entity/triple sequence, hence identical dictionary ids — which
is what the streaming-vs-in-memory equivalence test keys on.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

from repro.corpus.qa import QAPair
from repro.data.compile import _CVT_DECORATIONS, CompiledKB, compile_freebase_like
from repro.data.world import (
    LITERAL,
    SCHEMA_BY_INTENT,
    ChunkSpec,
    MintAnchors,
    WorldConfig,
    WorldEntity,
    build_world,
    mint_chunk,
)
from repro.kb.triple import Triple, make_literal
from repro.utils.rng import stable_hash

# One unambiguous, dominant-weight *training* surface per gold intent: the
# deterministic path must resolve these with recall 1.0, so each is the
# highest-weight non-test_only surface whose template maps squarely onto the
# gold predicate path.
GOLD_SURFACES: dict[str, str] = {
    "dob": "when was {e} born?",
    "pob": "where was {e} born?",
    "residence": "where does {e} live?",
    "height": "how tall is {e}?",
    "profession": "what is the profession of {e}?",
    "spouse": "who is {e} married to?",
    "population": "what is the population of {e}?",
    "area": "what is the area of {e}?",
    "located_country": "which country is {e} in?",
    "founded": "when was {e} founded?",
}

_PERSON_GOLD_INTENTS = ("dob", "pob", "residence", "height", "profession", "spouse")
_CITY_GOLD_INTENTS = ("population", "area", "located_country", "founded")


@dataclass(frozen=True, slots=True)
class MegaSpec:
    """Size/shape of a mega build; chunk sizes bound resident memory."""

    triples: int = 1_000_000
    seed: int = 7
    chunk_people: int = 4_000
    chunk_cities: int = 1_000
    gold_per_chunk: int = 24  # plain gold rows (people + cities) per chunk
    temporal_per_chunk: int = 4
    churn_per_chunk: int = 4

    def __post_init__(self) -> None:
        if self.triples <= 0:
            raise ValueError(f"triples must be > 0, got {self.triples}")
        if self.chunk_people <= 0 or self.chunk_cities < 0:
            raise ValueError("chunk sizes must be positive")
        reserved = self.gold_per_chunk + self.temporal_per_chunk + self.churn_per_chunk
        if reserved > self.chunk_people:
            raise ValueError(
                f"gold+temporal+churn rows per chunk ({reserved}) exceed "
                f"chunk_people ({self.chunk_people})"
            )


@dataclass
class MegaBuild:
    """What :func:`compile_mega` hands back: store + paths + accounting."""

    kb: CompiledKB
    manifest: dict
    out_dir: str

    @property
    def gold_path(self) -> str:
        return os.path.join(self.out_dir, "gold.jsonl")

    def iter_gold(self) -> Iterator[QAPair]:
        """Stream this build's gold QA rows from ``gold.jsonl``."""
        with open(self.gold_path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if line:
                    yield QAPair.from_json(line)


def load_manifest(out_dir: str | Path) -> dict:
    """Read a finished mega build's ``manifest.json`` accounting."""
    with open(Path(out_dir) / "manifest.json", "r", encoding="utf-8") as handle:
        return json.load(handle)


def iter_gold(out_dir: str | Path) -> Iterator[QAPair]:
    """Stream the gold QA rows of a finished mega build."""
    with open(Path(out_dir) / "gold.jsonl", "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                yield QAPair.from_json(line)


def _chunk_triples(
    minted: list[WorldEntity], chunk_index: int
) -> Iterator[Triple]:
    """Freebase-like triples for one chunk, lazily.

    Mirrors :func:`~repro.data.compile.compile_freebase_like`'s encoding
    (name + category base triples first, then facts; CVT mediators with
    decoration edges for compound intents) with chunk-scoped CVT node ids so
    chunks never collide with the anchor compile or each other.
    """
    for entity in minted:
        yield Triple(entity.node, "name", make_literal(entity.name))
        for concept, _weight in entity.concepts:
            yield Triple(entity.node, "category", concept)
    cvt_counter = 0
    for entity in minted:
        for intent, values in entity.facts.items():
            schema = SCHEMA_BY_INTENT[intent]
            for value in values:
                if schema.value_kind == LITERAL:
                    yield Triple(entity.node, schema.fb_path[0], make_literal(value))
                elif not schema.is_cvt:
                    yield Triple(entity.node, schema.fb_path[0], value)
                else:
                    cvt = f"cvt.mega_{chunk_index:05d}_{intent}_{cvt_counter:06d}"
                    cvt_counter += 1
                    yield Triple(entity.node, schema.fb_path[0], cvt)
                    yield Triple(cvt, schema.fb_path[1], value)
                    decoration = _CVT_DECORATIONS.get(intent)
                    if decoration is not None:
                        pred, make_value = decoration
                        salt = stable_hash(entity.node, intent, value)
                        yield Triple(cvt, pred, make_literal(make_value(salt)))


def _gold_values(
    entity: WorldEntity,
    intent: str,
    anchors: MintAnchors,
    local_names: dict[str, str],
) -> list[str]:
    """Expected answer strings: literals, or target display names."""
    schema = SCHEMA_BY_INTENT[intent]
    raw = entity.get_fact(intent)
    if schema.value_kind == LITERAL:
        return sorted(raw)
    return sorted(
        local_names.get(target) or anchors.names[target] for target in raw
    )


def _gold_row(
    qid: str,
    entity: WorldEntity,
    intent: str,
    anchors: MintAnchors,
    local_names: dict[str, str],
    kind: str,
    extra: dict | None = None,
) -> QAPair:
    values = _gold_values(entity, intent, anchors, local_names)
    meta = {
        "kind": kind,
        "node": entity.node,
        "name": entity.name,
        "etype": entity.etype,
        "intent": intent,
        "values": values,
        "concepts": [[c, w] for c, w in entity.concepts],
    }
    if extra:
        meta.update(extra)
    question = GOLD_SURFACES[intent].format(e=entity.name)
    return QAPair(qid=qid, question=question, answer=values[0], meta=meta)


def _person_intent(entity: WorldEntity, index: int) -> str:
    intent = _PERSON_GOLD_INTENTS[index % len(_PERSON_GOLD_INTENTS)]
    if not entity.get_fact(intent):  # e.g. spouse on an unmarried person
        return "dob"
    return intent


def _chunk_gold(
    spec: MegaSpec,
    chunk_index: int,
    minted: list[WorldEntity],
    anchors: MintAnchors,
) -> Iterator[QAPair]:
    """Gold rows for one chunk: plain, then temporal, then churn."""
    local_names = {e.node: e.name for e in minted}
    people = [e for e in minted if e.etype == "person"]
    cities = [e for e in minted if e.etype == "city"]
    n_city_gold = min(len(cities), max(1, spec.gold_per_chunk // 4))
    n_person_gold = spec.gold_per_chunk - n_city_gold
    row = 0
    for i, entity in enumerate(people[:n_person_gold]):
        yield _gold_row(
            f"mega-{chunk_index:05d}-{row:04d}", entity,
            _person_intent(entity, i), anchors, local_names, "plain",
        )
        row += 1
    for i, entity in enumerate(cities[:n_city_gold]):
        yield _gold_row(
            f"mega-{chunk_index:05d}-{row:04d}", entity,
            _CITY_GOLD_INTENTS[i % len(_CITY_GOLD_INTENTS)],
            anchors, local_names, "plain",
        )
        row += 1
    # temporal supersession targets: residence flips to a different anchor
    # city.  The compiled KB holds the OLD value; the consumer applies
    # delete(old)+add(new) and asserts the fresh answer wins.
    offset = n_person_gold
    for i, entity in enumerate(people[offset : offset + spec.temporal_per_chunk]):
        old_city = entity.get_fact("residence")[0]
        position = anchors.cities.index(old_city)
        new_city = anchors.cities[(position + 1) % len(anchors.cities)]
        yield _gold_row(
            f"mega-{chunk_index:05d}-{row:04d}", entity, "residence",
            anchors, local_names, "temporal",
            extra={
                "supersede": {
                    "subject": entity.node,
                    "predicate": "residence",
                    "old_object": old_city,
                    "new_object": new_city,
                    "old_value": anchors.names[old_city],
                    "new_value": anchors.names[new_city],
                }
            },
        )
        row += 1
    # churn targets: height literal flipped back and forth during serving.
    offset += spec.temporal_per_chunk
    for entity in people[offset : offset + spec.churn_per_chunk]:
        old = entity.get_fact("height")[0]
        new = str(int(old) + 1)
        yield _gold_row(
            f"mega-{chunk_index:05d}-{row:04d}", entity, "height",
            anchors, local_names, "churn",
            extra={
                "mutate": {
                    "subject": entity.node,
                    "predicate": "height",
                    "old_object": make_literal(old),
                    "new_object": make_literal(new),
                }
            },
        )
        row += 1


def _ingest(store, triples: Iterator[Triple]) -> int:
    """Route triples through the batched seam when the backend has one."""
    ingest = getattr(store, "ingest_triples", None)
    if ingest is not None:
        return ingest(triples)
    return store.add_all(triples)


def compile_mega(
    spec: MegaSpec,
    out_dir: str | Path,
    *,
    backend: str = "disk",
) -> MegaBuild:
    """Compile a mega world of at least ``spec.triples`` triples into
    ``out_dir`` (``kb.db`` + ``gold.jsonl`` + ``manifest.json``).

    Streaming: chunks are minted, converted to triples and ingested one at a
    time; gold rows are written as they are generated.  ``backend="memory"``
    runs the identical sequence against an in-memory store (no ``kb.db``) —
    the reference path for the equivalence suite.
    """
    if backend not in ("disk", "memory"):
        raise ValueError(f"mega backend must be 'disk' or 'memory', got {backend!r}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    kb_path = str(out / "kb.db") if backend == "disk" else None
    if kb_path is not None:
        for suffix in ("", "-wal", "-shm"):  # recompile from scratch
            try:
                os.unlink(kb_path + suffix)
            except OSError:
                pass

    anchor_world = build_world(WorldConfig.small(seed=spec.seed))
    kb = compile_freebase_like(anchor_world, backend=backend, db_path=kb_path)
    store = kb.store
    anchors = MintAnchors.from_world(anchor_world)
    anchor_entities = len(anchor_world.entities)
    anchor_triples = len(store)

    chunk_index = person_serial = city_serial = 0
    gold_rows = 0
    minted_entities = 0
    triples_total = anchor_triples
    peak_resident = anchor_entities
    gold_path = out / "gold.jsonl"
    with open(gold_path, "w", encoding="utf-8") as gold_file:
        while triples_total < spec.triples:
            chunk_spec = ChunkSpec(
                seed=spec.seed,
                index=chunk_index,
                n_people=spec.chunk_people,
                n_cities=spec.chunk_cities,
                person_start=person_serial,
                city_start=city_serial,
            )
            minted = mint_chunk(chunk_spec, anchors)
            triples_total += _ingest(store, _chunk_triples(minted, chunk_index))
            for pair in _chunk_gold(spec, chunk_index, minted, anchors):
                gold_file.write(pair.to_json())
                gold_file.write("\n")
                gold_rows += 1
            minted_entities += len(minted)
            peak_resident = max(peak_resident, anchor_entities + len(minted))
            person_serial += spec.chunk_people
            city_serial += spec.chunk_cities
            chunk_index += 1

    manifest = {
        "schema": "mega-v1",
        "seed": spec.seed,
        "backend": backend,
        "triples_target": spec.triples,
        "triples": triples_total,
        "anchor_triples": anchor_triples,
        "anchor_entities": anchor_entities,
        "minted_entities": minted_entities,
        "total_entities": anchor_entities + minted_entities,
        "peak_resident_entities": peak_resident,
        "chunks": chunk_index,
        "chunk_people": spec.chunk_people,
        "chunk_cities": spec.chunk_cities,
        "gold_rows": gold_rows,
        "kb_path": kb_path,
        "ru_maxrss_kb": _ru_maxrss_kb(),
    }
    with open(out / "manifest.json", "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return MegaBuild(kb=kb, manifest=manifest, out_dir=str(out))


def _ru_maxrss_kb() -> int | None:
    """Process peak RSS in KiB (Linux semantics); None when unavailable."""
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return None
    return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
