"""Bind a trained small-suite model to a streamed mega build.

The model binding deliberately mirrors production: the system is trained on
the ordinary small suite (surfaces/templates), then pointed at the mega KB
through a :class:`~repro.core.kbview.KBView` with **no expansion** — lookups
run as indexed point queries per hop (`follow`), which is what makes
million-triple serving tractable without a million-triple expansion pass.
The gazetteer and conceptualizer are extended with the gold working set
(entity name -> node, entity -> concept weights) exactly as an entity-linking
sidecar would populate them.

The binding is the input of the ``mega_disk_mixed`` end-to-end workload
(``benchmarks/e2e``), which drives reads beside writes through it and checks
every answer against the build's aligned gold.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from repro.core.kbview import KBView
from repro.core.online import OnlineAnswerer
from repro.core.system import KBQA
from repro.corpus.mega import iter_gold, load_manifest
from repro.corpus.qa import QAPair
from repro.kb.disk import DiskTripleStore
from repro.nlp.ner import EntityRecognizer
from repro.suite import build_suite


@dataclass(frozen=True, slots=True)
class ScenarioSpec:
    """How much of a mega build's gold to bind."""

    max_gold: int = 512  # cap on gold rows loaded per kind

    def __post_init__(self) -> None:
        if self.max_gold < 8:
            raise ValueError(f"max_gold must be >= 8, got {self.max_gold}")


@dataclass
class ScenarioBinding:
    """The trained system bound to a mega build's store + gold working set."""

    target: OnlineAnswerer
    store: DiskTripleStore
    gold: dict[str, list[QAPair]]  # kind -> rows

    def close(self) -> None:
        self.store.close()


def _load_gold(out_dir: str | Path, max_per_kind: int) -> dict[str, list[QAPair]]:
    gold: dict[str, list[QAPair]] = {"plain": [], "temporal": [], "churn": []}
    for pair in iter_gold(out_dir):
        rows = gold.setdefault(pair.meta["kind"], [])
        if len(rows) < max_per_kind:
            rows.append(pair)
        if all(len(rows) >= max_per_kind for rows in gold.values()):
            break
    if not gold["plain"]:
        raise ValueError(f"{out_dir}: gold.jsonl has no plain rows")
    return gold


def bind_scenarios(
    mega_dir: str | Path, spec: ScenarioSpec = ScenarioSpec()
) -> ScenarioBinding:
    """Open a finished mega build and bind the trained model to it.

    The store opened is ``<mega_dir>/kb.db`` — the directory as it is named
    *now*, not the path the manifest recorded at compile time, so a renamed,
    moved or copied build binds its own file.  The answer cache is disabled
    on the bound answerer (``answer_cache_size=0``): its callers measure the
    *store's* freshness contract, and a hit cache would measure itself.
    """
    manifest = load_manifest(mega_dir)
    if not manifest.get("kb_path"):
        raise ValueError(
            f"{mega_dir}: manifest has no kb_path (memory-backend builds "
            "cannot be re-opened; compile with backend='disk')"
        )
    kb_path = Path(mega_dir) / "kb.db"
    if not kb_path.is_file():
        raise ValueError(f"{kb_path}: no such file (not a finished disk mega build)")
    gold = _load_gold(mega_dir, spec.max_gold)

    suite = build_suite("small", seed=manifest["seed"])
    # the target takes the model and the conceptualizer; the system itself is
    # closed so it leaves no subscription on the suite's store
    with KBQA.train(suite.freebase, suite.corpus, suite.conceptualizer) as system:
        # working-set entity linking: gold display names -> nodes, gold
        # entity -> concept weights into the trained conceptualizer's network
        gazetteer: dict[str, list[str]] = {}
        network = system.conceptualizer.network
        for rows in gold.values():
            for pair in rows:
                gazetteer[pair.meta["name"]] = [pair.meta["node"]]
                for concept, weight in pair.meta["concepts"]:
                    network.add(pair.meta["node"], concept, weight)

        store = DiskTripleStore(str(kb_path))
        target = OnlineAnswerer(
            KBView(store, expanded=None),
            EntityRecognizer(gazetteer),
            system.conceptualizer,
            system.model,
            answer_cache_size=0,
        )
    return ScenarioBinding(target=target, store=store, gold=gold)
