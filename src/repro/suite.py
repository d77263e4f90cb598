"""One-call assembly of the full experimental setup.

``build_suite("small")`` produces everything the examples, tests and
benchmarks need: the world, both compiled KBs, taxonomy + conceptualizer,
the QA corpus, the Infobox and the benchmark sets — all derived from one
seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.corpus.benchmark import (
    Benchmark,
    build_complex_benchmark,
    build_qald_like,
    build_webquestions_like,
)
from repro.corpus.generator import CorpusConfig, generate_corpus
from repro.corpus.qa import QACorpus
from repro.corpus.surface import surface_context_sources
from repro.data.compile import CompiledKB, compile_dbpedia_like, compile_freebase_like
from repro.data.conceptnet import build_conceptualizer, build_taxonomy
from repro.data.infobox import Infobox, build_infobox
from repro.data.world import World, WorldConfig, build_world
from repro.taxonomy.conceptualizer import Conceptualizer
from repro.taxonomy.isa import IsANetwork

# Benchmark mixes follow Table 5's total/BFQ ratios:
#   QALD-5: 50 questions, 12 BFQ; QALD-3: 99/41; QALD-1: 50/27.
_BENCHMARK_MIXES = {
    "qald5": dict(n_bfq_seen=9, n_bfq_unseen=2, n_bfq_rare=1, n_nonbfq=38),
    "qald3": dict(n_bfq_seen=29, n_bfq_unseen=9, n_bfq_rare=3, n_nonbfq=58),
    "qald1": dict(n_bfq_seen=21, n_bfq_unseen=4, n_bfq_rare=2, n_nonbfq=23),
}


@dataclass
class Suite:
    """Everything derived from one seed."""

    seed: int
    scale: str
    world: World
    freebase: CompiledKB
    dbpedia: CompiledKB
    taxonomy: IsANetwork
    conceptualizer: Conceptualizer
    corpus: QACorpus
    infobox: Infobox
    benchmarks: dict[str, Benchmark] = field(default_factory=dict)

    def benchmark(self, name: str) -> Benchmark:
        return self.benchmarks[name]


def build_suite(
    scale: str = "small",
    seed: int = 7,
    backend: str | None = None,
) -> Suite:
    """Build the full setup at ``scale`` in {"small", "default"}.

    *small* is test-sized (seconds); *default* is benchmark-sized.
    ``backend`` picks the store kind per
    :func:`~repro.kb.backend.resolve_backend` (``"disk"`` = a SQLite store
    in a temporary file, dropped with the suite).
    """
    if scale == "small":
        world_config = WorldConfig.small(seed=seed)
        corpus_config = CorpusConfig.small(seed=seed)
        webq_total = 200
    elif scale == "default":
        world_config = WorldConfig(seed=seed)
        corpus_config = CorpusConfig(seed=seed)
        webq_total = 600
    else:
        raise ValueError(f"unknown scale {scale!r} (expected 'small' or 'default')")

    world = build_world(world_config)
    freebase = compile_freebase_like(world, backend=backend)
    dbpedia = compile_dbpedia_like(world, backend=backend)
    taxonomy = build_taxonomy(world)
    conceptualizer = build_conceptualizer(world, extra_contexts=surface_context_sources())
    corpus = generate_corpus(world, corpus_config)
    infobox = build_infobox(world)

    benchmarks = {
        name: build_qald_like(name, world, seed=seed, **mix)
        for name, mix in _BENCHMARK_MIXES.items()
    }
    benchmarks["webquestions"] = build_webquestions_like(world, seed=seed, total=webq_total)
    benchmarks["complex"] = build_complex_benchmark(world, seed=seed)

    return Suite(
        seed=seed,
        scale=scale,
        world=world,
        freebase=freebase,
        dbpedia=dbpedia,
        taxonomy=taxonomy,
        conceptualizer=conceptualizer,
        corpus=corpus,
        infobox=infobox,
        benchmarks=benchmarks,
    )
