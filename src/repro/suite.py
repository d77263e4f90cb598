"""One-call assembly of the experimental setup.

``build_suite("small")`` builds, from one seed, what training reads: the
world, the Freebase-like KB, the conceptualizer and the QA corpus.  The
DBpedia-like KB, the taxonomy, the Infobox and the benchmark sets are
:class:`~functools.cached_property` parts of the returned :class:`Suite`,
each built on its first read from the suite's world, seed and store kind,
so a process holds only the parts it reads.  Every part draws its
randomness from its own named :class:`~repro.utils.rng.SeedStream`
substream (or none), so it comes out the same whenever it is built.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

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
from repro.kb.backend import resolve_backend_kind
from repro.taxonomy.conceptualizer import Conceptualizer
from repro.taxonomy.isa import IsANetwork

# Benchmark mixes follow Table 5's total/BFQ ratios:
#   QALD-5: 50 questions, 12 BFQ; QALD-3: 99/41; QALD-1: 50/27.
_BENCHMARK_MIXES = {
    "qald5": dict(n_bfq_seen=9, n_bfq_unseen=2, n_bfq_rare=1, n_nonbfq=38),
    "qald3": dict(n_bfq_seen=29, n_bfq_unseen=9, n_bfq_rare=3, n_nonbfq=58),
    "qald1": dict(n_bfq_seen=21, n_bfq_unseen=4, n_bfq_rare=2, n_nonbfq=23),
}

_WEBQUESTIONS_TOTAL = {"small": 200, "default": 600}


@dataclass
class Suite:
    """Everything derived from one seed; the parts training does not read
    are built on first access."""

    seed: int
    scale: str
    backend: str  # the store kind both KBs compile into
    world: World
    freebase: CompiledKB
    conceptualizer: Conceptualizer
    corpus: QACorpus

    @cached_property
    def dbpedia(self) -> CompiledKB:
        return compile_dbpedia_like(self.world, backend=self.backend)

    @cached_property
    def taxonomy(self) -> IsANetwork:
        return build_taxonomy(self.world)

    @cached_property
    def infobox(self) -> Infobox:
        return build_infobox(self.world)

    @cached_property
    def benchmarks(self) -> dict[str, Benchmark]:
        world, seed = self.world, self.seed
        benchmarks = {
            name: build_qald_like(name, world, seed=seed, **mix)
            for name, mix in _BENCHMARK_MIXES.items()
        }
        benchmarks["webquestions"] = build_webquestions_like(
            world, seed=seed, total=_WEBQUESTIONS_TOTAL[self.scale]
        )
        benchmarks["complex"] = build_complex_benchmark(world, seed=seed)
        return benchmarks

    def benchmark(self, name: str) -> Benchmark:
        return self.benchmarks[name]


def build_suite(
    scale: str = "small",
    seed: int = 7,
    backend: str | None = None,
) -> Suite:
    """Build the setup at ``scale`` in {"small", "default"}.

    *small* is test-sized (seconds); *default* is benchmark-sized.
    ``backend`` picks the store kind per
    :func:`~repro.kb.backend.resolve_backend_kind`, resolved here once for
    both KBs (``"disk"`` = a SQLite store in a temporary file, dropped with
    the suite).
    """
    if scale == "small":
        world_config = WorldConfig.small(seed=seed)
        corpus_config = CorpusConfig.small(seed=seed)
    elif scale == "default":
        world_config = WorldConfig(seed=seed)
        corpus_config = CorpusConfig(seed=seed)
    else:
        raise ValueError(f"unknown scale {scale!r} (expected 'small' or 'default')")

    kind = resolve_backend_kind(backend)
    world = build_world(world_config)
    return Suite(
        seed=seed,
        scale=scale,
        backend=kind,
        world=world,
        freebase=compile_freebase_like(world, backend=kind),
        conceptualizer=build_conceptualizer(world, extra_contexts=surface_context_sources()),
        corpus=generate_corpus(world, corpus_config),
    )
