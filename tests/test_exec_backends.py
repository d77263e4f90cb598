"""Serial == thread == process, across seeds, shard counts and workers.

The execution layer's contract (the tentpole acceptance gate): routing the
Sec 6.2 expansion scan through *any* backend, or the serving
``answer_many`` path through either of its executors, changes nothing about
the output —

* expansion: the canonical :meth:`ExpandedStore.save` bytes are identical
  to the single-store serial scan, for randomized KBs over a grid of
  (kb seed x shard count x backend x worker count);
* serving: ``AsyncAnswerer`` results over a randomized duplicate-heavy
  stream equal the synchronous path, serial and threaded, on the real
  trained system;
* the selection rules (explicit arg > ``KBQA_EXEC``/``KBQA_WORKERS``
  environment > default) behave and clamp as documented.
"""

from __future__ import annotations

import asyncio
import random

import pytest

from repro.exec.backend import (
    ProcessExecutor,
    SerialExecutor,
    ThreadExecutor,
    make_executor,
    resolve_exec_kind,
    resolve_workers,
)
from repro.kb.expansion import expand_predicates
from repro.kb.sharded import ShardedTripleStore
from repro.kb.store import TripleStore
from repro.kb.triple import make_literal
from repro.serve import AsyncAnswerer, LoadSpec, ServeConfig, build_request_stream

BACKENDS = ("serial", "thread", "process")


def random_kb(kb_seed: int, shards: int):
    """A randomized KB built by a *deterministic add sequence* per kb_seed.

    The same sequence regardless of shard count, so every store assigns
    identical dictionary ids — the property that makes expansion outputs
    byte-comparable across backends and partitionings.  Chains run through
    intermediate nodes into naming predicates so multi-hop paths survive the
    Sec 6.3 tail restriction.
    """
    rng = random.Random(kb_seed)
    kb = ShardedTripleStore(shards=shards) if shards > 1 else TripleStore()
    entities = [f"e{i}" for i in range(24)]
    links = ["knows", "marriage", "person", "works_at", "located_in"]
    for _ in range(160):
        kb.add(rng.choice(entities), rng.choice(links), rng.choice(entities))
    for i, entity in enumerate(entities):
        if rng.random() < 0.7:
            kb.add(entity, "name", make_literal(f"name {i}"))
        if rng.random() < 0.3:
            kb.add(entity, "alias", make_literal(f"alias {i}"))
    seeds = rng.sample(entities, 8)
    return kb, seeds


def expansion_bytes(kb, seeds, tmp_path, tag: str, **kwargs) -> bytes:
    out = tmp_path / f"{tag}.kbqa"
    expanded = expand_predicates(kb, seeds, max_length=3, record_reach=True, **kwargs)
    expanded.save(out)
    return out.read_bytes()


class TestExpansionEquivalence:
    @pytest.mark.parametrize("kb_seed", [0, 1, 2])
    @pytest.mark.parametrize("shards", [1, 2, 3])
    def test_backends_byte_identical(self, kb_seed, shards, tmp_path):
        """Every backend produces the serial single-store bytes exactly."""
        reference_kb, seeds = random_kb(kb_seed, shards=1)
        reference = expansion_bytes(
            reference_kb, seeds, tmp_path, "ref", executor="serial"
        )
        kb, seeds_again = random_kb(kb_seed, shards=shards)
        assert seeds_again == seeds
        for backend in BACKENDS:
            produced = expansion_bytes(
                kb, seeds, tmp_path, f"{backend}-{shards}",
                executor=backend, workers=2,
            )
            assert produced == reference, f"{backend} diverged at shards={shards}"

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_process_worker_counts_equivalent(self, workers, tmp_path):
        """Worker count never changes the output, only the parallelism."""
        kb, seeds = random_kb(5, shards=3)
        reference = expansion_bytes(kb, seeds, tmp_path, "ref", executor="serial")
        produced = expansion_bytes(
            kb, seeds, tmp_path, f"w{workers}", executor="process", workers=workers
        )
        assert produced == reference

    def test_caller_owned_executors(self, tmp_path):
        """Pre-built executor instances work too — including a payload-less
        process pool, whose tasks then ship self-contained shard tables."""
        kb, seeds = random_kb(7, shards=2)
        reference = expansion_bytes(kb, seeds, tmp_path, "ref", executor="serial")
        for executor in (SerialExecutor(), ThreadExecutor(2), ProcessExecutor(2)):
            with executor:
                produced = expansion_bytes(
                    kb, seeds, tmp_path, f"inst-{executor.kind}", executor=executor
                )
            assert produced == reference, f"{executor.kind} instance diverged"

    def test_environment_selects_backend(self, tmp_path, monkeypatch):
        """KBQA_EXEC/KBQA_WORKERS drive the default resolution end to end."""
        kb, seeds = random_kb(9, shards=2)
        reference = expansion_bytes(kb, seeds, tmp_path, "ref", executor="serial")
        monkeypatch.setenv("KBQA_EXEC", "process")
        monkeypatch.setenv("KBQA_WORKERS", "2")
        produced = expansion_bytes(kb, seeds, tmp_path, "env")
        assert produced == reference


class TestServingEquivalence:
    @pytest.mark.parametrize("backend", ["serial", "thread"])
    @pytest.mark.parametrize("stream_seed", [3, 11])
    def test_answer_many_equals_sync(self, backend, stream_seed, kbqa_fb, suite):
        """Async results over a randomized duplicate-heavy stream equal the
        synchronous path on both serving executors."""
        pool = [q.question for q in suite.benchmark("qald3").bfqs()][:12]
        stream = build_request_stream(
            pool,
            LoadSpec(requests=48, concurrency=8, duplicate_rate=0.5, seed=stream_seed),
        )
        expected = [kbqa_fb.answer(q) for q in stream]

        async def main():
            config = ServeConfig(workers=2, max_batch=8, executor=backend)
            async with AsyncAnswerer(kbqa_fb, config) as answerer:
                return await answerer.answer_many(stream)

        assert asyncio.run(main()) == expected


class TestSelectionRules:
    def test_map_preserves_task_order(self):
        tasks = list(range(20))
        for kind in BACKENDS:
            with make_executor(kind, 3) as executor:
                assert executor.map(_double, tasks) == [t * 2 for t in tasks]

    def test_resolve_workers_clamps(self, monkeypatch):
        monkeypatch.delenv("KBQA_WORKERS", raising=False)
        assert resolve_workers(0) == 1
        assert resolve_workers(-5) == 1
        assert resolve_workers(3) == 3
        assert resolve_workers(None, fallback=0) == 1
        assert resolve_workers(None, fallback=7) == 7
        monkeypatch.setenv("KBQA_WORKERS", "0")
        assert resolve_workers(None) == 1
        monkeypatch.setenv("KBQA_WORKERS", "4")
        assert resolve_workers(None) == 4
        assert resolve_workers(2) == 2  # explicit beats environment
        monkeypatch.setenv("KBQA_WORKERS", "not-a-number")
        assert resolve_workers(None, fallback=5) == 5

    def test_resolve_exec_kind(self, monkeypatch):
        monkeypatch.delenv("KBQA_EXEC", raising=False)
        assert resolve_exec_kind(None, default="thread") == "thread"
        assert resolve_exec_kind("process") == "process"
        monkeypatch.setenv("KBQA_EXEC", "serial")
        assert resolve_exec_kind(None, default="thread") == "serial"
        assert resolve_exec_kind("thread") == "thread"  # explicit beats env
        with pytest.raises(ValueError, match="unknown execution backend"):
            resolve_exec_kind("fibers")

    def test_serve_config_rejects_unknown_executor(self):
        with pytest.raises(ValueError, match="executor"):
            ServeConfig(executor="fibers")
        # serving has no process executor; the error names the multi-core way
        with pytest.raises(ValueError, match="--procs"):
            ServeConfig(executor="process")


def _double(x: int) -> int:
    return x * 2
