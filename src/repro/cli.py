"""Command-line interface: ``kbqa`` — build, train, answer, evaluate.

A thin front over the library so the whole pipeline is drivable from a
shell::

    kbqa demo --scale small "what is the population of mapleton?"
    kbqa eval --scale small --benchmark qald3
    kbqa expand --scale small --save /tmp/expansion.kbqa
    kbqa answer --scale small --expansion /tmp/expansion.kbqa "..."
    kbqa serve --scale small --port 8080        # HTTP answer service

Every training command accepts ``--expansion PATH`` (resume from a
persisted predicate expansion instead of re-running the Sec 6.2 scan); the
KB store kind comes from ``$KBQA_BACKEND`` (``memory``, the default, or
``disk``).  ``serve`` is one process: one event loop that evaluates every
batch inline.
"""

from __future__ import annotations

import argparse
import sys

from dataclasses import replace

from repro.core.system import KBQA, KBQAConfig
from repro.eval.runner import evaluate_qald
from repro.kb.expansion import ExpandedStore
from repro.suite import build_suite
from repro.utils.tables import Table


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code.

    Real failures (an unreadable ``--expansion`` artifact, a config/artifact
    mismatch) exit 1 with a deterministic one-line message on stderr for
    *every* subcommand; unknown entities / empty answers are normal outcomes
    and exit 0.
    """
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 1
    try:
        return args.handler(args)
    except (OSError, ValueError) as error:
        print(f"kbqa {args.command}: error: {error}", file=sys.stderr)
        return 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kbqa",
        description="KBQA reproduction (Cui et al., PVLDB 2017)",
    )
    parser.set_defaults(command=None)
    sub = parser.add_subparsers(dest="command")

    demo = sub.add_parser("demo", help="train on a synthetic suite and answer questions")
    _common_args(demo)
    demo.add_argument("questions", nargs="+", help="questions to answer")
    demo.set_defaults(handler=_cmd_demo)

    answer = sub.add_parser(
        "answer", help="batch-answer BFQs through the serving caches"
    )
    _common_args(answer)
    answer.add_argument("questions", nargs="+", help="questions to answer")
    answer.add_argument(
        "--no-cache", action="store_true",
        help="disable the answer cache",
    )
    answer.add_argument(
        "--repeat", type=_positive_int, default=1,
        help="answer the batch N >= 1 times (cache warm-up demonstration)",
    )
    _fallback_args(answer)
    answer.set_defaults(handler=_cmd_answer)

    evaluate = sub.add_parser("eval", help="evaluate KBQA on a benchmark")
    _common_args(evaluate)
    evaluate.add_argument(
        "--benchmark", default="qald3",
        choices=["qald1", "qald3", "qald5", "webquestions"],
    )
    evaluate.set_defaults(handler=_cmd_eval)

    stats = sub.add_parser("stats", help="print suite inventory statistics")
    _common_args(stats)
    stats.set_defaults(handler=_cmd_stats)

    expand = sub.add_parser(
        "expand",
        help="run the Sec 6.2 predicate expansion and save it, or check a saved one",
    )
    _common_args(expand)
    expand.add_argument(
        "--save", metavar="PATH",
        help="run the expansion scan and persist the ExpandedStore to PATH",
    )
    expand.add_argument(
        "--load", metavar="PATH",
        help="load a persisted ExpandedStore, checking its checksum and "
             "structure, and print its inventory",
    )
    expand.add_argument(
        "--max-length", type=_positive_int, default=3,
        help="maximum expanded-predicate length k (paper default: 3)",
    )
    expand.set_defaults(handler=_cmd_expand)

    decompose = sub.add_parser(
        "decompose", help="show a question's optimal decomposition (Sec 5)"
    )
    _common_args(decompose)
    decompose.add_argument("questions", nargs="+", help="questions to decompose")
    decompose.set_defaults(handler=_cmd_decompose)

    variants = sub.add_parser(
        "variants", help="answer ranking/comparison/listing/counting questions"
    )
    _common_args(variants)
    variants.add_argument("questions", nargs="+", help="variant questions to answer")
    variants.set_defaults(handler=_cmd_variants)

    serve = sub.add_parser(
        "serve",
        help="train and serve answers over HTTP (micro-batching async front)",
    )
    _common_args(serve)
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument(
        "--port", type=_port, default=8080,
        help="bind port, 0-65535 (0 picks an ephemeral port; default: 8080)",
    )
    serve.add_argument(
        "--max-batch", type=int, default=16,
        help="max distinct questions per dispatched answer_many batch",
    )
    serve.add_argument(
        "--max-pending", type=int, default=256,
        help="admission bound: queued+executing evaluations before 503",
    )
    serve.add_argument(
        "--deadline-ms", type=float, default=0.0,
        help="default per-request deadline in ms (0 disables; requests past "
             "it get a 504; the X-KBQA-Deadline-Ms header overrides)",
    )
    _fallback_args(serve)
    serve.set_defaults(handler=_cmd_serve)

    mega = sub.add_parser(
        "mega-compile",
        help="stream-compile an N-triple mega world (kb.db + gold.jsonl + "
             "manifest.json) in bounded memory",
    )
    mega.add_argument("--out", required=True, metavar="DIR", help="output directory")
    mega.add_argument(
        "--triples", type=int, default=1_000_000,
        help="minimum triple count to compile (default: 1,000,000)",
    )
    mega.add_argument("--seed", type=int, default=7)
    mega.add_argument(
        "--chunk-people", type=int, default=4000,
        help="people minted per streaming chunk (bounds resident memory)",
    )
    mega.add_argument(
        "--chunk-cities", type=int, default=1000,
        help="cities minted per streaming chunk",
    )
    mega.add_argument(
        "--max-rss-mb", type=float, default=0.0,
        help="fail (exit 1) if process peak RSS exceeds this many MiB "
             "(0 disables; the bounded-memory assertion for CI)",
    )
    mega.set_defaults(handler=_cmd_mega_compile)

    return parser


def _positive_int(text: str) -> int:
    """An argparse ``type`` for a count of at least 1 (0 or less exits 2)."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _port(text: str) -> int:
    """An argparse ``type`` for a TCP port: an integer in 0-65535."""
    value = int(text)
    if not 0 <= value <= 65535:
        raise argparse.ArgumentTypeError(f"must be in 0-65535, got {value}")
    return value


def _common_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--scale", default="small", choices=["small", "default"])
    sub.add_argument("--seed", type=int, default=7)
    sub.add_argument("--kb", default="freebase", choices=["freebase", "dbpedia"])
    sub.add_argument(
        "--expansion", metavar="PATH", default=None,
        help="resume from a persisted expansion (kbqa expand --save) "
             "instead of re-running the Sec 6.2 scan",
    )


def _fallback_args(sub: argparse.ArgumentParser) -> None:
    """The semantic-fallback-lane flag (answer / serve)."""
    sub.add_argument(
        "--fallback", action="store_true",
        help="enable the semantic fallback lane: when the template match "
             "abstains, score the question embedding against the learned "
             "predicate paths behind a confidence gate (answers recovered "
             "this way are tagged fallback=true)",
    )


def _train_system(args, config: KBQAConfig | None = None) -> tuple[KBQA, object]:
    suite = build_suite(args.scale, seed=args.seed)
    kb = suite.freebase if args.kb == "freebase" else suite.dbpedia
    expanded = None
    expansion_path = getattr(args, "expansion", None)
    if expansion_path:
        expanded = ExpandedStore.load(expansion_path)
    config = config or KBQAConfig()
    if getattr(args, "fallback", False):
        config = replace(config, fallback=True)
    system = KBQA.train(kb, suite.corpus, suite.conceptualizer, config, expanded=expanded)
    return system, suite


def _cmd_demo(args) -> int:
    system, _suite = _train_system(args)
    for question in args.questions:
        result = system.answer_complex(question)
        if result.answered:
            print(f"Q: {question}")
            print(f"A: {result.value}  (all: {', '.join(result.values)})")
        else:
            print(f"Q: {question}")
            print("A: (no answer)")
    return 0


def _cmd_answer(args) -> int:
    """Batch answering with deterministic non-crash handling.

    An unknown entity or an empty answer set is a *normal* outcome — it
    prints ``A: (no answer)`` and the command still exits 0.  Only real
    failures (an unreadable ``--expansion`` file) exit 1, through
    :func:`main`'s one error line on stderr.
    """
    import time

    config = KBQAConfig(answer_cache_size=0) if args.no_cache else None
    system, _suite = _train_system(args, config)
    results = []
    start = time.perf_counter()
    for _ in range(args.repeat):
        results = system.answer_many(args.questions)
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    for result in results:
        print(f"Q: {result.question}")
        if result.answered:
            tag = "  [fallback]" if result.fallback else ""
            print(f"A: {result.value}  (all: {', '.join(result.values)}){tag}")
        else:
            print("A: (no answer)")
    n_answered = sum(1 for r in results if r.answered)
    per_q = elapsed_ms / (args.repeat * len(results))
    print(f"-- answered {n_answered}/{len(results)}, {per_q:.2f}ms/question")
    return 0


def _cmd_eval(args) -> int:
    system, suite = _train_system(args)
    kb = suite.freebase if args.kb == "freebase" else suite.dbpedia
    benchmark = suite.benchmark(args.benchmark)
    metrics, _records = evaluate_qald(system, benchmark, kb)
    table = Table(["metric", "value"], title=f"KBQA on {args.benchmark} ({args.kb})")
    for key, value in metrics.as_row().items():
        table.add_row([key, value])
    table.print()
    return 0


def _cmd_decompose(args) -> int:
    system, _suite = _train_system(args)
    for question in args.questions:
        decomposition = system.decompose(question)
        print(f"Q: {question}")
        if decomposition.is_simple:
            verdict = "primitive BFQ" if decomposition.score > 0 else "not answerable"
            print(f"   {verdict} (score {decomposition.score:.3f})")
        else:
            print(f"   score {decomposition.score:.3f}")
            for i, part in enumerate(decomposition.sequence):
                print(f"   q{i}: {part}")
    return 0


def _cmd_variants(args) -> int:
    from repro.core.variants import ExtendedKBQA

    system, suite = _train_system(args)
    extended = ExtendedKBQA(system, suite.taxonomy)
    for question in args.questions:
        result = extended.answer(question)
        print(f"Q: {question}")
        if result.answered:
            shown = ", ".join(result.values[:8])
            print(f"A: {shown}  [{result.template or 'bfq'}]")
        else:
            print("A: (no answer)")
    return 0


def _cmd_serve(args) -> int:
    """Serve answers over HTTP through the micro-batching async front.

    Trains, binds (``--port 0`` picks an ephemeral port, printed on the
    ``serving on URL`` line), prints the endpoints and blocks until Ctrl-C,
    then drains and exits 0.
    """
    import time

    from repro.serve import BackgroundServer, ServeConfig

    config = ServeConfig(
        max_batch=args.max_batch,
        max_pending=args.max_pending,
        deadline_ms=args.deadline_ms,
    )
    system, _suite = _train_system(args)
    with BackgroundServer(system, config, host=args.host, port=args.port) as bg:
        print(f"serving on {bg.url}")
        print(f"  POST {bg.url}/answer   {{\"question\": \"...\"}}")
        print(f"  POST {bg.url}/batch    {{\"questions\": [...]}}")
        print(f"  POST {bg.url}/facts    {{\"op\": \"add|delete\", ...}}")
        print(f"  GET  {bg.url}/healthz | {bg.url}/stats | {bg.url}/metrics")
        print("Ctrl-C to stop")
        try:
            while True:
                time.sleep(3600)
        except KeyboardInterrupt:
            print("\nshutting down")
    return 0


def _cmd_mega_compile(args) -> int:
    """Stream-compile a mega world; optionally assert the memory bound."""
    from repro.corpus.mega import MegaSpec, compile_mega

    spec = MegaSpec(
        triples=args.triples,
        seed=args.seed,
        chunk_people=args.chunk_people,
        chunk_cities=args.chunk_cities,
    )
    build = compile_mega(spec, args.out)
    build.kb.store.close()
    for key in (
        "triples", "chunks", "total_entities", "peak_resident_entities",
        "gold_rows", "ru_maxrss_kb", "kb_path",
    ):
        print(f"{key}={build.manifest[key]}")
    rss_kb = build.manifest.get("ru_maxrss_kb")
    if args.max_rss_mb > 0 and rss_kb is not None:
        limit_kb = args.max_rss_mb * 1024
        if rss_kb > limit_kb:
            print(
                f"kbqa mega-compile: error: peak RSS {rss_kb} KiB exceeds "
                f"--max-rss-mb {args.max_rss_mb} ({limit_kb:.0f} KiB)",
                file=sys.stderr,
            )
            return 1
        print(f"rss_bound_ok={rss_kb} KiB <= {limit_kb:.0f} KiB")
    return 0


def _cmd_expand(args) -> int:
    """Run and save (``--save``) or load and check (``--load``) an expansion."""
    if bool(args.save) == bool(args.load):
        print("kbqa expand: error: pass exactly one of --save/--load", file=sys.stderr)
        return 1
    if args.save:
        from repro.core.learner import collect_seed_entities
        from repro.kb.expansion import expand_predicates
        from repro.nlp.ner import EntityRecognizer

        suite = build_suite(args.scale, seed=args.seed)
        kb = suite.freebase if args.kb == "freebase" else suite.dbpedia
        ner = EntityRecognizer(kb.gazetteer)
        seeds = collect_seed_entities(suite.corpus, ner)
        expanded = expand_predicates(kb.store, seeds, max_length=args.max_length)
        expanded.save(args.save)
        print(f"saved expansion to {args.save}")
    else:
        # load checks the whole file (size, checksum, offsets, ids), so a
        # corrupt artifact exits 1 through main as on every --expansion
        expanded = ExpandedStore.load(args.load)
        print(f"loaded expansion from {args.load}")
    for key, value in expanded.stats().items():
        print(f"{key}={value}")
    return 0


def _cmd_stats(args) -> int:
    suite = build_suite(args.scale, seed=args.seed)
    table = Table(["component", "stat", "value"], title=f"suite ({args.scale}, seed {args.seed})")
    for key, value in suite.world.stats().items():
        table.add_row(["world", key, value])
    for key, value in suite.freebase.store.stats().items():
        table.add_row(["freebase-like KB", key, value])
    for key, value in suite.dbpedia.store.stats().items():
        table.add_row(["dbpedia-like KB", key, value])
    table.add_row(["corpus", "qa_pairs", len(suite.corpus)])
    for name, bench in suite.benchmarks.items():
        table.add_row(["benchmark", name, f"{bench.n_total} ({bench.n_bfq} BFQ)"])
    table.print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
