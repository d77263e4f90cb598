"""Option-surface ratchet: the knobs this system exposes, as numbers.

Every independently settable value doubles the configurations tests and
benchmarks have to cover (ROADMAP aim 2), so the counts below only go down
on their own.  A change that adds a config field, a serving counter, a CLI
flag or a ``KBQA_*`` environment variable has to edit a number here, where
a reviewer sees it next to the reason.  The second half holds the deleted
surface to failing loudly: a flag that is accepted and ignored is a bug.
"""

from __future__ import annotations

import argparse
import ast
import inspect
import json
import os
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

from repro.cli import _build_parser, main
from repro.core.learner import LearnerConfig
from repro.core.online import OnlineAnswerer
from repro.core.system import KBQAConfig
from repro.eval.scenarios import ScenarioSpec
from repro.kb.backend import resolve_backend
from repro.serve import KBQAServer, ServeConfig, ServeStats

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def test_serve_config_and_stats_field_counts():
    """The control plane's knobs (``slo_ms``, ``adaptive``, ``quota``,
    ``batch_window_ms``) and the coalescing switch went with it; the pool's
    ``workers``, ``executor`` and ``max_stale_retries`` went with inline
    evaluation (the first two linger as validated, ignored ``InitVar``s)."""
    assert len(fields(ServeConfig)) == 3
    # ``coalesced`` now counts ``answer_many`` duplicates and ``degraded``
    # reads 0: both stay for the frozen benchmark, which reads them by name
    assert len(fields(ServeStats)) == 15


def test_learner_config_field_count():
    assert len(fields(LearnerConfig)) == 5


def test_kbqa_config_field_count():
    """The single corpus pass and the fv-first statistics bought their speed
    with no knob, as did the context plans that replaced the NER/concept
    LRUs — and ``lookup_cache_size`` went with them: ``LearnerConfig`` above
    and the ``add_argument(`` count below are what they were."""
    assert len(fields(KBQAConfig)) == 8
    assert "lookup_cache_size" not in {f.name for f in fields(KBQAConfig)}


@pytest.mark.parametrize("value", [0, -1])
def test_kbqa_config_refuses_fewer_than_one_online_concept(value):
    """0 made every question abstain; -1 dropped each mention's last concept
    through the ``[:max_concepts]`` slice."""
    with pytest.raises(ValueError, match="max_concepts_online"):
        KBQAConfig(max_concepts_online=value)


@pytest.mark.parametrize("value", [0, -1])
def test_learner_config_refuses_fewer_than_one_concept_per_mention(value):
    with pytest.raises(ValueError, match="max_concepts_per_mention"):
        LearnerConfig(max_concepts_per_mention=value)


def test_kbqa_config_refuses_a_negative_answer_cache_size():
    """-5 silently disabled the cache; 0 is the one spelling of off."""
    with pytest.raises(ValueError, match="answer_cache_size"):
        KBQAConfig(answer_cache_size=-5)
    assert KBQAConfig(answer_cache_size=0).answer_cache_size == 0


def test_online_answerer_validates_and_ignores_lookup_cache_size(kbqa_fb):
    view = kbqa_fb.learn_result
    parts = (view.kbview, view.ner, kbqa_fb.conceptualizer, kbqa_fb.model)
    with pytest.raises(ValueError, match="lookup_cache_size"):
        OnlineAnswerer(*parts, lookup_cache_size=-1)
    question = "what is the population of mapleton?"
    sized, unsized = OnlineAnswerer(*parts, lookup_cache_size=0), OnlineAnswerer(*parts)
    assert sized.lookup_cache_size == 0
    assert sized.answer(question) == unsized.answer(question)
    assert sized.cache_info() == unsized.cache_info()


def _max_loop_depth_of_pattern_joins(source: str, class_name: str) -> int:
    """Deepest ``for`` nesting of a ``_pattern_key(...)`` / ``" ".join(...)``
    call inside ``class_name`` (0 = not in a loop, -1 = no such call)."""
    tree = ast.parse(source)
    (target,) = [n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == class_name]
    deepest = -1

    def walk(node: ast.AST, depth: int) -> None:
        nonlocal deepest
        if isinstance(node, ast.Call):
            callee = node.func
            if (isinstance(callee, ast.Name) and callee.id == "_pattern_key") or (
                isinstance(callee, ast.Attribute) and callee.attr == "join"
            ):
                deepest = max(deepest, depth)
        for child in ast.iter_child_nodes(node):
            walk(child, depth + isinstance(node, ast.For))

    walk(target, 0)
    return deepest


def test_exhaustive_pattern_enumeration_lives_only_in_the_oracle():
    """``PatternStatistics`` joins a pattern string per (question, entity
    span) — loop depth 2 — never per (question, start, end): the O(n²)
    builder is ``tests/oracles/offline_reference.py`` and nothing in ``src/``."""
    product = (SRC / "repro" / "core" / "decompose.py").read_text("utf-8")
    assert _max_loop_depth_of_pattern_joins(product, "PatternStatistics") == 2
    oracle = (ROOT / "tests" / "oracles" / "offline_reference.py").read_text("utf-8")
    assert "for end in range(start + 1, n + 1):" in oracle and "seen_fo.add(pattern)" in oracle
    for path in SRC.rglob("*.py"):
        assert "seen_fo.add(pattern)" not in path.read_text("utf-8"), path


def test_online_answerer_constructor_parameter_count():
    """Four collaborators, two cache sizes, ``max_concepts``, the fallback
    index — ``precompute`` went when the oracle moved to ``tests/oracles``.
    (``lookup_cache_size`` is validated and ignored: the LRUs it sized are
    gone, and the frozen benchmark still passes it.)"""
    parameters = inspect.signature(OnlineAnswerer).parameters
    assert len(parameters) == 8
    assert "precompute" not in parameters
    for path in SRC.rglob("*.py"):
        assert not re.search(r"\bprecompute\b", path.read_text("utf-8")), path


def test_cli_flag_count():
    """``--backend`` and ``--db-dir`` went with the SQLite restart path
    (``$KBQA_BACKEND`` picks the store), ``--fallback-threshold`` because
    only ``--fallback`` read it."""
    cli = (SRC / "repro" / "cli.py").read_text(encoding="utf-8")
    count = cli.count("add_argument(")
    assert count <= 26
    # README states the count; the two must not drift apart
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    stated = re.findall(r"The CLI has (\d+)\s+`add_argument`\s+calls", readme)
    assert stated == [str(count)]


def test_cli_subcommands():
    """``train`` went with the model JSON it wrote, which no command read;
    ``compile`` with the SQLite KB files no command reopened without
    rebuilding the world."""
    (subparsers,) = [
        action for action in _build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    assert set(subparsers.choices) == {
        "demo", "answer", "eval", "stats", "expand", "decompose",
        "variants", "serve", "mega-compile",
    }


def test_no_restart_store_and_one_em_lane():
    """The suite's KBs are rebuilt from the seed on every start, and EM runs
    on numpy only: no KB directory and no numpy-less branch in ``src/``."""
    for path in SRC.rglob("*.py"):
        text = path.read_text("utf-8")
        for name in ("db_dir", "_np is None"):
            assert name not in text, (path, name)


def test_kbqa_server_constructor_parameter_count():
    """The system, its config, a host and a port: ``reuse_port``,
    ``fact_listener``, ``metrics_dir`` and ``replica_index`` served only the
    deleted multi-process front."""
    assert len(inspect.signature(KBQAServer).parameters) == 4


def test_one_queue_entry_per_miss_and_no_degraded_mode():
    """In-flight coalescing, degraded mode and the ``key=`` knob stay gone:
    the answerer takes a target and a config and keeps no waiter lists, an
    answer payload has no ``degraded`` key, and the app never probes the
    answer cache itself — the answerer's cache-hit lane is the one probe."""
    from repro.core.online import AnswerResult
    from repro.serve import AsyncAnswerer, result_payload

    assert list(inspect.signature(AsyncAnswerer).parameters) == ["target", "config"]
    answerer = AsyncAnswerer(object())
    assert not hasattr(answerer, "_inflight")
    assert "inflight_keys" not in answerer.snapshot()
    assert list(inspect.signature(result_payload).parameters) == ["result"]
    unanswered = AnswerResult("q?", None, (), 0.0, None, None, None, False)
    assert "degraded" not in result_payload(unanswered)
    assert "cached_answer" not in (SRC / "repro" / "serve" / "app.py").read_text("utf-8")
    for path in (SRC / "repro" / "serve").glob("*.py"):
        text = path.read_text("utf-8")
        for name in ("_inflight", "inflight_keys", "degraded="):
            assert name not in text, (path, name)


def test_one_benchmark_and_no_load_generator_in_src():
    """``benchmarks/e2e`` + ``BENCHMARK.json`` is the one instrument and its
    load generator lives there: ``repro.serve`` holds serving modules only
    (listed, so a generator or a fault harness cannot come back under another
    name), exports no runner — the serving smoke lives in
    ``tests/serve_harness.py`` — and the mega binding keeps one knob."""
    import repro.serve

    serve_modules = {path.stem for path in (SRC / "repro" / "serve").glob("*.py")}
    assert serve_modules == {
        "__init__", "app", "async_answerer", "http", "metrics",
    }
    exported = set(repro.serve.__all__)
    assert not exported & {
        "LoadSpec", "OpenLoadSpec", "RampSpec", "build_request_stream", "latency_percentiles",
        "ControllerConfig", "FairQueue", "QuotaConfig", "QuotaExceeded", "SLOController",
        "TokenBucket", "WindowedHistogram", "parse_quota",
        "MultiProcessServer", "multiproc_available", "merge_states",
    }
    assert not hasattr(repro.serve, "control") and not hasattr(repro.serve, "faults")
    assert {name for name in exported if name.startswith("run_")} == set()
    assert "parse_prometheus_text" not in exported
    assert len(fields(ScenarioSpec)) == 1
    assert not list((ROOT / "scripts").glob("*.sh"))  # the shell driver stays gone
    assert sorted(path.name for path in ROOT.glob("BENCH*")) == ["BENCHMARK.json"]


def test_environment_variables():
    names = set()
    for path in SRC.rglob("*.py"):
        names.update(re.findall(r"""["'](KBQA_[A-Z_]+)["']""", path.read_text("utf-8")))
    assert names == {"KBQA_BACKEND"}


def test_one_expansion_artifact_format():
    """The retired formats' module, resolver and format list stay gone, and
    so does the mmap reader: a loaded artifact is the dict-backed store."""
    for path in SRC.rglob("*.py"):
        text = path.read_text("utf-8")
        for name in (
            "expanded_v2", "resolve_expanded_format", "EXPANSION_FORMATS",
            "ExpandedStoreV3", "MappedDictionary", "materialize", "is_mapped",
            "V3StreamWriter",
        ):
            assert name not in text, (path, name)


def test_one_persisted_artifact():
    """The expansion artifact is the only persisted state: the model JSON
    format and the N-Triples dump stay gone, and retraining is the restart."""
    from repro.core.model import TemplateModel
    from repro.corpus.qa import QACorpus

    for path in SRC.rglob("*.py"):
        text = path.read_text("utf-8")
        for name in ("rdf_io", "save_ntriples", "load_ntriples", "MODEL_FORMAT_VERSION"):
            assert name not in text, (path, name)
    for owner in (TemplateModel, QACorpus):
        assert not hasattr(owner, "save") and not hasattr(owner, "load"), owner


def test_expanded_format_env_var_is_ignored(tmp_path, monkeypatch):
    """Not an error and not a switch: the variable no longer exists."""
    from repro.kb.expanded_v3 import EXPANSION_MAGIC

    monkeypatch.setenv("KBQA_EXPANDED_FORMAT", "v1")
    path = tmp_path / "expansion.kbqa"
    assert main(["expand", "--scale", "small", "--save", str(path)]) == 0
    assert path.read_bytes().startswith(EXPANSION_MAGIC)


def test_kb_layer_serves_only_the_lookups_kbqa_makes():
    """The store keeps two triple orderings, the change stream has one
    listener kind, the string reads are written once on the one contract
    class, and the BGP solver, the reverse lookups, the reads nothing calls,
    the alias view, the read-only open mode and live expansion maintenance
    stay gone."""
    import repro.kb
    from repro.core.kbview import KBView
    from repro.kb import backend, disk, paths
    from repro.kb.backend import KBBackend
    from repro.kb.disk import DiskTripleStore
    from repro.kb.expansion import ExpandedStore, expand_predicates
    from repro.kb.store import TripleStore

    assert list(inspect.signature(expand_predicates).parameters) == [
        "store", "seeds", "max_length", "tail_predicates",
    ]
    assert list(inspect.signature(DiskTripleStore).parameters) == ["path"]
    deleted = (
        "subjects", "predicates", "predicates_ids_of",
        "lookup_id", "decode_id", "predicates_of", "out_degree", "subjects_iter",
    )
    shared = (
        "objects", "predicates_between", "has", "__contains__", "has_subject",
        "triples", "add_triple", "add_all",
    )
    for owner in (KBBackend, TripleStore, DiskTripleStore):
        for name in deleted:
            assert not hasattr(owner, name), (owner, name)
        for name in shared:
            assert getattr(owner, name) is getattr(KBBackend, name), (owner, name)
        # one listener kind: a listener takes bursts of changes
        assert list(inspect.signature(owner.subscribe).parameters) == ["self", "listener"]
    # a live edit detaches the expansion; nothing keeps it fresh
    with pytest.raises(ModuleNotFoundError):
        import repro.kb.live  # noqa: F401
    for name in ("invalidate_seeds", "merge_from", "seeds_through", "reach_items", "has_reach"):
        assert not hasattr(ExpandedStore, name), name
    assert not hasattr(ExpandedStore(3), "seed_ids")
    assert not hasattr(KBView, "max_path_length")
    # one contract class, no Protocol beside it; no graph walk beside the scan
    assert not hasattr(backend, "BackendBase") and not hasattr(backend, "Protocol")
    assert not hasattr(paths, "paths_between") and not hasattr(KBView, "has_entity")
    assert not {"solve", "select"} & set(repro.kb.__all__)
    with pytest.raises(ModuleNotFoundError):
        import repro.kb.query  # noqa: F401
    assert "idx_triples_pos" not in disk._SCHEMA
    assert "VIEW" not in disk._SCHEMA.upper()


def test_kb_db_from_the_older_layout_still_opens(tmp_path):
    """A ``kb.db`` written with the former ``(p, o, s)`` index and alias view
    opens at ``user_version`` 1 and reads exactly like a current one."""
    from repro.kb import disk
    from repro.kb.disk import DiskTripleStore

    def build(path):
        store = DiskTripleStore(str(path))
        for s, p, o in [("a", "name", '"al"'), ("a", "pob", "c"), ("c", "name", '"cee"')]:
            store.add(s, p, o)
        return store

    current = build(tmp_path / "current.db")
    older = build(tmp_path / "older.db")
    older._connection().executescript(
        """
        CREATE INDEX idx_triples_pos ON triples (p, o, s);
        CREATE VIEW aliases (alias, entity) AS
            SELECT alias_term.term, entity_term.term
            FROM triples
            JOIN terms AS entity_term ON entity_term.id = triples.s
            JOIN terms AS alias_term ON alias_term.id = triples.o
            WHERE triples.p IN (SELECT id FROM terms WHERE term IN ('name', 'alias'));
        """
    )
    older.close()
    reopened = DiskTripleStore(str(tmp_path / "older.db"))
    conn = reopened._connection()
    assert conn.execute("PRAGMA user_version").fetchone()[0] == disk._SCHEMA_VERSION == 1
    assert {row[0] for row in conn.execute("SELECT name FROM sqlite_master")} >= {
        "idx_triples_pos", "aliases",
    }
    assert reopened.stats() == current.stats()
    for s, p in [("a", "name"), ("a", "pob"), ("c", "name"), ("c", "pob")]:
        assert reopened.objects(s, p) == current.objects(s, p)
    assert reopened.predicates_between("a", "c") == {"pob"}
    reopened.close()
    current.close()


@pytest.mark.parametrize(
    "argv",
    [
        ["serve", "--scale", "small", "--port", "0", "--exec", "process"],
        ["answer", "--scale", "small", "--shards", "2", "who?"],
        ["train", "--scale", "small", "--workers", "2", "--model", "m.json"],
        ["shm-gc"],
        ["expand", "--scale", "small", "--save", "x.kbqa", "--expanded-format", "v3"],
        ["scenario", "--mega", "x"],
        ["mega-compile", "--out", "x", "--mega-backend", "memory"],
        ["serve", "--scale", "small", "--port", "0", "--slo-ms", "50"],
        ["serve", "--scale", "small", "--port", "0", "--adaptive"],
        ["serve", "--scale", "small", "--port", "0", "--quota", "5:5"],
        ["serve", "--scale", "small", "--port", "0", "--no-coalesce"],
        ["serve", "--scale", "small", "--port", "0", "--smoke"],
        ["serve", "--scale", "small", "--port", "0", "--procs", "2"],
        ["serve", "--scale", "small", "--port", "0", "--workers", "2"],
        ["train", "--scale", "small", "--model", "m.json"],
        ["compile", "--scale", "small"],
        ["answer", "--scale", "small", "--db-dir", "db", "who?"],
        ["answer", "--scale", "small", "--backend", "disk", "who?"],
        ["answer", "--scale", "small", "--fallback", "--fallback-threshold", "0.5", "who?"],
    ],
    ids=[
        "serve--exec", "answer--shards", "train--workers", "shm-gc", "expand--expanded-format",
        "scenario", "mega-compile--mega-backend", "serve--slo-ms", "serve--adaptive",
        "serve--quota", "serve--no-coalesce", "serve--smoke", "serve--procs",
        "serve--workers", "train", "compile", "answer--db-dir", "answer--backend",
        "answer--fallback-threshold",
    ],
)
def test_deleted_cli_surface_is_a_usage_error(argv, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2  # argparse usage error, nothing trained
    captured = capsys.readouterr()
    assert "kbqa" in captured.err
    assert "serving on" not in captured.out  # nothing served
    assert list(tmp_path.iterdir()) == []  # and nothing built


@pytest.mark.parametrize("deadline", ["nan", "inf", "-inf", "-1"])
def test_serve_rejects_a_non_finite_deadline_before_training(deadline, capsys):
    """``nan < 0`` is False, so a ``>= 0`` check alone let ``nan`` through
    and the deadline was silently off; the config now demands what the
    ``X-KBQA-Deadline-Ms`` header does, a finite number."""
    argv = ["serve", "--scale", "small", "--port", "0", f"--deadline-ms={deadline}"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert "deadline_ms must be a finite number >= 0" in captured.err
    assert "serving on" not in captured.out


@pytest.mark.parametrize("threshold", ["nan", "inf"])
def test_answer_rejects_a_non_finite_fallback_threshold_before_training(
    threshold, suite, monkeypatch
):
    """``nan`` compares False both ways, so a nan threshold counted every gate
    query as passed while the lane returned nothing; now ``FallbackConfig``
    refuses it, and ``KBQA.train`` builds that config before it trains."""
    from repro.core.system import KBQA

    def no_training(*_args, **_kwargs):
        raise AssertionError("trained despite a refused gate setting")

    monkeypatch.setattr("repro.core.system.OfflineLearner", no_training)
    config = KBQAConfig(fallback=True, fallback_threshold=float(threshold))
    with pytest.raises(ValueError, match="threshold must be a finite number"):
        KBQA.train(suite.freebase, suite.corpus, suite.conceptualizer, config)


def test_sharded_backend_is_unknown(monkeypatch):
    with pytest.raises(ValueError, match="memory, disk"):
        resolve_backend("sharded")
    monkeypatch.setenv("KBQA_BACKEND", "sharded")
    with pytest.raises(ValueError, match="memory, disk"):
        resolve_backend()


# ``src/repro`` modules a product entry point does not import at start-up:
# three lazy product imports (``kbqa variants``, ``ExpandedStore.save``/
# ``load``, ``kbqa mega-compile``) and the mega-world binding that the
# frozen ``mega_disk_mixed`` workload imports (ROADMAP item 5)
_NOT_LOADED_AT_START = {
    "repro.core.variants", "repro.kb.expanded_v3", "repro.corpus.mega",
    "repro.eval.scenarios",
}


def _src_modules() -> set[str]:
    names = set()
    for path in (SRC / "repro").rglob("*.py"):
        parts = path.relative_to(SRC).with_suffix("").parts
        names.add(".".join(parts[:-1] if parts[-1] == "__init__" else parts))
    return names


def test_src_holds_only_what_the_product_loads():
    """Importing the CLI, the server and the facade loads every module under
    ``src/repro`` but the named few: a comparison system, a test oracle or a
    definition only a table reads belongs in ``benchmarks/`` or ``tests/``."""
    script = (
        "import json, sys\n"
        "import repro.cli, repro.serve.app, repro.core.system\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, "-c", script], check=True, env=env, timeout=120,
        capture_output=True, text=True,
    )
    loaded = set(json.loads(done.stdout))
    assert _src_modules() - loaded == _NOT_LOADED_AT_START
    assert not {name for name in loaded if name.split(".")[0] in ("benchmarks", "tests")}


def test_src_imports_nothing_from_benchmarks_or_tests():
    for path in SRC.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text("utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.split(".")[0] not in ("benchmarks", "tests"), (path, name)


_HYGIENE_SCRIPT = """
import sys
import repro.core.system, repro.kb.expansion
pool_modules = {"multiprocessing.shared_memory", "concurrent.futures.process"}
assert not pool_modules & set(sys.modules), pool_modules & set(sys.modules)
import multiprocessing
from repro.core.system import KBQA
from repro.suite import build_suite
suite = build_suite("small", seed=7)
system = KBQA.train(suite.freebase, suite.corpus, suite.conceptualizer)
assert system.add_fact("m.hygiene", "name", '"hygiene"')
assert multiprocessing.active_children() == [], multiprocessing.active_children()
assert not pool_modules & set(sys.modules), pool_modules & set(sys.modules)
"""


def test_offline_path_imports_and_starts_no_pool():
    """Training and a live write run in this process only: no process pool,
    no shared-memory transport, not even imported."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    subprocess.run(
        [sys.executable, "-c", _HYGIENE_SCRIPT], check=True, env=env, timeout=300
    )
