"""Option-surface ratchet: the knobs this system exposes, as numbers.

Every independently settable value doubles the configurations tests and
benchmarks have to cover (ROADMAP aim 2), so the counts below only go down
on their own.  A change that adds a config field, a serving counter, a CLI
flag or a ``KBQA_*`` environment variable has to edit a number here, where
a reviewer sees it next to the reason.  The second half holds the deleted
surface to failing loudly: a flag that is accepted and ignored is a bug.
"""

from __future__ import annotations

import ast
import inspect
import os
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

from repro.cli import main
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
    ``batch_window_ms``) and the coalescing switch went with it."""
    assert len(fields(ServeConfig)) == 6
    assert len(fields(ServeStats)) == 15


def test_learner_config_field_count():
    assert len(fields(LearnerConfig)) == 5


def test_kbqa_config_field_count():
    """The single corpus pass and the fv-first statistics bought their speed
    with no knob: ``KBQAConfig`` is what it was, as are ``LearnerConfig``
    above and the ``add_argument(`` count below."""
    assert len(fields(KBQAConfig)) == 9


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
    index — ``precompute`` went when the oracle moved to ``tests/oracles``."""
    parameters = inspect.signature(OnlineAnswerer).parameters
    assert len(parameters) == 8
    assert "precompute" not in parameters
    for path in SRC.rglob("*.py"):
        assert not re.search(r"\bprecompute\b", path.read_text("utf-8")), path


def test_cli_flag_count():
    cli = (SRC / "repro" / "cli.py").read_text(encoding="utf-8")
    assert cli.count("add_argument(") <= 31


def test_kbqa_server_constructor_parameter_count():
    """The system, its config, a host and a port: ``reuse_port``,
    ``fact_listener``, ``metrics_dir`` and ``replica_index`` served only the
    deleted multi-process front."""
    assert len(inspect.signature(KBQAServer).parameters) == 4


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


def test_expanded_format_env_var_is_ignored(tmp_path, monkeypatch):
    """Not an error and not a switch: the variable no longer exists."""
    from repro.kb.expanded_v3 import EXPANSION_MAGIC

    monkeypatch.setenv("KBQA_EXPANDED_FORMAT", "v1")
    path = tmp_path / "expansion.kbqa"
    assert main(["expand", "--scale", "small", "--save", str(path)]) == 0
    assert path.read_bytes().startswith(EXPANSION_MAGIC)


def test_kb_layer_serves_only_the_lookups_kbqa_makes():
    """Reach is recorded one way, the store keeps two triple orderings, and
    the BGP solver, the reverse lookups, the alias view and the read-only
    open mode stay gone."""
    import repro.kb
    from repro.kb import disk
    from repro.kb.backend import KBBackend
    from repro.kb.disk import DiskTripleStore
    from repro.kb.expansion import expand_predicates
    from repro.kb.live import LiveExpansionMaintainer
    from repro.kb.store import TripleStore

    assert "record_reach" not in inspect.signature(expand_predicates).parameters
    assert list(inspect.signature(DiskTripleStore).parameters) == ["path"]
    assert list(inspect.signature(LiveExpansionMaintainer).parameters) == [
        "backend", "expanded", "seeds",
    ]
    for owner in (KBBackend, TripleStore, DiskTripleStore):
        for name in ("subjects", "predicates", "predicates_ids_of"):
            assert not hasattr(owner, name), (owner, name)
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
    ],
    ids=[
        "serve--exec", "answer--shards", "train--workers", "shm-gc", "expand--expanded-format",
        "scenario", "mega-compile--mega-backend", "serve--slo-ms", "serve--adaptive",
        "serve--quota", "serve--no-coalesce", "serve--smoke", "serve--procs",
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


def test_serve_rejects_zero_workers_before_training(capsys):
    """No silent clamp and no hang: ``ServeConfig`` refuses, nothing runs."""
    assert main(["serve", "--scale", "small", "--port", "0", "--workers", "0"]) == 1
    captured = capsys.readouterr()
    assert "workers must be >= 1" in captured.err
    assert "serving on" not in captured.out


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
    threshold, capsys, monkeypatch
):
    """``nan`` compares False both ways, so a nan threshold counted every gate
    query as passed while the lane returned nothing; now ``FallbackConfig``
    refuses it, and ``KBQA.train`` builds that config before it trains."""

    def no_training(*_args, **_kwargs):
        raise AssertionError("trained despite a refused gate setting")

    monkeypatch.setattr("repro.core.system.OfflineLearner", no_training)
    argv = ["answer", "--scale", "small", "--fallback",
            f"--fallback-threshold={threshold}", "who is the mayor of x?"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert "threshold must be a finite number" in captured.err
    assert "Q:" not in captured.out


def test_sharded_backend_is_unknown(monkeypatch):
    with pytest.raises(ValueError, match="memory, disk"):
        resolve_backend("sharded")
    monkeypatch.setenv("KBQA_BACKEND", "sharded")
    with pytest.raises(ValueError, match="memory, disk"):
        resolve_backend()


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
