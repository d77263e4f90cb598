"""Tests for the KBQA facade, the suite assembly and the CLI."""

import dataclasses
import pickle

import pytest

import repro.suite
from repro.cli import main
from repro.core.learner import LearnerConfig
from repro.core.system import KBQA, KBQAConfig
from repro.corpus.benchmark import (
    build_complex_benchmark,
    build_qald_like,
    build_webquestions_like,
)
from repro.data.compile import compile_dbpedia_like
from repro.data.conceptnet import build_taxonomy
from repro.data.infobox import build_infobox
from repro.kb.disk import DiskTripleStore
from repro.kb.store import TripleStore
from repro.suite import build_suite

from tests.conftest import pick_entity


class TestKBQAFacade:
    def test_describe_inventory(self, kbqa_fb):
        info = kbqa_fb.describe()
        assert info["kb"] == "freebase"
        assert info["templates"] > 100
        assert info["predicates"] > 20
        assert info["expanded_spo"] > 0
        assert info["em_iterations"] >= 1

    def test_train_without_expansion(self, suite):
        config = KBQAConfig(learner=LearnerConfig(use_expansion=False))
        system = KBQA.train(suite.freebase, suite.corpus, suite.conceptualizer, config)
        assert system.describe()["expanded_spo"] == 0

    def test_answer_and_answer_complex_agree_on_bfq(self, suite, kbqa_fb):
        city = pick_entity(suite.world, "city", "population")
        question = f"what is the population of {city.name}?"
        simple = kbqa_fb.answer(question)
        complex_result = kbqa_fb.answer_complex(question)
        assert complex_result.value == simple.value

    def test_config_threading(self, suite):
        from repro.core.em import EMConfig

        config = KBQAConfig(
            learner=LearnerConfig(em=EMConfig(max_iterations=2)),
            pattern_max_questions=100,
        )
        system = KBQA.train(suite.freebase, suite.corpus, suite.conceptualizer, config)
        assert system.learn_result.em.iterations <= 2
        assert system.decomposer.statistics.questions_indexed <= 100


class TestLiveSystemPickle:
    """Nothing in the product crosses a process boundary by pickle: a
    trained system stays in the process that trained it, or reaches a child
    by ``fork``.  The facade's refusal is the one
    crisp failure every accidental ``pickle.dumps`` of a system (or of
    anything that holds one) falls through to."""

    def test_kbqa_itself_refuses_to_pickle(self, kbqa_fb):
        with pytest.raises(TypeError, match="not picklable"):
            pickle.dumps(kbqa_fb)


class TestSuite:
    def test_components_present(self, suite):
        assert suite.world.entities
        assert len(suite.freebase.store) > len(suite.dbpedia.store)
        assert len(suite.corpus) == 4000
        assert len(suite.infobox) > 0
        assert set(suite.benchmarks) == {"qald1", "qald3", "qald5", "webquestions", "complex"}

    def test_deterministic_rebuild(self, suite):
        rebuilt = build_suite("small", seed=7)
        assert rebuilt.world.stats() == suite.world.stats()
        assert [p.question for p in rebuilt.corpus.pairs[:50]] == [
            p.question for p in suite.corpus.pairs[:50]
        ]
        assert [q.question for q in rebuilt.benchmark("qald3").questions] == [
            q.question for q in suite.benchmark("qald3").questions
        ]

    def test_unknown_scale_rejected(self):
        with pytest.raises(ValueError):
            build_suite("enormous")

    def test_benchmark_lookup(self, suite):
        assert suite.benchmark("qald1").name == "qald1"
        with pytest.raises(KeyError):
            suite.benchmark("nope")


# the builders of the parts a Suite builds on first read
_LAZY_BUILDERS = (
    "compile_dbpedia_like",
    "build_taxonomy",
    "build_infobox",
    "build_qald_like",
    "build_webquestions_like",
    "build_complex_benchmark",
)
_LAZY_PARTS = ("dbpedia", "taxonomy", "infobox", "benchmarks")


def _part_view(name, part):
    """A comparable value of one lazily built part."""
    if name == "dbpedia":
        return part.kind, set(part.store.triples())
    if name == "taxonomy":
        return part.stats(), {c: part.instances(c) for c in part.all_concepts()}
    if name == "infobox":
        return part.facts
    return {
        bench_name: [(q.qid, q.question, q.gold_values, q.gold_intent) for q in bench.questions]
        for bench_name, bench in part.items()
    }


@pytest.mark.parametrize("kind", ["memory", "disk"])
class TestLazySuite:
    """``build_suite`` builds what training reads; the DBpedia-like KB, the
    taxonomy, the Infobox and the benchmark sets are built on first read."""

    def test_build_suite_calls_no_part_builder(self, kind, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("build_suite built a lazy part")

        for name in _LAZY_BUILDERS:
            monkeypatch.setattr(repro.suite, name, refuse)
        built = build_suite("small", seed=7, backend=kind)
        assert built.backend == kind
        assert not set(_LAZY_PARTS) & set(vars(built))

    @pytest.mark.parametrize("order", [_LAZY_PARTS, _LAZY_PARTS[::-1]], ids=["forward", "reverse"])
    def test_each_part_equals_a_direct_build_in_any_read_order(self, kind, order):
        built = build_suite("small", seed=7, backend=kind)
        parts = {name: getattr(built, name) for name in order}
        world = built.world
        benchmarks = {
            name: build_qald_like(name, world, seed=7, **mix)
            for name, mix in repro.suite._BENCHMARK_MIXES.items()
        }
        benchmarks["webquestions"] = build_webquestions_like(world, seed=7, total=200)
        benchmarks["complex"] = build_complex_benchmark(world, seed=7)
        direct = {
            "dbpedia": compile_dbpedia_like(world, backend=kind),
            "taxonomy": build_taxonomy(world),
            "infobox": build_infobox(world),
            "benchmarks": benchmarks,
        }
        for name in _LAZY_PARTS:
            assert _part_view(name, parts[name]) == _part_view(name, direct[name]), name
            assert getattr(built, name) is parts[name], f"{name} was built twice"

    def test_a_replaced_suite_builds_its_parts_from_its_own_fields(self, kind):
        built = build_suite("small", seed=7, backend=kind)
        built.benchmarks  # read on the original: the copy must not share it
        other_kind = "memory" if kind == "disk" else "disk"
        copy = dataclasses.replace(built, seed=8, backend=other_kind)
        qald5 = build_qald_like(
            "qald5", built.world, seed=8, **repro.suite._BENCHMARK_MIXES["qald5"]
        )
        assert [q.question for q in copy.benchmark("qald5").questions] == [
            q.question for q in qald5.questions
        ]
        assert copy.benchmarks is not built.benchmarks
        store_type = DiskTripleStore if other_kind == "disk" else TripleStore
        assert type(copy.dbpedia.store) is store_type

    def test_the_store_kind_is_resolved_when_the_suite_is_built(self, kind, monkeypatch):
        monkeypatch.setenv("KBQA_BACKEND", kind)
        built = build_suite("small", seed=7)
        monkeypatch.setenv("KBQA_BACKEND", "memory" if kind == "disk" else "disk")
        store_type = DiskTripleStore if kind == "disk" else TripleStore
        assert type(built.freebase.store) is store_type
        assert type(built.dbpedia.store) is store_type


class TestCLI:
    def test_no_command_prints_help(self, capsys):
        assert main([]) == 1
        assert "kbqa" in capsys.readouterr().out

    def test_stats_command(self, capsys):
        assert main(["stats", "--scale", "small"]) == 0
        out = capsys.readouterr().out
        assert "world" in out
        assert "benchmark" in out

    def test_demo_command(self, suite, capsys):
        city = pick_entity(suite.world, "city", "population")
        code = main(["demo", "--scale", "small", f"what is the population of {city.name}?"])
        assert code == 0
        out = capsys.readouterr().out
        assert "A:" in out
        gold = suite.world.gold_values(city.node, "population")
        assert any(v in out for v in gold)

    def test_eval_command(self, capsys):
        assert main(["eval", "--scale", "small", "--benchmark", "qald5"]) == 0
        out = capsys.readouterr().out
        assert "P" in out and "R" in out


class TestEndToEnd:
    def test_full_pipeline_fresh_build(self):
        """Train and answer — the complete user journey on a freshly built
        (tiny) suite, independent of session fixtures."""
        from repro.core.em import EMConfig

        fresh = build_suite("small", seed=11)
        config = KBQAConfig(learner=LearnerConfig(em=EMConfig(max_iterations=8)))
        system = KBQA.train(fresh.freebase, fresh.corpus, fresh.conceptualizer, config)

        city = pick_entity(fresh.world, "city", "population")
        result = system.answer(f"how many people live in {city.name}?")
        assert result.answered
        assert result.value in fresh.world.gold_values(city.node, "population")


class TestCLIDecompose:
    def test_decompose_complex_question(self, suite, capsys):
        from tests.conftest import pick_entity

        person = pick_entity(suite.world, "person", "spouse")
        question = f"when was {person.name} 's wife born?"
        assert main(["decompose", "--scale", "small", question]) == 0
        out = capsys.readouterr().out
        assert "q0:" in out and "q1:" in out
        assert "$e" in out

    def test_decompose_simple_question(self, suite, capsys):
        from tests.conftest import pick_entity

        city = pick_entity(suite.world, "city", "population")
        assert main(["decompose", "--scale", "small",
                     f"what is the population of {city.name}?"]) == 0
        assert "primitive BFQ" in capsys.readouterr().out


class TestCLIVariants:
    def test_superlative_through_cli(self, suite, capsys):
        best = max(
            (c for c in suite.world.of_type("city") if c.get_fact("population")),
            key=lambda c: int(c.get_fact("population")[0]),
        )
        assert main(["variants", "--scale", "small",
                     "which city has the largest population?"]) == 0
        out = capsys.readouterr().out
        assert best.name in out
        assert "variant:superlative" in out


class TestCrossProcessDeterminism:
    def test_model_identical_across_interpreters(self, tmp_path):
        """Two fresh interpreter runs must produce byte-identical models —
        the reproducibility guarantee the whole suite rests on."""
        import subprocess
        import sys
        from pathlib import Path

        script = (
            "import sys; "
            "from repro.suite import build_suite; "
            "from repro.core.system import KBQA, KBQAConfig; "
            "from repro.core.learner import LearnerConfig; "
            "from repro.core.em import EMConfig; "
            "s = build_suite('small', seed=23); "
            "cfg = KBQAConfig(learner=LearnerConfig(em=EMConfig(max_iterations=5))); "
            "k = KBQA.train(s.freebase, s.corpus, s.conceptualizer, cfg); "
            "from tests.test_corpus_qa import _model_json; "
            "open(sys.argv[1], 'wb').write(_model_json(k.model))"
        )
        root = Path(__file__).resolve().parent.parent
        paths = [tmp_path / "run_a.json", tmp_path / "run_b.json"]
        for path in paths:
            subprocess.run(
                [sys.executable, "-c", script, str(path)],
                cwd=root, check=True, timeout=300,
            )
        assert paths[0].read_bytes() == paths[1].read_bytes()
