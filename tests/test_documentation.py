"""Documentation quality gates.

Every public module, class and function of the library must carry a
docstring — deliverable (e) requires doc comments on every public item —
every docstring example must run as written, and the repository's documents
must reference artifacts that exist.
"""

import doctest
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import benchmarks.baselines
import benchmarks.model_inventory
import repro

REPO_ROOT = Path(__file__).resolve().parent.parent


def _public_modules():
    """The library's modules, and the comparison systems and model views the
    paper tables run, which moved out of it but keep its documentation bar."""
    modules = [repro, benchmarks.baselines, benchmarks.model_inventory]
    for package in (repro, benchmarks.baselines):
        prefix = package.__name__ + "."
        for info in pkgutil.walk_packages(package.__path__, prefix=prefix):
            if any(part.startswith("_") for part in info.name.split(".")):
                continue
            modules.append(importlib.import_module(info.name))
    return modules


@pytest.mark.parametrize("module", _public_modules(), ids=lambda m: m.__name__)
def test_module_has_docstring(module):
    assert module.__doc__ and module.__doc__.strip(), module.__name__


@pytest.mark.parametrize("module", _public_modules(), ids=lambda m: m.__name__)
def test_public_items_have_docstrings(module):
    undocumented = []
    for name, item in vars(module).items():
        if name.startswith("_"):
            continue
        if not (inspect.isclass(item) or inspect.isfunction(item)):
            continue
        if getattr(item, "__module__", None) != module.__name__:
            continue  # re-exported from elsewhere; documented at the source
        if not (item.__doc__ and item.__doc__.strip()):
            undocumented.append(name)
        if inspect.isclass(item):
            for method_name, method in vars(item).items():
                if method_name.startswith("_") or not inspect.isfunction(method):
                    continue
                if not (method.__doc__ and method.__doc__.strip()):
                    # property-like one-liners get a pass only if trivially
                    # named accessors; anything else needs documentation
                    if len(inspect.getsource(method).splitlines()) > 4:
                        undocumented.append(f"{name}.{method_name}")
    assert not undocumented, f"{module.__name__}: {undocumented}"


def _modules_with_examples():
    finder = doctest.DocTestFinder()
    return [
        module for module in _public_modules()
        if any(test.examples for test in finder.find(module))
    ]


@pytest.mark.parametrize("module", _modules_with_examples(), ids=lambda m: m.__name__)
def test_docstring_examples_pass(module):
    """The module's doctests, run as ``python -m doctest`` would; the failed
    examples are printed to the captured output."""
    result = doctest.testmod(module)
    assert result.attempted and not result.failed, (module.__name__, result)


class TestRepositoryDocuments:
    @pytest.mark.parametrize("filename", [
        "README.md", "DESIGN.md", "EXPERIMENTS.md", "pyproject.toml",
    ])
    def test_document_exists(self, filename):
        assert (REPO_ROOT / filename).is_file(), filename

    def test_design_references_existing_benchmarks(self):
        text = (REPO_ROOT / "DESIGN.md").read_text()
        for line in text.splitlines():
            if "benchmarks/bench_" not in line:
                continue
            for token in line.split("`"):
                if token.startswith("benchmarks/bench_") and token.endswith(".py"):
                    assert (REPO_ROOT / token).is_file(), token

    def test_readme_references_existing_examples(self):
        text = (REPO_ROOT / "README.md").read_text()
        for line in text.splitlines():
            if line.strip().startswith("python examples/"):
                script = line.strip().split()[1]
                assert (REPO_ROOT / script).is_file(), script

    def test_every_paper_table_has_a_benchmark(self):
        bench_dir = REPO_ROOT / "benchmarks"
        for table in range(4, 19):
            matches = list(bench_dir.glob(f"bench_table{table:02d}_*.py"))
            assert matches, f"no benchmark for Table {table}"

    def test_examples_count_meets_deliverable(self):
        examples = list((REPO_ROOT / "examples").glob("*.py"))
        assert len(examples) >= 3
