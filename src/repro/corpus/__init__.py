"""QA corpus substrate: containers, surface banks, generator, benchmarks.

Stands in for the 41M-pair Yahoo! Answers corpus: QA pairs are generated
from the world's ground truth through per-intent natural-language surface
banks, with answer sentences that embed the value among noise tokens
(Table 3's structure), plus wrong-answer and chit-chat noise.
"""

from repro.corpus.qa import QAPair, QACorpus
from repro.corpus.generator import CorpusConfig, generate_corpus
from repro.corpus.benchmark import Benchmark, BenchmarkQuestion, build_qald_like, build_webquestions_like, build_complex_benchmark

__all__ = [
    "QAPair",
    "QACorpus",
    "CorpusConfig",
    "generate_corpus",
    "Benchmark",
    "BenchmarkQuestion",
    "build_qald_like",
    "build_webquestions_like",
    "build_complex_benchmark",
]
