"""repro — reproduction of *KBQA: Learning Question Answering over QA
Corpora and Knowledge Bases* (Cui et al., PVLDB 10(5), 2017).

Public entry points:

* :func:`repro.suite.build_suite` — assemble world, KBs, corpus, benchmarks;
* :class:`repro.core.KBQA` — train and answer (``KBQA.train(...)``,
  ``.answer(...)``, ``.answer_complex(...)``);
* :mod:`repro.eval` — QALD- and WebQuestions-style metrics and runners.

The paper's comparison systems (keyword, rule, synonym, bootstrapping and
the hybrid composition) are instruments of its evaluation tables, not part
of the product: they live in ``benchmarks/baselines/``.
"""

from repro.core.system import KBQA, KBQAConfig
from repro.suite import Suite, build_suite

__version__ = "1.0.0"

__all__ = ["KBQA", "KBQAConfig", "Suite", "build_suite", "__version__"]
