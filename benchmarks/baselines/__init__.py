"""Baseline QA systems the paper compares against (Sec 1.2, Sec 7).

These are instruments of the evaluation tables (Tables 7–12 and 14), not
part of the product: nothing under ``src/`` imports them.

* ``keyword.KeywordQA`` — keyword matching against predicate names [29];
* ``rule.RuleQA`` — hand-written question patterns [23];
* ``synonym.SynonymQA`` — DEANNA-like phrase-to-predicate mapping through
  the synonym lexicon of ``lexicon`` with similarity scoring [33];
* ``bootstrapping.BootstrapLearner`` — BOA-pattern learning from the
  declarative text of ``sentences`` (the coverage comparison of Table 12)
  [28, 14];
* ``hybrid.HybridSystem`` — KBQA first, baseline fallback (Table 11).

All QA baselines return the same :class:`repro.core.online.AnswerResult`
shape KBQA does, so one evaluation runner serves every system.
"""
