"""The learned template model: ``P(p|t)`` plus template frequencies.

This is the offline procedure's artifact (Figure 3): a distribution over
predicate paths for every learned template.  It lives in memory only:
retraining is the restart, and the Sec 6.2 expansion is the one persisted
offline state (:meth:`repro.kb.expansion.ExpandedStore.save`).
"""

from __future__ import annotations

from typing import Iterable

from repro.kb.paths import PredicatePath
from repro.taxonomy.isa import is_concept

# a template's de-slotted context: the tokens before and after its concept
Context = tuple[tuple[str, ...], tuple[str, ...]]


class TemplateModel:
    """``template text -> {path string -> probability}`` with support counts.

    The model also keeps the *contexts* it knows: for every template key and
    every ``$``-prefixed token in it, the ``(head, tail)`` token tuples around
    that token (the key split on ``" "``).  Question tokens never hold a
    space and concepts are one token, so ``" ".join(head + (c,) + tail)`` can
    only be a key when ``(head, tail)`` is in :attr:`contexts`: a question
    context outside the set reaches no template whatever concept fills it.
    Templates are only ever added or re-weighted, never removed, so the set
    only grows and never needs invalidating.
    """

    def __init__(self) -> None:
        self._theta: dict[str, dict[str, float]] = {}
        self._support: dict[str, float] = {}
        self._contexts: set[Context] = set()
        self.n_observations: int = 0

    # -- Construction ---------------------------------------------------------

    def set_distribution(
        self, template_text: str, distribution: dict[str, float], support: float = 0.0
    ) -> None:
        """Store (re-normalized) ``P(p|t)`` for one template."""
        if not distribution:
            raise ValueError(f"empty distribution for template {template_text!r}")
        total = sum(distribution.values())
        if total <= 0:
            raise ValueError(f"non-positive mass for template {template_text!r}")
        self._theta[template_text] = {
            path: prob / total for path, prob in distribution.items() if prob > 0
        }
        self._support[template_text] = support
        tokens = tuple(template_text.split(" "))
        for slot, token in enumerate(tokens):
            if is_concept(token):
                self._contexts.add((tokens[:slot], tokens[slot + 1 :]))

    # -- Lookup ----------------------------------------------------------------

    def __contains__(self, template_text: str) -> bool:
        return template_text in self._theta

    def __len__(self) -> int:
        return len(self._theta)

    def predicates_for(self, template_text: str) -> dict[PredicatePath, float]:
        """``P(p|t)`` for a template (empty dict when the template is unknown)."""
        row = self._theta.get(template_text)
        if not row:
            return {}
        return {PredicatePath.parse(path): prob for path, prob in row.items()}

    def best_path(self, template_text: str) -> tuple[PredicatePath, float] | None:
        """The argmax predicate path and its probability (None if unknown)."""
        row = self._theta.get(template_text)
        if not row:
            return None
        path, prob = max(row.items(), key=lambda kv: (kv[1], kv[0]))
        return PredicatePath.parse(path), prob

    @property
    def contexts(self) -> set[Context]:
        """The ``(head, tail)`` contexts of the known templates (read-only)."""
        return self._contexts

    def support(self, template_text: str) -> float:
        return self._support.get(template_text, 0.0)

    def templates(self) -> Iterable[str]:
        return self._theta.keys()

    # -- Inventory statistics (Tables 12 and 16) ----------------------------------

    @property
    def n_templates(self) -> int:
        return len(self._theta)

    def distinct_paths(self) -> set[str]:
        """All predicate paths any template assigns mass to."""
        paths: set[str] = set()
        for row in self._theta.values():
            paths.update(row)
        return paths

    @property
    def n_predicates(self) -> int:
        return len(self.distinct_paths())

    def templates_per_predicate(self) -> float:
        """The n:1 coverage ratio reported in Table 12."""
        n_paths = self.n_predicates
        if n_paths == 0:
            return 0.0
        return self.n_templates / n_paths
