"""Views of a learned :class:`~repro.core.model.TemplateModel` that only the
paper tables read: the Table 13 selection, the Table 16 breakdown by path
length and the Table 17 case study.

Each is a pure function of the model's public reads (``templates()``,
``support()``, ``best_path()``); the product never calls them.
"""

from __future__ import annotations

from repro.core.model import TemplateModel
from repro.kb.paths import PredicatePath


def top_templates(model: TemplateModel, count: int) -> list[str]:
    """Templates ordered by observed frequency (Table 13's selection)."""
    ordered = sorted(model.templates(), key=lambda t: (-model.support(t), t))
    return ordered[:count]


def stats_by_path_length(model: TemplateModel) -> dict[int, dict[str, int]]:
    """Template/predicate counts grouped by the argmax path's length
    (the Table 16 breakdown: direct vs expanded predicates)."""
    by_length: dict[int, dict[str, set | int]] = {}
    for template in model.templates():
        best = model.best_path(template)
        if best is None:
            continue
        length = len(best[0])
        bucket = by_length.setdefault(length, {"templates": 0, "paths": set()})
        bucket["templates"] += 1
        bucket["paths"].add(str(best[0]))
    return {
        length: {"templates": bucket["templates"], "predicates": len(bucket["paths"])}
        for length, bucket in by_length.items()
    }


def templates_for_path(
    model: TemplateModel, path: PredicatePath, count: int | None = None
) -> list[str]:
    """Templates whose argmax predicate is ``path``, by support
    (the Table 17 case study)."""
    key = str(path)
    matching = [
        t for t in model.templates()
        if (best := model.best_path(t)) is not None and str(best[0]) == key
    ]
    matching.sort(key=lambda t: (-model.support(t), t))
    return matching if count is None else matching[:count]
