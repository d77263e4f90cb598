"""Dict-of-dict reference for the EM estimator of ``P(p|t)`` (Alg 1).

The original implementation of ``run_em``: nested candidate lists, one dict
get per E-step term.  The array-based estimator in :mod:`repro.core.em` is
held to it to 1e-9 by ``tests/test_id_native_equivalence.py``;
``benchmarks/bench_offline_timecost.py`` and the ``-m perf`` floors time the
two side by side.
"""

from __future__ import annotations

import math
from typing import Sequence

from repro.core.em import Candidate, EMConfig, EMResult, EncodedObservations


def to_lists(observations: EncodedObservations) -> list[list[Candidate]]:
    """Inverse of :meth:`EncodedObservations.from_observations`."""
    out: list[list[Candidate]] = []
    for i in range(len(observations)):
        start, end = observations.offsets[i], observations.offsets[i + 1]
        out.append(
            [
                (observations.template_ids[j], observations.path_ids[j], observations.fs[j])
                for j in range(start, end)
            ]
        )
    return out


def initialize_theta(observations: Sequence[Sequence[Candidate]]) -> dict[int, dict[int, float]]:
    """Eq 23: uniform over predicates co-occurring with each template."""
    paths_per_template: dict[int, set[int]] = {}
    for candidates in observations:
        for template_id, path_id, f in candidates:
            if f > 0.0:
                paths_per_template.setdefault(template_id, set()).add(path_id)
    return {
        template_id: {path_id: 1.0 / len(path_ids) for path_id in path_ids}
        for template_id, path_ids in paths_per_template.items()
    }


def run_em_reference(
    observations: Sequence[Sequence[Candidate]] | EncodedObservations,
    config: EMConfig | None = None,
) -> EMResult:
    """The original dict-of-dict EM, kept as the correctness reference."""
    config = config or EMConfig()
    if isinstance(observations, EncodedObservations):
        observations = to_lists(observations)
    theta = initialize_theta(observations)
    result = EMResult(theta=theta)
    if not theta:
        return result

    previous_ll: float | None = None
    for iteration in range(config.max_iterations):
        accumulator: dict[int, dict[int, float]] = {}
        support: dict[int, float] = {}
        log_likelihood = 0.0
        for candidates in observations:
            # E-step for observation i: responsibilities ∝ f · θ (Eq 21).
            weights: list[float] = []
            total = 0.0
            for template_id, path_id, f in candidates:
                weight = f * theta.get(template_id, {}).get(path_id, 0.0)
                weights.append(weight)
                total += weight
            if total <= 0.0:
                continue
            log_likelihood += math.log(total)
            inv_total = 1.0 / total
            for (template_id, path_id, _f), weight in zip(candidates, weights):
                if weight <= 0.0:
                    continue
                responsibility = weight * inv_total
                row = accumulator.setdefault(template_id, {})
                row[path_id] = row.get(path_id, 0.0) + responsibility
                support[template_id] = support.get(template_id, 0.0) + responsibility

        # M-step: per-template normalization (Eq 22).
        theta = {
            template_id: {
                path_id: mass / support[template_id]
                for path_id, mass in row.items()
            }
            for template_id, row in accumulator.items()
        }
        result.theta = theta
        result.template_support = support
        result.log_likelihood.append(log_likelihood)
        result.iterations = iteration + 1

        if previous_ll is not None:
            improvement = log_likelihood - previous_ll
            scale = max(abs(previous_ll), 1.0)
            if improvement / scale < config.tolerance:
                break
        previous_ll = log_likelihood
    return result
