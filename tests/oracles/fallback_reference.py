"""Deliberately dense reference for ``FallbackIndex`` retrieval.

Scores every path as one exactly-rounded ``fsum`` over *all* ``dim``
buckets of the packed matrix — no sparsity, no derived rows — with the
product's sort key, so the sparse gather scan can be held to it.
"""

from __future__ import annotations

import math
from operator import mul

from repro.core.fallback import FallbackIndex
from repro.nlp.embed import SparseVector


def reference_top_paths(
    index: FallbackIndex, query: SparseVector, k: int
) -> list[tuple[str, float]]:
    dim = index.config.dim
    dense = [0.0] * dim
    for bucket, weight in zip(query.indices, query.weights):
        dense[bucket] = weight
    scored = []
    for row, path_str in enumerate(index.path_strs):
        cells = index.matrix[row * dim : (row + 1) * dim]
        scored.append((math.fsum(map(mul, dense, cells)), path_str))
    scored.sort(key=lambda pair: (-pair[0], pair[1]))
    return [(path_str, score) for score, path_str in scored[: max(k, 0)]]


class OracleIndex(FallbackIndex):
    """A ``FallbackIndex`` whose retrieval goes through the dense reference
    (same gate, same counters): the stand-in for whole-stream comparisons."""

    def top_paths(self, query, k=None):
        return reference_top_paths(self, query, self.config.top_k if k is None else k)
