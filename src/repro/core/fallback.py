"""Semantic fallback lane: embedding-gated answers when templates abstain.

The paper's online answerer (Eq 7) requires an *exact* template hit — a
held-out paraphrase of a learned question abstains even though the learned
predicate would answer it.  This module builds an index over the learned
predicate paths so such questions can be recovered:

* every learned path gets one vector — the θ-weighted sum of its training
  templates' *de-slotted* surfaces (the concept token dropped, mirroring how
  a query drops its entity mention) plus a small contribution from the
  predicate's own name tokens (``birth_place`` → "birth place"),
* a query embeds the question tokens with the NER mention span removed —
  the same reading the deterministic lane produced — and scores against all
  path vectors by cosine,
* a confidence gate (absolute threshold AND margin between the two best
  paths) turns low-confidence matches back into abstentions.

Everything is deterministic and dependency-free: vectors come from
``repro.nlp.embed`` (BLAKE2b feature hashing, seeded), candidate order is
lexicographic.

Scoring is sparse on the query side.  Path vectors are dense (a path sums
many templates) and pack into one flat ``array('f')``, from which one tuple
per path is derived on build.  A query is a ``SparseVector`` of a few dozen
non-zero buckets out of ``dim``; each row is scored as one ``math.fsum``
over exactly those buckets (a C-level gather and multiply, no Python-level
inner loop).  ``fsum`` is exactly rounded, so the score equals the full
dense dot product bit for bit — the zeros the scan skips contribute nothing
to an exact sum — which is what the tests' dense oracle
(``tests/oracles/fallback_reference.py``) checks.

The lane is memoized per index on what it is a function of: the question's
de-slotted remainder, which every entity asked about with that surface
shares (827 distinct remainders among the 20 798 lane queries of one pass
over the held-out benchmark stream).  :meth:`FallbackIndex.gated_paths`
takes the remainder's tokens and reads one dict keyed on their tuple,
bounded at 4 096 entries, that stores the gate's outcome beside the gated
paths (each with its parsed :class:`PredicatePath`), so a hit is one dict
probe and one counter increment under the index's lock: the gate is still
counted on every call.  A miss embeds the remainder
(``repro.nlp.embed.embed_tokens``), ranks through :meth:`top_paths` — the
plain scan, so a subclass that overrides it (the tests' dense oracle) is
what a miss consults — and gates.  The vector-level gate,
:meth:`FallbackIndex.gated_vector_paths`, takes an embedded query and has no
memo.  Nothing needs invalidating: an index never changes after
construction and ``OnlineAnswerer.replace_model`` swaps it whole, so a new
index brings an empty memo; and KB values are probed by the answerer after
retrieval, outside the memo, so a live write is seen at once.  Worst case,
4 096 distinct 8-token remainders hold about 11 MiB across this memo and the
embedding memo of ``repro.nlp.embed`` (tracemalloc, default scale).
"""

from __future__ import annotations

import math
import re
import threading
from array import array
from dataclasses import dataclass
from operator import itemgetter, mul
from typing import Sequence

from repro.core.model import TemplateModel
from repro.core.template import Template
from repro.kb.paths import PredicatePath
from repro.nlp.embed import DEFAULT_DIM, SparseVector, accumulate, embed_tokens

# Relative weight of the predicate-name vector against the accumulated
# template-surface mass (the surfaces carry the real signal; the name is a
# prior for sparsely-observed paths).
_NAME_WEIGHT = 0.25

_NAME_TOKEN_RE = re.compile(r"[a-z0-9]+")

# Distinct remainders kept per index (see the module docstring).
_REMAINDER_MEMO_SIZE = 4096

DEFAULT_THRESHOLD = 0.35
DEFAULT_MARGIN = 0.05


@dataclass(frozen=True, slots=True)
class FallbackConfig:
    """Knobs of the fallback lane (all deterministic given the seed)."""

    dim: int = DEFAULT_DIM
    seed: int = 0
    threshold: float = DEFAULT_THRESHOLD  # minimum cosine to answer at all
    margin: float = DEFAULT_MARGIN  # required lead of best over runner-up
    top_k: int = 5  # ranked paths handed to the caller per query

    def __post_init__(self) -> None:
        # nan compares False against everything: a nan threshold counted every
        # gate query as passed while the lane returned no path.
        for name, value in (("threshold", self.threshold), ("margin", self.margin)):
            if not math.isfinite(value):
                raise ValueError(f"{name} must be a finite number, got {value}")
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")
        if self.top_k < 1:
            raise ValueError(f"top_k must be >= 1, got {self.top_k}")


def _name_tokens(path_str: str) -> tuple[str, ...]:
    """Tokenize a predicate path's name ("birth_place->of" → birth place of)."""
    return tuple(_NAME_TOKEN_RE.findall(path_str.lower()))


class FallbackIndex:
    """Packed predicate-path vectors with gated cosine retrieval."""

    def __init__(
        self,
        config: FallbackConfig,
        path_strs: list[str],
        matrix: array,
    ) -> None:
        self.config = config
        self.path_strs = path_strs
        self.matrix = matrix
        dim = self.config.dim
        self.paths = [PredicatePath.parse(p) for p in self.path_strs]
        self._by_str = dict(zip(self.path_strs, self.paths))
        # One tuple per path: the scan gathers a query's buckets from each.
        self._rows = [
            tuple(self.matrix[start : start + dim])
            for start in range(0, len(self.path_strs) * dim, dim)
        ]
        # Threads answering through one system share one index: the lock
        # guards the remainder memo and every counter.
        self._lock = threading.Lock()
        self.reset_counters()

    def reset_counters(self) -> None:
        """Zero this process's gate-outcome and remainder-memo counters.

        The memo is emptied too, so ``memo_entries`` counts what the
        counters saw; that is always safe, as it only holds retrievals.
        """
        with self._lock:
            self._outcomes = {"passed": 0, "abstained_threshold": 0, "abstained_margin": 0}
            # remainder -> (gate outcome, gated paths); plain data, so a
            # dropped index is freed by refcount
            self._memo: dict[tuple[str, ...], tuple[str, tuple]] = {}
            self._memo_hits = self._memo_misses = 0

    def __len__(self) -> int:
        return len(self.path_strs)

    # -- Construction -------------------------------------------------------

    @classmethod
    def build(
        cls, model: TemplateModel, config: FallbackConfig | None = None
    ) -> "FallbackIndex":
        """Build path vectors from a trained model's template surfaces.

        Each template contributes its de-slotted surface embedding to every
        path it assigns mass to, weighted by θ = P(p|t); the path's own name
        tokens are folded in at a fixed fraction of the accumulated norm.
        Iteration order does not affect the result beyond float addition
        order, which is itself fixed by sorting templates first.
        """
        config = config or FallbackConfig()
        dim, seed = config.dim, config.seed
        accumulators: dict[str, array] = {}
        for template_text in sorted(model.templates()):
            try:
                template = Template.from_text(template_text)
            except ValueError:
                continue
            surface = (
                template.tokens[: template.slot] + template.tokens[template.slot + 1 :]
            )
            tvec = embed_tokens(surface, dim, seed)
            for path, theta in model.predicates_for(template_text).items():
                path_str = str(path)
                acc = accumulators.get(path_str)
                if acc is None:
                    acc = accumulators[path_str] = array("f", bytes(4 * dim))
                accumulate(acc, tvec, theta)

        path_strs = sorted(accumulators)
        matrix = array("f")
        for path_str in path_strs:
            acc = accumulators[path_str]
            acc_norm = math.sqrt(math.fsum(v * v for v in acc))
            name_vec = embed_tokens(_name_tokens(path_str), dim, seed)
            accumulate(acc, name_vec, _NAME_WEIGHT * (acc_norm or 1.0))
            inv = 1.0 / (math.sqrt(math.fsum(v * v for v in acc)) or 1.0)
            matrix.extend(v * inv for v in acc)
        return cls(config, path_strs, matrix)

    # -- Retrieval ----------------------------------------------------------

    def top_paths(
        self, query: SparseVector, k: int | None = None
    ) -> list[tuple[str, float]]:
        """The ``k`` highest-cosine paths for a unit query vector.

        Returns ``(path_str, score)`` pairs sorted by descending score with
        lexicographic tie-breaks.  Every path row is scored; nothing is
        memoized here.
        """
        k = self.config.top_k if k is None else k
        if k <= 0:
            return []
        indices, weights = query
        if len(indices) > 1:
            gather = itemgetter(*indices)
        else:  # itemgetter of fewer than two items does not return a tuple
            gather = lambda row: [row[i] for i in indices]  # noqa: E731
        scores = [math.fsum(map(mul, weights, gather(row))) for row in self._rows]
        ranked = sorted(zip(scores, self.path_strs), key=lambda pair: (-pair[0], pair[1]))
        return [(path_str, score) for score, path_str in ranked[:k]]

    def _gate(self, query: SparseVector) -> tuple[str, list[tuple[str, float]]]:
        """The gate's outcome for ``query`` and the paths it lets through.

        The gate requires the best path to clear the absolute cosine
        threshold AND to lead the runner-up by the configured margin (it
        always looks at the two best rows, whatever ``top_k`` is); when it
        passes, the ``top_k`` best paths above the threshold are kept in
        rank order (the caller walks them until one yields KB values).
        """
        config = self.config
        ranked = self.top_paths(query, max(config.top_k, 2))
        if not ranked or ranked[0][1] < config.threshold:
            return "abstained_threshold", []
        if len(ranked) > 1 and ranked[0][1] - ranked[1][1] < config.margin:
            return "abstained_margin", []
        return "passed", [(p, s) for p, s in ranked[: config.top_k] if s >= config.threshold]

    def gated_vector_paths(self, query: SparseVector) -> list[tuple[str, float]]:
        """The confidence gate over an embedded query, counted; empty means
        *abstain*.  No memo: every call ranks through :meth:`top_paths`."""
        outcome, gated = self._gate(query)
        with self._lock:
            self._outcomes[outcome] += 1
        return gated

    def gated_paths(
        self, remainder: Sequence[str]
    ) -> tuple[tuple[str, float, PredicatePath], ...]:
        """The gated ``(path_str, score, path)`` triples for a de-slotted
        remainder, in rank order; empty means *abstain*.

        Reads the remainder memo (see the module docstring); a miss embeds
        the remainder and gates it as :meth:`gated_vector_paths` does.
        Every call counts its outcome, hits included.
        """
        key = tuple(remainder)  # the same object when handed a tuple
        with self._lock:
            entry = self._memo.get(key)
            if entry is None:
                self._memo_misses += 1
                config = self.config
                outcome, gated = self._gate(embed_tokens(key, config.dim, config.seed))
                by_str = self._by_str
                entry = outcome, tuple((p, s, by_str[p]) for p, s in gated)
                memo = self._memo
                if len(memo) >= _REMAINDER_MEMO_SIZE:
                    del memo[next(iter(memo))]  # the oldest entry
                memo[key] = entry
            else:
                self._memo_hits += 1
            self._outcomes[entry[0]] += 1
        return entry[1]

    def path_for(self, path_str: str) -> PredicatePath:
        return self._by_str[path_str]

    def describe(self) -> dict[str, object]:
        """The gate's settings, this process's outcome counters and the
        remainder memo's counters (``cache_info()["fallback"]``, hence
        ``/stats``)."""
        with self._lock:
            outcomes = dict(self._outcomes)
            hits, misses, entries = self._memo_hits, self._memo_misses, len(self._memo)
        return {
            "paths": len(self.path_strs),
            "dim": self.config.dim,
            "threshold": self.config.threshold,
            "margin": self.config.margin,
            "queries": sum(outcomes.values()),
            **outcomes,
            "memo_hits": hits,
            "memo_misses": misses,
            "memo_entries": entries,
        }
