"""Deterministic hashed bag embeddings (the semantic fallback lane's vectors).

The fallback lane (``repro.core.fallback``) needs sentence vectors that are

* dependency-free — no model weights, no numpy requirement,
* deterministic across *processes* — an index built by one run must score
  the same text identically in the next (gold-checked benchmarks, answers
  compared across runs), so Python's builtin ``hash``, salted per process,
  is banned here; features hash through BLAKE2b,
* cheap — one pass over the tokens, a few dozen feature updates.

The construction is classic feature hashing (Weinberger et al.): each
feature string maps to a (bucket, sign) pair drawn from a keyed BLAKE2b
digest, weights accumulate per bucket, and the result is L2-normalized so
dot products are cosines.  Features are token unigrams, token bigrams (word
order), and boundary-padded character trigrams per token (sub-word
robustness: "founded"/"founder" share most trigrams).  The sign trick keeps
hash collisions unbiased in expectation.

Vectors are *sparse*: a question remainder touches a few dozen of the
``dim`` buckets (28.7 of 256 on average over the held-out benchmark stream),
so :func:`embed_tokens` accumulates and normalizes only those and returns
them as a :class:`SparseVector` — the index scores against exactly the
buckets listed and never walks the zeros.  A feature's digest depends only
on ``(feature, dim, seed)`` and the feature vocabulary of real traffic is
small (1 566 distinct features over that whole stream), so the digest sits
behind a bounded memo and BLAKE2b runs once per distinct feature.
"""

from __future__ import annotations

import math
from array import array
from functools import lru_cache
from hashlib import blake2b
from typing import Iterable, NamedTuple, Sequence

DEFAULT_DIM = 256

# Relative weights of the three feature families.  Unigrams dominate
# (paraphrases mostly preserve content words), bigrams add word order, char
# trigrams add sub-word overlap for inflection/typo robustness.
_UNIGRAM_WEIGHT = 1.0
_BIGRAM_WEIGHT = 0.6
_TRIGRAM_WEIGHT = 0.3

# Tokens that carry no semantic signal for predicate matching; dropping them
# keeps "regarding X, any thoughts?"-style wrappers from diluting the cosine.
STOPWORDS = frozenset(
    "a an the of in on at to for by is are was were be been do does did "
    "'s ? $ and or".split()
)


class SparseVector(NamedTuple):
    """The non-zero buckets of a hashed embedding, indices ascending."""

    indices: tuple[int, ...]
    weights: tuple[float, ...]


# Bounds the memo against adversarial vocabularies (typo'd unigrams and
# bigrams are unbounded in principle); real feature sets are ~1000x smaller.
@lru_cache(maxsize=1 << 16)
def _bucket(feature: str, dim: int, seed: int) -> tuple[int, float]:
    """Map ``feature`` to a (bucket index, ±1 sign) pair, keyed by ``seed``."""
    digest = blake2b(
        feature.encode("utf-8"), digest_size=8, key=str(seed).encode("ascii")
    ).digest()
    value = int.from_bytes(digest, "big")
    return (value >> 1) % dim, 1.0 if value & 1 else -1.0


def _features(tokens: Sequence[str]) -> Iterable[tuple[str, float]]:
    """Yield (feature string, weight) pairs for one token sequence."""
    content = [t for t in tokens if t not in STOPWORDS]
    if not content:
        content = list(tokens)
    for token in content:
        yield "u:" + token, _UNIGRAM_WEIGHT
        padded = "^" + token + "$"
        if len(padded) >= 3:
            for i in range(len(padded) - 2):
                yield "c:" + padded[i : i + 3], _TRIGRAM_WEIGHT
    for left, right in zip(content, content[1:]):
        yield "b:" + left + " " + right, _BIGRAM_WEIGHT


def embed_tokens(
    tokens: Sequence[str], dim: int = DEFAULT_DIM, seed: int = 0
) -> SparseVector:
    """Embed a token sequence into a unit-normalized :class:`SparseVector`.

    The zero sequence (no tokens at all) embeds to the empty vector, whose
    cosine against anything is 0.0 — it can never clear the fallback gate.
    """
    # Accumulate in float32 like the index's packed matrix, so a query and
    # the template vectors the index was built from round identically.
    vec = array("f", bytes(4 * dim))
    touched: set[int] = set()
    for feature, weight in _features(tokens):
        index, sign = _bucket(feature, dim, seed)
        vec[index] += sign * weight
        touched.add(index)
    # Opposite-sign collisions can cancel a bucket back to exactly zero.
    indices = sorted(index for index in touched if vec[index])
    if indices:
        inv = 1.0 / math.sqrt(math.fsum(vec[index] ** 2 for index in indices))
        for index in indices:
            vec[index] *= inv
    return SparseVector(tuple(indices), tuple(vec[index] for index in indices))


def accumulate(target: array, source: SparseVector, weight: float) -> None:
    """``target += weight * source`` in place, over ``source``'s non-zeros."""
    for index, value in zip(source.indices, source.weights):
        target[index] += weight * value


def dot(a: SparseVector, b: SparseVector) -> float:
    """Dot product of two sparse vectors; cosine when both are unit-normalized."""
    other = dict(zip(b.indices, b.weights))
    return math.fsum(
        value * other.get(index, 0.0) for index, value in zip(a.indices, a.weights)
    )
