"""Shared utilities: deterministic RNG streams, timing, tables."""

from repro.utils.rng import SeedStream, stable_hash
from repro.utils.timing import Stopwatch
from repro.utils.tables import Table

__all__ = [
    "SeedStream",
    "stable_hash",
    "Stopwatch",
    "Table",
]
