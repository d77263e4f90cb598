"""Shared utilities: deterministic RNG streams, tables."""

from repro.utils.rng import SeedStream, stable_hash
from repro.utils.tables import Table

__all__ = [
    "SeedStream",
    "stable_hash",
    "Table",
]
