"""Term dictionary: bidirectional mapping between RDF terms and integer ids.

Dictionary encoding is the standard trick in RDF engines (including
Trinity.RDF, the paper's substrate): triples are stored as integer tuples so
index structures stay compact and comparisons are O(1).  Ids are assigned
densely in insertion order, which additionally makes them usable as array
indexes.
"""

from __future__ import annotations

from typing import Iterable, Iterator


class Dictionary:
    """Interns term strings and hands out dense integer ids.

    >>> d = Dictionary()
    >>> d.encode("barack obama")
    0
    >>> d.decode(0)
    'barack obama'
    """

    def __init__(self) -> None:
        self._term_to_id: dict[str, int] = {}
        self._id_to_term: list[str] = []

    @classmethod
    def from_terms(cls, terms: Iterable[str]) -> "Dictionary":
        """A dictionary assigning id ``i`` to the ``i``-th term, in bulk.

        Raises :class:`ValueError` if a term repeats (two ids, one term).
        """
        dictionary = cls()
        dictionary._id_to_term = list(terms)
        dictionary._term_to_id = {
            term: term_id for term_id, term in enumerate(dictionary._id_to_term)
        }
        if len(dictionary._term_to_id) != len(dictionary._id_to_term):
            raise ValueError("duplicate term in dictionary")
        return dictionary

    def __len__(self) -> int:
        return len(self._id_to_term)

    def __contains__(self, term: str) -> bool:
        return term in self._term_to_id

    def encode(self, term: str) -> int:
        """Return the id for ``term``, assigning a new one if unseen."""
        existing = self._term_to_id.get(term)
        if existing is not None:
            return existing
        new_id = len(self._id_to_term)
        self._term_to_id[term] = new_id
        self._id_to_term.append(term)
        return new_id

    def lookup(self, term: str) -> int | None:
        """Return the id for ``term`` or ``None`` if it was never interned."""
        return self._term_to_id.get(term)

    def decode(self, term_id: int) -> str:
        """Return the term string for ``term_id``.

        Raises :class:`KeyError` for ids that were never assigned, since a
        dangling id always indicates a bug in the caller.
        """
        if 0 <= term_id < len(self._id_to_term):
            return self._id_to_term[term_id]
        raise KeyError(f"unknown term id {term_id}")

    def decode_many(self, term_ids: Iterable[int]) -> list[str]:
        """Decode a batch of ids in one call (hot-path convenience)."""
        table = self._id_to_term
        return [table[term_id] for term_id in term_ids]

    def terms(self) -> Iterator[str]:
        """Iterate all interned terms in id order."""
        return iter(self._id_to_term)

    def terms_from(self, start: int) -> Iterator[str]:
        """Iterate terms with id >= ``start`` in id order.

        Ids are dense and append-only, so derived statistics (e.g. the
        store's resource count) can be kept current by scanning only the
        tail added since the last visit.
        """
        return iter(self._id_to_term[start:])
