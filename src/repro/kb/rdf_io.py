"""Plain-text serialization for triple stores.

The format is a tab-separated line per triple — an N-Triples-like encoding
that keeps dumps diffable and loadable without a parser dependency.  Tabs and
newlines are escaped so arbitrary literals round-trip.
"""

from __future__ import annotations

from pathlib import Path

from repro.kb.backend import KBBackend
from repro.kb.store import TripleStore

_ESCAPES = {"\\": "\\\\", "\t": "\\t", "\n": "\\n", "\r": "\\r"}


def _escape(term: str) -> str:
    out = term
    for raw, esc in _ESCAPES.items():
        out = out.replace(raw, esc)
    return out


def _unescape(term: str) -> str:
    out: list[str] = []
    i = 0
    while i < len(term):
        ch = term[i]
        if ch == "\\" and i + 1 < len(term):
            nxt = term[i + 1]
            mapped = {"\\": "\\", "t": "\t", "n": "\n", "r": "\r"}.get(nxt)
            if mapped is not None:
                out.append(mapped)
                i += 2
                continue
        out.append(ch)
        i += 1
    return "".join(out)


def save_ntriples(store: KBBackend, path: str | Path) -> int:
    """Write every triple of ``store`` to ``path``; returns the count."""
    count = 0
    with open(path, "w", encoding="utf-8") as handle:
        for triple in store.triples():
            fields = (triple.subject, triple.predicate, triple.object)
            handle.write("\t".join(_escape(f) for f in fields))
            handle.write("\n")
            count += 1
    return count


def load_ntriples(path: str | Path, into: KBBackend | None = None) -> KBBackend:
    """Load a store previously written by :func:`save_ntriples`.

    Loads into a fresh :class:`TripleStore` by default; pass ``into``
    (e.g. a :class:`~repro.kb.disk.DiskTripleStore`) to fill any other
    backend instead.
    """
    store = into if into is not None else TripleStore()
    with open(path, "r", encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            fields = line.split("\t")
            if len(fields) != 3:
                raise ValueError(f"{path}:{line_no}: expected 3 fields, got {len(fields)}")
            store.add(*(_unescape(f) for f in fields))
    return store
