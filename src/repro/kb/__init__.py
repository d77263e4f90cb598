"""RDF knowledge-base substrate.

The paper runs on Trinity.RDF over billion-triple graphs; this package
provides what KBQA asks of it at library scale: dictionary-encoded triple
stores (in memory, or one SQLite file) with SPO and OSP orderings for the
``V(e, p)`` probe of Eq 6 and the ``predicates_between`` probe of Eq 24,
predicate paths (the paper's *expanded predicates*), and a scan-based
multi-source BFS that mirrors the memory-efficient generation of Sec 6.2
with its checksummed on-disk artifact.  The expansion describes the KB it
was built from; live edits are served by walking the KB (Sec 6.1).  There is
no query language: KBQA makes point lookups and one scan, nothing else.
"""

from repro.kb.backend import BACKEND_KINDS, KBBackend, KBChange, resolve_backend
from repro.kb.dictionary import Dictionary
from repro.kb.triple import Triple, is_literal, make_literal, literal_value
from repro.kb.store import TripleStore
from repro.kb.disk import DiskTripleStore
from repro.kb.paths import PredicatePath
from repro.kb.expansion import ExpandedStore, expand_predicates

__all__ = [
    "BACKEND_KINDS",
    "Dictionary",
    "DiskTripleStore",
    "KBBackend",
    "KBChange",
    "Triple",
    "TripleStore",
    "PredicatePath",
    "ExpandedStore",
    "expand_predicates",
    "is_literal",
    "make_literal",
    "literal_value",
    "resolve_backend",
]
