"""Whitespace/punctuation tokenizer.

All layers of the pipeline (templates, pattern statistics, NER spans) agree
on this tokenization, so a token index computed anywhere is valid everywhere.
Questions are lowercased: the paper's templates are case-insensitive surface
forms.

Non-ASCII input is *folded*, not dropped: NFKC normalization rewrites
compatibility forms (fullwidth letters, ligatures), typographic punctuation
maps onto its ASCII equivalent (curly quotes -> ``'``, en/em-dash -> ``-``),
and combining diacritics are stripped ("São Paulo" -> "sao paulo",
"Zoë" -> "zoe").  Folding keeps the token class itself ASCII while making a
question and a gazetteer name that differ only typographically tokenize
identically; scripts with no ASCII fold (CJK, Cyrillic) still produce no
tokens, which downstream surfaces as an abstention rather than a wrong
answer.
"""

from __future__ import annotations

import re
import unicodedata

# Words and numbers (hyphens allowed inside); possessives split into their
# own token ("obama's" -> "obama", "'s"); sentence punctuation dropped except
# the question mark, which is part of template identity.
_TOKEN_RE = re.compile(r"[a-z0-9][a-z0-9\-]*|'s|\$[a-z_]+|[?$]")

# Typographic punctuation as NFKC leaves it, mapped to the ASCII form the
# token class understands.  (Fullwidth ？, the non-breaking hyphen and the
# ellipsis are already rewritten by NFKC, so they need no entry.)
_PUNCT_FOLD = str.maketrans(
    {
        "’": "'",  # right single curly quote (apostrophe)
        "‘": "'",  # left single curly quote
        "‚": "'",  # single low quote
        "ʼ": "'",  # modifier letter apostrophe
        "“": '"',  # left double curly quote
        "”": '"',  # right double curly quote
        "„": '"',  # double low quote
        "‐": "-",  # hyphen
        "‒": "-",  # figure dash
        "–": "-",  # en dash
        "—": "-",  # em dash
        "−": "-",  # minus sign
    }
)


def _fold(text: str) -> str:
    """Fold ``text`` toward ASCII: NFKC, punctuation map, strip diacritics.

    The map runs *after* NFKC because NFKC rewrites some code points into
    its keys (superscript minus -> U+2212, presentation-form dashes ->
    U+2014, U+0149 -> U+02BC + n): mapped first, they would survive one
    fold and be mapped by the next, and ``_fold`` would not be idempotent.
    """
    if text.isascii():
        return text
    text = unicodedata.normalize("NFKC", text).translate(_PUNCT_FOLD)
    decomposed = unicodedata.normalize("NFD", text)
    return "".join(ch for ch in decomposed if not unicodedata.combining(ch))


def tokenize(text: str) -> list[str]:
    """Lowercase and split ``text`` into tokens.

    >>> tokenize("When was Barack Obama's wife born?")
    ['when', 'was', 'barack', 'obama', "'s", 'wife', 'born', '?']
    """
    return _TOKEN_RE.findall(_fold(text).lower())


def detokenize(tokens: list[str]) -> str:
    """Best-effort inverse of :func:`tokenize` for display purposes."""
    text = " ".join(tokens)
    return text.replace(" 's", "'s").replace(" ?", "?")
