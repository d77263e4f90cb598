"""NLP substrate: tokenization, gazetteer NER, UIUC question classification.

These replace the off-the-shelf components the paper relies on (Stanford NER,
the Li & Roth question classifier) with deterministic equivalents that
exercise the same interfaces.
"""

from repro.nlp.tokenizer import tokenize, detokenize
from repro.nlp.embed import embed_tokens, dot
from repro.nlp.ner import EntityRecognizer, Mention
from repro.nlp.question_class import AnswerType, classify_question

__all__ = [
    "tokenize",
    "detokenize",
    "embed_tokens",
    "dot",
    "EntityRecognizer",
    "Mention",
    "AnswerType",
    "classify_question",
]
