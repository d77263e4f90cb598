"""Synonym-based QA baseline — a DEANNA-like system (Yahya et al. [33]).

The pipeline mirrors the synonym-based category of Sec 1.2: extract
candidate phrases from the question, map each phrase to predicates through a
synonym lexicon (standing in for Wikipedia-derived semantic similarity),
apply type-coherence constraints (DEANNA's ILP does the same job), and
evaluate the best surviving (phrase, predicate) pair against the KB.

Designed-in limits, matching the paper's analysis:

* a phrase must be a *contiguous* token span — ``total number of people``
  maps to ``population``, but nothing contiguous in ``how many people are
  there in X?`` clears the similarity threshold, so exactly the paper's
  failure case a© fails here;
* the joint disambiguation scores every (phrase, predicate) pair, which is
  why this system is an order of magnitude slower than KBQA's template
  lookup (Table 14).
"""

from __future__ import annotations

from repro.core.online import AnswerResult, render_term
from repro.data.compile import CompiledKB
from repro.kb.paths import PredicatePath, follow
from repro.nlp.ner import EntityRecognizer
from repro.nlp.question_class import answer_types_compatible, classify_tokens
from repro.nlp.tokenizer import tokenize

from benchmarks.baselines.lexicon import SynonymLexicon, jaccard

# Curated synonym phrases per intent: (phrase, association score).  Good but
# incomplete — the regime synonym systems actually operate in.
_INTENT_SYNONYMS: dict[str, tuple[tuple[str, float], ...]] = {
    "population": (("population", 1.0), ("number of people", 0.9),
                   ("total number of people", 0.95), ("inhabitants", 0.7),
                   ("residents", 0.7), ("people", 0.3)),
    "area": (("area", 1.0), ("size", 0.7), ("square kilometers", 0.6), ("large", 0.5)),
    "dob": (("date of birth", 1.0), ("birthday", 0.9), ("born", 0.75), ("birth", 0.6)),
    "pob": (("birthplace", 1.0), ("born in", 0.8), ("born", 0.7)),
    "residence": (("live", 0.8), ("lives", 0.8), ("living", 0.7)),
    "height": (("height", 1.0), ("tall", 0.8)),
    "elevation": (("elevation", 1.0), ("high", 0.6), ("height", 0.5), ("tall", 0.4)),
    "spouse": (("spouse", 1.0), ("wife", 0.9), ("husband", 0.9),
               ("married", 0.8), ("marry", 0.7)),
    "profession": (("profession", 1.0), ("occupation", 0.9), ("job", 0.8)),
    "instrument": (("instrument", 1.0),),
    "works_written": (("books", 0.7), ("write", 0.7), ("written", 0.6)),
    "mayor": (("mayor", 1.0),),
    "located_country": (("country", 0.9),),
    "founded": (("founded", 1.0), ("established", 0.9)),
    "capital": (("capital", 1.0), ("capital city", 1.0)),
    "currency": (("currency", 1.0), ("money", 0.6)),
    "language": (("language", 1.0), ("official language", 1.0), ("speak", 0.6)),
    "headquarters": (("headquarter", 1.0), ("headquartered", 0.9), ("head office", 0.8)),
    "ceo": (("ceo", 1.0), ("chief executive", 0.9)),
    "revenue": (("revenue", 1.0),),
    "employees": (("employees", 1.0), ("staff", 0.7)),
    "board_members": (("board members", 1.0), ("board", 0.8)),
    "river_length": (("length", 0.9), ("kilometers long", 0.8), ("long", 0.6)),
    "flows_through": (("flow through", 0.9), ("flow", 0.7), ("cross", 0.6)),
    "author": (("author", 1.0), ("writer", 0.9), ("written by", 0.9), ("wrote", 0.8)),
    "published": (("published", 1.0),),
    "pages": (("pages", 1.0),),
    "genre": (("genre", 1.0), ("kind of music", 0.7), ("style", 0.6)),
    "members": (("members", 1.0), ("lineup", 0.7)),
    "origin": (("formed in", 0.5),),
    "formed": (("formed", 0.9), ("form", 0.6), ("get together", 0.6), ("start", 0.5)),
    "songs": (("songs", 1.0), ("tracks", 0.7)),
    "director": (("director", 1.0), ("directed by", 0.95), ("directed", 0.9)),
    "release": (("released", 1.0), ("premiere", 0.8), ("come out", 0.7)),
    "runtime": (("runtime", 1.0), ("running time", 0.95), ("minutes", 0.5)),
    "students": (("students", 1.0), ("attend", 0.6)),
    "located_city": (("city", 0.5), ("located", 0.5)),
}


def build_default_lexicon(kb: CompiledKB) -> SynonymLexicon:
    """The lexicon a synonym system would derive for this KB's predicates."""
    lexicon = SynonymLexicon()
    for intent, entries in _INTENT_SYNONYMS.items():
        path = kb.path_for_intent.get(intent)
        if path is None:
            continue
        for phrase, score in entries:
            lexicon.add(str(path), phrase, score)
    return lexicon


class SynonymQA:
    """DEANNA-like answering over one compiled KB."""

    def __init__(
        self,
        kb: CompiledKB,
        lexicon: SynonymLexicon | None = None,
        threshold: float = 0.55,
    ) -> None:
        self.kb = kb
        self.lexicon = lexicon if lexicon is not None else build_default_lexicon(kb)
        self.threshold = threshold
        self.ner = EntityRecognizer(kb.gazetteer)
        self._max_phrase = max(self.lexicon.max_phrase_length(), 1)
        # Flat (path, synonym tokens, score) list: the similarity search space.
        self._entries: list[tuple[str, tuple[str, ...], float]] = []
        for path_key in self.lexicon.predicates():
            for phrase in self.lexicon.phrases_for_predicate(path_key):
                score = self.lexicon.predicates_for_phrase(phrase)[path_key]
                self._entries.append((path_key, phrase, score))

    def answer(self, question: str) -> AnswerResult:
        """Phrase extraction -> synonym/similarity scoring -> type filter ->
        KB evaluation, in DEANNA's pipeline order."""
        tokens = tuple(tokenize(question))
        mentions = self.ner.find_mentions(tokens)
        if not mentions:
            return self._refuse(question)
        question_type = classify_tokens(tokens)

        scored: list[tuple[float, str]] = []  # (score, path string)
        for phrase in self._candidate_phrases(tokens, mentions):
            # Direct lexicon hits.
            for path_key, assoc in self.lexicon.predicates_for_phrase(phrase).items():
                scored.append((assoc, path_key))
            # Similarity search over every (predicate, synonym) pair —
            # DEANNA's Wikipedia-similarity step, deliberately exhaustive.
            for path_key, syn_tokens, assoc in self._entries:
                similarity = jaccard(phrase, syn_tokens)
                if similarity > 0.0:
                    scored.append((similarity * assoc, path_key))

        candidates = [
            (score, path_key) for score, path_key in scored if score >= self.threshold
        ]
        # Type coherence: the predicate's answer category must fit the
        # question's expected type (the ILP constraint analogue).
        typed: list[tuple[float, str]] = []
        for score, path_key in candidates:
            path = PredicatePath.parse(path_key)
            if answer_types_compatible(question_type, self.kb.answer_type_for_path(path)):
                typed.append((score, path_key))
        typed.sort(key=lambda sc: (-sc[0], sc[1]))

        for score, path_key in typed:
            path = PredicatePath.parse(path_key)
            for mention in mentions:
                for entity in mention.candidates:
                    values = (
                        self.kb.store.objects(entity, path.predicates[0])
                        if path.is_direct
                        else follow(self.kb.store, entity, path)
                    )
                    if values:
                        rendered = tuple(sorted(render_term(v) for v in values))
                        return AnswerResult(
                            question=question, value=rendered[0], values=rendered,
                            score=score, entity=entity, template=None,
                            predicate=path, found_predicate=True,
                        )
        return self._refuse(question, found_predicate=bool(typed))

    def _candidate_phrases(self, tokens, mentions):
        """Contiguous n-grams outside entity mentions."""
        blocked = set()
        for mention in mentions:
            blocked.update(range(mention.start, mention.end))
        phrases = []
        n = len(tokens)
        for start in range(n):
            for end in range(start + 1, min(start + self._max_phrase, n) + 1):
                if any(i in blocked for i in range(start, end)):
                    continue
                phrases.append(tokens[start:end])
        return phrases

    @staticmethod
    def _refuse(question: str, found_predicate: bool = False) -> AnswerResult:
        return AnswerResult(
            question=question, value=None, values=(), score=0.0, entity=None,
            template=None, predicate=None, found_predicate=found_predicate,
        )
