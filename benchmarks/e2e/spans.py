"""Spans measured from outside the program: proxies, replays, self times.

``OnlineAnswerer`` and ``KBView`` take their collaborators as constructor
arguments, so the traced pass builds a *second* answerer over thin
delegating proxies that open a child span around each call into a layer's
public method.  Module-level functions that cannot be injected (``tokenize``,
``Template.from_question``, ``embed_tokens``) are replayed standalone on the
same inputs.  No attribute of any ``repro`` module is ever reassigned.

A span is ``(id, layer, start, end, parent, request)``; the spans of one
question share a request id.  A layer's self time is its span's duration
minus the part its direct child spans cover.
"""

from __future__ import annotations

import csv
import itertools
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterator, Sequence

from repro.core.kbview import KBView
from repro.core.online import OnlineAnswerer
from repro.core.template import Template
from repro.nlp.embed import embed_tokens
from repro.nlp.tokenizer import tokenize

Span = tuple[int, str, float, float, int, int]


class Tracer:
    """In-memory span recorder; thread-safe (one open-span stack per thread)."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._span_ids = itertools.count()
        self._request_ids = itertools.count()
        self._local = threading.local()
        self.gate_passes = 0  # fallback gate queries that returned any path

    def _stack(self) -> list[int]:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = stack = []
            self._local.request = -1
            return stack

    def wrap(self, layer: str, fn: Callable) -> Callable:
        """``fn`` with a span of ``layer`` around every call."""
        spans, next_id, local, clock = self.spans, self._span_ids.__next__, self._local, time.perf_counter
        stack_of = self._stack

        def traced(*args, **kwargs):
            stack = stack_of()
            parent = stack[-1] if stack else -1
            span_id = next_id()
            stack.append(span_id)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((span_id, layer, start, end, parent, local.request))

        return traced

    @contextmanager
    def span(self, layer: str) -> Iterator[int]:
        """Context-manager form for spans the benchmark opens itself."""
        stack = self._stack()
        parent = stack[-1] if stack else -1
        span_id = next(self._span_ids)
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield span_id
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((span_id, layer, start, end, parent, self._local.request))

    def marked(self, questions: Sequence[str]) -> "_MarkedQuestions":
        """``questions`` as a sequence that starts a new request id each time
        the consumer advances to the next question — ``answer_many`` iterates
        on the evaluating thread, so every span it causes lands on the right
        request without the program knowing it is being traced."""
        return _MarkedQuestions(self, questions)

    def write_csv(self, path: Path) -> None:
        with open(path, "w", newline="", encoding="ascii") as handle:
            writer = csv.writer(handle)
            writer.writerow(("id", "layer", "start_s", "end_s", "parent", "request"))
            writer.writerows(self.spans)


class _MarkedQuestions(Sequence):
    def __init__(self, tracer: Tracer, questions: Sequence[str]) -> None:
        self._tracer = tracer
        self._questions = questions

    def __len__(self) -> int:
        return len(self._questions)

    def __getitem__(self, index):
        return self._questions[index]

    def __iter__(self) -> Iterator[str]:
        tracer = self._tracer
        tracer._stack()  # make sure this thread's locals exist
        local, next_request = tracer._local, tracer._request_ids.__next__
        try:
            for question in self._questions:
                local.request = next_request()
                yield question
        finally:
            local.request = -1


class _Proxy:
    """Delegates everything; selected methods are shadowed by traced closures."""

    def __init__(self, target: object) -> None:
        self._target = target

    def __getattr__(self, name: str):
        return getattr(self._target, name)


def proxy(target: object, tracer: Tracer, layer: str, methods: Sequence[str]) -> _Proxy:
    wrapped = _Proxy(target)
    for method in methods:
        setattr(wrapped, method, tracer.wrap(layer, getattr(target, method)))
    return wrapped


def traced_answerer(
    answerer: OnlineAnswerer, tracer: Tracer, store_layer: str = "kb.store"
) -> OnlineAnswerer:
    """A second answerer over span-recording proxies of ``answerer``'s parts.

    Same model, KB, NER and conceptualizer objects underneath, same cache
    sizes, cold caches.  ``store_layer`` names the backend's layer
    (``kb.store`` in memory, ``kb.disk`` on SQLite).
    """
    view = answerer.kbview
    store = proxy(view.store, tracer, store_layer, ("objects",))
    expanded = view.expanded
    if expanded is not None:
        expanded = proxy(expanded, tracer, "kb.expansion", ("objects",))
    kbview = proxy(KBView(store, expanded), tracer, "core.kbview", ("values",))
    fallback = answerer.fallback_index
    if fallback is not None:
        fallback = proxy(fallback, tracer, "core.fallback", ("gated_paths",))
        query_gate = fallback.gated_paths

        def gated_paths(qvec):
            ranked = query_gate(qvec)
            if ranked:
                tracer.gate_passes += 1
            return ranked

        fallback.gated_paths = gated_paths
    return OnlineAnswerer(
        kbview,
        proxy(answerer.ner, tracer, "nlp.ner", ("find_mentions",)),
        proxy(answerer.conceptualizer, tracer, "taxonomy.conceptualizer", ("conceptualize",)),
        proxy(answerer.model, tracer, "core.model", ("predicates_for",)),
        max_concepts=answerer.max_concepts,
        answer_cache_size=answerer.answer_cache_size,
        lookup_cache_size=answerer.lookup_cache_size,
        fallback=fallback,
    )


class TracedTarget:
    """The ``AnswerTarget`` handed to ``AsyncAnswerer`` in a traced pass.

    Each ``answer_many`` is a ``core.online`` root span on the executor
    thread; ``served`` remembers when each question was last evaluated so the
    benchmark can split a request's latency into evaluation and hop.
    """

    def __init__(self, answerer: OnlineAnswerer, tracer: Tracer) -> None:
        self.answerer = answerer
        self.tracer = tracer
        self.fallback_enabled = answerer.fallback_enabled
        self.served: dict[str, tuple[float, float]] = {}

    def answer_many(self, questions: Sequence[str]):
        start = time.perf_counter()
        with self.tracer.span("core.online"):
            results = self.answerer.answer_many(self.tracer.marked(questions))
        window = (start, time.perf_counter())
        for question in questions:
            self.served[question] = window
        return results

    def hop_s(self, question: str, asked: float, answered: float) -> float:
        """Request latency minus the part its evaluation covers: admission,
        queueing, batching and the thread hand-off both ways."""
        start, end = self.served.get(question, (asked, asked))
        return (answered - asked) - max(0.0, min(answered, end) - max(asked, start))


# -- Analysis ------------------------------------------------------------------


class LayerTimes:
    """Per-layer call counts and self/total seconds of a span list."""

    def __init__(self, spans: Sequence[Span]) -> None:
        covered: dict[int, float] = defaultdict(float)
        for _id, _layer, start, end, parent, _request in spans:
            covered[parent] += end - start
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        for span_id, layer, start, end, _parent, _request in spans:
            self.calls[layer] += 1
            self.total_s[layer] += end - start
            self.self_s[layer] += (end - start) - covered.get(span_id, 0.0)

    def self_us_per(self, layer: str, count: int) -> float:
        return self.self_s.get(layer, 0.0) * 1e6 / max(count, 1)

    def self_us_per_call(self, layer: str) -> float:
        return self.self_us_per(layer, self.calls.get(layer, 0))


def fallback_probes(spans: Sequence[Span]) -> int:
    """``kbview.values`` calls made by the fallback lane: within one request,
    every kbview span that starts after the request's first gate query."""
    gate_start: dict[int, float] = {}
    for _id, layer, start, _end, _parent, request in spans:
        if layer == "core.fallback" and request >= 0:
            gate_start[request] = min(start, gate_start.get(request, start))
    return sum(
        1
        for _id, layer, start, _end, _parent, request in spans
        if layer == "core.kbview" and request in gate_start and start > gate_start[request]
    )


# -- Standalone replays ----------------------------------------------------------


class _CountingStr(str):
    """A question that counts how often it is tokenized: ``tokenize`` calls
    exactly one method on the string it is given — ``lower`` on an ASCII
    question, ``translate`` (the punctuation fold) on any other."""

    calls = 0

    def lower(self) -> str:
        _CountingStr.calls += 1
        return str.lower(self)

    def translate(self, table) -> str:
        _CountingStr.calls += 1
        return str.translate(self, table)


def tokenize_calls_per_answer(answer_many: Callable, questions: Sequence[str]) -> float:
    """How many times one answer tokenizes its question (observed, not assumed)."""
    _CountingStr.calls = 0
    answer_many([_CountingStr(q) for q in questions])
    return _CountingStr.calls / len(questions)


def timed_us_per_item(fn: Callable[[object], object], items: Sequence) -> float:
    start = time.perf_counter()
    for item in items:
        fn(item)
    return (time.perf_counter() - start) * 1e6 / max(len(items), 1)


def replay_answer_path(answerer: OnlineAnswerer, questions: Sequence[str]) -> dict[str, float]:
    """Time the module-level functions of the answer path on ``questions``.

    Inputs are derived the way ``OnlineAnswerer`` derives them (tokens ->
    mentions -> top concepts), untimed; only the calls to ``tokenize``,
    ``Template.from_question(...).text`` and ``embed_tokens`` are on the clock.
    Returns microseconds per ``tokenize`` call, per evaluated question for
    all of its template constructions, and per ``embed_tokens`` call.
    """
    template_jobs: list[list[tuple]] = []
    remainders: list[tuple] = []
    for question in questions:
        tokens = tuple(tokenize(question))
        templates: list[tuple] = []
        for mention in answerer.ner.find_mentions(tokens):
            context = tokens[: mention.start] + tokens[mention.end :]
            if mention.candidates:
                remainders.append(context)
            for entity in mention.candidates:
                concepts = answerer.conceptualizer.conceptualize(entity, context)
                ranked = sorted(concepts.items(), key=lambda kv: (-kv[1], kv[0]))
                for concept, _prob in ranked[: answerer.max_concepts]:
                    templates.append((tokens, (mention.start, mention.end), concept))
        template_jobs.append(templates)

    def build_templates(jobs: list[tuple]) -> None:
        for tokens, span, concept in jobs:
            Template.from_question(tokens, span, concept).text

    replay = {
        "tokenize_us": timed_us_per_item(tokenize, questions),
        "template_us": timed_us_per_item(build_templates, template_jobs),
        "embed_us": 0.0,
    }
    index = answerer.fallback_index
    if index is not None:
        dim, seed = index.config.dim, index.config.seed
        replay["embed_us"] = timed_us_per_item(lambda r: embed_tokens(r, dim, seed), remainders)
    return replay


REPLAY_SAMPLE = 2000  # questions the module-level functions are replayed on
COUNTED_SAMPLE = 256  # questions sent through once more to count tokenize calls


def answer_path_metrics(
    spans: Sequence[Span],
    answerer: OnlineAnswerer,
    asked: Sequence[str],
    answers: int,
    evaluated: int,
) -> tuple[dict[str, float], float]:
    """Per-layer numbers of the core answer path from one traced pass, plus
    the microseconds per answer they attribute in total (coverage numerator).

    ``answerer`` is the untraced answerer the pass shadowed and ``asked`` the
    questions it was sent (the replays run on a prefix of them); ``answers``
    is what the caller got back, ``evaluated`` how many of them went past the
    answer cache.  ``core.online`` spans are the roots the benchmark opened
    around ``answer_many``; its self time is what is left after the proxied
    children and the replayed module-level functions.
    """
    replay = replay_answer_path(answerer, asked[:REPLAY_SAMPLE])
    tokenize_calls = tokenize_calls_per_answer(answerer.answer_many, asked[:COUNTED_SAMPLE])
    times = LayerTimes(spans)
    answers = max(answers, 1)

    def per_answer(layer: str) -> float:
        return times.self_us_per(layer, answers)

    def calls(layer: str) -> float:
        return times.calls.get(layer, 0) / answers

    tokenizer_us = replay["tokenize_us"] * tokenize_calls
    template_us = replay["template_us"] * evaluated / answers
    embed_us = replay["embed_us"] * calls("core.fallback")
    # clipped: a replay that overshoots its parent shows up as coverage > 1
    online_us = max(per_answer("core.online") - tokenizer_us - template_us - embed_us, 0.0)
    proxied_us = sum(per_answer(layer) for layer in times.self_s if layer != "core.online")
    metrics = {
        "nlp.tokenizer.us_per_answer": tokenizer_us,
        "nlp.tokenizer.calls_per_answer": tokenize_calls,
        "nlp.ner.us_per_answer": per_answer("nlp.ner"),
        "nlp.ner.calls_per_answer": calls("nlp.ner"),
        "taxonomy.conceptualizer.us_per_answer": per_answer("taxonomy.conceptualizer"),
        "taxonomy.conceptualizer.calls_per_answer": calls("taxonomy.conceptualizer"),
        "core.template.us_per_answer": template_us,
        "core.model.us_per_answer": per_answer("core.model"),
        "core.kbview.us_per_answer": per_answer("core.kbview"),
        "core.kbview.lookups_per_answer": calls("core.kbview"),
        "kb.store.us_per_lookup": times.self_us_per_call("kb.store"),
        "kb.expansion.us_per_lookup": times.self_us_per_call("kb.expansion"),
        "kb.disk.us_per_lookup": times.self_us_per_call("kb.disk"),
        "kb.disk.lookups_per_answer": calls("kb.disk"),
        "nlp.embed.us_per_answer": embed_us,
        "core.fallback.us_per_answer": per_answer("core.fallback"),
        "core.fallback.kb_probes_per_answer": fallback_probes(spans) / answers,
        "core.online.self_us_per_answer": online_us,
    }
    return metrics, proxied_us + tokenizer_us + template_us + embed_us + online_us
