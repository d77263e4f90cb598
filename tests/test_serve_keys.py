"""One tokenization per served miss: the key is computed once and travels.

The queue key is the normalized question — its tokens joined by single
spaces, which is also the answer cache's key.  ``AsyncAnswerer`` computes
it at submission and hands it on: to the queue entry, to the target's
``answer_many(questions, keys)``, and from the HTTP lane's parse to the
miss task.  The target rebuilds the tokens as ``key.split()``, which is
exact because no token contains whitespace (a property checked here over
arbitrary unicode text).

A spy in place of ``tokenize`` in every ``repro`` module counts the calls
per question: each miss, asked through ``AsyncAnswerer.answer``,
``AsyncAnswerer.answer_many``, ``POST /answer`` or ``POST /batch``, is
tokenized exactly once.
"""

from __future__ import annotations

import asyncio
import json
import sys
import urllib.request
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.system import KBQA
from repro.data.compile import compile_freebase_like
from repro.nlp.tokenizer import tokenize
from repro.serve import AsyncAnswerer, BackgroundServer, ServeConfig, normalized_key
from repro.serve.app import result_payload

TIMEOUT_S = 30.0


@pytest.fixture(scope="module")
def keyed_system(suite):
    """A trained system over a private KB copy; each test clears its caches."""
    system = KBQA.train(
        compile_freebase_like(suite.world), suite.corpus, suite.conceptualizer
    )
    yield system
    system.close()


@pytest.fixture
def misses(suite, keyed_system):
    """(questions, expected results): distinct questions, none of them in
    the answer cache when the test starts."""
    questions = [q.question for q in suite.benchmark("qald3").bfqs()][:6]
    assert len({normalized_key(q) for q in questions}) == len(questions)
    expected = [keyed_system.answer(q) for q in questions]
    assert any(result.answered for result in expected)
    keyed_system.answerer.clear_caches()
    return questions, expected


@pytest.fixture
def tokenized(monkeypatch) -> Counter:
    """``tokenize`` calls by argument, wherever a ``repro`` module calls it."""
    calls: Counter = Counter()

    def spy(text):
        calls[text] += 1
        return tokenize(text)

    for name, module in list(sys.modules.items()):
        if name.startswith("repro.") and getattr(module, "tokenize", None) is tokenize:
            monkeypatch.setattr(module, "tokenize", spy)
    return calls


def _evaluations(system: KBQA) -> int:
    return system.answerer.cache_info()["evaluations"]


def _post(url: str, payload: dict) -> dict:
    request = urllib.request.Request(url, data=json.dumps(payload).encode("utf-8"))
    with urllib.request.urlopen(request, timeout=TIMEOUT_S) as response:
        assert response.status == 200
        return json.loads(response.read().decode("utf-8"))


class TestOneTokenizationPerMiss:
    def test_answer(self, keyed_system, misses, tokenized):
        questions, expected = misses
        before = _evaluations(keyed_system)

        async def main():
            async with AsyncAnswerer(keyed_system, ServeConfig(max_batch=4)) as answerer:
                return await asyncio.gather(*(answerer.answer(q) for q in questions))

        assert asyncio.run(main()) == expected
        assert _evaluations(keyed_system) - before == len(questions)  # all misses
        assert {q: tokenized[q] for q in questions} == dict.fromkeys(questions, 1)

    def test_answer_many(self, keyed_system, misses, tokenized):
        questions, expected = misses
        before = _evaluations(keyed_system)

        async def main():
            async with AsyncAnswerer(keyed_system, ServeConfig(max_batch=4)) as answerer:
                return await answerer.answer_many(questions)

        assert asyncio.run(main()) == expected
        assert _evaluations(keyed_system) - before == len(questions)
        assert {q: tokenized[q] for q in questions} == dict.fromkeys(questions, 1)

    def test_http_answer(self, keyed_system, misses, tokenized):
        """The lane parses the body and computes the key; the miss task
        reuses both."""
        questions, expected = misses
        before = _evaluations(keyed_system)
        with BackgroundServer(keyed_system, ServeConfig()) as background:
            payloads = [_post(background.url + "/answer", {"question": q}) for q in questions]
        assert payloads == [result_payload(r) for r in expected]
        assert _evaluations(keyed_system) - before == len(questions)
        assert {q: tokenized[q] for q in questions} == dict.fromkeys(questions, 1)

    def test_http_batch(self, keyed_system, misses, tokenized):
        questions, expected = misses
        before = _evaluations(keyed_system)
        with BackgroundServer(keyed_system, ServeConfig(max_batch=4)) as background:
            payload = _post(background.url + "/batch", {"questions": questions})
        assert payload == {"results": [result_payload(r) for r in expected]}
        assert _evaluations(keyed_system) - before == len(questions)
        assert {q: tokenized[q] for q in questions} == dict.fromkeys(questions, 1)


# any code point, surrogates and every kind of whitespace included, mixed
# with the characters tokens are made of
TEXT = st.text(
    st.one_of(
        st.characters(exclude_categories=()),
        st.sampled_from("abz09 ?'$-_\t\n\r\x0b\x0c\x1c\x85\xa0\u2009\u3000\ufeff"),
    ),
    max_size=48,
)


@settings(max_examples=400, deadline=None)
@given(text=TEXT)
def test_the_key_splits_back_into_the_tokens(text):
    assert tuple(normalized_key(text).split()) == tuple(tokenize(text))
