"""A closed system, a dropped answerer and a dropped fallback index are freed
by refcount alone.

Each holds caches over the whole model and, through its expansion, tens of
thousands of sets.  A reference cycle through any of them (a memo over a bound
method, an unsubscribe closure over the system's own listeners) keeps all of
it alive until the next full collection, so every later train pays for the
collector walking the previous one.  With the collector off, dropping the
object must leave nothing for ``gc.collect()`` to find.
"""

import gc
import weakref

import pytest

from repro.core.fallback import FallbackIndex
from repro.core.online import OnlineAnswerer
from repro.core.system import KBQA, KBQAConfig
from repro.nlp.embed import embed_tokens

QUESTIONS = (
    "what is the population of mapleton?",
    "tell me, what is the population of mapleton?",  # the fallback lane
    "who is the mayor of mapleton?",
)


@pytest.fixture
def collector_off():
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def test_closed_system_is_freed_by_refcount(suite, collector_off):
    store = suite.freebase.store
    listeners = list(store._listeners)
    system = KBQA.train(
        suite.freebase, suite.corpus, suite.conceptualizer, KBQAConfig(fallback=True)
    )
    assert system.fallback_enabled
    system.answer_many(QUESTIONS)
    system.close()
    system.close()  # closing twice is harmless
    assert store._listeners == listeners
    released = [weakref.ref(system), weakref.ref(system.learn_result.expanded)]
    del system
    assert [ref() for ref in released] == [None, None]
    assert gc.collect() == 0


def test_dropped_answerer_with_warm_plans_is_freed_by_refcount(kbqa_fb, collector_off):
    view = kbqa_fb.learn_result
    answerer = OnlineAnswerer(view.kbview, view.ner, kbqa_fb.conceptualizer, kbqa_fb.model)
    for question in QUESTIONS:
        answerer.answer(question)
    answerer.clear_caches()  # the answer cache goes, the plans stay warm
    for question in QUESTIONS:
        answerer.answer(question)
    info = answerer.cache_info()
    assert info["plans"] >= 2 and info["plan_hits"] >= 2
    released = weakref.ref(answerer)
    del answerer
    assert released() is None
    assert gc.collect() == 0


def test_dropped_fallback_index_is_freed_by_refcount(kbqa_fb, collector_off):
    index = FallbackIndex.build(kbqa_fb.model)
    gc.collect()  # the build's own temporaries, not the index
    assert index.top_paths(embed_tokens(("population",)))
    index.gated_paths(("population",))
    index.gated_paths(("population",))
    assert (index.describe()["memo_misses"], index.describe()["memo_hits"]) == (1, 1)
    released = weakref.ref(index)
    del index
    assert released() is None
    assert gc.collect() == 0
