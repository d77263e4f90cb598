"""Tests for the semantic fallback lane (embed + FallbackIndex + wiring).

The lane's contract, in test form:

* exact-template answers are byte-identical with the lane on or off (the
  lane runs only behind abstention),
* held-out paraphrases of learned questions are recovered and tagged
  ``fallback=True``,
* the confidence gate turns low-confidence matches back into abstentions
  (and a question with no KB mention can never reach the lane),
* the answer-cache probe (``cached_answer``) never invokes the lane,
* the sparse gather scan equals the dense oracle in ``tests/oracles``, on
  single queries and over the whole held-out stream,
* the gate's outcome counters are conserved and surface in ``cache_info()``,
* the embedding and retrieval memos change no vector, ranking or answer,
  and hold no KB value: a live delete is seen by the next asking,
* the serving layer counts ``fallback_served``/``fallback_abstained``.
"""

from __future__ import annotations

import asyncio
import math
import random
import sys
import threading
from array import array

import pytest
from oracles.fallback_reference import OracleIndex, reference_top_paths

from repro.core.fallback import FallbackConfig, FallbackIndex
from repro.core.online import OnlineAnswerer
from repro.core.system import KBQA, KBQAConfig
from repro.data.compile import compile_freebase_like
from repro.nlp.embed import DEFAULT_DIM, SparseVector, _bucket, _embed, dot, embed_tokens
from repro.nlp.tokenizer import tokenize
from repro.serve.async_answerer import AsyncAnswerer, ServeConfig


def _clone_answerer(kbqa, *, fallback=None, answer_cache_size=256) -> OnlineAnswerer:
    """A fresh answerer over a trained system's components."""
    base = kbqa.answerer
    return OnlineAnswerer(
        base.kbview,
        base.ner,
        base.conceptualizer,
        base.model,
        max_concepts=base.max_concepts,
        answer_cache_size=answer_cache_size,
        fallback=fallback,
    )


@pytest.fixture(scope="module")
def fb_index(kbqa_fb) -> FallbackIndex:
    return FallbackIndex.build(kbqa_fb.model)


@pytest.fixture(scope="module")
def fb_answerer(kbqa_fb, fb_index) -> OnlineAnswerer:
    return _clone_answerer(kbqa_fb, fallback=fb_index)


@pytest.fixture(scope="module")
def training_questions(suite, kbqa_fb) -> list[str]:
    picked = [q for q in suite.corpus.questions() if kbqa_fb.answer(q).answered]
    assert len(picked) >= 4
    return picked[:12]


HELDOUT_REWRITES = (
    lambda q: "regarding " + q.rstrip("?").strip() + ", any thoughts?",
    lambda q: q.rstrip("?") + " or not?",
    lambda q: "quick trivia: " + q,
)


@pytest.fixture(scope="module")
def heldout_stream(suite) -> list[str]:
    """Every gold factoid question through every held-out rewrite."""
    gold = sorted(
        {
            pair.question
            for pair in suite.corpus
            if pair.meta.get("kind") == "factoid" and not pair.meta["wrong"]
        }
    )
    return [rewrite(question) for question in gold for rewrite in HELDOUT_REWRITES]


def _random_query(rng: random.Random, dim: int) -> SparseVector:
    indices = sorted(rng.sample(range(dim), rng.randint(1, 52)))
    weights = [rng.gauss(0.0, 1.0) for _ in indices]
    norm = math.sqrt(math.fsum(w * w for w in weights))
    return SparseVector(tuple(indices), tuple(w / norm for w in weights))


def _synthetic_index(path_strs, rows, **config) -> FallbackIndex:
    """An index over hand-written rows (``path_strs`` in the given order)."""
    matrix = array("f", [cell for row in rows for cell in row])
    return FallbackIndex(FallbackConfig(dim=len(rows[0]), **config), path_strs, matrix)


def _assert_same_ranking(got, want) -> None:
    assert [path_str for path_str, _ in got] == [path_str for path_str, _ in want]
    for (_, got_score), (_, want_score) in zip(got, want, strict=True):
        assert abs(got_score - want_score) < 1e-12


class TestEmbed:
    def test_deterministic_and_normalized(self):
        tokens = tuple(tokenize("when was barack obama born?"))
        a = embed_tokens(tokens)
        b = embed_tokens(tokens)
        assert a == b
        assert dot(a, a) == pytest.approx(1.0, abs=1e-5)

    def test_seed_changes_vectors(self):
        tokens = ("population", "of", "berlin")
        assert embed_tokens(tokens, seed=0) != embed_tokens(tokens, seed=1)

    def test_similar_texts_closer_than_unrelated(self):
        base = embed_tokens(tuple(tokenize("where was $person born?")))
        near = embed_tokens(tuple(tokenize("tell me where $person was born")))
        far = embed_tokens(tuple(tokenize("stock price of the company today")))
        assert dot(base, near) > dot(base, far)

    def test_empty_tokens_embed_to_zero(self):
        vec = embed_tokens(())
        assert vec == SparseVector((), ())
        assert dot(vec, vec) == 0.0

    def test_sparse_form(self):
        vec = embed_tokens(tuple(tokenize("who founded the acme corporation?")), dim=100)
        assert list(vec.indices) == sorted(set(vec.indices))
        assert all(0 <= index < 100 for index in vec.indices)
        assert all(vec.weights)  # cancelled buckets are dropped, not kept as 0.0

    def test_memo_does_not_change_vectors(self):
        tokens = tuple(tokenize("when was barack obama born?"))
        warm = embed_tokens(tokens)
        _bucket.cache_clear()
        _embed.cache_clear()
        assert embed_tokens(tokens) == warm

    def test_memo_equals_uncached_body_on_heldout_remainders(self, kbqa_fb, heldout_stream):
        """The lane's real queries: each de-slotted remainder of the stream
        embeds through the memo exactly as through the uncached body, and a
        list embeds as the tuple with the same tokens."""
        ner = kbqa_fb.answerer.ner
        remainders = set()
        for question in heldout_stream:
            tokens = tuple(tokenize(question))
            for mention in ner.find_mentions(tokens):
                if mention.candidates:
                    remainders.add(tokens[: mention.start] + tokens[mention.end :])
        assert len(remainders) > 10
        for remainder in sorted(remainders):
            memoized = embed_tokens(remainder)
            assert memoized == _embed.__wrapped__(remainder, DEFAULT_DIM, 0)
            assert embed_tokens(list(remainder)) == memoized


class TestFallbackIndex:
    def test_build_covers_model_paths(self, kbqa_fb, fb_index):
        assert len(fb_index) == len(kbqa_fb.model.distinct_paths())
        assert fb_index.path_strs == sorted(fb_index.path_strs)

    def test_build_deterministic(self, kbqa_fb, fb_index):
        again = FallbackIndex.build(kbqa_fb.model)
        assert again.path_strs == fb_index.path_strs
        assert again.matrix == fb_index.matrix

    def test_sparse_scan_equals_dense_oracle(self, fb_index, training_questions):
        rng = random.Random(13)
        queries = [embed_tokens(tuple(tokenize(q))) for q in training_questions]
        for _ in range(40):
            queries.append(_random_query(rng, fb_index.config.dim))
        for query in queries:
            for k in (1, 3, 10, len(fb_index), len(fb_index) + 5):
                _assert_same_ranking(
                    fb_index.top_paths(query, k), reference_top_paths(fb_index, query, k)
                )

    def test_all_zero_query_ranks_lexicographically(self, fb_index):
        ranked = fb_index.top_paths(SparseVector((), ()), 4)
        assert ranked == [(path_str, 0.0) for path_str in fb_index.path_strs[:4]]
        assert ranked == reference_top_paths(fb_index, SparseVector((), ()), 4)
        assert fb_index.gated_paths(SparseVector((), ())) == []

    def test_single_bucket_query(self, fb_index):
        query = SparseVector((17,), (1.0,))
        _assert_same_ranking(
            fb_index.top_paths(query, 5), reference_top_paths(fb_index, query, 5)
        )

    def test_identical_rows_tie_break_lexicographically(self):
        rows = [[0.6, 0.8, 0.0], [0.6, 0.8, 0.0], [1.0, 0.0, 0.0]]
        index = _synthetic_index(["c", "b", "a"], rows)  # stored against the tie-break order
        query = SparseVector((0, 1), (0.6, 0.8))
        ranked = index.top_paths(query, 3)
        assert [path_str for path_str, _ in ranked] == ["b", "c", "a"]
        assert ranked[0][1] == ranked[1][1]
        _assert_same_ranking(ranked, reference_top_paths(index, query, 3))

    def test_dim_not_a_multiple_of_64(self, kbqa_fb, training_questions):
        index = FallbackIndex.build(kbqa_fb.model, FallbackConfig(dim=100))
        assert len(index.matrix) == 100 * len(index)
        for question in training_questions:
            query = embed_tokens(tuple(tokenize(question)), dim=100)
            _assert_same_ranking(
                index.top_paths(query, 10), reference_top_paths(index, query, 10)
            )

    def test_top_paths_ranked_descending(self, fb_index):
        qvec = embed_tokens(("where", "born"))
        ranked = fb_index.top_paths(qvec, 5)
        scores = [score for _path, score in ranked]
        assert scores == sorted(scores, reverse=True)

    def test_gate_abstains_below_threshold(self, kbqa_fb):
        strict = FallbackIndex.build(
            kbqa_fb.model, FallbackConfig(threshold=0.999999)
        )
        qvec = embed_tokens(("where", "was", "someone", "born"))
        assert strict.gated_paths(qvec) == []

    def test_margin_gate_sees_runner_up_at_top_k_1(self):
        """Two near-tied paths abstain on the margin whatever ``top_k`` is
        (``top_k=1`` used to retrieve one row and skip the margin check)."""
        rows = [[1.0, 0.0], [math.cos(0.05), math.sin(0.05)]]
        query = SparseVector((0,), (1.0,))
        for top_k in (1, 5):
            near_tied = _synthetic_index(["a", "b"], rows, top_k=top_k)
            assert near_tied.gated_paths(query) == []
            assert near_tied.describe()["abstained_margin"] == 1
        clear = _synthetic_index(["a", "b"], [[1.0, 0.0], [0.0, 1.0]], top_k=1)
        assert clear.gated_paths(query) == [("a", 1.0)]  # at most top_k returned

    def test_gate_counters_conserved(self, kbqa_fb, training_questions):
        """Every query is counted, memo hits included: each is asked twice
        in a row, a memo miss and then a hit."""
        index = FallbackIndex.build(kbqa_fb.model)
        asked, distinct = 0, set()
        for question in training_questions:
            for rewrite in HELDOUT_REWRITES:
                query = embed_tokens(tuple(tokenize(rewrite(question))))
                distinct.add(query)
                for _ in range(2):
                    index.gated_paths(query)
                    asked += 1
        index.gated_paths(SparseVector((), ()))  # nothing clears the threshold
        info = index.describe()
        assert info["queries"] == asked + 1
        assert info["queries"] == (
            info["passed"] + info["abstained_threshold"] + info["abstained_margin"]
        )
        assert info["passed"] > 0 and info["abstained_threshold"] > 0
        assert (info["paths"], info["dim"]) == (len(index), index.config.dim)
        assert info["memo_misses"] == info["memo_entries"] == len(distinct) + 1
        assert info["memo_hits"] == info["queries"] - info["memo_misses"]

    def test_memoized_result_is_not_shared_with_callers(self, fb_index):
        query = embed_tokens(("where", "born"))
        first = fb_index.top_paths(query, 5)
        want = list(first)
        first.clear()
        second = fb_index.top_paths(query, 5)
        assert second == want
        second.append(("not-a-path", 2.0))
        assert fb_index.top_paths(query, 5) == want

    @pytest.mark.parametrize(
        ("name", "value"),
        [
            ("threshold", math.nan),
            ("threshold", math.inf),
            ("threshold", -math.inf),
            ("margin", math.nan),
            ("margin", math.inf),
            ("dim", 0),
            ("dim", -3),
            ("top_k", 0),
        ],
    )
    def test_config_refuses_settings_that_break_the_gate(self, name, value):
        """A nan threshold passed every gate query while the lane returned
        nothing (``nan`` compares False both ways); ``dim=0`` divided by
        zero inside ``_bucket`` at build time."""
        with pytest.raises(ValueError, match=name):
            FallbackConfig(**{name: value})

    def test_gate_counters_lose_no_update_across_threads(self):
        """Executor threads share one index; a lost increment would break
        the count.  More threads than cores, switch interval shortened."""
        index = _synthetic_index(["a", "b"], [[1.0, 0.0], [0.0, 1.0]])
        query = SparseVector((0,), (1.0,))
        per_thread, n_threads = 2000, 8

        def hammer() -> None:
            for _ in range(per_thread):
                index.gated_paths(query)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=hammer) for _ in range(n_threads)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert index.describe()["passed"] == per_thread * n_threads


class TestFallbackLane:
    def test_exact_templates_byte_identical(self, kbqa_fb, fb_index, training_questions):
        """The acceptance criterion: answered results identical lane on/off."""
        plain = _clone_answerer(kbqa_fb, fallback=None)
        laned = _clone_answerer(kbqa_fb, fallback=fb_index)
        for a, b in zip(
            plain.answer_many(training_questions),
            laned.answer_many(training_questions),
        ):
            assert a == b  # frozen dataclass: full field-wise equality
            assert not b.fallback

    def test_whole_heldout_stream_equals_oracle(self, kbqa_fb, fb_index, heldout_stream):
        """Every gold factoid question through every held-out rewrite: the
        sparse index answers exactly as one scoring through the dense oracle,
        on a cold pass and on a second pass served wholly by its memo, and
        its gate counts every query of both passes as the oracle's does."""
        stream = heldout_stream
        product = FallbackIndex(fb_index.config, fb_index.path_strs, fb_index.matrix)
        oracle = OracleIndex(fb_index.config, fb_index.path_strs, fb_index.matrix)
        oracle_answers = _clone_answerer(kbqa_fb, fallback=oracle).answer_many(stream)
        answerer = _clone_answerer(kbqa_fb, fallback=product)
        cold = answerer.answer_many(stream)
        cold_info = product.describe()
        answerer.clear_caches()  # the answer cache, not the retrieval memo
        warm = answerer.answer_many(stream)
        warm_info = product.describe()
        assert warm_info["memo_misses"] == cold_info["memo_misses"]  # all hits
        assert warm_info["memo_hits"] - cold_info["memo_hits"] == cold_info["queries"]
        gate = ("queries", "passed", "abstained_threshold", "abstained_margin")
        for outcome in gate:
            assert cold_info[outcome] == oracle.describe()[outcome]
            assert warm_info[outcome] == 2 * cold_info[outcome]
        for answers in (cold, warm):
            recovered = 0
            for got, want in zip(answers, oracle_answers, strict=True):
                assert got.values == want.values
                assert got.predicate == want.predicate
                assert got.entity == want.entity
                assert got.fallback == want.fallback
                assert abs(got.score - want.score) < 1e-12
                recovered += got.fallback
            assert recovered > len(stream) // 4

    def test_heldout_paraphrase_recovered(self, kbqa_fb, fb_answerer, training_questions):
        recovered = 0
        for i, question in enumerate(training_questions):
            reference = kbqa_fb.answer(question)
            heldout = HELDOUT_REWRITES[i % len(HELDOUT_REWRITES)](question)
            assert not _clone_answerer(kbqa_fb).answer(heldout).answered, (
                "held-out rewrite unexpectedly matches a learned template"
            )
            result = fb_answerer.answer(heldout)
            if result.answered:
                assert result.fallback
                assert result.found_predicate
                assert result.value == reference.value
                recovered += 1
        assert recovered > 0, "fallback lane recovered nothing"

    def test_no_mention_never_reaches_lane(self, fb_answerer):
        for chitchat in ("hello there, how are you?", "nice weather or not?"):
            result = fb_answerer.answer(chitchat)
            assert not result.answered
            assert not result.fallback

    def test_gate_threshold_respected_end_to_end(self, kbqa_fb, training_questions):
        strict_index = FallbackIndex.build(
            kbqa_fb.model, FallbackConfig(threshold=0.999999)
        )
        strict = _clone_answerer(kbqa_fb, fallback=strict_index)
        heldout = HELDOUT_REWRITES[0](training_questions[0])
        result = strict.answer(heldout)
        assert not result.answered
        assert not result.fallback

    def test_degraded_mode_never_invokes_lane(self, kbqa_fb, fb_index, training_questions):
        """cached_answer is a pure cache probe: an uncached held-out
        question returns None even though the lane could answer it."""
        answerer = _clone_answerer(kbqa_fb, fallback=fb_index, answer_cache_size=64)
        heldout = HELDOUT_REWRITES[0](training_questions[0])
        assert answerer.cached_answer(heldout) is None  # no evaluation
        live = answerer.answer(heldout)
        cached = answerer.cached_answer(heldout)
        if live.answered:
            # once served, the cached copy carries the fallback tag through
            assert cached is not None and cached.fallback

    def test_cache_info_surfaces_gate_counters(self, kbqa_fb, training_questions):
        index = FallbackIndex.build(kbqa_fb.model)
        answerer = _clone_answerer(kbqa_fb, fallback=index)
        assert "fallback" not in _clone_answerer(kbqa_fb).cache_info()
        answerer.answer(HELDOUT_REWRITES[0](training_questions[0]))
        info = answerer.cache_info()["fallback"]
        assert info == index.describe()
        assert info["queries"] >= 1
        assert info["queries"] == (
            info["passed"] + info["abstained_threshold"] + info["abstained_margin"]
        )
        assert info["memo_misses"] == info["memo_entries"] >= 1
        assert info["memo_hits"] == info["queries"] - info["memo_misses"]
        answerer.clear_caches()
        answerer.answer(HELDOUT_REWRITES[0](training_questions[0]))
        again = answerer.cache_info()["fallback"]
        assert again["memo_hits"] > info["memo_hits"]
        assert again["memo_misses"] == info["memo_misses"]
        answerer.replace_model(answerer.model, fallback=index)
        reset = answerer.cache_info()["fallback"]
        assert reset["queries"] == 0
        assert reset["memo_hits"] == reset["memo_misses"] == reset["memo_entries"] == 0

    def test_new_index_brings_an_empty_memo(self, kbqa_fb, training_questions):
        old = FallbackIndex.build(kbqa_fb.model)
        answerer = _clone_answerer(kbqa_fb, fallback=old)
        heldout = HELDOUT_REWRITES[0](training_questions[0])
        before = answerer.answer(heldout)
        assert old.describe()["memo_entries"] >= 1
        new = FallbackIndex.build(kbqa_fb.model)
        answerer.replace_model(answerer.model, fallback=new)
        assert answerer.cache_info()["fallback"]["memo_entries"] == 0
        assert answerer.answer(heldout) == before
        assert new.describe()["memo_misses"] >= 1

    def test_live_delete_is_seen_through_the_memo(self, suite):
        """The memo holds retrieval, never KB values: after ``delete_fact``
        removes ``V(e, p)`` of a fallback answer, the same question (same
        remainder, answer cache dropped by the delete) no longer returns it,
        though its retrieval is a memo hit."""
        kb = compile_freebase_like(suite.world)  # private copy: safe to mutate
        with KBQA.train(
            kb, suite.corpus, suite.conceptualizer, KBQAConfig(fallback=True)
        ) as system:
            recovered = None
            for question in suite.corpus.questions():
                if not system.answer(question).answered:
                    continue
                for rewrite in HELDOUT_REWRITES:
                    result = system.answer(rewrite(question))
                    if result.fallback and result.predicate.is_direct:
                        recovered = result
                        break
                if recovered is not None:
                    break
            assert recovered is not None, "no fallback answer over a direct path"
            (predicate,) = recovered.predicate.predicates
            kbview = system.answerer.kbview
            for obj in sorted(kbview.values(recovered.entity, recovered.predicate)):
                assert system.delete_fact(recovered.entity, predicate, obj)
            index = system.answerer.fallback_index
            hits = index.describe()["memo_hits"]
            after = system.answer(recovered.question)
            assert index.describe()["memo_hits"] > hits
            assert not kbview.values(recovered.entity, recovered.predicate)
            assert (after.entity, after.predicate) != (recovered.entity, recovered.predicate)
            assert recovered.value not in after.values

    def test_clear_caches_keeps_index(self, kbqa_fb, fb_index):
        answerer = _clone_answerer(kbqa_fb, fallback=fb_index)
        answerer.clear_caches()
        assert answerer.fallback_enabled
        answerer.clear_caches(model_changed=True)
        assert answerer.fallback_enabled  # only replace_model swaps it


class TestServingCounters:
    def test_fallback_served_and_abstained_counted(
        self, kbqa_fb, fb_answerer, training_questions
    ):
        heldout = HELDOUT_REWRITES[0](training_questions[0])
        recovered = fb_answerer.answer(heldout)
        assert recovered.answered and recovered.fallback

        async def drive() -> dict:
            config = ServeConfig()
            async with AsyncAnswerer(fb_answerer, config) as answerer:
                await answerer.answer(heldout)
                await answerer.answer("hello there, how are you?")
                await answerer.answer(training_questions[0])
                return answerer.snapshot()

        stats = asyncio.run(drive())
        assert stats["fallback_served"] == 1
        assert stats["fallback_abstained"] == 1

    def test_lane_off_counters_stay_zero(self, kbqa_fb, training_questions):
        plain = _clone_answerer(kbqa_fb)

        async def drive() -> dict:
            config = ServeConfig()
            async with AsyncAnswerer(plain, config) as answerer:
                await answerer.answer(training_questions[0])
                await answerer.answer("hello there, how are you?")
                return answerer.snapshot()

        stats = asyncio.run(drive())
        assert stats["fallback_served"] == 0
        assert stats["fallback_abstained"] == 0
