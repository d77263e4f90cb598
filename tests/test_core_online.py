"""Tests for the online answering procedure (Sec 3.3)."""


from repro.kb.paths import PredicatePath

from tests.conftest import ambiguous_names, pick_entity


class TestOnlineAnswering:
    def test_seen_surface_answered(self, suite, kbqa_fb):
        city = pick_entity(suite.world, "city", "population")
        result = kbqa_fb.answer(f"what is the population of {city.name}?")
        assert result.answered
        assert result.value in suite.world.gold_values(city.node, "population")
        assert result.predicate == PredicatePath.single("population")

    def test_noncanonical_surface_answered(self, suite, kbqa_fb):
        """The keyword-defeating paraphrase the paper opens with."""
        city = pick_entity(suite.world, "city", "population")
        result = kbqa_fb.answer(f"how many people are there in {city.name}?")
        assert result.answered
        assert result.value in suite.world.gold_values(city.node, "population")

    def test_unseen_surface_refused(self, suite, kbqa_fb):
        """Held-out paraphrases have no learned template: KBQA refuses
        rather than guessing (the paper's precision mechanism)."""
        city = pick_entity(suite.world, "city", "population")
        result = kbqa_fb.answer(f"what is the head count of {city.name}?")
        assert not result.answered

    def test_unknown_entity_refused(self, kbqa_fb):
        result = kbqa_fb.answer("what is the population of gotham city?")
        assert not result.answered
        assert not result.found_predicate

    def test_spouse_via_expanded_predicate(self, suite, kbqa_fb):
        person = pick_entity(suite.world, "person", "spouse")
        result = kbqa_fb.answer(f"who is {person.name} married to?")
        assert result.answered
        assert result.value in suite.world.gold_values(person.node, "spouse")
        assert not result.predicate.is_direct

    def test_multi_valued_answer_set(self, suite, kbqa_fb):
        band = pick_entity(suite.world, "band", "members")
        result = kbqa_fb.answer(f"who are the members of {band.name}?")
        assert result.answered
        assert set(result.values) == suite.world.gold_values(band.node, "members")

    def test_entity_missing_fact_not_answered(self, suite, kbqa_fb):
        person = next(
            p for p in suite.world.of_type("person") if not p.get_fact("spouse")
        )
        result = kbqa_fb.answer(f"who is the wife of {person.name}?")
        assert not result.answered
        # the template itself is known: a predicate was found (#pro)
        assert result.found_predicate

    def test_nonbfq_refused(self, kbqa_fb):
        result = kbqa_fb.answer("which city has the largest population?")
        assert not result.answered

    def test_chitchat_refused(self, kbqa_fb):
        result = kbqa_fb.answer("what should i eat tonight?")
        assert not result.answered

    def test_result_carries_explanation(self, suite, kbqa_fb):
        city = pick_entity(suite.world, "city", "population")
        result = kbqa_fb.answer(f"what is the population of {city.name}?")
        assert result.entity == city.node
        assert result.template == "what is the population of $city ?"
        assert result.score > 0.0
        assert result.candidates

    def test_ambiguous_name_resolved_by_context(self, suite, kbqa_fb):
        """A company/food name in a company question must resolve to the
        company reading (the paper's apple example)."""
        collision = None
        for name, nodes in ambiguous_names(suite.world).items():
            types = {suite.world.entity(n).etype for n in nodes}
            if "company" in types:
                collision = (name, nodes)
                break
        assert collision
        name, nodes = collision
        company = next(n for n in nodes if suite.world.entity(n).etype == "company")
        result = kbqa_fb.answer(f"who is the ceo of {name}?")
        assert result.answered
        assert result.entity == company
        assert result.value in suite.world.gold_values(company, "ceo")

    def test_dbpedia_system_answers_too(self, suite, kbqa_dbp):
        city = pick_entity(suite.world, "city", "population")
        result = kbqa_dbp.answer(f"what is the population of {city.name}?")
        assert result.answered
        assert result.value in suite.world.gold_values(city.node, "population")

    def test_values_sorted_deterministic(self, suite, kbqa_fb):
        band = pick_entity(suite.world, "band", "members")
        r1 = kbqa_fb.answer(f"who are the members of {band.name}?")
        r2 = kbqa_fb.answer(f"who are the members of {band.name}?")
        assert r1.values == r2.values == tuple(sorted(r1.values))


class TestAnswerManyDedup:
    """answer_many deduplicates repeated normalized keys within a batch:
    one cache miss (one Eq 7 evaluation) per unique key, input order and
    surface question text preserved."""

    def _counting_answerer(self, kbqa_fb, monkeypatch, cache_size=2048):
        from repro.core.online import OnlineAnswerer

        answerer = OnlineAnswerer(
            kbqa_fb.learn_result.kbview,
            kbqa_fb.learn_result.ner,
            kbqa_fb.conceptualizer,
            kbqa_fb.model,
            max_concepts=kbqa_fb.config.max_concepts_online,
            answer_cache_size=cache_size,
        )
        evaluations = []
        real = answerer._answer_tokens

        def counting(question, tokens):
            evaluations.append(question)
            return real(question, tokens)

        monkeypatch.setattr(answerer, "_answer_tokens", counting)
        return answerer, evaluations

    def test_one_evaluation_per_unique_key(self, suite, kbqa_fb, monkeypatch):
        answerer, evaluations = self._counting_answerer(kbqa_fb, monkeypatch)
        city = pick_entity(suite.world, "city", "population")
        q1 = f"what is the population of {city.name}?"
        q2 = f"who is the mayor of {city.name}?"
        results = answerer.answer_many([q1, q1, q2, q1, q2])
        assert len(evaluations) == 2
        assert [r.question for r in results] == [q1, q1, q2, q1, q2]
        assert results[0] == results[1] == results[3]

    def test_dedup_without_answer_cache(self, suite, kbqa_fb, monkeypatch):
        """Even with the answer cache disabled, a batch pays one evaluation
        per unique normalized key (the serving micro-batch property)."""
        answerer, evaluations = self._counting_answerer(
            kbqa_fb, monkeypatch, cache_size=0
        )
        city = pick_entity(suite.world, "city", "population")
        question = f"what is the population of {city.name}?"
        results = answerer.answer_many([question] * 6)
        assert len(evaluations) == 1
        assert len(results) == 6
        assert len(set(results)) == 1

    def test_surface_variants_share_one_evaluation(self, suite, kbqa_fb, monkeypatch):
        """Different surface forms with the same normalized key dedup, and
        each result carries its caller's phrasing."""
        answerer, evaluations = self._counting_answerer(kbqa_fb, monkeypatch)
        city = pick_entity(suite.world, "city", "population")
        plain = f"what is the population of {city.name}?"
        shouty = f"What  IS the population of {city.name}?"
        results = answerer.answer_many([plain, shouty])
        assert len(evaluations) == 1
        assert [r.question for r in results] == [plain, shouty]
        assert results[0].values == results[1].values

    def test_tokenizes_each_question_once(self, suite, kbqa_fb, monkeypatch):
        """The dedup key and the evaluation share one tokenization."""
        from repro.core import online

        calls = []

        def counting(question):
            calls.append(question)
            return real(question)

        real = online.tokenize
        monkeypatch.setattr(online, "tokenize", counting)
        city = pick_entity(suite.world, "city", "population")
        q1 = f"what is the population of {city.name}?"
        q2 = f"who is the mayor of {city.name}?"
        kbqa_fb.answerer.clear_caches()
        kbqa_fb.answer_many([q1, q2, q1])
        assert calls == [q1, q2, q1]

    def test_batch_equivalent_to_per_question_answer(self, suite, kbqa_fb):
        questions = []
        for entity in list(suite.world.of_type("city"))[:3]:
            questions.append(f"what is the population of {entity.name}?")
            questions.append(f"who is the mayor of {entity.name}?")
        batch = questions + questions  # duplicate the whole set
        kbqa_fb.answerer.clear_caches()
        from_batch = kbqa_fb.answer_many(batch)
        kbqa_fb.answerer.clear_caches()
        sequential = [kbqa_fb.answer(q) for q in batch]
        assert from_batch == sequential


class TestAnswerCacheGeneration:
    def test_result_computed_before_clear_is_not_cached_after_it(
        self, suite, kbqa_fb, monkeypatch
    ):
        """A clear_caches() racing an in-flight evaluation must win: the
        pre-clear result may be returned to its caller but must not be
        inserted into the cache, where it would outlive the invalidation."""
        from repro.core.online import OnlineAnswerer

        answerer = OnlineAnswerer(
            kbqa_fb.learn_result.kbview,
            kbqa_fb.learn_result.ner,
            kbqa_fb.conceptualizer,
            kbqa_fb.model,
            max_concepts=kbqa_fb.config.max_concepts_online,
        )
        city = pick_entity(suite.world, "city", "population")
        question = f"what is the population of {city.name}?"

        real = answerer._answer_tokens

        def racing(q, tokens):
            result = real(q, tokens)
            answerer.clear_caches()  # the "writer" invalidates mid-evaluation
            return result

        monkeypatch.setattr(answerer, "_answer_tokens", racing)
        first = answerer.answer(question)
        assert first.answered
        assert answerer.cache_info()["answer_cache_entries"] == 0  # not inserted

        # Without the race, the next answer evaluates fresh and caches.
        monkeypatch.setattr(answerer, "_answer_tokens", real)
        second = answerer.answer(question)
        assert second == first
        assert answerer.cache_info()["answer_cache_entries"] == 1


class TestModelSwap:
    """clear_caches(model_changed=True) / replace_model: a swapped model
    must not keep serving the old θ rankings (train-resume on a live
    answerer)."""

    @staticmethod
    def _fresh(kbqa_fb):
        from repro.core.online import OnlineAnswerer

        return OnlineAnswerer(
            kbqa_fb.learn_result.kbview,
            kbqa_fb.learn_result.ner,
            kbqa_fb.conceptualizer,
            kbqa_fb.model,
            max_concepts=kbqa_fb.config.max_concepts_online,
        )

    @staticmethod
    def _retrained_toward(kbqa_fb, path):
        """A 'retrained' model: every template now argmaxes ``path``."""
        from repro.core.model import TemplateModel

        retrained = TemplateModel()
        for template in kbqa_fb.model.templates():
            retrained.set_distribution(template, {str(path): 1.0}, 1.0)
        return retrained

    def test_retrain_then_answer_serves_new_rankings(self, suite, kbqa_fb):
        city = pick_entity(suite.world, "city", "population", "area")
        pop_q = f"what is the population of {city.name}?"
        area_q = f"what is the area of {city.name}?"

        answerer = self._fresh(kbqa_fb)
        r_pop = answerer.answer(pop_q)
        r_area = answerer.answer(area_q)
        assert r_pop.answered and r_area.answered
        assert r_pop.values != r_area.values

        retrained = self._retrained_toward(kbqa_fb, r_area.predicate)
        answerer.model = retrained

        # A KB-mutation clear is NOT enough: the ranked θ arrays mirror the
        # model and legitimately survive it — so the stale rankings serve.
        answerer.clear_caches()
        assert answerer.answer(pop_q).values == r_pop.values

        # The model-swap clear drops them; the new model's rankings serve.
        answerer.clear_caches(model_changed=True)
        swapped = answerer.answer(pop_q)
        assert swapped.answered
        assert str(swapped.predicate) == str(r_area.predicate)
        assert swapped.values == r_area.values

    def test_replace_model_is_the_one_call_spelling(self, suite, kbqa_fb):
        city = pick_entity(suite.world, "city", "population", "area")
        pop_q = f"what is the population of {city.name}?"
        area_q = f"what is the area of {city.name}?"

        answerer = self._fresh(kbqa_fb)
        r_pop = answerer.answer(pop_q)
        r_area = answerer.answer(area_q)
        assert r_pop.answered and r_area.answered

        answerer.replace_model(self._retrained_toward(kbqa_fb, r_area.predicate))
        assert answerer.answer(pop_q).values == r_area.values
        assert not answerer.fallback_enabled  # no index passed: lane off


class TestRankedArraysBounded:
    def test_novel_questions_leave_no_entry_behind(self, suite, kbqa_fb):
        """The plans hold templates the model knows, nothing else: a
        serving process must not grow by one entry per novel (question,
        concept).  5 000 junk-prefixed questions over real entities — every
        one conceptualized, none matching a learned template."""
        from repro.core.online import OnlineAnswerer

        answerer = OnlineAnswerer(
            kbqa_fb.learn_result.kbview,
            kbqa_fb.learn_result.ner,
            kbqa_fb.conceptualizer,
            kbqa_fb.model,
            max_concepts=kbqa_fb.config.max_concepts_online,
        )
        names = [entity.name for entity in suite.world.of_type("city")]
        novel = [
            f"zq{i} tell me, what is the population of {names[i % len(names)]}?"
            for i in range(5000)
        ]
        assert not any(result.found_predicate for result in answerer.answer_many(novel))
        assert answerer.cache_info()["ranked_templates"] == 0
        assert answerer.cache_info()["plans"] == 0
        known = f"what is the population of {names[0]}?"
        assert answerer.answer(known).answered
        assert 0 < answerer.cache_info()["ranked_templates"] <= len(kbqa_fb.model)
        assert answerer.cache_info()["plans"] == 1
