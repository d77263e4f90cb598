"""Tests for the is-a network and context-aware conceptualization."""

import sys
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles.online_reference import (
    reference_conceptualize,
    reference_log_likelihood,
    reference_prior,
)
from repro.taxonomy.conceptualizer import Conceptualizer
from repro.taxonomy.isa import IsANetwork, is_concept

from tests.conftest import ambiguous_names, best_concept, context_log_likelihood


class TestIsANetwork:
    def test_prior_normalizes(self):
        net = IsANetwork()
        net.add("m.honolulu", "$city", 8.0)
        net.add("m.honolulu", "$location", 2.0)
        prior = net.prior("m.honolulu")
        assert prior["$city"] == pytest.approx(0.8)
        assert sum(prior.values()) == pytest.approx(1.0)

    def test_repeated_add_accumulates(self):
        net = IsANetwork()
        net.add("e", "$c", 1.0)
        net.add("e", "$c", 1.0)
        net.add("e", "$d", 2.0)
        assert net.prior("e")["$c"] == pytest.approx(0.5)

    def test_unknown_entity_prior_empty(self):
        assert IsANetwork().prior("ghost") == {}

    def test_concept_prefix_enforced(self):
        with pytest.raises(ValueError):
            IsANetwork().add("e", "city")

    @pytest.mark.parametrize("concept", ["$new york", "$city\t", "$a\nb"])
    def test_multi_token_concept_refused(self, concept):
        """A template slot is one token: ``$new york`` would be mis-slotted by
        ``Template.from_text`` and split by the model's known contexts."""
        net = IsANetwork()
        with pytest.raises(ValueError, match="whitespace") as refused:
            net.add("e", concept)
        assert repr(concept) in str(refused.value)
        assert not net.has_entity("e") and net.all_concepts() == set()

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(ValueError):
            IsANetwork().add("e", "$c", 0.0)

    def test_instances_inverse_of_concepts(self):
        net = IsANetwork()
        net.add("e1", "$c")
        net.add("e2", "$c")
        assert net.instances("$c") == {"e1", "e2"}
        assert net.concepts("e1") == {"$c"}

    def test_merge(self):
        a, b = IsANetwork(), IsANetwork()
        a.add("e", "$c", 1.0)
        b.add("e", "$c", 1.0)
        b.add("f", "$d", 1.0)
        a.merge(b)
        assert a.concepts("f") == {"$d"}
        assert a.prior("e") == {"$c": 1.0}

    def test_stats(self):
        net = IsANetwork()
        net.add("e", "$c")
        net.add("e", "$d")
        assert net.stats() == {"entities": 1, "concepts": 2, "edges": 2}

    def test_is_concept(self):
        assert is_concept("$city")
        assert not is_concept("city")

    def test_prior_row_keeps_edge_order_and_is_shared_by_equal_priors(self):
        net = IsANetwork()
        net.add("e1", "$b", 1.0)
        net.add("e1", "$a", 3.0)
        net.add("e2", "$b", 2.0)
        net.add("e2", "$a", 6.0)
        net.add("e3", "$a", 3.0)
        net.add("e3", "$b", 1.0)
        row = net.prior_row("e1")
        assert row == (("$b", 0.25), ("$a", 0.75)) == tuple(net.prior("e1").items())
        assert net.prior_row("e2") is row  # equal content, one object
        assert net.prior_row("e3") == (("$a", 0.75), ("$b", 0.25))  # its own order
        assert net.prior_row("ghost") == ()
        net.add("e2", "$a", 2.0)  # a re-weighting gives e2 a new row
        assert net.prior_row("e2") == (("$b", 0.2), ("$a", 0.8))
        assert net.prior_row("e1") == row


class TestConceptualizer:
    @pytest.fixture
    def apple_net(self) -> IsANetwork:
        net = IsANetwork()
        net.add("m.apple_co", "$company", 8.0)
        net.add("m.apple_co", "$organization", 2.0)
        net.add("m.apple_fruit", "$fruit", 9.0)
        net.add("m.apple_fruit", "$food", 1.0)
        return net

    @pytest.fixture
    def contextualized(self, apple_net) -> Conceptualizer:
        c = Conceptualizer(apple_net)
        c.observe_text("$company", "headquarter ceo revenue founded company")
        c.observe_text("$fruit", "eat sweet juice ripe tree")
        return c

    def test_no_context_returns_prior(self, apple_net):
        c = Conceptualizer(apple_net)
        assert c.conceptualize("m.apple_co") == apple_net.prior("m.apple_co")

    def test_paper_apple_example(self, contextualized):
        """'what is the headquarter of apple' -> $company (Sec 1.3)."""
        context = "what is the headquarter of".split()
        assert best_concept(contextualized, "m.apple_co", context) == "$company"
        fruit_posterior = contextualized.conceptualize("m.apple_fruit", context)
        # The fruit node has no $company concept; its best is still $fruit,
        # but a company-context question scores the company node higher.
        company_score = context_log_likelihood(contextualized, "$company", context)
        fruit_score = context_log_likelihood(contextualized, "$fruit", context)
        assert company_score > fruit_score
        assert set(fruit_posterior) == {"$fruit", "$food"}

    def test_context_flips_concept(self, contextualized):
        eat_context = "how do i eat a ripe".split()
        hq_context = "where is the headquarter of".split()
        assert best_concept(contextualized, "m.apple_fruit", eat_context) == "$fruit"
        assert best_concept(contextualized, "m.apple_co", hq_context) == "$company"

    def test_posterior_is_distribution(self, contextualized):
        posterior = contextualized.conceptualize("m.apple_co", ["headquarter"])
        assert sum(posterior.values()) == pytest.approx(1.0)
        assert all(p >= 0 for p in posterior.values())

    def test_unknown_entity(self, contextualized):
        assert contextualized.conceptualize("ghost", ["x"]) == {}
        assert best_concept(contextualized, "ghost") is None

    def test_stopwords_ignored(self, contextualized):
        with_stop = contextualized.conceptualize("m.apple_co", ["the", "of", "headquarter"])
        without = contextualized.conceptualize("m.apple_co", ["headquarter"])
        assert with_stop == pytest.approx(without)

    def test_invalid_smoothing(self, apple_net):
        with pytest.raises(ValueError):
            Conceptualizer(apple_net, smoothing=0.0)

    def test_world_conceptualizer_disambiguates(self, suite):
        """The suite-level conceptualizer must solve the designed ambiguity:
        company-named foods resolve by context."""
        ambiguous = ambiguous_names(suite.world)
        target = None
        for name, nodes in ambiguous.items():
            types = {suite.world.entity(n).etype for n in nodes}
            if "company" in types and "food" in types:
                target = (name, nodes)
                break
        assert target is not None, "world must contain a company/food collision"
        _name, nodes = target
        company = next(n for n in nodes if suite.world.entity(n).etype == "company")
        context = "where is the headquarter of ?".split()
        best = best_concept(suite.conceptualizer, company, context)
        assert best == "$company"


# -- Table coherence: the lazily built priors and log tables --------------------

ENTITIES = ("e0", "e1", "e2")
CONCEPTS = ("$a", "$b", "$c")
WORDS = ("born", "mayor", "river", "the", "of", "ceo")  # two stop-words among them
weights = st.sampled_from((0.5, 1.0, 2.0, 3.0))
edges = st.tuples(st.sampled_from(ENTITIES), st.sampled_from(CONCEPTS), weights)
contexts = st.lists(st.sampled_from(WORDS), max_size=5)
operations = st.lists(
    st.one_of(
        st.tuples(st.just("add"), edges),
        st.tuples(st.just("merge"), st.lists(edges, max_size=3)),
        st.tuples(st.just("observe"), st.tuples(st.sampled_from(CONCEPTS), contexts, weights)),
        st.tuples(st.just("prior"), st.sampled_from(ENTITIES)),
        st.tuples(st.just("prior_row"), st.sampled_from(ENTITIES)),
        st.tuples(st.just("conceptualize"), st.tuples(st.sampled_from(ENTITIES), contexts)),
        st.tuples(st.just("likelihood"), st.tuples(st.sampled_from(CONCEPTS), contexts)),
    ),
    max_size=30,
)


def _apply(conceptualizer: Conceptualizer, kind: str, payload) -> None:
    if kind == "add":
        conceptualizer.network.add(*payload)
    elif kind == "merge":
        other = IsANetwork()
        for edge in payload:
            other.add(*edge)
        conceptualizer.network.merge(other)
    else:
        conceptualizer.observe(*payload)


class TestTableCoherence:
    """A cached prior / log table never outlives the write that outdates it:
    whatever was read before, a read after ``add`` / ``merge`` / ``observe``
    equals a freshly built instance's — and the string-level oracle's."""

    @settings(max_examples=150, deadline=None)
    @given(operations)
    def test_interleaved_reads_equal_a_fresh_instance(self, ops):
        live = Conceptualizer(IsANetwork())
        writes = []
        for kind, payload in ops:
            if kind in ("add", "merge", "observe"):
                _apply(live, kind, payload)
                writes.append((kind, payload))
                continue
            fresh = Conceptualizer(IsANetwork())
            for write in writes:
                _apply(fresh, *write)
            if kind == "prior":
                got = live.network.prior(payload)
                assert got == fresh.network.prior(payload)
                assert got == reference_prior(live.network, payload)
                got["$scribble"] = 1.0  # the caller's copy, not the table
                assert "$scribble" not in live.network.prior(payload)
            elif kind == "prior_row":
                got = live.network.prior_row(payload)
                assert got == tuple(fresh.network.prior(payload).items())
                assert got == tuple(reference_prior(live.network, payload).items())
            elif kind == "conceptualize":
                got = live.conceptualize(*payload)
                assert got == fresh.conceptualize(*payload)
                assert got == reference_conceptualize(live, *payload)
            else:
                got = context_log_likelihood(live, *payload)
                assert got == context_log_likelihood(fresh, *payload)
                assert got == reference_log_likelihood(live, *payload)

    def test_unknown_entities_are_not_remembered(self):
        net = IsANetwork()
        net.add("e", "$c")
        for i in range(100):
            assert net.prior(f"ghost{i}") == {}
            assert net.prior_row(f"ghost{i}") == ()
        assert net.prior("e") == {"$c": 1.0}
        assert net.prior_row("e") == (("$c", 1.0),)
        assert set(net._priors) == {"e"}
        assert set(net._interned) == {(("$c", 1.0),)}

    def test_readers_never_see_a_half_built_table(self):
        """Two threads conceptualize while a third keeps observing.  The
        writer only feeds ``$other`` words the vocabulary already holds, so
        the readers' two tables are dropped and rebuilt over and over but
        always to the same values: any other posterior is a torn read.  The
        counts a build walks hand the GIL over at every word, so a table
        published before it is full *would* be read half-built."""

        class Yielding(dict):
            def items(self):
                for item in dict.items(self):
                    time.sleep(0)
                    yield item

        net = IsANetwork()
        net.add("e", "$a", 3.0)
        net.add("e", "$b", 1.0)
        live = Conceptualizer(net)
        vocabulary = [f"w{i}" for i in range(300)]
        live.observe("$a", vocabulary[::2])
        live.observe("$b", vocabulary[::3], weight=2.0)
        for concept in ("$a", "$b"):
            live._word_counts[concept] = Yielding(live._word_counts[concept])
        context = vocabulary[-40:]  # the words a build reaches last
        expected = reference_conceptualize(live, "e", context)
        torn: list[dict] = []
        stop = threading.Event()

        def read() -> None:
            while not stop.is_set():
                got = live.conceptualize("e", context)
                if got != expected:
                    torn.append(got)
                    return

        def write() -> None:
            for _ in range(50):
                live.observe("$other", ["w0", "w2", "w3"])
                time.sleep(0.002)  # let the readers share each generation
            stop.set()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=fn) for fn in (read, read, write)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            stop.set()
            sys.setswitchinterval(interval)
        assert not torn
        assert live.conceptualize("e", context) == expected
        live.observe("$b", ["unseen"])  # now the tables really do change
        assert live.conceptualize("e", context) == reference_conceptualize(live, "e", context)
        assert live.conceptualize("e", context) != expected

    def test_a_prior_row_is_never_read_from_weights_mid_write(self):
        """One thread re-reads an entity's prior row while another keeps
        adding concepts to that entity.  ``prior_row`` walks the weights
        without a lock, so an ``add`` that grew the dict it walks in place
        would fail it with "dictionary changed size during iteration"; every
        row read must instead be a whole, normalised snapshot."""
        net = IsANetwork()
        for i in range(40):
            net.add("e", f"$c{i}")
        errors: list[BaseException] = []
        stop = threading.Event()

        def read() -> None:
            while not stop.is_set():
                try:
                    row = net.prior_row("e")
                    assert abs(sum(p for _c, p in row) - 1.0) < 1e-9
                except (RuntimeError, AssertionError) as exc:
                    errors.append(exc)
                    return

        def write() -> None:
            for i in range(40, 10040):
                if stop.is_set():
                    return
                net.add("e", f"$c{i}")
            stop.set()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=fn) for fn in (read, read, write)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            stop.set()
            sys.setswitchinterval(interval)
        assert not errors
        assert len(net.prior_row("e")) == 10040
