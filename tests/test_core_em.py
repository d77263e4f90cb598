"""Tests for the EM estimator (Sec 4.2-4.3)."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles.em_reference import initialize_theta
from repro.core.em import EMConfig, run_em


def obs(*cands):
    """Shorthand: an observation is a list of (template, path, f) tuples."""
    return list(cands)


class TestInitialization:
    def test_uniform_over_cooccurring_paths(self):
        observations = [obs((0, 0, 0.5), (0, 1, 0.5)), obs((0, 0, 1.0))]
        theta = initialize_theta(observations)
        assert theta[0][0] == pytest.approx(0.5)
        assert theta[0][1] == pytest.approx(0.5)

    def test_zero_f_candidates_excluded(self):
        observations = [obs((0, 0, 1.0), (0, 1, 0.0))]
        theta = initialize_theta(observations)
        assert theta == {0: {0: 1.0}}

    def test_empty(self):
        assert initialize_theta([]) == {}


class TestRunEM:
    def test_unambiguous_template_converges_to_one(self):
        # Template 0 always co-occurs with path 0 only.
        observations = [obs((0, 0, 1.0))] * 10
        result = run_em(observations)
        assert result.theta[0][0] == pytest.approx(1.0)

    def test_majority_path_wins(self):
        """'how many people in $city' maps to population in most instances:
        EM should put most mass there (the paper's core intuition)."""
        observations = (
            [obs((0, 0, 1.0), (0, 1, 1.0))] * 2  # ambiguous instances
            + [obs((0, 0, 1.0))] * 8  # instances explained only by path 0
        )
        result = run_em(observations)
        assert result.theta[0][0] > 0.85
        assert result.theta[0][0] > result.theta[0].get(1, 0.0)

    def test_log_likelihood_monotone(self):
        observations = (
            [obs((0, 0, 0.5), (0, 1, 0.25), (1, 1, 0.25))] * 5
            + [obs((0, 0, 1.0))] * 3
            + [obs((1, 1, 0.7), (1, 0, 0.1))] * 4
        )
        result = run_em(observations, EMConfig(max_iterations=30, tolerance=0.0))
        lls = result.log_likelihood
        assert len(lls) > 2
        for earlier, later in zip(lls, lls[1:]):
            assert later >= earlier - 1e-9, "EM log-likelihood must not decrease"

    def test_theta_rows_normalized(self):
        observations = [
            obs((0, 0, 0.3), (0, 1, 0.7)),
            obs((0, 1, 1.0)),
            obs((1, 0, 0.4), (1, 2, 0.6)),
        ]
        result = run_em(observations)
        for row in result.theta.values():
            assert sum(row.values()) == pytest.approx(1.0)

    def test_convergence_stops_early(self):
        observations = [obs((0, 0, 1.0))] * 5
        result = run_em(observations, EMConfig(max_iterations=50, tolerance=1e-7))
        assert result.iterations < 50

    def test_f_weights_shift_responsibility(self):
        """Higher f (e.g. sharper P(v|e,p)) pulls mass toward that path."""
        observations = [obs((0, 0, 1.0), (0, 1, 0.1))] * 6
        result = run_em(observations)
        assert result.theta[0][0] > result.theta[0][1]

    def test_template_support_sums_to_observations(self):
        observations = [obs((0, 0, 1.0))] * 4 + [obs((1, 1, 1.0))] * 6
        result = run_em(observations)
        total_support = sum(result.template_support.values())
        assert total_support == pytest.approx(10.0)

    def test_unseen_observation_ignored(self):
        # an observation whose candidates all have f=0 contributes nothing
        observations = [obs((0, 0, 0.0)), obs((0, 1, 1.0))]
        result = run_em(observations)
        assert result.theta[0] == {1: pytest.approx(1.0)}

    def test_empty_observations(self):
        result = run_em([])
        assert result.theta == {}
        assert result.iterations == 0


class TestEMProperties:
    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(
            st.lists(
                st.tuples(
                    st.integers(0, 3),
                    st.integers(0, 3),
                    st.floats(0.01, 1.0),
                ),
                min_size=1,
                max_size=4,
            ),
            min_size=1,
            max_size=25,
        )
    )
    def test_invariants_on_random_instances(self, observations):
        result = run_em(observations, EMConfig(max_iterations=15, tolerance=0.0))
        # rows normalized
        for row in result.theta.values():
            assert sum(row.values()) == pytest.approx(1.0)
            assert all(0.0 <= p <= 1.0 + 1e-12 for p in row.values())
        # monotone log-likelihood
        for earlier, later in zip(result.log_likelihood, result.log_likelihood[1:]):
            assert later >= earlier - 1e-6
        # finite
        assert all(math.isfinite(ll) for ll in result.log_likelihood)
