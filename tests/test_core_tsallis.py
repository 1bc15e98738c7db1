"""Tests for the Tsallis-entropy OMD solver."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.tsallis import (
    tsallis_inf_probabilities,
    tsallis_inf_probabilities_batch,
)

loss_vectors = arrays(
    dtype=float,
    shape=st.integers(2, 12),
    elements=st.floats(-1e4, 1e4, allow_nan=False, allow_infinity=False),
)


class TestTsallisInfProbabilities:
    def test_uniform_for_equal_losses(self):
        p = tsallis_inf_probabilities(np.zeros(4), eta=1.0)
        np.testing.assert_allclose(p, np.full(4, 0.25), atol=1e-9)

    def test_single_arm(self):
        np.testing.assert_allclose(tsallis_inf_probabilities(np.array([5.0]), 1.0), [1.0])

    def test_lower_loss_gets_higher_probability(self):
        p = tsallis_inf_probabilities(np.array([0.0, 1.0, 5.0]), eta=1.0)
        assert p[0] > p[1] > p[2]

    def test_probabilities_valid(self):
        p = tsallis_inf_probabilities(np.array([3.0, 1.0, 7.0, 2.0]), eta=0.5)
        assert p.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.all(p > 0)

    def test_many_arms_valid(self):
        losses = np.random.default_rng(1).uniform(0, 100, size=256)
        p = tsallis_inf_probabilities(losses, 0.1)
        assert abs(p.sum() - 1.0) < 1e-6

    def test_shift_invariance(self):
        """Adding a constant to all losses must not change the solution."""
        losses = np.array([1.0, 4.0, 2.0])
        a = tsallis_inf_probabilities(losses, eta=0.7)
        b = tsallis_inf_probabilities(losses + 100.0, eta=0.7)
        np.testing.assert_allclose(a, b, atol=1e-8)

    def test_small_eta_approaches_uniform(self):
        """eta -> 0 means heavy regularization: near-uniform play."""
        p = tsallis_inf_probabilities(np.array([0.0, 10.0]), eta=1e-4)
        assert abs(p[0] - 0.5) < 0.01

    def test_large_eta_concentrates_on_best(self):
        p = tsallis_inf_probabilities(np.array([0.0, 10.0, 10.0]), eta=100.0)
        assert p[0] > 0.97

    def test_solves_the_omd_objective(self):
        """The output must minimize <p,C> - sum(4 sqrt(p) - 2p)/eta on the simplex."""
        rng = np.random.default_rng(0)
        losses = rng.uniform(0, 10, size=5)
        eta = 0.8
        p_star = tsallis_inf_probabilities(losses, eta)

        def objective(p):
            return float(np.dot(p, losses) - np.sum(4 * np.sqrt(p) - 2 * p) / eta)

        best = objective(p_star)
        # Random feasible perturbations cannot do better.
        for _ in range(200):
            q = rng.dirichlet(np.ones(5))
            assert objective(q) >= best - 1e-7

    @given(loss_vectors, st.floats(1e-3, 50.0))
    @settings(max_examples=80, deadline=None)
    def test_always_returns_valid_distribution(self, losses, eta):
        p = tsallis_inf_probabilities(losses, eta)
        assert np.all(np.isfinite(p))
        assert np.all(p >= 0)
        assert p.sum() == pytest.approx(1.0, abs=1e-6)

    @given(loss_vectors, st.floats(1e-2, 10.0))
    @settings(max_examples=50, deadline=None)
    def test_monotone_in_losses(self, losses, eta):
        """Arms with (weakly) lower cumulative loss get (weakly) more mass."""
        p = tsallis_inf_probabilities(losses, eta)
        order = np.argsort(losses)
        sorted_p = p[order]
        assert np.all(np.diff(sorted_p) <= 1e-8)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            tsallis_inf_probabilities(np.array([]), 1.0)
        with pytest.raises(ValueError):
            tsallis_inf_probabilities(np.array([1.0, np.nan]), 1.0)
        with pytest.raises(ValueError):
            tsallis_inf_probabilities(np.array([1.0, 2.0]), 0.0)


def test_batch_rows_are_distributions():
    """64 independent solves in one call, the vectorized engine's form."""
    rng = np.random.default_rng(2)
    losses = rng.uniform(0, 100, size=(64, 6))
    etas = rng.uniform(0.1, 2.5, size=64)
    p = tsallis_inf_probabilities_batch(losses, etas)
    assert np.allclose(p.sum(axis=1), 1.0, atol=1e-6)
