"""Tests for the Theorem-1 block schedules."""

import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.blocks import (
    BlockSchedule,
    block_parameter,
    build_schedule,
    learning_rate,
)


class TestBlockParameter:
    def test_theorem_formula(self):
        # d_{i,k} = (3 u / 2) sqrt(k / N)
        assert block_parameter(4, switch_cost=2.0, num_models=4) == pytest.approx(3.0)

    def test_zero_switch_cost_gives_zero(self):
        assert block_parameter(10, 0.0, 6) == 0.0

    def test_grows_with_k(self):
        values = [block_parameter(k, 1.0, 6) for k in range(1, 10)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            block_parameter(0, 1.0, 6)


class TestLearningRate:
    def test_theorem_formula(self):
        d = block_parameter(2, 1.0, 6)
        expected = (2.0 / (d + 1.0)) * math.sqrt(1.0)
        assert learning_rate(2, 1.0, 6) == pytest.approx(expected)

    def test_zero_switch_cost_matches_slotwise_tsallis(self):
        # With u = 0: eta_k = 2 sqrt(2/k).
        assert learning_rate(8, 0.0, 6) == pytest.approx(2 * math.sqrt(2 / 8))

    def test_nonincreasing_in_k(self):
        rates = [learning_rate(k, 3.0, 6) for k in range(1, 50)]
        assert all(b <= a + 1e-12 for a, b in zip(rates, rates[1:]))


class TestBuildSchedule:
    @given(
        horizon=st.integers(1, 500),
        switch_cost=st.floats(0.0, 30.0),
        num_models=st.integers(2, 10),
    )
    @settings(max_examples=80, deadline=None)
    def test_covers_horizon_exactly(self, horizon, switch_cost, num_models):
        schedule = build_schedule(horizon, switch_cost, num_models)
        assert int(schedule.lengths.sum()) == horizon
        assert np.all(schedule.lengths >= 1)
        assert np.all(schedule.etas > 0)

    def test_zero_switch_cost_gives_unit_blocks(self):
        schedule = build_schedule(50, 0.0, 6)
        assert schedule.num_blocks == 50
        assert np.all(schedule.lengths == 1)

    def test_block_count_matches_theorem_bound(self):
        """K_i <= N^(1/3) (T/u)^(2/3) + 1 (paper, proof of Theorem 1)."""
        for u in (1.0, 3.0, 10.0):
            for horizon in (100, 400):
                schedule = build_schedule(horizon, u, 6)
                bound = 6 ** (1 / 3) * (horizon / u) ** (2 / 3) + 1
                assert schedule.num_blocks <= math.ceil(bound) + 1

    def test_lengths_follow_formula_until_truncation(self):
        schedule = build_schedule(1000, 4.0, 6)
        for k0 in range(schedule.num_blocks - 1):  # last block may be truncated
            d = block_parameter(k0 + 1, 4.0, 6)
            assert schedule.lengths[k0] == max(math.ceil(d), 1)

    def test_block_of_slot(self):
        schedule = build_schedule(10, 0.0, 3)  # ten unit blocks
        assert schedule.block_of_slot(0) == 0
        assert schedule.block_of_slot(9) == 9
        with pytest.raises(ValueError):
            schedule.block_of_slot(10)

    def test_is_block_start(self):
        schedule = build_schedule(100, 5.0, 6)
        starts = set(schedule.starts.tolist())
        for t in range(100):
            assert schedule.is_block_start(t) == (t in starts)

    def test_invalid_horizon(self):
        with pytest.raises(ValueError):
            build_schedule(0, 1.0, 6)

    def test_value_equality_and_unhashable(self):
        schedule = build_schedule(10, 1.0, 3)
        assert schedule == build_schedule(10, 1.0, 3)
        assert schedule != build_schedule(10, 2.0, 3)  # other lengths
        assert schedule != build_schedule(11, 1.0, 3)  # other horizon
        same_lengths = BlockSchedule(
            horizon=10, lengths=schedule.lengths, etas=schedule.etas * 2
        )
        assert schedule != same_lengths
        assert schedule != "schedule"
        with pytest.raises(TypeError):
            hash(schedule)

    def test_pickle_leaves_the_slot_table_behind(self):
        schedule = build_schedule(500, 4.0, 6)
        schedule.block_of_slot(499)  # builds the memoized table
        assert "_slot_to_block" not in schedule.__getstate__()
        restored = pickle.loads(pickle.dumps(schedule))
        assert restored == schedule
        for t in (0, 17, 250, 499):
            assert restored.block_of_slot(t) == schedule.block_of_slot(t)


class TestBlockScheduleValidation:
    def test_mismatched_sum_rejected(self):
        with pytest.raises(ValueError):
            BlockSchedule(horizon=5, lengths=np.array([2, 2]), etas=np.array([1.0, 1.0]))

    def test_zero_length_block_rejected(self):
        with pytest.raises(ValueError):
            BlockSchedule(horizon=2, lengths=np.array([2, 0]), etas=np.array([1.0, 1.0]))

    def test_nonpositive_eta_rejected(self):
        with pytest.raises(ValueError):
            BlockSchedule(horizon=2, lengths=np.array([1, 1]), etas=np.array([1.0, 0.0]))
