"""Tests for arrival processes and data streams."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.streams import ArrivalProcess, DataStream, StreamBatch


class TestStreamBatch:
    def test_size(self):
        batch = StreamBatch(np.zeros((3, 1, 8, 8)), np.zeros(3, dtype=int))
        assert batch.size == 3

    def test_misaligned_rejected(self):
        with pytest.raises(ValueError):
            StreamBatch(np.zeros((3, 1, 8, 8)), np.zeros(2, dtype=int))


class TestArrivalProcess:
    def test_sample_at_least_one(self):
        process = ArrivalProcess(np.full(10, 0.01), np.random.default_rng(0))
        counts = [process.sample(t) for t in range(10)]
        assert min(counts) >= 1

    def test_sample_mean_tracks_trace(self):
        process = ArrivalProcess(np.full(2000, 40.0), np.random.default_rng(1))
        counts = [process.sample(t) for t in range(2000)]
        assert np.mean(counts) == pytest.approx(40.0, rel=0.05)

    def test_mean_wraps_around(self):
        process = ArrivalProcess(np.array([5.0, 10.0]), np.random.default_rng(2))
        assert process.mean(0) == process.mean(2) == 5.0
        assert process.mean(3) == 10.0

    def test_horizon(self):
        assert ArrivalProcess(np.ones(7), np.random.default_rng(0)).horizon == 7

    def test_negative_means_rejected(self):
        with pytest.raises(ValueError):
            ArrivalProcess(np.array([-1.0]), np.random.default_rng(0))

    def test_matrix_means_rejected(self):
        with pytest.raises(ValueError):
            ArrivalProcess(np.ones((2, 2)), np.random.default_rng(0))

    def test_sample_span_draws_as_scalar_samples(self):
        # A span at an offset, wrapping around the trace and truncating
        # low draws at 1, moves the stream exactly as scalar samples do.
        means = np.array([0.2, 3.0, 40.0, 0.0, 7.5])
        span_rng, scalar_rng = np.random.default_rng(4), np.random.default_rng(4)
        span = ArrivalProcess(means, span_rng)
        scalar = ArrivalProcess(means, scalar_rng)
        for t in range(3):  # a prefix of draws on both
            assert span.sample(t) == scalar.sample(t)
        drawn = span.sample_span(3, 14)
        assert drawn.tolist() == [scalar.sample(t) for t in range(3, 14)]
        assert span_rng.bit_generator.state == scalar_rng.bit_generator.state

    @given(st.floats(0.5, 200.0))
    @settings(max_examples=20, deadline=None)
    def test_samples_always_positive_integers(self, mean):
        process = ArrivalProcess(np.full(5, mean), np.random.default_rng(3))
        for t in range(5):
            count = process.sample(t)
            assert isinstance(count, int)
            assert count >= 1


class TestDataStream:
    @pytest.fixture()
    def stream(self):
        rng = np.random.default_rng(4)
        features = rng.random((100, 1, 8, 8))
        labels = rng.integers(0, 10, 100)
        return DataStream(features, labels, np.random.default_rng(5))

    def test_draw_shapes(self, stream):
        batch = stream.draw(17)
        assert batch.features.shape == (17, 1, 8, 8)
        assert batch.labels.shape == (17,)

    def test_draw_zero_rejected(self, stream):
        with pytest.raises(ValueError):
            stream.draw(0)

    def test_pool_size(self, stream):
        assert stream.pool_size == 100

    def test_empty_pool_rejected(self):
        with pytest.raises(ValueError):
            DataStream(np.zeros((0, 1, 8, 8)), np.zeros(0, dtype=int), np.random.default_rng(0))

    def test_misaligned_pool_rejected(self):
        with pytest.raises(ValueError):
            DataStream(np.zeros((5, 1, 8, 8)), np.zeros(4, dtype=int), np.random.default_rng(0))

    def test_draws_cover_pool_eventually(self, stream):
        batch = stream.draw(5000)
        # With replacement over a 100-item pool, 5000 draws hit everything.
        assert len(np.unique((batch.features.reshape(5000, -1) @ np.arange(64)))) > 50
