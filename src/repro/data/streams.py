"""Stochastic data streams (paper Section II-A).

Each edge receives an IID stream: the number of arrivals ``M_i^t`` at slot
``t`` is a random variable (here Poisson around the workload trace value,
truncated to at least one sample), and each arriving sample ``(a, b)`` is
drawn IID from the fixed unknown distribution ``D`` — realised as sampling
with replacement from the dataset's held-out test pool.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["ArrivalProcess", "DataStream", "StreamBatch"]


@dataclass(frozen=True)
class StreamBatch:
    """The samples arriving at one edge in one time slot."""

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self) -> None:
        if self.features.shape[0] != self.labels.shape[0]:
            raise ValueError("features and labels disagree on batch size")

    @property
    def size(self) -> int:
        """Number of arriving samples ``M_i^t``."""
        return int(self.labels.shape[0])


class ArrivalProcess:
    """Random arrival counts ``M_i^t`` following an unknown distribution.

    Counts are Poisson-distributed around a per-slot mean supplied by the
    workload trace, truncated below at 1 (a slot always serves at least one
    request, so the average loss ``L_{i,n}^t`` is well defined).
    """

    def __init__(self, mean_arrivals: np.ndarray, rng: np.random.Generator) -> None:
        means = np.asarray(mean_arrivals, dtype=float)
        if means.ndim != 1:
            raise ValueError(f"mean_arrivals must be 1-D, got shape {means.shape}")
        if np.any(means < 0) or not np.all(np.isfinite(means)):
            raise ValueError("mean_arrivals must be finite and non-negative")
        self._means = means
        self._rng = rng

    @property
    def horizon(self) -> int:
        """Number of slots the underlying trace covers."""
        return int(self._means.size)

    @property
    def rng(self) -> np.random.Generator:
        """The stream the counts are drawn from."""
        return self._rng

    def mean(self, t: int) -> float:
        """Mean arrival count at slot ``t`` (wraps around the trace)."""
        return float(self._means[t % self._means.size])

    def sample(self, t: int) -> int:
        """Draw ``M_i^t`` for slot ``t``."""
        return int(max(self._rng.poisson(self.mean(t)), 1))

    def sample_slots(self, horizon: int) -> np.ndarray:
        """Draw ``M_i^t`` for slots ``0..horizon-1`` in one call.

        NumPy's ``Generator.poisson`` with an array of means draws one
        variate per element in order, consuming the bit stream exactly as
        ``horizon`` scalar :meth:`sample` calls would — part of the
        ``Generator`` stream-stability contract — so the vectorized
        simulator can pre-draw a whole horizon without moving any digest.
        """
        if horizon <= 0:
            raise ValueError(f"horizon must be positive, got {horizon}")
        return self.sample_span(0, horizon)

    def sample_span(self, start: int, stop: int) -> np.ndarray:
        """Draw ``M_i^t`` for slots ``start..stop-1`` in one call.

        Draws as :meth:`sample_slots` does: the stream moves exactly as
        ``stop - start`` scalar :meth:`sample` calls would move it.
        """
        # == [self.mean(t) for t in range(start, stop)] (wrap-around).
        means = self._means[np.arange(start, stop) % self._means.size]
        return np.maximum(self._rng.poisson(means), 1).astype(np.int64)


class DataStream:
    """IID sampling with replacement from a fixed data pool."""

    def __init__(
        self,
        features: np.ndarray,
        labels: np.ndarray,
        rng: np.random.Generator,
    ) -> None:
        if features.shape[0] != labels.shape[0]:
            raise ValueError("features and labels disagree on pool size")
        if features.shape[0] == 0:
            raise ValueError("data pool must be non-empty")
        self._features = features
        self._labels = np.asarray(labels)
        self._rng = rng

    @property
    def pool_size(self) -> int:
        """Number of distinct samples in the pool."""
        return int(self._labels.shape[0])

    def draw(self, count: int) -> StreamBatch:
        """Draw ``count`` IID samples (with replacement)."""
        if count <= 0:
            raise ValueError(f"count must be positive, got {count}")
        idx = self._rng.integers(0, self.pool_size, size=count)
        return StreamBatch(features=self._features[idx], labels=self._labels[idx])
