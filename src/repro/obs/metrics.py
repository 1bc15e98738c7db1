"""Counters and latency timers for hot-path profiling.

Both are monotonic-clock based (``time.perf_counter`` — never the wall
clock, which reprolint RPL008 bans from library code).  A :class:`Timer`
is also a fixed-bucket latency histogram: count, mean and max are exact,
and quantiles come from log-spaced buckets whose edges are the module
constant :data:`BUCKET_EDGES`, so one timer costs the same memory at any
run length and an array of durations folds in one numpy pass.
"""

from __future__ import annotations

import bisect
import math
import time
from typing import Sequence

import numpy as np

__all__ = ["BUCKET_EDGES", "QUANTILES", "Counter", "Timer", "histogram_summary"]

#: Upper edges of every timer's latency buckets, in seconds: 20 per decade
#: from 1 µs to 1000 s, so neighbouring edges differ by about 12%.  Bucket
#: ``i`` holds ``(BUCKET_EDGES[i - 1], BUCKET_EDGES[i]]``; one more bucket
#: holds everything above the last edge.
BUCKET_EDGES = np.logspace(-6, 3, 9 * 20 + 1)
BUCKET_EDGES.flags.writeable = False

#: Quantiles a summary reports, as ``p50_s``, ``p95_s`` and ``p99_s``.
QUANTILES = (0.5, 0.95, 0.99)

_UPPER_EDGES = np.append(BUCKET_EDGES, np.inf)
_EDGE_LIST = BUCKET_EDGES.tolist()


class Counter:
    """A named monotonically increasing integer counter."""

    __slots__ = ("name", "_value")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0

    @property
    def value(self) -> int:
        """Current count."""
        return self._value

    def increment(self, amount: int = 1) -> None:
        """Add ``amount`` (default 1); negative increments are rejected."""
        if amount < 0:
            raise ValueError(f"counter increment must be non-negative, got {amount}")
        self._value += amount

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Counter({self.name!r}, value={self._value})"


def histogram_summary(
    values: Sequence[float], counts: Sequence[int], total: float, peak: float
) -> dict[str, float | int | None]:
    """``count``, ``mean_s``, ``max_s`` and the :data:`QUANTILES` of a histogram.

    Bin ``i`` holds ``counts[i]`` observations above ``values[i - 1]`` and
    at most ``values[i]``; ``total`` and ``peak`` are their exact sum and
    maximum.  A quantile is the ``values`` entry of the bin holding the
    exact inverted-CDF quantile, capped at ``peak`` — exact when ``values``
    are the observed values themselves.  An empty histogram reports
    ``None`` for its mean and quantiles.
    """
    cumulative = np.cumsum(counts)
    count = int(cumulative[-1]) if cumulative.size else 0
    summary: dict[str, float | int | None] = {
        "count": count,
        "mean_s": total / count if count else None,
        "max_s": peak,
    }
    for q in QUANTILES:
        rank = max(math.ceil(q * count), 1)
        summary[f"p{round(q * 100)}_s"] = (
            min(float(values[np.searchsorted(cumulative, rank)]), peak)
            if count
            else None
        )
    return summary


class Timer:
    """A named latency metric over the fixed :data:`BUCKET_EDGES` buckets.

    Time a region by entering the timer (re-entrant use is not supported),
    or fold durations measured elsewhere — one with :meth:`add`, an array
    with :meth:`observe`::

        with tracer.timer("slot"):
            ...  # timed work
        tracer.timer("serve/stage/queue").observe(frame["queue_s"])

    ``count``, ``total_seconds`` and ``max_seconds`` are exact.  A
    :meth:`summary` quantile is the upper edge of the bucket holding the
    exact inverted-CDF quantile, capped at the max: never below the true
    quantile, at most one bucket above it.
    """

    __slots__ = ("name", "total_seconds", "count", "max_seconds", "_counts", "_started")

    def __init__(self, name: str) -> None:
        self.name = name
        self.total_seconds = 0.0
        self.count = 0
        self.max_seconds = 0.0
        self._counts = np.zeros(len(_UPPER_EDGES), dtype=np.int64)
        self._started: float | None = None

    @property
    def mean_seconds(self) -> float:
        """Average duration per observation (0.0 before any)."""
        return self.total_seconds / self.count if self.count else 0.0

    def add(self, seconds: float) -> None:
        """Fold one duration."""
        self._counts[bisect.bisect_left(_EDGE_LIST, seconds)] += 1
        self.total_seconds += seconds
        self.count += 1
        if seconds > self.max_seconds:
            self.max_seconds = seconds

    def observe(self, values: Sequence[float] | np.ndarray) -> None:
        """Fold an array of durations in one ``searchsorted``/``bincount`` pass."""
        values = np.asarray(values, dtype=np.float64)
        if not values.size:
            return
        self._counts += np.bincount(
            BUCKET_EDGES.searchsorted(values), minlength=len(_UPPER_EDGES)
        )
        self.total_seconds += float(np.add.reduce(values))
        self.count += values.size
        self.max_seconds = max(self.max_seconds, float(np.maximum.reduce(values)))

    def summary(self) -> dict[str, float | int | None]:
        """The JSON-ready :func:`histogram_summary` of this timer."""
        return histogram_summary(
            _UPPER_EDGES, self._counts, self.total_seconds, self.max_seconds
        )

    def __enter__(self) -> "Timer":
        if self._started is not None:
            raise RuntimeError(f"timer {self.name!r} is already running")
        self._started = time.perf_counter()
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        if self._started is None:  # pragma: no cover - defensive
            raise RuntimeError(f"timer {self.name!r} was never started")
        self.add(time.perf_counter() - self._started)
        self._started = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Timer({self.name!r}, total={self.total_seconds:.6f}s, "
            f"count={self.count})"
        )
