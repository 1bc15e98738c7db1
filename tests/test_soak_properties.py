"""Property battery for the load-shape generator and the soak harness.

The guarantees under test are the ones the soak harness leans on:

* **conservation** — every generated grid sums to exactly the requested
  event total, for all shapes and awkward sizes (largest-remainder
  rounding, not truncation);
* **bit-reproducibility** — equal ``(shape, horizon, edges, total, seed)``
  gives bit-equal grids across calls; different seeds differ;
* **non-negativity** — no cell ever goes negative;
* the stage timers' bucketed quantiles never understate the exact
  quantile and overstate it by at most one bucket, with exact count, mean
  and max, whatever the chunking of the folds;
* soak reports round-trip their schema.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.obs.metrics import BUCKET_EDGES, QUANTILES, Timer
from repro.serve.load import (
    SHAPE_NAMES,
    make_load_grid,
    shape_profile,
)
from repro.serve.soak import SOAK_FORMAT_VERSION, SoakReport, run_soak

AWKWARD_SIZES = [
    (1, 1, 1),
    (7, 3, 100),
    (48, 4, 2000),
    (13, 5, 9973),  # prime total, uneven grid
    (96, 64, 12345),
]


class TestShapeProfiles:
    @pytest.mark.parametrize("shape", SHAPE_NAMES)
    def test_profiles_are_strictly_positive(self, shape):
        for horizon in (1, 2, 7, 48, 100):
            profile = shape_profile(shape, horizon)
            assert profile.shape == (horizon,)
            assert (profile > 0).all()

    def test_shapes_are_actually_different(self):
        profiles = {s: shape_profile(s, 64) for s in SHAPE_NAMES}
        seen = set()
        for shape, profile in profiles.items():
            key = profile.tobytes()
            assert key not in seen, f"{shape} duplicates another profile"
            seen.add(key)

    def test_spike_spikes_and_step_steps(self):
        spike = shape_profile("spike", 64)
        assert spike.max() == 20.0 and spike.min() == 1.0
        step = shape_profile("step", 64)
        assert (step[:32] == 1.0).all() and (step[32:] == 4.0).all()

    def test_unknown_shape_rejected(self):
        with pytest.raises(ValueError, match="sawtooth"):
            shape_profile("triangle", 10)


class TestLoadGridProperties:
    @pytest.mark.parametrize("shape", SHAPE_NAMES)
    @pytest.mark.parametrize("horizon,edges,total", AWKWARD_SIZES)
    def test_conservation_is_exact(self, shape, horizon, edges, total):
        grid = make_load_grid(
            shape, horizon=horizon, num_edges=edges, total_events=total, seed=3
        )
        assert grid.shape == (horizon, edges)
        assert int(grid.sum()) == total

    @pytest.mark.parametrize("shape", SHAPE_NAMES)
    @pytest.mark.parametrize("horizon,edges,total", AWKWARD_SIZES)
    def test_non_negative_integer_counts(self, shape, horizon, edges, total):
        grid = make_load_grid(
            shape, horizon=horizon, num_edges=edges, total_events=total, seed=3
        )
        assert grid.dtype == np.int64
        assert (grid >= 0).all()

    @pytest.mark.parametrize("shape", SHAPE_NAMES)
    def test_bit_reproducible_per_seed(self, shape):
        kwargs = dict(horizon=48, num_edges=6, total_events=5000)
        first = make_load_grid(shape, seed=11, **kwargs)
        second = make_load_grid(shape, seed=11, **kwargs)
        assert np.array_equal(first, second)
        other = make_load_grid(shape, seed=12, **kwargs)
        assert not np.array_equal(first, other)

    def test_zero_events_is_an_all_zero_grid(self):
        grid = make_load_grid(
            "spike", horizon=16, num_edges=4, total_events=0, seed=0
        )
        assert grid.sum() == 0 and (grid == 0).all()

    def test_grid_follows_its_profile(self):
        # A step grid's second half must carry (about 4x) more events.
        grid = make_load_grid(
            "step", horizon=64, num_edges=8, total_events=100_000, seed=0
        )
        low, high = grid[:32].sum(), grid[32:].sum()
        assert high > 2.5 * low

    def test_jitter_bounds_validated(self):
        with pytest.raises(ValueError, match="jitter"):
            make_load_grid(
                "constant", horizon=4, num_edges=2, total_events=10, jitter=1.0
            )


def latency_sample(kind: str, size: int = 5000) -> np.ndarray:
    """Seeded latencies between 1 us and 10 s."""
    rng = np.random.default_rng(17)
    if kind == "uniform":
        sample = rng.uniform(1e-6, 10.0, size)
    elif kind == "exponential":
        sample = rng.exponential(0.01, size)
    else:
        sample = rng.lognormal(np.log(1e-3), 2.5, size)
    return np.clip(sample, 1e-6, 10.0)


LATENCY_KINDS = ("uniform", "exponential", "lognormal")


class TestTimer:
    @pytest.mark.parametrize("kind", LATENCY_KINDS)
    def test_count_mean_and_max_are_exact(self, kind):
        sample = latency_sample(kind)
        timer = Timer("t")
        timer.observe(sample)
        summary = timer.summary()
        assert summary["count"] == timer.count == sample.size
        assert summary["max_s"] == timer.max_seconds == sample.max()
        assert summary["mean_s"] == timer.mean_seconds == sample.mean()

    @pytest.mark.parametrize("q", QUANTILES)
    @pytest.mark.parametrize("kind", LATENCY_KINDS)
    def test_quantile_within_one_bucket_of_exact(self, kind, q):
        sample = latency_sample(kind)
        timer = Timer("t")
        timer.observe(sample)
        exact = np.quantile(sample, q, method="inverted_cdf")
        bucketed = timer.summary()[f"p{round(q * 100)}_s"]
        assert bucketed >= exact
        assert np.searchsorted(BUCKET_EDGES, bucketed) == np.searchsorted(
            BUCKET_EDGES, exact
        )

    @pytest.mark.parametrize("kind", LATENCY_KINDS)
    def test_chunked_folds_match_one_fold(self, kind):
        sample = latency_sample(kind)
        whole, chunked, scalar = Timer("a"), Timer("b"), Timer("c")
        whole.observe(sample)
        for start in range(0, sample.size, 64):
            chunked.observe(sample[start : start + 64])
        for value in sample.tolist():
            scalar.add(value)
        expected = whole.summary()
        for timer in (chunked, scalar):
            summary = timer.summary()
            assert summary.pop("mean_s") == pytest.approx(
                expected["mean_s"], rel=1e-12
            )
            assert summary == {k: v for k, v in expected.items() if k != "mean_s"}

    def test_empty_timer_reports_none(self):
        timer = Timer("t")
        timer.observe([])
        assert timer.summary() == {
            "count": 0, "mean_s": None, "max_s": 0.0,
            "p50_s": None, "p95_s": None, "p99_s": None,
        }

    def test_bucket_edges_are_a_fixed_log_grid(self):
        ratios = BUCKET_EDGES[1:] / BUCKET_EDGES[:-1]
        assert np.allclose(ratios, ratios[0]) and ratios[0] > 1.0
        assert BUCKET_EDGES[0] <= 1e-6 and BUCKET_EDGES[-1] >= 10.0
        with pytest.raises(ValueError):
            BUCKET_EDGES[0] = 0.0


class TestSoakReportSchema:
    @staticmethod
    def _report(**overrides):
        fields = dict(
            shape="spike",
            seed=0,
            num_edges=4,
            num_workers=2,
            horizon=48,
            total_events=2000,
            wall_seconds=1.5,
            events_in=2000,
            events_served=1900,
            events_shed=100,
            events_dropped_offline=0,
            accounting_ok=True,
            throughput_eps=1266.7,
            stages={
                "slot": {
                    "count": 48,
                    "mean_s": 0.01,
                    "max_s": 0.05,
                    "p50_s": 0.01,
                    "p95_s": 0.02,
                    "p99_s": 0.03,
                }
            },
        )
        fields.update(overrides)
        return SoakReport(**fields)

    def test_round_trips_through_json(self):
        empty = {"count": 0, "mean_s": None, "max_s": 0.0,
                 "p50_s": None, "p95_s": None, "p99_s": None}
        report = self._report(stages={**self._report().stages, "recovery": empty})
        payload = json.loads(json.dumps(report.to_dict(), allow_nan=False))
        assert payload["format_version"] == SOAK_FORMAT_VERSION
        assert SoakReport.from_dict(payload) == report

    def test_unknown_format_version_rejected(self):
        payload = self._report().to_dict()
        payload["format_version"] = 99
        with pytest.raises(ValueError, match="format_version"):
            SoakReport.from_dict(payload)

    def test_accounting_equation_is_what_gates(self):
        bad = self._report(events_served=1899, accounting_ok=False)
        assert bad.events_in != (
            bad.events_served + bad.events_shed + bad.events_dropped_offline
        )
        assert not bad.accounting_ok


class TestRunSoakProperties:
    @pytest.mark.parametrize("shape", SHAPE_NAMES)
    def test_accounting_exact_under_every_shape(self, shape):
        report = run_soak(
            shape,
            num_edges=3,
            num_workers=2,
            horizon=16,
            total_events=600,
            seed=1,
        )
        assert report.accounting_ok
        assert report.events_in == 600
        assert report.events_in == (
            report.events_served
            + report.events_shed
            + report.events_dropped_offline
        )
        for stage in ("queue", "serve", "trade", "slot"):
            assert report.stages[stage]["count"] > 0

    def test_shedding_still_balances_the_books(self):
        # A tiny queue under the spike shape must shed — and the equation
        # still has to hold exactly.
        report = run_soak(
            "spike",
            num_edges=2,
            num_workers=2,
            horizon=16,
            total_events=4000,
            queue_capacity=1,
            seed=0,
        )
        assert report.accounting_ok
        assert report.events_shed > 0
