"""Tests for the extension experiments (forecast, delay, heterogeneity)."""

import numpy as np
import pytest

from repro.experiments import ext_delay, ext_forecast, ext_heterogeneity
from repro.experiments.run_all import EXPERIMENTS, EXTENSIONS


class TestRegistry:
    def test_all_figures_registered(self):
        assert set(EXPERIMENTS) == {f"fig{n:02d}" for n in range(3, 15)}

    def test_extensions_registered(self):
        assert set(EXTENSIONS) == {"ext_forecast", "ext_delay", "ext_heterogeneity"}

    def test_every_module_has_run_and_main(self):
        for module in {**EXPERIMENTS, **EXTENSIONS}.values():
            assert callable(module.run)
            assert callable(module.main)
            assert callable(module.format_result)


class TestExtForecast:
    @pytest.fixture(scope="class")
    def result(self):
        return ext_forecast.run(fast=True, seeds=[0])

    def test_covers_all_regimes(self, result):
        assert set(result.regimes) == {"random-walk", "paper-default", "mean-reverting"}

    def test_forecaster_never_much_worse_fit(self, result):
        for j in range(len(result.regimes)):
            assert result.fit_forecast[j] < result.fit_plain[j] + 10.0

    def test_predictable_market_fit_collapse(self, result):
        mr = result.regimes.index("mean-reverting")
        assert result.fit_forecast[mr] < 0.5 * result.fit_plain[mr]

    def test_format(self, result):
        assert "price forecasting" in ext_forecast.format_result(result)


class TestExtForecastHeadline:
    @pytest.fixture(scope="class")
    def result(self):
        return ext_forecast.run(fast=True, seeds=[0, 1])

    def test_predictable_market_fit_collapse(self, result):
        mr = result.regimes.index("mean-reverting")
        assert result.fit_forecast[mr] < 0.5 * result.fit_plain[mr]

    def test_predictable_market_unit_cost_premium_small(self, result):
        mr = result.regimes.index("mean-reverting")
        assert result.unit_cost_forecast[mr] < 1.10 * result.unit_cost_plain[mr]

    def test_forecaster_never_much_worse_fit(self, result):
        for j in range(len(result.regimes)):
            assert result.fit_forecast[j] < result.fit_plain[j] + 5.0


class TestExtDelay:
    @pytest.fixture(scope="class")
    def result(self):
        return ext_delay.run(fast=True, seeds=[0, 1], delays=(0, 10))

    def test_cost_degrades_gracefully(self, result):
        """The block schedule confers delay robustness: <15% degradation."""
        assert result.cost_degradation() < 0.15

    def test_accuracy_not_destroyed(self, result):
        assert result.accuracy[-1] > 0.8 * result.accuracy[0]

    def test_format(self, result):
        assert "delayed label feedback" in ext_delay.format_result(result)


class TestExtHeterogeneity:
    @pytest.fixture(scope="class")
    def result(self):
        # Small horizons keep the test fast; the crossover itself is asserted
        # by TestExtHeterogeneityCrossover with the full horizon sweep.
        return ext_heterogeneity.run(fast=True, seeds=[0], horizons=(80, 240))

    def test_specialists_make_best_models_differ(self, result):
        assert result.distinct_best_models >= 2

    def test_oracle_lower_bounds_everyone(self, result):
        for j in range(len(result.horizons)):
            assert result.oracle_fixed[j] <= result.ours[j] + 1e-9
            assert result.oracle_fixed[j] <= result.global_fixed[j] + 1e-9

    def test_ours_excess_per_slot_shrinks(self, result):
        excess = result.excess_per_slot("ours")
        assert excess[-1] < excess[0]

    def test_global_excess_per_slot_constant(self, result):
        excess = result.excess_per_slot("global")
        assert excess[-1] == pytest.approx(excess[0], rel=0.35)

    def test_format(self, result):
        assert "heterogeneity" in ext_heterogeneity.format_result(result)


class TestExtHeterogeneityCrossover:
    """With a specialist zoo and biased edges, the per-edge bandit's
    sub-linear exploration cost eventually undercuts the linear
    heterogeneity penalty of hosting one global model everywhere."""

    @pytest.fixture(scope="class")
    def result(self):
        return ext_heterogeneity.run(fast=True, seeds=[0, 1], horizons=(160, 2560))

    def test_specialists_make_best_models_differ(self, result):
        assert result.distinct_best_models >= 2

    def test_exploration_dominates_at_short_horizon(self, result):
        assert result.ours[0] > result.global_fixed[0]

    def test_crossover_reached(self, result):
        assert result.crossover_reached()

    def test_oracle_lower_bounds_everyone(self, result):
        for j in range(len(result.horizons)):
            assert result.oracle_fixed[j] <= min(result.ours[j], result.global_fixed[j])
