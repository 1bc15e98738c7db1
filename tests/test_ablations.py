"""Ablations of the paper's design choices, plus a price-shock robustness study.

* Blocks: the only difference between "Ours" and the "TINF" baseline is the
  Theorem-1 block schedule.  The blocks buy a large cut in switching cost at
  a modest exploration penalty, and total cost is lower once switching is
  expensive.
* Rectified primal step: Algorithm 2 anchors each decision at the previous
  one (``rectified=True``); the ablation recomputes decisions from zero each
  slot.  With a well-tuned dual step the two are statistically
  indistinguishable.  With a dual step 10x too small, the proximal anchor
  keeps the trade volume accumulating and the violation markedly lower.
* Regime shift: the EU-permit price band jumps ~30% half-way through the
  horizon.  Algorithm 2 and the forecasting extension must both keep the
  neutrality violation bounded across the shift.
"""

import dataclasses

import numpy as np
import pytest

from repro.core import OnlineCarbonTrading, OnlineModelSelection
from repro.experiments.runner import run_combo
from repro.forecast.trading import ForecastCarbonTrading
from repro.metrics import summarize_many
from repro.sim import ScenarioConfig, Simulator, build_scenario
from repro.traces.carbon_prices import RegimeShiftPriceModel
from repro.utils.rng import RngFactory, spawn_generator

SEEDS = [0, 1, 2]
HORIZON = 160


def _config(**overrides) -> ScenarioConfig:
    return ScenarioConfig(dataset="synthetic", num_edges=6, horizon=HORIZON, **overrides)


def _blocks_vs_slotwise(switching_weight: float):
    config = _config(switching_weight=switching_weight)
    scenario = build_scenario(config)
    blocks = summarize_many(
        [run_combo(scenario, "Ours", "Ours", s) for s in SEEDS],
        config.weights,
        "blocks",
    )
    slotwise = summarize_many(
        [run_combo(scenario, "TINF", "Ours", s) for s in SEEDS],
        config.weights,
        "slotwise",
    )
    return blocks, slotwise


def _run_seeds(scenario, make_trader):
    """Mean final fit and trading cost over SEEDS with Algorithm 1 selection."""
    fits, costs = [], []
    for seed in SEEDS:
        rng = RngFactory(seed)
        selection = [
            OnlineModelSelection(
                scenario.num_models,
                scenario.horizon,
                float(scenario.effective_switch_costs()[i]),
                rng.get(f"sel-{i}"),
            )
            for i in range(scenario.num_edges)
        ]
        result = Simulator(scenario, selection, make_trader(), run_seed=seed).run()
        fits.append(result.final_fit())
        costs.append(float(result.trading_cost.sum()))
    return float(np.mean(fits)), float(np.mean(costs))


def _rectified_fit(rectified: bool, gamma1: float) -> float:
    scenario = build_scenario(_config())
    fit, _ = _run_seeds(
        scenario,
        lambda: OnlineCarbonTrading(gamma1=gamma1, gamma2=4.0, rectified=rectified),
    )
    return fit


class TestBlockAblation:
    def test_blocks_cut_switching_cost(self):
        blocks, slotwise = _blocks_vs_slotwise(1.0)
        assert blocks.switching_cost < 0.5 * slotwise.switching_cost
        assert blocks.switches < slotwise.switches

    def test_blocks_win_total_cost_at_high_switching_weight(self):
        blocks, slotwise = _blocks_vs_slotwise(8.0)
        assert blocks.total_cost < slotwise.total_cost
        # The price of the blocks: less exploration, so inference cost is
        # higher, but by a bounded factor.
        assert blocks.inference_cost < 3.0 * slotwise.inference_cost


class TestRectifiedAblation:
    def test_rectified_robust_to_slow_dual(self):
        assert _rectified_fit(True, 0.02) < 0.9 * _rectified_fit(False, 0.02)

    def test_variants_equivalent_when_tuned(self):
        fit_plain = _rectified_fit(False, 0.2)
        assert _rectified_fit(True, 0.2) == pytest.approx(fit_plain, rel=0.35)


class TestRegimeShiftRobustness:
    @pytest.fixture(scope="class")
    def shifted(self):
        config = _config()
        scenario = build_scenario(config)
        prices = RegimeShiftPriceModel().generate(
            config.horizon, spawn_generator(config.seed, "shifted-prices")
        )
        return dataclasses.replace(scenario, prices=prices)

    def test_algorithm2_survives_regime_shift(self, shifted):
        fit, _ = _run_seeds(shifted, OnlineCarbonTrading)
        # Violation stays a small fraction of total emissions despite the shock.
        assert fit < 0.05 * HORIZON * shifted.estimated_slot_emissions()

    def test_forecaster_competitive_under_shift(self, shifted):
        _, cost_plain = _run_seeds(shifted, OnlineCarbonTrading)
        fit_forecast, cost_forecast = _run_seeds(shifted, ForecastCarbonTrading)
        assert fit_forecast < 0.05 * HORIZON * shifted.estimated_slot_emissions()
        # Forecasting stays within a few percent of vanilla trading cost even
        # when its model is briefly wrong after the shift.
        assert cost_forecast < 1.10 * cost_plain
