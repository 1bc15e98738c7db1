"""Tests for the decorator-based policy registries and the run APIs on top.

Covers the registration contract (duplicates raise, unknown names list the
registered vocabulary), the live name views mirroring the historical
tuples, and the construction surface built on the registry —
``Simulator.from_spec`` and ``repro.run``.
"""

import pytest

import repro
from repro.policies import (
    SELECTION_NAMES,
    TRADING_NAMES,
    make_selection_policies,
    make_trading_policy,
    register_selection,
    register_trading,
    selection_names,
    trading_names,
)
from repro.policies.selection import SelectionPolicy
from repro.policies.trading import TradeDecision, TradingPolicy
from repro.sim import ScenarioConfig, Scenario, Simulator, build_scenario
from repro.spec import RunSpec
from repro.utils.rng import RngFactory


@pytest.fixture(scope="module")
def scenario() -> Scenario:
    return build_scenario(ScenarioConfig(dataset="synthetic", num_edges=3, horizon=24))


class _Fixed(SelectionPolicy):
    name = "Fixed"

    def select(self, t: int) -> int:
        return 0

    def observe(self, t: int, model: int, loss: float) -> None:
        pass


class _NoTrade(TradingPolicy):
    name = "NoTrade"

    def decide(self, context) -> TradeDecision:
        return TradeDecision(buy=0.0, sell=0.0)


class TestBuiltinRegistry:
    # Builtin families load before any custom registration can complete, so
    # they are always the registry prefix — prefix checks keep these tests
    # independent of other tests (e.g. examples) registering extra names.
    def test_builtin_selection_names(self):
        assert selection_names()[:8] == (
            "Ours", "Ran", "Greedy", "TINF", "UCB", "UCB1", "EG", "EXP3",
        )

    def test_builtin_trading_names(self):
        assert trading_names()[:6] == ("Ours", "Forecast", "Ran", "TH", "LY", "Null")

    def test_name_views_behave_like_tuples(self):
        assert tuple(SELECTION_NAMES) == selection_names()
        assert SELECTION_NAMES == selection_names()
        assert len(TRADING_NAMES) == len(trading_names())
        assert "Ours" in TRADING_NAMES
        assert TRADING_NAMES[0] == "Ours"
        assert TRADING_NAMES + ("Offline",) == trading_names() + ("Offline",)

    def test_make_selection_builds_one_policy_per_edge(self, scenario):
        policies = make_selection_policies("Ours", scenario, RngFactory(0))
        assert len(policies) == scenario.num_edges
        assert all(isinstance(p, SelectionPolicy) for p in policies)

    def test_make_trading_builds_policy(self, scenario):
        policy = make_trading_policy("LY", scenario, RngFactory(0))
        assert isinstance(policy, TradingPolicy)

    def test_unknown_selection_lists_registered_names(self, scenario):
        with pytest.raises(ValueError, match=r"unknown selection policy 'Nope'"):
            make_selection_policies("Nope", scenario, RngFactory(0))
        with pytest.raises(ValueError, match="'Ours'"):
            make_selection_policies("Nope", scenario, RngFactory(0))

    def test_unknown_trading_lists_registered_names(self, scenario):
        with pytest.raises(ValueError, match=r"unknown trading policy 'Nope'"):
            make_trading_policy("Nope", scenario, RngFactory(0))


class TestRegistration:
    def test_duplicate_selection_name_raises(self, clean_registry):
        with pytest.raises(ValueError, match="already registered"):
            register_selection("Ours")(lambda scenario, rng: [])

    def test_duplicate_trading_name_raises(self, clean_registry):
        with pytest.raises(ValueError, match="already registered"):
            register_trading("LY")(lambda scenario, rng: None)

    def test_replace_overrides(self, clean_registry, scenario):
        @register_trading("LY", replace=True)
        def build(scenario, rng_factory):
            return _NoTrade()

        assert isinstance(make_trading_policy("LY", scenario, RngFactory(0)), _NoTrade)

    def test_new_registration_visible_in_views(self, clean_registry, scenario):
        @register_selection("Fixed")
        def build(scenario, rng_factory):
            return [_Fixed(scenario.num_models) for _ in range(scenario.num_edges)]

        assert "Fixed" in SELECTION_NAMES
        assert selection_names()[-1] == "Fixed"
        policies = make_selection_policies("Fixed", scenario, RngFactory(0))
        assert len(policies) == scenario.num_edges


class TestRunApis:
    def test_from_spec_runs(self, scenario):
        spec = RunSpec(selection="Greedy", trading="Null", seed=3)
        result = Simulator.from_spec(scenario, spec).run()
        assert result.label == "Greedy-Null"
        assert result.selections.shape == (scenario.horizon, scenario.num_edges)

    def test_from_spec_unknown_name(self, scenario):
        with pytest.raises(ValueError, match="unknown trading"):
            Simulator.from_spec(scenario, RunSpec(selection="Ours", trading="Nope"))

    def test_repro_run_accepts_scenario(self, scenario):
        spec = RunSpec(selection="Greedy", trading="Null", seed=3)
        result = repro.run(spec, scenario=scenario)
        assert result.label == "Greedy-Null"

    def test_repro_run_accepts_config(self):
        config = ScenarioConfig(dataset="synthetic", num_edges=3, horizon=24)
        spec = RunSpec(scenario=config, selection="Greedy", trading="Null", seed=3)
        result = repro.run(spec)
        assert result.selections.shape == (24, 3)

    def test_repro_run_matches_from_spec(self, scenario):
        spec = RunSpec(selection="Ours", trading="Ours", seed=5)
        via_run = repro.run(spec, scenario=scenario)
        via_spec = Simulator.from_spec(scenario, spec).run()
        assert (via_run.selections == via_spec.selections).all()
        assert (via_run.trading_cost == via_spec.trading_cost).all()

    def test_repro_run_rejects_other_types(self, scenario):
        with pytest.raises(TypeError):
            repro.run(42)
        with pytest.raises(TypeError, match="RunSpec"):
            repro.run(scenario)

    def test_custom_registration_reaches_run(self, clean_registry, scenario):
        @register_trading("NoTrade")
        def build(scenario, rng_factory):
            return _NoTrade()

        spec = RunSpec(selection="Greedy", trading="NoTrade", seed=3)
        result = repro.run(spec, scenario=scenario)
        assert float(result.trading_cost.sum()) == 0.0
