"""Shared fixtures: RNGs, small reusable scenarios, a scoped policy registry."""

from __future__ import annotations

import numpy as np
import pytest

from repro.policies.registry import _SELECTION, _TRADING
from repro.sim.config import ScenarioConfig
from repro.sim.scenario import Scenario, build_scenario


@pytest.fixture()
def rng() -> np.random.Generator:
    """A fixed-seed generator for deterministic tests."""
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def small_config() -> ScenarioConfig:
    """A tiny synthetic scenario config shared across the test session."""
    return ScenarioConfig(
        dataset="synthetic",
        num_edges=3,
        horizon=40,
        num_models=4,
        n_test=500,
        seed=0,
    )


@pytest.fixture(scope="session")
def small_scenario(small_config: ScenarioConfig) -> Scenario:
    """The materialized tiny scenario."""
    return build_scenario(small_config)


@pytest.fixture(scope="session")
def mnist_scenario() -> Scenario:
    """A scenario backed by the trained MNIST-like zoo (small sizes)."""
    config = ScenarioConfig(
        dataset="mnist",
        num_edges=2,
        horizon=20,
        num_models=6,
        n_train=600,
        n_test=800,
        seed=0,
        zoo_seed=77,
    )
    return build_scenario(config)


@pytest.fixture
def clean_registry():
    """Snapshot both policy registries and restore them afterwards."""
    selection_before = dict(_SELECTION)
    trading_before = dict(_TRADING)
    yield
    _SELECTION.clear()
    _SELECTION.update(selection_before)
    _TRADING.clear()
    _TRADING.update(trading_before)
