"""Fault-injection tests: plans, determinism, and degradation semantics.

Three contracts are pinned here.  First, fault plans are plain data:
they round-trip losslessly through dicts/JSON and reject malformed specs
at construction.  Second, determinism: an *empty* plan reproduces the
golden digests byte-for-byte (fault support costs clean runs nothing),
and a *faulted* run is itself bit-reproducible — same plan, same seed,
same bytes.  Third, degradation: each fault kind produces exactly its
documented observable effect (kept models, zeroed trades, skipped
feedback) rather than crashes or silent corruption.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments.runner import run_combo
from repro.faults import (
    FAULT_KINDS,
    DownloadFailure,
    EdgeOutage,
    FaultInjector,
    FaultPlan,
    FeedbackLoss,
    GilbertElliottLoss,
    MarketOutage,
    TradeRejection,
    load_plan,
)
from repro.obs import Tracer
from repro.sim.io import result_digest
from repro.sim.scenario import build_scenario
from repro.utils.rng import RngFactory
from tests.test_golden_digests import GOLDEN_DIGESTS, SCENARIO_CONFIGS

FULL_PLAN = FaultPlan((
    EdgeOutage(edge=0, start=4, end=12),
    FeedbackLoss(probability=0.2),
    DownloadFailure(probability=0.3, max_backoff=4),
    MarketOutage(start=10, end=20),
    TradeRejection(probability=0.1),
))


def scenario_a():
    return build_scenario(SCENARIO_CONFIGS["A"])


class TestFaultPlan:
    def test_registry_covers_all_kinds(self):
        assert set(FAULT_KINDS) == {
            "edge_outage",
            "feedback_loss",
            "gilbert_elliott_loss",
            "download_failure",
            "market_outage",
            "trade_rejection",
        }

    def test_dict_round_trip(self):
        assert FaultPlan.from_dict(FULL_PLAN.to_dict()) == FULL_PLAN

    def test_json_round_trip(self):
        assert FaultPlan.from_json(FULL_PLAN.to_json()) == FULL_PLAN

    def test_load_plan(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text(FULL_PLAN.to_json(), encoding="utf-8")
        assert load_plan(path) == FULL_PLAN

    def test_empty_plan(self):
        plan = FaultPlan()
        assert plan.is_empty
        assert len(plan) == 0
        assert not FULL_PLAN.is_empty
        assert len(FULL_PLAN) == 5

    def test_of_kind(self):
        outages = FULL_PLAN.of_kind("edge_outage")
        assert len(outages) == 1
        assert isinstance(outages[0], EdgeOutage)

    @pytest.mark.parametrize(
        "bad",
        [
            lambda: EdgeOutage(edge=-1, start=0, end=4),
            lambda: EdgeOutage(edge=0, start=4, end=4),
            lambda: FeedbackLoss(probability=1.5),
            lambda: FeedbackLoss(probability=-0.1),
            lambda: DownloadFailure(probability=0.5, max_backoff=0),
            lambda: MarketOutage(start=5, end=2),
            lambda: TradeRejection(probability=0.5, start=-1),
        ],
    )
    def test_malformed_specs_rejected(self, bad):
        with pytest.raises(ValueError):
            bad()

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultPlan.from_dict({"faults": [{"kind": "solar_flare"}]})


class TestInjector:
    def build(self, plan=FULL_PLAN, seed=0):
        return FaultInjector(
            plan, horizon=40, num_edges=3, rng=RngFactory(seed).child("faults")
        )

    def test_realization_is_deterministic(self):
        first, second = self.build(), self.build()
        assert first.summary() == second.summary()
        for t in range(40):
            assert first.trade_blocked(t) == second.trade_blocked(t)
            for i in range(3):
                assert first.feedback_lost(t, i) == second.feedback_lost(t, i)

    def test_edge_outage_window_exact(self):
        injector = self.build(FaultPlan((EdgeOutage(edge=1, start=4, end=12),)))
        offline = [
            (t, i) for t in range(40) for i in range(3) if injector.edge_offline(t, i)
        ]
        assert offline == [(t, 1) for t in range(4, 12)]

    def test_market_outage_window_exact(self):
        injector = self.build(FaultPlan((MarketOutage(start=10, end=20),)))
        blocked = [t for t in range(40) if injector.trade_blocked(t)]
        assert blocked == list(range(10, 20))

    def test_out_of_range_edge_rejected(self):
        with pytest.raises(ValueError):
            self.build(FaultPlan((EdgeOutage(edge=7, start=0, end=4),)))

    def test_probability_one_fires_everywhere(self):
        injector = self.build(FaultPlan((FeedbackLoss(probability=1.0),)))
        assert injector.summary()["feedback_lost_slots"] == 40 * 3

    def test_backoff_cap_reflects_spec(self):
        injector = self.build(
            FaultPlan((DownloadFailure(probability=1.0, max_backoff=16),))
        )
        assert injector.backoff_cap(0, 0) == 16

    @pytest.mark.parametrize(
        "accessor",
        ["offline_mask", "feedback_lost_mask", "download_failed_mask", "backoff_caps"],
    )
    def test_mask_accessors_are_read_only(self, accessor):
        injector = self.build()
        mask = getattr(injector, accessor)
        assert mask.shape == (40, 3)
        before = mask.copy()
        with pytest.raises(ValueError, match="read-only"):
            mask[0, 0] = mask[0, 0] + 1
        np.testing.assert_array_equal(getattr(injector, accessor), before)

    def test_mask_accessors_match_point_queries(self):
        injector = self.build()
        queries = {
            "offline_mask": injector.edge_offline,
            "feedback_lost_mask": injector.feedback_lost,
            "download_failed_mask": injector.download_failed,
            "backoff_caps": injector.backoff_cap,
        }
        for name, query in queries.items():
            expected = [[query(t, i) for i in range(3)] for t in range(40)]
            assert getattr(injector, name).tolist() == expected, name

    def test_edge_fault_guard_ignores_market_faults(self):
        market_only = FaultPlan(
            (MarketOutage(start=1, end=5), TradeRejection(probability=1.0))
        )
        assert not self.build(market_only).has_edge_faults
        assert self.build().has_edge_faults


class TestDeterminism:
    """Bit-level reproducibility with and without faults."""

    @pytest.mark.parametrize("scenario_name,seed", sorted(GOLDEN_DIGESTS))
    def test_empty_plan_reproduces_golden_digests(self, scenario_name, seed):
        scenario = build_scenario(SCENARIO_CONFIGS[scenario_name])
        result = run_combo(
            scenario, "Ours", "Ours", seed, label="Ours-Ours", faults=FaultPlan()
        )
        assert result_digest(result) == GOLDEN_DIGESTS[(scenario_name, seed)]

    def test_faulted_run_is_bit_reproducible(self):
        scenario = scenario_a()
        digests = {
            result_digest(
                run_combo(scenario, "Ours", "Ours", 0, faults=FULL_PLAN)
            )
            for _ in range(2)
        }
        assert len(digests) == 1

    def test_faulted_differs_from_clean(self):
        scenario = scenario_a()
        faulted = result_digest(run_combo(scenario, "Ours", "Ours", 0, faults=FULL_PLAN))
        clean = result_digest(run_combo(scenario, "Ours", "Ours", 0))
        assert faulted != clean

    def test_json_round_tripped_plan_gives_same_bytes(self):
        scenario = scenario_a()
        reloaded = FaultPlan.from_json(FULL_PLAN.to_json())
        assert result_digest(
            run_combo(scenario, "Ours", "Ours", 0, faults=FULL_PLAN)
        ) == result_digest(run_combo(scenario, "Ours", "Ours", 0, faults=reloaded))


class TestDegradation:
    """Each fault kind degrades exactly as documented."""

    def test_edge_outage_freezes_the_edge(self):
        plan = FaultPlan((EdgeOutage(edge=0, start=4, end=12),))
        result = run_combo(scenario_a(), "Ours", "Ours", 0, faults=plan)
        # An offline edge cannot download, so it never switches models.
        assert not result.switches[4:12, 0].any()

    def test_market_outage_zeroes_trades_in_window(self):
        plan = FaultPlan((MarketOutage(start=10, end=20),))
        result = run_combo(scenario_a(), "Ours", "Ours", 0, faults=plan)
        clean = run_combo(scenario_a(), "Ours", "Ours", 0)
        assert float(np.abs(clean.bought).sum() + np.abs(clean.sold).sum()) > 0
        assert not result.bought[10:20].any()
        assert not result.sold[10:20].any()

    def test_total_rejection_zeroes_all_trades(self):
        plan = FaultPlan((TradeRejection(probability=1.0),))
        result = run_combo(scenario_a(), "Ours", "Ours", 0, faults=plan)
        assert not result.bought.any()
        assert not result.sold.any()

    def test_total_download_failure_pins_initial_models(self):
        plan = FaultPlan((DownloadFailure(probability=1.0),))
        result = run_combo(scenario_a(), "Ours", "Ours", 0, faults=plan)
        # Initial provisioning (nothing hosted yet) always succeeds; every
        # later switch needs a download, and every download fails.
        assert not result.switches[1:].any()

    def test_total_feedback_loss_stays_finite(self):
        plan = FaultPlan((FeedbackLoss(probability=1.0),))
        result = run_combo(scenario_a(), "Ours", "Ours", 0, faults=plan)
        assert np.isfinite(result.expected_inference_cost).all()
        assert np.isfinite(result.emissions).all()


class TestTraceEvents:
    def traced(self, plan):
        tracer = Tracer()
        run_combo(scenario_a(), "Ours", "Ours", 0, tracer=tracer, faults=plan)
        return tracer.event_counts()

    def test_fault_events_emitted(self):
        counts = self.traced(FULL_PLAN)
        assert counts.get("fault_injected", 0) > 0
        assert counts.get("feedback_lost", 0) > 0
        assert counts.get("trade_rejected", 0) > 0
        assert counts.get("retry", 0) > 0

    def test_clean_run_emits_no_fault_events(self):
        counts = self.traced(FaultPlan())
        for name in ("fault_injected", "feedback_lost", "trade_rejected", "retry"):
            assert name not in counts

    def test_trade_rejections_match_outage_window(self):
        counts = self.traced(FaultPlan((MarketOutage(start=10, end=20),)))
        assert counts["trade_rejected"] == 10


class TestGilbertElliott:
    """Two-state Markov (bursty) feedback loss: validation, round-trip,
    realization determinism, and burstiness."""

    def spec(self, **overrides):
        params = dict(p_bad=0.15, p_good=0.4, loss_bad=0.95, loss_good=0.02)
        params.update(overrides)
        return GilbertElliottLoss(**params)

    @staticmethod
    def lost_grid(injector, horizon, num_edges):
        return np.array([
            [injector.feedback_lost(t, i) for i in range(num_edges)]
            for t in range(horizon)
        ])

    def test_json_round_trip(self):
        plan = FaultPlan((self.spec(edge=1, start=3, end=30),))
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_validation_rejects_bad_probabilities(self):
        for field, value in (
            ("p_bad", 1.5),
            ("p_good", -0.1),
            ("loss_bad", 2.0),
            ("loss_good", -1.0),
        ):
            with pytest.raises(ValueError):
                self.spec(**{field: value})
        with pytest.raises(ValueError):
            self.spec(edge=-1)
        with pytest.raises(ValueError):
            self.spec(start=10, end=5)

    def test_realization_is_deterministic(self):
        plan = FaultPlan((self.spec(),))

        def grid():
            injector = FaultInjector(
                plan, horizon=60, num_edges=3, rng=RngFactory(5).child("faults")
            )
            return self.lost_grid(injector, 60, 3)

        assert (grid() == grid()).all()

    def test_losses_are_bursty_relative_to_good_state(self):
        # With a near-absorbing bad state (loss ~1) and clean good state
        # (loss ~0), lost slots must cluster: the chance a loss is followed
        # by another loss far exceeds the marginal loss rate.
        plan = FaultPlan(
            (self.spec(p_bad=0.05, p_good=0.1, loss_bad=1.0, loss_good=0.0),)
        )
        injector = FaultInjector(
            plan, horizon=4000, num_edges=1, rng=RngFactory(3).child("faults")
        )
        lost = self.lost_grid(injector, 4000, 1)[:, 0]
        marginal = lost.mean()
        assert 0.05 < marginal < 0.8
        followers = lost[1:][lost[:-1]]
        assert followers.mean() > marginal + 0.2

    def test_window_and_edge_scoping(self):
        plan = FaultPlan(
            (self.spec(p_bad=0.9, p_good=0.05, edge=1, start=10, end=20),)
        )
        injector = FaultInjector(
            plan, horizon=40, num_edges=3, rng=RngFactory(11).child("faults")
        )
        lost = self.lost_grid(injector, 40, 3)
        assert not lost[:, 0].any() and not lost[:, 2].any()
        assert not lost[:10, 1].any() and not lost[20:, 1].any()
        assert lost[10:20, 1].any()

    def test_faulted_run_is_reproducible(self):
        plan = FaultPlan((self.spec(),))
        scenario = scenario_a()
        a = run_combo(scenario, "Ours", "Ours", 0, faults=plan)
        b = run_combo(scenario, "Ours", "Ours", 0, faults=plan)
        assert (a.selections == b.selections).all()
        assert float(a.trading_cost.sum()) == float(b.trading_cost.sum())

    def test_feedback_loss_changes_behavior(self):
        plan = FaultPlan(
            (self.spec(p_bad=0.5, p_good=0.05, loss_bad=1.0, loss_good=0.0),)
        )
        scenario = scenario_a()
        tracer = Tracer()
        run_combo(scenario, "Ours", "Ours", 0, tracer=tracer, faults=plan)
        assert tracer.event_counts().get("feedback_lost", 0) > 0
