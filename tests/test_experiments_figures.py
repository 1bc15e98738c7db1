"""Smoke and shape tests for every figure experiment.

Each experiment runs at a reduced size (tiny sweeps, one or two seeds) and
is checked for the structural properties the paper's figure demonstrates.
The ``*Headline`` classes run a wider sweep (more baselines, seeds or
horizons) and check each figure's headline claim against all of them.
"""

import numpy as np
import pytest

from repro.experiments import (
    fig03_cumulative_cost,
    fig04_total_cost_vs_edges,
    fig05_switching_weight,
    fig06_emission_rate,
    fig07_carbon_cap,
    fig08_selection_histogram,
    fig09_trading_vs_workload,
    fig10_regret,
    fig11_fit,
    fig12_accuracy_mnist,
    fig13_accuracy_cifar,
    fig14_runtime,
)

SEEDS = [0, 1]


class TestFig03:
    @pytest.fixture(scope="class")
    def result(self):
        return fig03_cumulative_cost.run(
            fast=True, seeds=SEEDS, combos=(("Ran", "Ran"), ("Greedy", "LY"))
        )

    def test_series_cover_horizon(self, result):
        for series in result.series.values():
            assert series.shape == (result.horizon,)

    def test_cumulative_costs_increase(self, result):
        for label, series in result.series.items():
            assert series[-1] > series[0], label

    def test_ours_below_random(self, result):
        assert result.final_costs()["Ours"] < result.final_costs()["Ran-Ran"]

    def test_offline_lowest(self, result):
        finals = result.final_costs()
        assert finals["Offline"] == min(finals.values())

    def test_normalization(self, result):
        normalized = result.normalized()
        assert max(float(s[-1]) for s in normalized.values()) == pytest.approx(1.0)

    def test_format(self, result):
        text = fig03_cumulative_cost.format_result(result)
        assert "Fig. 3" in text
        assert "Ours" in text


class TestFig03Headline:
    @pytest.fixture(scope="class")
    def result(self):
        return fig03_cumulative_cost.run(
            fast=True,
            seeds=SEEDS,
            combos=(("Ran", "Ran"), ("Greedy", "LY"), ("UCB", "LY")),
        )

    def test_ours_lowest_online(self, result):
        finals = result.final_costs()
        online = {k: v for k, v in finals.items() if k != "Offline"}
        assert finals["Ours"] == min(online.values())

    def test_offline_at_most_ours(self, result):
        finals = result.final_costs()
        assert finals["Offline"] <= finals["Ours"]


class TestFig04:
    @pytest.fixture(scope="class")
    def result(self):
        return fig04_total_cost_vs_edges.run(
            fast=True, seeds=SEEDS, edge_counts=(3, 6), combos=(("Ran", "Ran"),)
        )

    def test_costs_grow_with_edges(self, result):
        for label, values in result.costs.items():
            assert values[1] > values[0], label

    def test_ours_lowest_online(self, result):
        for i in range(len(result.edge_counts)):
            assert result.costs["Ours"][i] < result.costs["Ran-Ran"][i]

    def test_reductions_positive(self, result):
        reductions = result.reductions_vs()
        assert reductions["Ran-Ran"] > 0

    def test_format(self, result):
        assert "Fig. 4" in fig04_total_cost_vs_edges.format_result(result)


class TestFig04Headline:
    @pytest.fixture(scope="class")
    def result(self):
        return fig04_total_cost_vs_edges.run(
            fast=True,
            seeds=SEEDS,
            edge_counts=(5, 10),
            combos=(("Ran", "Ran"), ("Greedy", "LY"), ("TINF", "LY"), ("UCB", "LY")),
        )

    def test_ours_lowest_online_at_every_scale(self, result):
        for i in range(len(result.edge_counts)):
            online = {
                label: costs[i]
                for label, costs in result.costs.items()
                if label != "Offline"
            }
            assert online["Ours"] == min(online.values())

    def test_reductions_positive(self, result):
        assert all(r > 0 for r in result.reductions_vs().values())


class TestFig05:
    @pytest.fixture(scope="class")
    def result(self):
        return fig05_switching_weight.run(fast=True, seeds=SEEDS, sweep=(1.0, 8.0))

    def test_ours_flatter_than_random(self, result):
        assert result.relative_growth("Ours") < result.relative_growth("Ran-LY")

    def test_ours_lowest_at_high_weight(self, result):
        ours = result.costs["Ours"][-1]
        assert ours < result.costs["Ran-LY"][-1]
        assert ours < result.costs["TINF-LY"][-1]

    def test_ours_flatter_than_slotwise_tsallis(self, result):
        assert result.relative_growth("Ours") < result.relative_growth("TINF-LY")

    def test_ours_lowest_online_at_high_weight_but_greedy(self, result):
        # Greedy never switches, so a growing switching weight cannot hurt it.
        top = {
            k: v[-1]
            for k, v in result.costs.items()
            if k not in ("Offline", "Greedy-LY")
        }
        assert top["Ours"] == min(top.values())

    def test_format(self, result):
        assert "Fig. 5" in fig05_switching_weight.format_result(result)


class TestFig06:
    @pytest.fixture(scope="class")
    def result(self):
        return fig06_emission_rate.run(fast=True, seeds=SEEDS, rates=(0.25, 1.0))

    def test_ours_cost_grows_with_rate(self, result):
        assert result.costs["Ours"][-1] > result.costs["Ours"][0]

    def test_ours_below_lyapunov_combos(self, result):
        for i in range(2):
            assert result.costs["Ours"][i] < result.costs["UCB-LY"][i]

    def test_offline_cost_grows_with_rate(self, result):
        assert result.costs["Offline"][-1] > result.costs["Offline"][0]

    def test_ours_below_every_lyapunov_combo(self, result):
        for i in range(2):
            for label in ("Greedy-LY", "TINF-LY", "UCB-LY"):
                assert result.costs["Ours"][i] < result.costs[label][i], label

    def test_format(self, result):
        assert "Fig. 6" in fig06_emission_rate.format_result(result)


class TestFig07:
    @pytest.fixture(scope="class")
    def result(self):
        return fig07_carbon_cap.run(fast=True, seeds=SEEDS, caps=(0.0, 800.0))

    def test_cap_aware_methods_decrease(self, result):
        assert result.slope("Ours") < 0
        assert result.slope("Offline") < 0

    def test_cap_oblivious_methods_flat(self, result):
        assert abs(result.slope("UCB-TH")) < 1e-6
        assert abs(result.slope("UCB-Ran")) < 1e-6

    def test_format(self, result):
        assert "Fig. 7" in fig07_carbon_cap.format_result(result)


class TestFig07Headline:
    @pytest.fixture(scope="class")
    def result(self):
        return fig07_carbon_cap.run(fast=True, seeds=SEEDS, caps=(0.0, 500.0, 1000.0))

    def test_cap_aware_methods_decrease(self, result):
        for label in ("Ours", "Offline", "UCB-LY"):
            assert result.slope(label) < 0, label

    def test_cap_oblivious_methods_flat(self, result):
        assert abs(result.slope("UCB-Ran")) < 1e-6
        assert abs(result.slope("UCB-TH")) < 1e-6


class TestFig08:
    @pytest.fixture(scope="class")
    def result(self):
        return fig08_selection_histogram.run(fast=True, seeds=SEEDS)

    def test_counts_sum_to_horizon(self, result):
        assert result.ours_counts.sum() == pytest.approx(160.0)

    def test_negative_loss_count_correlation(self, result):
        assert result.loss_count_correlation() < -0.3

    def test_best_model_selected_most(self, result):
        best = int(np.argmin(result.expected_losses))
        assert result.ours_counts[best] == result.ours_counts.max()

    def test_invalid_edge_rejected(self):
        with pytest.raises(ValueError):
            fig08_selection_histogram.run(fast=True, seeds=[0], edge=999)

    def test_format(self, result):
        assert "Fig. 8" in fig08_selection_histogram.format_result(result)


class TestFig08Headline:
    @pytest.fixture(scope="class")
    def result(self):
        return fig08_selection_histogram.run(fast=True, seeds=[0, 1, 2])

    def test_negative_loss_count_correlation(self, result):
        assert result.loss_count_correlation() < -0.4

    def test_best_model_selected_most(self, result):
        best = int(np.argmin(result.expected_losses))
        assert result.ours_counts[best] == result.ours_counts.max()

    def test_offline_picks_a_low_loss_model(self, result):
        chosen = result.expected_losses[result.offline_choice]
        assert chosen <= np.median(result.expected_losses)


class TestFig09:
    @pytest.fixture(scope="class")
    def result(self):
        return fig09_trading_vs_workload.run(fast=True, seeds=SEEDS)

    def test_ours_tracks_workload(self, result):
        assert result.workload_correlation("Ours") > 0.5

    def test_baselines_do_not_track(self, result):
        assert result.workload_correlation("UCB-Ran") < 0.3

    def test_threshold_trader_does_not_track(self, result):
        assert result.workload_correlation("UCB-TH") < 0.3

    def test_ours_cheapest_unit_cost(self, result):
        ours = result.unit_costs["Ours"]
        others = [v for k, v in result.unit_costs.items() if k != "Ours" and not np.isnan(v)]
        assert all(ours <= v + 1e-9 for v in others)

    def test_format(self, result):
        assert "Fig. 9" in fig09_trading_vs_workload.format_result(result)


class TestFig10:
    @pytest.fixture(scope="class")
    def result(self):
        return fig10_regret.run(
            fast=True, seeds=[0], horizons=(40, 120), combos=(("Ran", "LY"),)
        )

    def test_ours_regret_below_random(self, result):
        assert result.regrets["Ours"][-1] < result.regrets["Ran-LY"][-1]

    def test_ours_sublinear(self, result):
        assert result.is_sublinear("Ours")

    def test_format(self, result):
        assert "Fig. 10" in fig10_regret.format_result(result)


class TestFig10Headline:
    @pytest.fixture(scope="class")
    def result(self):
        return fig10_regret.run(
            fast=True,
            seeds=SEEDS,
            horizons=(40, 80, 160),
            combos=(("Ran", "LY"), ("UCB", "LY")),
        )

    def test_ours_lowest_regret(self, result):
        final = {label: values[-1] for label, values in result.regrets.items()}
        assert final["Ours"] == min(final.values())

    def test_ours_sublinear(self, result):
        assert result.is_sublinear("Ours")


class TestFig11:
    @pytest.fixture(scope="class")
    def result(self):
        return fig11_fit.run(
            fast=True, seeds=[0], horizons=(40, 120), combos=(("UCB", "TH"),)
        )

    def test_ours_fit_small(self, result):
        assert result.fits["Ours"][-1] < result.fits["UCB-TH"][-1]

    def test_ours_sublinear(self, result):
        assert result.is_sublinear("Ours")

    def test_format(self, result):
        assert "Fig. 11" in fig11_fit.format_result(result)


class TestFig11Headline:
    @pytest.fixture(scope="class")
    def result(self):
        # The sub-linear bend in the fit only shows past the default
        # horizon, so this sweep reaches T=640 (cf. the paper's x-axis).
        return fig11_fit.run(
            fast=True,
            seeds=SEEDS,
            horizons=(40, 160, 640),
            combos=(("UCB", "Ran"), ("UCB", "TH"), ("UCB", "LY")),
        )

    def test_ours_lowest_fit(self, result):
        final = {label: values[-1] for label, values in result.fits.items()}
        assert final["Ours"] == min(final.values())

    def test_ours_sublinear(self, result):
        assert result.is_sublinear("Ours")

    def test_cap_oblivious_traders_violate_tenfold(self, result):
        ours = result.fits["Ours"][-1]
        assert result.fits["UCB-Ran"][-1] > 10 * ours
        assert result.fits["UCB-TH"][-1] > 10 * ours


class TestFig12And13:
    @pytest.fixture(scope="class")
    def result(self):
        return fig12_accuracy_mnist.run(fast=True, seeds=SEEDS)

    def test_accuracy_series_valid(self, result):
        for series in result.accuracy.values():
            assert np.nanmin(series) >= 0.0
            assert np.nanmax(series) <= 1.0

    def test_offline_best(self, result):
        windows = result.windowed()
        offline_q4 = windows["Offline"][-1]
        for label, values in windows.items():
            assert values[-1] <= offline_q4 + 0.02, label

    def test_greedy_worst(self, result):
        windows = result.windowed()
        greedy_q4 = windows["Greedy-Ran"][-1]
        assert windows["Ours"][-1] > greedy_q4

    def test_greedy_worst_of_all(self, result):
        windows = result.windowed()
        assert windows["Greedy-Ran"][-1] == min(v[-1] for v in windows.values())

    def test_ours_improves_over_time(self, result):
        windows = result.windowed()["Ours"]
        assert windows[-1] > windows[0]

    def test_fig13_distinct_zoo(self):
        result13 = fig13_accuracy_cifar.run(fast=True, seeds=[0])
        assert set(result13.accuracy) >= {"Ours", "Offline"}

    def test_format(self, result):
        assert "Fig. 12" in fig12_accuracy_mnist.format_result(result)


class TestFig13:
    @pytest.fixture(scope="class")
    def result(self):
        return fig13_accuracy_cifar.run(fast=True, seeds=SEEDS)

    def test_greedy_worst(self, result):
        windows = result.windowed()
        assert windows["Greedy-Ran"][-1] == min(v[-1] for v in windows.values())

    def test_ours_improves_over_time(self, result):
        windows = result.windowed()["Ours"]
        assert windows[-1] > windows[0]

    def test_offline_at_least_ours(self, result):
        windows = result.windowed()
        assert windows["Offline"][-1] >= windows["Ours"][-1] - 0.02


class TestFig14:
    @pytest.fixture(scope="class")
    def result(self):
        return fig14_runtime.run(fast=True, edge_counts=(2, 6), horizon=30)

    def test_positive_times(self, result):
        assert all(t > 0 for t in result.alg1_seconds_per_slot)
        assert all(t > 0 for t in result.alg2_seconds_per_slot)

    def test_alg1_scales_with_edges(self, result):
        assert result.alg1_scales_with_edges()

    def test_both_far_below_slot_length(self, result):
        """A 15-minute slot is 900 s; the algorithms must be far faster."""
        assert max(result.alg1_seconds_per_slot) < 90.0
        assert max(result.alg2_seconds_per_slot) < 90.0

    def test_format(self, result):
        assert "Fig. 14" in fig14_runtime.format_result(result)

    def test_runtimes_come_from_tracer_timers(self):
        from repro.obs import Tracer

        tracer = Tracer()
        result = fig14_runtime.run(
            fast=True, edge_counts=(2, 4), horizon=20, tracer=tracer
        )
        timers = tracer.metrics_snapshot()["timers"]
        assert set(timers) == {"alg1/I=2", "alg1/I=4", "alg2/I=2", "alg2/I=4"}
        for i, edges in enumerate((2, 4)):
            timer = tracer.timer(f"alg1/I={edges}")
            assert timer.count == 20, "one timer entry per slot"
            assert result.alg1_seconds_per_slot[i] == timer.mean_seconds
            assert result.alg2_seconds_per_slot[i] == (
                tracer.timer(f"alg2/I={edges}").mean_seconds
            )


class TestFig14Headline:
    @pytest.fixture(scope="class")
    def result(self):
        return fig14_runtime.run(fast=True, edge_counts=(5, 10, 20), horizon=60)

    def test_alg1_scales_with_edges(self, result):
        assert result.alg1_scales_with_edges()

    def test_both_far_below_slot_length(self, result):
        assert max(result.alg1_seconds_per_slot) < 90.0
        assert max(result.alg2_seconds_per_slot) < 1.0

    def test_alg2_cheaper_than_alg1(self, result):
        # Algorithm 2 is one primal-dual step per slot whatever the fleet
        # size; Algorithm 1 runs once per edge.
        assert max(result.alg2_seconds_per_slot) < max(result.alg1_seconds_per_slot)
