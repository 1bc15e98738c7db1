"""Tests for the carbon market and allowance ledger."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.market.ledger import AllowanceLedger
from repro.market.market import CarbonMarket, Trade
from repro.obs.tracer import NULL_TRACER
from repro.traces.carbon_prices import PriceSeries


@pytest.fixture()
def prices():
    buy = np.array([8.0, 10.0, 6.0])
    return PriceSeries(buy=buy, sell=0.9 * buy)


class TestTrade:
    def test_cost(self):
        trade = Trade(slot=0, bought=10.0, sold=4.0, buy_price=8.0, sell_price=7.2)
        assert trade.cost == pytest.approx(10 * 8 - 4 * 7.2)
        assert trade.net_quantity == pytest.approx(6.0)


class TestCarbonMarket:
    def test_prices(self, prices):
        market = CarbonMarket(prices)
        assert market.buy_price(1) == 10.0
        assert market.sell_price(2) == pytest.approx(5.4)

    def test_execute_records_trade(self, prices):
        market = CarbonMarket(prices)
        market.execute(0, 5.0, 1.0)
        market.execute(2, 0.0, 2.0)
        assert len(market.trades) == 2
        assert market.total_cost() == pytest.approx(5 * 8 - 1 * 7.2 - 2 * 5.4)

    def test_out_of_horizon_rejected(self, prices):
        market = CarbonMarket(prices)
        with pytest.raises(IndexError):
            market.buy_price(3)
        with pytest.raises(IndexError):
            market.execute(-1, 1.0, 0.0)

    def test_negative_quantities_rejected(self, prices):
        market = CarbonMarket(prices)
        with pytest.raises(ValueError):
            market.execute(0, -1.0, 0.0)


class TestAllowanceLedger:
    def test_neutral_when_covered(self):
        ledger = AllowanceLedger(initial_cap=100.0)
        ledger.record(emissions=30.0, bought=0.0, sold=0.0)
        snap = ledger.snapshot()
        assert snap.is_neutral
        assert snap.violation == 0.0
        assert snap.holdings == 100.0

    def test_violation_when_uncovered(self):
        ledger = AllowanceLedger(initial_cap=10.0)
        ledger.record(emissions=30.0, bought=5.0, sold=0.0)
        snap = ledger.snapshot()
        assert snap.violation == pytest.approx(15.0)
        assert not snap.is_neutral

    def test_selling_reduces_holdings(self):
        ledger = AllowanceLedger(initial_cap=50.0)
        ledger.record(emissions=0.0, bought=0.0, sold=20.0)
        assert ledger.snapshot().holdings == pytest.approx(30.0)

    def test_violation_series_prefixwise(self):
        ledger = AllowanceLedger(initial_cap=10.0)
        ledger.record(5.0, 0.0, 0.0)   # cum e=5,  holdings=10 -> 0
        ledger.record(10.0, 0.0, 0.0)  # cum e=15, holdings=10 -> 5
        ledger.record(0.0, 10.0, 0.0)  # cum e=15, holdings=20 -> 0
        np.testing.assert_allclose(ledger.violation_series(), [0.0, 5.0, 0.0])

    def test_net_purchase_series(self):
        ledger = AllowanceLedger(initial_cap=0.0)
        ledger.record(0.0, 3.0, 1.0)
        ledger.record(0.0, 0.0, 2.0)
        np.testing.assert_allclose(ledger.net_purchase_series(), [2.0, -2.0])

    def test_negative_values_rejected(self):
        ledger = AllowanceLedger(initial_cap=0.0)
        with pytest.raises(ValueError):
            ledger.record(-1.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            AllowanceLedger(initial_cap=-5.0)

    @given(
        st.lists(
            st.tuples(
                st.floats(0, 100), st.floats(0, 100), st.floats(0, 100)
            ),
            min_size=1,
            max_size=30,
        ),
        st.floats(0, 500),
    )
    @settings(max_examples=50, deadline=None)
    def test_invariants(self, records, cap):
        """Ledger identities hold for arbitrary histories."""
        ledger = AllowanceLedger(initial_cap=cap)
        for e, z, w in records:
            ledger.record(e, z, w)
        snap = ledger.snapshot()
        series = ledger.violation_series()
        assert snap.slots == len(records)
        # Final violation in the series equals the snapshot violation.
        assert series[-1] == pytest.approx(snap.violation, abs=1e-9)
        # Violations are the positive part of an accounting identity.
        assert np.all(series >= 0)
        assert snap.holdings == pytest.approx(
            cap + sum(z for _, z, _ in records) - sum(w for *_, w in records),
            abs=1e-6,
        )


def _record_all(ledger, emissions, bought, sold):
    for e, z, w in zip(emissions, bought, sold):
        ledger.record(e, z, w)


def _random_history(length, seed):
    """Three float lists with a share of exact zeros, as trading produces."""
    rng = np.random.default_rng(seed)
    values = rng.exponential(25.0, size=(3, length))
    values[rng.random((3, length)) < 0.3] = 0.0
    return [[float(v) for v in row] for row in values]


class TestLedgerBook:
    """The array-backed history reduces exactly like ``np.sum`` over lists.

    Lengths cross NumPy's pairwise-summation block sizes (<8, 8-128, >128)
    and the buffer's doubling points (64, 128, 256, ...).
    """

    @pytest.mark.parametrize(
        "length",
        [0, 1, 7, 8, 9, 63, 64, 65, 127, 128, 129, 255, 256, 257, 1000, 2049, 9000],
    )
    def test_aggregates_and_series_match_lists_exactly(self, length):
        emissions, bought, sold = _random_history(length, seed=length)
        ledger = AllowanceLedger(initial_cap=40.0)
        _record_all(ledger, emissions, bought, sold)
        snap = ledger.snapshot()
        assert snap.slots == length
        assert snap.cumulative_emissions == float(np.sum(emissions))
        assert snap.cumulative_bought == float(np.sum(bought))
        assert snap.cumulative_sold == float(np.sum(sold))
        np.testing.assert_array_equal(ledger.emissions_series(), np.asarray(emissions))
        np.testing.assert_array_equal(
            ledger.net_purchase_series(), np.asarray(bought) - np.asarray(sold)
        )
        holdings = 40.0 + np.cumsum(bought) - np.cumsum(sold)
        np.testing.assert_array_equal(
            ledger.violation_series(),
            np.maximum(np.cumsum(emissions) - holdings, 0.0),
        )

    def test_every_prefix_snapshot_matches_np_sum(self):
        emissions, bought, sold = _random_history(300, seed=7)
        ledger = AllowanceLedger(initial_cap=0.0)
        for n, (e, z, w) in enumerate(zip(emissions, bought, sold), start=1):
            ledger.record(e, z, w)
            snap = ledger.snapshot()
            assert snap.cumulative_emissions == float(np.sum(emissions[:n]))
            assert snap.cumulative_bought == float(np.sum(bought[:n]))
            assert snap.cumulative_sold == float(np.sum(sold[:n]))

    def test_returned_series_are_copies(self):
        emissions, bought, sold = _random_history(70, seed=3)
        ledger = AllowanceLedger(initial_cap=10.0)
        _record_all(ledger, emissions, bought, sold)
        before = ledger.snapshot()
        for series in (
            ledger.emissions_series(),
            ledger.net_purchase_series(),
            ledger.violation_series(),
        ):
            series[:] = -1.0
        assert ledger.snapshot() == before
        np.testing.assert_array_equal(ledger.emissions_series(), np.asarray(emissions))

    def test_pickle_keeps_only_recorded_history(self):
        emissions, bought, sold = _random_history(65, seed=5)
        ledger = AllowanceLedger(initial_cap=10.0)
        _record_all(ledger, emissions, bought, sold)
        assert ledger.__getstate__()["_book"].shape == (3, 65)
        restored = pickle.loads(pickle.dumps(ledger))
        assert restored.snapshot() == ledger.snapshot()
        # The restored ledger keeps recording from where it stopped.
        for target in (ledger, restored):
            target.record(1.5, 2.0, 0.25)
        assert restored.snapshot() == ledger.snapshot()
        np.testing.assert_array_equal(
            restored.violation_series(), ledger.violation_series()
        )

    @pytest.mark.parametrize("length", [0, 5, 130])
    def test_unpickles_list_layout(self, length):
        """A ledger pickled with one Python list per series still loads."""
        emissions, bought, sold = _random_history(length, seed=11)
        state = {
            "_cap": 30.0,
            "_emissions": emissions,
            "_bought": bought,
            "_sold": sold,
            "_tracer": NULL_TRACER,
            "_running_emissions": sum(emissions),
            "_running_net_purchase": sum(bought) - sum(sold),
            "_rejected_trades": 2,
            "_deferred_buy_total": 1.0,
            "_deferred_sell_total": 0.5,
        }

        class ListLayoutLedger:
            # Pickles as an AllowanceLedger carrying the list-layout state.
            def __reduce__(self):
                return (object.__new__, (AllowanceLedger,), state)

        ledger = pickle.loads(pickle.dumps(ListLayoutLedger()))
        assert isinstance(ledger, AllowanceLedger)
        snap = ledger.snapshot()
        assert snap.slots == ledger.slots_recorded == length
        assert snap.cumulative_emissions == float(np.sum(emissions))
        assert snap.cumulative_bought == float(np.sum(bought))
        assert snap.cumulative_sold == float(np.sum(sold))
        assert ledger.rejected_trades == 2
        np.testing.assert_array_equal(ledger.emissions_series(), np.asarray(emissions))
        np.testing.assert_array_equal(
            ledger.net_purchase_series(), np.asarray(bought) - np.asarray(sold)
        )
        ledger.record(3.0, 0.0, 1.0)
        assert ledger.snapshot().cumulative_emissions == float(
            np.sum(emissions + [3.0])
        )
