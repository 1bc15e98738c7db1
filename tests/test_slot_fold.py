"""The one slot fold: :class:`SlotAggregator` over :class:`SlotOutcomes` records.

Every run mode folds through ``SlotAggregator.fold``: the scalar loop one
slot at a time, the vectorized path its whole horizon as one record, the
serve parent each slot its workers report.  The contract pinned here is
the one the golden digests rest on: each per-slot result is the Python-float
sum of a column in ascending edge order, whatever the record's slot count,
and the trading kernel steps once per slot, in slot order.
"""

from __future__ import annotations

import pickle
from types import SimpleNamespace

import numpy as np

from repro.sim.kernel import EdgeSlotOutcome, SlotAggregator, SlotOutcomes

NUM_EDGES = 64
NUM_SLOTS = 60
#: The record's per-edge-slot columns: every row field after ``t``/``edge``.
COLUMNS = EdgeSlotOutcome._fields[2:]
COST_FIELDS = (
    "expected_loss", "slot_loss", "latency", "switch_cost", "emissions_kg",
)
#: Result array each cost column's edge sum lands in.
RESULT_OF = {
    "expected_loss": "expected_inference",
    "slot_loss": "realized_loss",
    "latency": "compute_cost",
    "switch_cost": "switching_cost",
    "emissions_kg": "emissions",
}


class RecordingTrader:
    """A trading kernel stand-in that records every step it is given."""

    def __init__(self) -> None:
        self.steps: list[tuple[int, float]] = []

    def step(self, t: int, slot_emissions: float) -> tuple[float, float, float]:
        self.steps.append((t, slot_emissions))
        return float(t), 2.0 * t, slot_emissions


def random_record(seed: int = 7) -> SlotOutcomes:
    """A seeded whole-range record: per-edge magnitudes from 1e-3 to 1e3,
    with offline, shed and switched rows and one slot that serves nothing."""
    rng = np.random.default_rng(seed)
    shape = (NUM_EDGES, NUM_SLOTS)
    offline = rng.random(shape) < 0.1
    shed = ~offline & (rng.random(shape) < 0.05)
    offline[:, 17] = True  # every edge down: nothing served, NaN accuracy
    shed[:, 17] = False
    idle = offline | shed
    arrivals = rng.integers(1, 40, size=shape)
    served = np.where(idle, 0, arrivals)
    scale = 10.0 ** rng.uniform(-3.0, 3.0, size=(NUM_EDGES, 1))
    columns = {
        name: np.where(idle, 0.0, rng.random(shape) * scale)
        for name in COST_FIELDS
    }
    switched = ~idle & (rng.random(shape) < 0.2)
    columns["switch_cost"] = np.where(switched, columns["switch_cost"], 0.0)
    correct = np.floor(rng.random(shape) * (served + 1))
    return SlotOutcomes(
        0,
        np.arange(NUM_EDGES),
        model=rng.integers(0, 4, size=shape),
        switched=switched,
        offline=offline,
        shed=shed,
        arrivals=arrivals,
        served=served,
        correct=correct,
        **columns,
    )


def slot_rows(record: SlotOutcomes, s: int) -> list[EdgeSlotOutcome]:
    """Slot ``s`` of ``record`` as kernel rows of Python scalars."""
    columns = [getattr(record, name) for name in COLUMNS]
    return [
        EdgeSlotOutcome(s, int(edge), *(column[i, s].item() for column in columns))
        for i, edge in enumerate(record.edge)
    ]


def aggregator() -> tuple[SlotAggregator, RecordingTrader]:
    trader = RecordingTrader()
    scenario = SimpleNamespace(horizon=NUM_SLOTS, num_edges=NUM_EDGES)
    return SlotAggregator(scenario, trader), trader


def edge_order_sum(column: np.ndarray, s: int) -> float:
    total = 0.0
    for value in column[:, s].tolist():
        total += value
    return total


class TestFoldContract:
    def test_slotwise_and_range_folds_match_the_edge_order_reference(self):
        record = random_record()
        by_slot, slot_trader = aggregator()
        for s in range(NUM_SLOTS):
            by_slot.fold(s, SlotOutcomes.from_rows(slot_rows(record, s)))
        by_range, range_trader = aggregator()
        by_range.fold(0, record)
        slotwise = by_slot.partial_arrays(NUM_SLOTS)
        ranged = by_range.partial_arrays(NUM_SLOTS)

        for name in ranged:
            np.testing.assert_array_equal(slotwise[name], ranged[name], err_msg=name)
        for field, result in RESULT_OF.items():
            column = getattr(record, field)
            reference = [edge_order_sum(column, s) for s in range(NUM_SLOTS)]
            # Bitwise: the same float, not a close one.
            assert ranged[result].tolist() == reference, field
        served = record.served.sum(axis=0)
        assert ranged["arrivals_total"].tolist() == served.tolist()
        accuracy = ranged["accuracy"]
        assert np.isnan(accuracy[17]) and served[17] == 0
        for s in np.flatnonzero(served):
            assert accuracy[s] == edge_order_sum(record.correct, s) / int(served[s])
        np.testing.assert_array_equal(ranged["selections"], record.model.T)
        np.testing.assert_array_equal(ranged["switches"], record.switched.T)

        # One trading step per slot, in slot order, on the slot's emissions.
        expected_steps = [
            (s, edge_order_sum(record.emissions_kg, s)) for s in range(NUM_SLOTS)
        ]
        assert slot_trader.steps == range_trader.steps == expected_steps
        assert ranged["bought"].tolist() == [float(s) for s in range(NUM_SLOTS)]

    def test_the_record_separates_edge_order_from_pairwise_sums(self):
        # numpy sums one slot's column pairwise, which moves the last bits
        # on most 64-edge columns; this is why the fold accumulates.  On a
        # record where the two agreed, the contract test above could not
        # catch a fold that reduced.
        record = random_record()
        column = record.emissions_kg
        pairwise = [float(column[:, s].sum()) for s in range(NUM_SLOTS)]
        ordered = [edge_order_sum(column, s) for s in range(NUM_SLOTS)]
        assert pairwise != ordered

    def test_folds_land_at_their_start_slot(self):
        record = random_record()
        whole, _ = aggregator()
        whole.fold(0, record)
        split, trader = aggregator()
        for lo, hi in ((0, 23), (23, 24), (24, NUM_SLOTS)):
            columns = {name: getattr(record, name)[:, lo:hi] for name in COLUMNS}
            split.fold(lo, SlotOutcomes(lo, record.edge, **columns))
        parts = split.partial_arrays(NUM_SLOTS)
        for name, array in whole.partial_arrays(NUM_SLOTS).items():
            np.testing.assert_array_equal(parts[name], array, err_msg=name)
        assert [t for t, _ in trader.steps] == list(range(NUM_SLOTS))


class TestRecord:
    def test_from_rows_keeps_one_column_per_outcome_field(self):
        rows = [
            EdgeSlotOutcome(
                t=5, edge=e, model=e % 3, switched=e == 1, offline=e == 2,
                shed=False, arrivals=3 + e, served=0 if e == 2 else 3 + e,
                latency=0.5 * e,
            )
            for e in range(4)
        ]
        record = SlotOutcomes.from_rows(rows)
        assert record.t == 5 and record.num_slots == 1
        assert record.edge.tolist() == [0, 1, 2, 3]
        assert record.offline[:, 0].tolist() == [False, False, True, False]
        assert record.latency.dtype == np.float64 and record.model.dtype.kind == "i"
        # Untouched cost fields default to zero, as for a shed or offline row.
        assert not record.emissions_kg.any()
        restored = pickle.loads(pickle.dumps(record))
        for name in ("edge", *COLUMNS):
            np.testing.assert_array_equal(
                getattr(restored, name), getattr(record, name)
            )

    def test_merge_orders_rows_by_edge(self):
        def row(e):
            return EdgeSlotOutcome(
                t=2, edge=e, model=e, switched=False, offline=False, shed=False,
                arrivals=e, served=e, latency=float(e),
            )

        high = SlotOutcomes.from_rows([row(3), row(4)])
        low = SlotOutcomes.from_rows([row(0), row(1)])
        gap = SlotOutcomes.from_rows([row(2)])
        merged = SlotOutcomes.merge([high, low, gap])
        assert merged.t == 2
        assert merged.edge.tolist() == [0, 1, 2, 3, 4]
        assert merged.latency[:, 0].tolist() == [0.0, 1.0, 2.0, 3.0, 4.0]
        assert SlotOutcomes.merge([low]) is low
