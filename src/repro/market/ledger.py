"""Allowance ledger: tracks emissions versus allowance holdings over time.

The ledger is the accounting view of the paper's long-term constraint (1c):

    sum_t emissions_t  <=  R + sum_t bought_t - sum_t sold_t.

Its cumulative positive violation is exactly the "fit" of Theorem 2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.obs.events import EmissionEvent
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.utils.validation import check_nonnegative

__all__ = ["LedgerSnapshot", "AllowanceLedger"]

#: Slots the history buffer holds before its first doubling.
_INITIAL_CAPACITY = 64


@dataclass(frozen=True)
class LedgerSnapshot:
    """Cumulative ledger state after some number of slots."""

    slots: int
    cumulative_emissions: float
    cumulative_bought: float
    cumulative_sold: float
    initial_cap: float

    @property
    def holdings(self) -> float:
        """Allowances currently held: ``R + sum z - sum w``."""
        return self.initial_cap + self.cumulative_bought - self.cumulative_sold

    @property
    def violation(self) -> float:
        """Positive part of (emissions - holdings); zero when neutral."""
        return max(self.cumulative_emissions - self.holdings, 0.0)

    @property
    def is_neutral(self) -> bool:
        """Whether cumulative emissions are fully covered."""
        return self.violation <= 1e-9


class AllowanceLedger:
    """Records per-slot emissions and trades; answers neutrality queries."""

    def __init__(self, initial_cap: float, *, tracer: Tracer | None = None) -> None:
        self._cap = check_nonnegative(initial_cap, "initial_cap")
        # Rows are emissions, bought and sold; column ``t`` is slot ``t``.
        # Only the first ``_slots`` columns are history — the rest is spare
        # capacity, doubled whenever the buffer fills.
        self._book = np.zeros((3, _INITIAL_CAPACITY))
        self._slots = 0
        self._tracer = tracer if tracer is not None else NULL_TRACER
        # Running totals for event emission only; snapshot() reduces the
        # recorded history pairwise, exactly as np.sum over it would.
        self._running_emissions = 0.0
        self._running_net_purchase = 0.0
        self._rejected_trades = 0
        self._deferred_buy_total = 0.0
        self._deferred_sell_total = 0.0

    def bind_tracer(self, tracer: Tracer) -> None:
        """Attach the event bus future records should emit through."""
        self._tracer = tracer

    def __getstate__(self) -> dict[str, object]:
        """Pickle the recorded history only, without the bound tracer.

        The spare capacity stays behind so snapshots do not grow with it,
        and the tracer may hold open file sinks.
        """
        state = dict(self.__dict__)
        state["_tracer"] = NULL_TRACER
        state["_book"] = self._book[:, : self._slots].copy()
        return state

    def __setstate__(self, state: dict[str, object]) -> None:
        """Restore a pickled ledger, including the older list layout."""
        state = dict(state)
        if "_book" not in state:
            # Ledgers pickled before the array-backed book kept one Python
            # list per series; the float64 conversion is exact.
            history = [state.pop(key) for key in ("_emissions", "_bought", "_sold")]
            state["_book"] = np.array(history, dtype=float)
            state["_slots"] = len(history[0])
        self.__dict__.update(state)

    @property
    def initial_cap(self) -> float:
        """The pre-allocated allowance cap ``R``."""
        return self._cap

    @property
    def slots_recorded(self) -> int:
        """Number of slots recorded so far."""
        return self._slots

    def record(self, emissions: float, bought: float, sold: float) -> None:
        """Record one slot's emissions and trade quantities."""
        check_nonnegative(emissions, "emissions")
        check_nonnegative(bought, "bought")
        check_nonnegative(sold, "sold")
        t = self._slots
        book = self._book
        if t == book.shape[1]:
            grown = np.zeros((3, max(2 * t, _INITIAL_CAPACITY)))
            grown[:, :t] = book
            book = self._book = grown
        book[0, t] = emissions
        book[1, t] = bought
        book[2, t] = sold
        self._slots = t + 1
        self._running_emissions += float(emissions)
        self._running_net_purchase += float(bought) - float(sold)
        tracer = self._tracer
        if tracer.enabled:
            holdings = self._cap + self._running_net_purchase
            tracer.emit(
                EmissionEvent(
                    t=t,
                    emissions_kg=float(emissions),
                    cumulative_kg=self._running_emissions,
                    holdings_kg=holdings,
                    violation_kg=max(self._running_emissions - holdings, 0.0),
                )
            )

    def record_rejection(self, buy: float, sell: float) -> None:
        """Tally a slot whose intended trade did not execute.

        The slot itself is still recorded via :meth:`record` with zero
        volumes (the ledger reflects only realized state); this side tally
        tracks how much intent was deferred so reconciliation is auditable.
        """
        self._rejected_trades += 1
        self._deferred_buy_total += float(check_nonnegative(buy, "buy"))
        self._deferred_sell_total += float(check_nonnegative(sell, "sell"))

    @property
    def rejected_trades(self) -> int:
        """Number of slots whose trade was rejected or deferred."""
        return self._rejected_trades

    @property
    def deferred_volumes(self) -> tuple[float, float]:
        """Total (buy, sell) intent that failed to execute when decided."""
        return (self._deferred_buy_total, self._deferred_sell_total)

    def snapshot(self) -> LedgerSnapshot:
        """Current cumulative state."""
        n = self._slots
        book = self._book
        # ``np.add.reduce`` is the pairwise routine inside ``np.sum``; over
        # the same contiguous values it gives the same bits.
        return LedgerSnapshot(
            slots=n,
            cumulative_emissions=float(np.add.reduce(book[0, :n])),
            cumulative_bought=float(np.add.reduce(book[1, :n])),
            cumulative_sold=float(np.add.reduce(book[2, :n])),
            initial_cap=self._cap,
        )

    def emissions_series(self) -> np.ndarray:
        """Per-slot emissions recorded so far (a copy)."""
        return self._book[0, : self._slots].copy()

    def net_purchase_series(self) -> np.ndarray:
        """Per-slot net allowance purchases (bought - sold)."""
        n = self._slots
        return self._book[1, :n] - self._book[2, :n]

    def violation_series(self) -> np.ndarray:
        """Running positive violation after each recorded slot.

        Entry ``t`` is ``[sum_{s<=t} e_s - (R + sum_{s<=t} z_s - w_s)]^+`` —
        the paper's fit measured at every prefix of the horizon.
        """
        emissions, bought, sold = self._book[:, : self._slots]
        holdings = self._cap + np.cumsum(bought) - np.cumsum(sold)
        return np.maximum(np.cumsum(emissions) - holdings, 0.0)
