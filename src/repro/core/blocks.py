"""Block schedules and learning rates for Algorithm 1 (Theorem 1).

Theorem 1 prescribes, for edge ``i`` with download delay ``u_i`` and ``N``
models:

* block parameter   ``d_{i,k} = (3 u_i / 2) * sqrt(k / N)``,
* block length      ``|B_{i,k}| = max(ceil(d_{i,k}), 1)``,
* learning rate     ``eta_{i,k} = (2 / (d_{i,k} + 1)) * sqrt(2 / k)``.

``K_i`` is the smallest block count whose lengths sum to at least ``T``; the
last block is truncated so the lengths sum to ``T`` exactly.  Because block
lengths grow like ``sqrt(k)``, the number of model switches is bounded by
``K_i = O(N^{1/3} (T / u_i)^{2/3})``, which is what keeps the switching cost
inside the sub-linear regret bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.utils.validation import check_positive

__all__ = ["block_parameter", "learning_rate", "BlockSchedule", "build_schedule"]


def block_parameter(k: int, switch_cost: float, num_models: int) -> float:
    """The paper's ``d_{i,k} = (3 u_i / 2) sqrt(k / N)`` for block ``k >= 1``."""
    if k < 1:
        raise ValueError(f"block index must be >= 1, got {k}")
    check_positive(num_models, "num_models")
    if switch_cost < 0:
        raise ValueError(f"switch_cost must be non-negative, got {switch_cost}")
    return 1.5 * switch_cost * math.sqrt(k / num_models)


def learning_rate(k: int, switch_cost: float, num_models: int) -> float:
    """The paper's ``eta_{i,k} = 2/(d_{i,k}+1) * sqrt(2/k)``."""
    d = block_parameter(k, switch_cost, num_models)
    return (2.0 / (d + 1.0)) * math.sqrt(2.0 / k)


@dataclass(frozen=True, eq=False)
class BlockSchedule:
    """A concrete partition of ``{0, ..., T-1}`` into blocks.

    ``lengths[k]`` is the number of slots in block ``k`` (0-indexed here,
    1-indexed in the paper); ``etas[k]`` is its learning rate; ``starts[k]``
    its first slot.  Schedules compare by value; they hold arrays, so they
    are unhashable.
    """

    horizon: int
    lengths: np.ndarray
    etas: np.ndarray

    def __post_init__(self) -> None:
        if self.lengths.ndim != 1 or self.etas.shape != self.lengths.shape:
            raise ValueError("lengths and etas must be aligned 1-D arrays")
        if self.lengths.size == 0:
            raise ValueError("schedule must contain at least one block")
        if int(self.lengths.sum()) != self.horizon:
            raise ValueError(
                f"block lengths sum to {int(self.lengths.sum())}, expected {self.horizon}"
            )
        if np.any(self.lengths < 1):
            raise ValueError("every block must contain at least one slot")
        if np.any(self.etas <= 0):
            raise ValueError("learning rates must be positive")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BlockSchedule):
            return NotImplemented
        return (
            self.horizon == other.horizon
            and np.array_equal(self.lengths, other.lengths)
            and np.array_equal(self.etas, other.etas)
        )

    def __getstate__(self) -> dict[str, object]:
        """Pickle without the slot table; :meth:`_slot_table` rebuilds it."""
        state = dict(self.__dict__)
        state.pop("_slot_to_block", None)
        return state

    @property
    def num_blocks(self) -> int:
        """``K_i`` — the number of blocks covering the horizon."""
        return int(self.lengths.size)

    @property
    def starts(self) -> np.ndarray:
        """First slot of each block."""
        return np.concatenate(([0], np.cumsum(self.lengths)[:-1])).astype(int)

    def _slot_table(self) -> np.ndarray:
        """Memoized slot -> block lookup table.

        Computed lazily (not in ``__post_init__``) and left out of pickles,
        so restored schedules — serve checkpoints and snapshots carry
        policies, which carry schedules — rebuild it on first use.
        """
        table = self.__dict__.get("_slot_to_block")
        if table is None:
            table = np.repeat(np.arange(self.lengths.size), self.lengths)
            object.__setattr__(self, "_slot_to_block", table)
        return table

    def block_of_slot(self, t: int) -> int:
        """Index of the block containing slot ``t``."""
        if not 0 <= t < self.horizon:
            raise ValueError(f"slot {t} outside [0, {self.horizon})")
        return int(self._slot_table()[t])

    def is_block_start(self, t: int) -> bool:
        """Whether slot ``t`` opens a new block (a model may switch here)."""
        block = self.block_of_slot(t)
        return int(self.starts[block]) == t


def build_schedule(
    horizon: int, switch_cost: float, num_models: int
) -> BlockSchedule:
    """Construct the Theorem-1 schedule for one edge.

    The learning rates are non-increasing in ``k`` (required by Algorithm 1's
    input condition) because ``d_{i,k}`` grows with ``k``.
    """
    check_positive(horizon, "horizon")
    lengths: list[int] = []
    etas: list[float] = []
    covered = 0
    k = 1
    while covered < horizon:
        d = block_parameter(k, switch_cost, num_models)
        length = max(math.ceil(d), 1)
        length = min(length, horizon - covered)  # truncate the final block
        lengths.append(length)
        etas.append(learning_rate(k, switch_cost, num_models))
        covered += length
        k += 1
    return BlockSchedule(
        horizon=horizon,
        lengths=np.asarray(lengths, dtype=int),
        etas=np.asarray(etas, dtype=float),
    )
