"""Importance-weighted loss estimation (Algorithm 1, lines 7-9).

In the bandit setting only the chosen arm's loss is observed.  The estimator

    c_hat_{k,n} = 1{J_k = n} * c_{k,n} / p_{k,n}

is unbiased for the full loss vector under the sampling distribution ``p_k``
(shown inline in the paper), and its cumulative sums drive the next
Tsallis-OMD step.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro.utils.validation import check_probability_vector

__all__ = ["ImportanceWeightedEstimator"]


class ImportanceWeightedEstimator:
    """Accumulates unbiased cumulative loss estimates ``C_hat`` per arm."""

    def __init__(self, num_arms: int) -> None:
        if num_arms <= 0:
            raise ValueError(f"num_arms must be positive, got {num_arms}")
        self.num_arms = num_arms
        self._cumulative = np.zeros(num_arms)
        self._observations = 0

    @property
    def cumulative(self) -> np.ndarray:
        """Current ``C_hat`` vector (copy)."""
        return self._cumulative.copy()

    def cumulative_view(self) -> np.ndarray:
        """Current ``C_hat`` vector as a read-only view (no copy).

        Batch drivers stack one row per arm-set into the ``(B, N)`` input of
        :func:`~repro.core.tsallis.tsallis_inf_probabilities_batch`; the
        write lock keeps the zero-copy hand-off safe.
        """
        view = self._cumulative.view()
        view.flags.writeable = False
        return view

    @property
    def observations(self) -> int:
        """Number of block observations folded in so far."""
        return self._observations

    def state_dict(self) -> dict[str, object]:
        """The cumulative estimates (the live array) and observation count."""
        return {"cumulative": self._cumulative, "observations": self._observations}

    def load_state(self, state: Mapping[str, object]) -> None:
        """Restore :meth:`state_dict`'s output, adopting its array."""
        self._cumulative = state["cumulative"]
        self._observations = int(state["observations"])

    def update(
        self,
        chosen_arm: int,
        observed_loss: float,
        probabilities: np.ndarray,
        *,
        trusted: bool = False,
    ) -> np.ndarray:
        """Fold in one block's observation; return that block's ``c_hat``.

        Parameters
        ----------
        chosen_arm:
            The arm ``J_k`` sampled for the block.
        observed_loss:
            The realized cumulative block loss ``c_{k, J_k}``.
        probabilities:
            The sampling distribution ``p_k`` used to draw ``J_k``.
        trusted:
            Skip the defensive validation of ``probabilities`` while keeping
            its sanitizing arithmetic bit-for-bit (clip at zero, renormalize
            by the sum).  For distributions we computed ourselves — Tsallis
            solver outputs already past their simplex postcondition — the
            checks can never fire, and this path drops them from the block
            -close hot loop without moving a digest.
        """
        if not 0 <= chosen_arm < self.num_arms:
            raise ValueError(f"arm {chosen_arm} outside [0, {self.num_arms})")
        if not np.isfinite(observed_loss):
            raise ValueError(f"observed loss must be finite, got {observed_loss!r}")
        if trusted:
            arr = np.asarray(probabilities, dtype=float)
            # Exactly check_probability_vector's output arithmetic.
            p = np.maximum(arr, 0.0) / max(float(arr.sum()), 1e-300)
        else:
            p = check_probability_vector(probabilities, "probabilities")
        if p.size != self.num_arms:
            raise ValueError("probability vector length must equal num_arms")
        if p[chosen_arm] <= 0:
            raise ValueError(
                f"chosen arm {chosen_arm} has zero sampling probability; "
                "importance weighting undefined"
            )
        estimate = np.zeros(self.num_arms)
        estimate[chosen_arm] = observed_loss / p[chosen_arm]
        self._cumulative += estimate
        self._observations += 1
        return estimate
