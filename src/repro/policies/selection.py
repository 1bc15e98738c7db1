"""Interface for per-edge model-selection policies (problem P1).

One policy instance controls one edge.  At each slot the simulator calls
:meth:`SelectionPolicy.select` to obtain the model to host, runs inference,
and feeds back the realized slot loss ``L_{i,n}^t + v_{i,n}`` through
:meth:`SelectionPolicy.observe` — bandit feedback: only the chosen model's
loss is revealed.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro.obs.tracer import NULL_TRACER, Tracer

__all__ = ["SelectionPolicy"]

#: The tracer binding: the runtime's, never part of a policy's state.
_BINDING = ("tracer", "trace_edge")


class SelectionPolicy:
    """Base class for model-selection policies on a single edge."""

    #: short identifier used in experiment tables (e.g. "Ran", "UCB").
    name: str = "base"

    #: event bus receiving this policy's structured events (no-op default).
    tracer: Tracer = NULL_TRACER

    #: edge index stamped into emitted events (set by ``bind_tracer``).
    trace_edge: int = 0

    #: Attributes the constructor takes from the config; :meth:`load_state`
    #: refuses a state whose values differ.
    _fixed: tuple[str, ...] = ("num_models",)

    #: Attributes the constructor rebuilds from the config: never state.
    _rebuilt: tuple[str, ...] = ()

    def __init__(self, num_models: int) -> None:
        if num_models <= 0:
            raise ValueError(f"num_models must be positive, got {num_models}")
        self.num_models = num_models
        self.feedback_losses = 0

    def bind_tracer(self, tracer: Tracer, edge: int = 0) -> None:
        """Attach the event bus (and this policy's edge index for events)."""
        self.tracer = tracer
        self.trace_edge = edge

    def __getstate__(self) -> dict[str, object]:
        """Pickle without the bound tracer (it may hold open file sinks).

        An unpickled policy falls back to the class-level ``NULL_TRACER``;
        the restoring runtime rebinds its own tracer via ``bind_tracer``.
        """
        state = dict(self.__dict__)
        state.pop("tracer", None)
        return state

    def state_dict(self) -> dict[str, object]:
        """The policy's state as plain data, for checkpoints and snapshots.

        Every instance attribute but the tracer binding and ``_rebuilt``;
        each ``np.random.Generator`` as its bit-generator state.  Arrays and
        lists are the live ones: pickle or copy the dict before stepping on.
        """
        state = {}
        for name, value in vars(self).items():
            if name in _BINDING or name in self._rebuilt:
                continue
            if isinstance(value, np.random.Generator):
                value = value.bit_generator.state
            state[name] = value
        return state

    def load_state(self, state: Mapping[str, object]) -> None:
        """Restore :meth:`state_dict`'s output into this policy, in place.

        Generators keep their objects and take the saved bit-generator
        state; every other value is adopted.  A state whose ``_fixed``
        attributes differ from this policy's raises ``ValueError``.
        """
        for name in self._fixed:
            if state[name] != getattr(self, name):
                raise ValueError(
                    f"state has {name}={state[name]!r}, "
                    f"this policy has {getattr(self, name)!r}"
                )
        for name, value in state.items():
            current = getattr(self, name, None)
            if isinstance(current, np.random.Generator):
                current.bit_generator.state = value
            else:
                setattr(self, name, value)

    def select(self, t: int) -> int:
        """Return the model index to host at slot ``t``."""
        raise NotImplementedError

    def observe(self, t: int, model: int, loss: float) -> None:
        """Feed back the realized slot loss of the *chosen* model.

        ``loss`` is the paper's ``L_{i,n}^t + v_{i,n}`` — average inference
        loss over the slot's arrivals plus the model's computation cost.
        """
        raise NotImplementedError

    def observe_lost(self, t: int, model: int) -> None:
        """Note that slot ``t``'s feedback never arrived (fault injection).

        The default keeps estimators untouched — skipping the update leaves
        importance-weighted estimates unbiased over the observed slots —
        and only tallies the loss.  Policies with per-slot bookkeeping
        (e.g. block-based selection) override this to keep their internal
        schedules consistent.
        """
        self._check_model(model)
        self.feedback_losses += 1

    def _check_model(self, model: int) -> None:
        if not 0 <= model < self.num_models:
            raise ValueError(f"model index {model} outside [0, {self.num_models})")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(num_models={self.num_models})"
