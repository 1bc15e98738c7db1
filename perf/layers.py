"""Per-layer self times, measured from outside the program.

A :class:`LayerProfiler` replaces public functions and methods of ``repro``
with timing wrappers.  Each wrapped call charges its *self time* to a named
row: its own wall time minus the wall time of the wrapped calls nested in
it, so the rows of one process never overlap and, with the process's
residual (time spent outside every wrapped call), add up to its wall time.

Functions are rebound in every ``repro.*`` module that imported them by
name, so ``from repro.core.tsallis import tsallis_inf_probabilities`` call
sites are timed too.  The wrappers are installed before the shard tier
forks its worker; a forked worker resets its rows and hands them back to
the parent through a pipe from a ``multiprocessing.util.Finalize`` hook
that runs when the worker exits.
"""

from __future__ import annotations

import functools
import json
import multiprocessing.util
import os
import resource
import sys
import time

__all__ = ["LayerProfiler", "instrument", "layer_metrics"]


def _cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


class LayerProfiler:
    """Self-time rows and counters for the process it lives in.

    ``rows`` maps a row name to ``[self_seconds, calls]``; ``counts`` maps
    a counter name to an integer.  Create one per process, before any fork.
    """

    def __init__(self) -> None:
        self.rows: dict[str, list] = {}
        self.counts: dict[str, int] = {}
        self.role = "parent"
        # One entry per wrapped call in progress: the seconds its wrapped
        # callees took, subtracted from its own time on return.
        self._stack: list[list[float]] = []
        self._started = time.perf_counter()
        self._cpu_started = _cpu_seconds()
        self._read_fd, self._write_fd = os.pipe()
        os.set_blocking(self._read_fd, False)
        multiprocessing.util.register_after_fork(self, LayerProfiler._after_fork)

    # -- installing wrappers -------------------------------------------------

    def wrap_function(self, module, name: str, row: str, amount=None) -> None:
        """Time ``module.name`` wherever a ``repro`` module holds it by name."""
        original = getattr(module, name)
        wrapper = self._timed(original, row, amount)
        for mod in [module, *self._repro_modules()]:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)

    def wrap_method(self, cls, name: str, row: str, amount=None) -> None:
        """Time calls to ``cls.name`` (a plain function, possibly inherited)."""
        setattr(cls, name, self._timed(getattr(cls, name), row, amount))

    def count_method(self, cls, name: str, counter: str, amount) -> None:
        """Add ``amount(args, result)`` to ``counter`` per call, untimed."""
        original = getattr(cls, name)
        counts = self.counts
        counts.setdefault(counter, 0)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            result = original(*args, **kwargs)
            counts[counter] += amount(args, result)
            return result

        setattr(cls, name, wrapper)

    @staticmethod
    def _repro_modules() -> list:
        return [
            mod
            for key, mod in list(sys.modules.items())
            if mod is not None and (key == "repro" or key.startswith("repro."))
        ]

    def _timed(self, original, row: str, amount):
        entry = self.rows.setdefault(row, [0.0, 0])
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                entry[0] += elapsed - children[0]
            entry[1] += 1 if amount is None else amount(args, result)
            return result

        return wrapper

    # -- reading -------------------------------------------------------------

    def reset(self) -> None:
        """Zero every row and counter and restart the wall and CPU clocks.

        Rows and counters are zeroed in place: the wrappers hold them.
        """
        for entry in self.rows.values():
            entry[0] = 0.0
            entry[1] = 0
        for key in self.counts:
            self.counts[key] = 0
        self._stack.clear()
        self._started = time.perf_counter()
        self._cpu_started = _cpu_seconds()

    def snapshot(self) -> dict:
        """This process's rows since the last reset, with its residual."""
        wall = time.perf_counter() - self._started
        rows = {name: entry[0] for name, entry in self.rows.items()}
        return {
            "role": self.role,
            "wall_s": wall,
            "cpu_s": _cpu_seconds() - self._cpu_started,
            "rows": rows,
            "calls": {name: entry[1] for name, entry in self.rows.items()},
            "counts": dict(self.counts),
            "residual_s": wall - sum(rows.values()),
        }

    def collect_workers(self) -> list[dict]:
        """Snapshots that exited workers wrote since the last call."""
        chunks = []
        while True:
            try:
                chunk = os.read(self._read_fd, 65536)
            except BlockingIOError:
                break
            if not chunk:
                break
            chunks.append(chunk)
        text = b"".join(chunks).decode()
        return [json.loads(line) for line in text.splitlines() if line]

    # -- forked workers ------------------------------------------------------

    def _after_fork(self) -> None:
        self.reset()
        self.role = "worker"
        multiprocessing.util.Finalize(None, self._flush, exitpriority=100)

    def _flush(self) -> None:
        # One snapshot is a few KB, far below the pipe's buffer, and one
        # worker runs at a time, so the parent can read after the join.
        os.write(self._write_fd, (json.dumps(self.snapshot()) + "\n").encode())


def instrument(profiler: LayerProfiler) -> None:
    """Wrap every layer a slot crosses, each under its row name."""
    import multiprocessing.connection
    import selectors

    from repro.core import tsallis
    from repro.core.carbon_trading import OnlineCarbonTrading
    from repro.core.model_selection import OnlineModelSelection
    from repro.energy.model import EnergyModel
    from repro.ingress.adapter import IngressAdapter
    from repro.ingress.generator import RequestThinner
    from repro.ingress.router import IngressRouter
    from repro.ingress.stats import IngressStats
    from repro.market.ledger import AllowanceLedger
    from repro.market.market import CarbonMarket
    from repro.serve import frames, runtime
    from repro.serve import shard  # noqa: F401 - holds frame functions by name
    from repro.sim import vector
    from repro.sim.kernel import EdgeSlotKernel, TradingSlotKernel
    from repro.sim.simulator import Simulator

    p = profiler
    methods = {
        "core.model_selection": (
            OnlineModelSelection,
            (
                "select", "observe", "observe_lost", "open_block_with",
                "observe_block", "cumulative_estimates", "block_eta",
                "pending_block",
            ),
        ),
        "sim.kernel.edge_step": (EdgeSlotKernel, ("step", "step_offline")),
        "sim.kernel.state": (EdgeSlotKernel, ("state_dict", "load_state")),
        "sim.kernel.trading_step": (TradingSlotKernel, ("step",)),
        "core.carbon_trading": (OnlineCarbonTrading, ("decide", "observe")),
        "energy.model": (
            EnergyModel,
            ("slot_emissions_kg", "slot_emissions_kg_batch", "transfer_table_kwh"),
        ),
        "sim.simulator": (Simulator, ("run",)),
        "serve.runtime.fold": (runtime.SlotAggregator, ("fold",)),
        "serve.shard.idle": (selectors.DefaultSelector, ("select",)),
        "ingress.generator.split": (RequestThinner, ("split",)),
        "ingress.adapter": (
            IngressAdapter,
            ("next_item", "resolve_slot", "discard_slot", "state_dict", "load_state"),
        ),
        "ingress.stats.absorb": (IngressStats, ("absorb",)),
    }
    for row, (cls, names) in methods.items():
        for name in names:
            p.wrap_method(cls, name, row)
    for cls, names in (
        (CarbonMarket, ("execute", "buy_price", "sell_price")),
        (AllowanceLedger, ("record", "record_rejection", "snapshot")),
    ):
        for name in names:
            p.wrap_method(cls, name, "market")
    p.wrap_method(
        IngressRouter, "step", "ingress.router.step",
        amount=lambda args, _: int(sum(args[2])),
    )
    p.wrap_function(tsallis, "tsallis_inf_probabilities", "core.tsallis.solve")
    p.wrap_function(
        tsallis, "tsallis_inf_probabilities_batch", "core.tsallis.batch",
        amount=lambda args, _: len(args[0]),
    )
    p.wrap_function(vector, "run_vectorized", "sim.vector")
    p.wrap_function(frames, "send_frame", "serve.frames.send")
    p.wrap_function(frames, "recv_frame", "serve.frames.recv")
    p.wrap_function(runtime, "build_serve_kernels", "serve.runtime.build_kernels")
    p.wrap_function(multiprocessing.connection, "wait", "serve.shard.wait")
    connection = multiprocessing.connection.Connection
    p.count_method(connection, "send_bytes", "bytes_out", lambda args, _: len(args[1]))
    p.count_method(connection, "recv_bytes", "bytes_in", lambda _, result: len(result))


#: Per-layer metrics: name -> (unit, kind, process role or None for all
#: processes, row or counter).  ``pct`` is summed self time as a share of
#: the parent's wall time, so a worker-only layer reads as its share of the
#: worker's time and a serve run's rows add up to about 200%.
LAYER_METRICS = {
    "core.tsallis.solve_pct": ("%", "pct", None, "core.tsallis.solve"),
    "core.tsallis.solve_calls": ("count", "calls", None, "core.tsallis.solve"),
    "core.tsallis.batch_pct": ("%", "pct", None, "core.tsallis.batch"),
    "core.tsallis.batch_rows": ("count", "calls", None, "core.tsallis.batch"),
    "core.model_selection_pct": ("%", "pct", None, "core.model_selection"),
    "core.model_selection_calls": ("count", "calls", None, "core.model_selection"),
    "sim.kernel.edge_step_pct": ("%", "pct", None, "sim.kernel.edge_step"),
    "sim.kernel.edge_step_calls": ("count", "calls", None, "sim.kernel.edge_step"),
    "sim.kernel.state_pct": ("%", "pct", None, "sim.kernel.state"),
    "sim.kernel.state_calls": ("count", "calls", None, "sim.kernel.state"),
    "sim.kernel.trading_step_pct": ("%", "pct", None, "sim.kernel.trading_step"),
    "core.carbon_trading_pct": ("%", "pct", None, "core.carbon_trading"),
    "market_pct": ("%", "pct", None, "market"),
    "energy.model_pct": ("%", "pct", None, "energy.model"),
    "sim.vector_pct": ("%", "pct", None, "sim.vector"),
    "sim.simulator_pct": ("%", "pct", None, "sim.simulator"),
    "serve.frames.send_pct": ("%", "pct", None, "serve.frames.send"),
    "serve.frames.recv_pct": ("%", "pct", None, "serve.frames.recv"),
    "serve.frames.frames_up": ("count", "calls", "parent", "serve.frames.recv"),
    "serve.frames.bytes_up": ("bytes", "count", "parent", "bytes_in"),
    "serve.frames.bytes_down": ("bytes", "count", "parent", "bytes_out"),
    "serve.runtime.fold_pct": ("%", "pct", None, "serve.runtime.fold"),
    "serve.runtime.build_kernels_pct": (
        "%", "pct", None, "serve.runtime.build_kernels",
    ),
    "serve.shard.parent_wait_pct": ("%", "pct", "parent", "serve.shard.wait"),
    "serve.shard.worker_idle_pct": ("%", "pct", "worker", "serve.shard.idle"),
    "serve.shard.worker_cpu_pct": ("%", "cpu", "worker", None),
    "ingress.generator.split_pct": ("%", "pct", None, "ingress.generator.split"),
    "ingress.router.step_pct": ("%", "pct", None, "ingress.router.step"),
    "ingress.router.requests": ("count", "calls", None, "ingress.router.step"),
    "ingress.adapter_pct": ("%", "pct", None, "ingress.adapter"),
    "ingress.stats.absorb_pct": ("%", "pct", None, "ingress.stats.absorb"),
    "parent.residual_pct": ("%", "residual", "parent", None),
    "worker.residual_pct": ("%", "residual", "worker", None),
}


def layer_metrics(processes: list[dict]) -> dict[str, float]:
    """Per-layer metric values from one traced repetition's snapshots."""
    wall = next(p["wall_s"] for p in processes if p["role"] == "parent")
    values = {}
    for name, (_, kind, role, key) in LAYER_METRICS.items():
        chosen = [p for p in processes if role is None or p["role"] == role]
        if kind == "pct":
            value = 100.0 * sum(p["rows"].get(key, 0.0) for p in chosen) / wall
        elif kind == "cpu":
            value = 100.0 * sum(p["cpu_s"] for p in chosen) / wall
        elif kind == "residual":
            value = 100.0 * sum(p["residual_s"] for p in chosen) / wall
        elif kind == "calls":
            value = sum(p["calls"].get(key, 0) for p in chosen)
        else:
            value = sum(p["counts"].get(key, 0) for p in chosen)
        values[name] = value
    return values
