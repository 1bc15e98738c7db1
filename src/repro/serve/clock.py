"""Pluggable slot clocks gating how far ahead the fleet may run.

The coordinator *releases* slots as it completes them; a shard's slot loop
*waits* for a slot's release before drawing its workload.
:class:`VirtualClock` advances only on releases — time is logical, runs are
deterministic, and a release depth of one yields the lockstep schedule that
is bit-identical to ``Simulator.run``.  :class:`WallClock` additionally
paces each slot to real time (``slot_duration`` seconds per slot, measured
on the event loop's monotonic clock — never the wall-time-of-day clock,
which reprolint RPL008 bans from library code).
"""

from __future__ import annotations

import asyncio

__all__ = ["SlotClock", "VirtualClock", "WallClock", "release_target"]


def release_target(
    completed: int,
    *,
    horizon: int,
    lockstep: bool,
    pipeline_depth: int,
    snapshot_every: int = 0,
    restart_state_every: int = 0,
    barrier: int | None = None,
) -> int:
    """Furthest slot safe to release after completing ``completed``.

    Lockstep mode (virtual clocks) releases one slot at a time — the
    schedule that is bit-identical to ``Simulator.run``; otherwise up to
    ``pipeline_depth`` slots may be in flight.  Releases never cross the
    next snapshot boundary — nor, when given, the next restart-checkpoint
    boundary (``restart_state_every``) or reconfiguration ``barrier`` —
    so when the coordinator reaches one, every worker is provably
    quiescent.
    """
    depth = 1 if lockstep else pipeline_depth
    target = completed + depth
    for every in (snapshot_every, restart_state_every):
        if every:
            boundary = ((completed + 1) // every + 1) * every
            target = min(target, boundary - 1)
    if barrier is not None:
        target = min(target, barrier - 1)
    return min(target, horizon - 1)


class SlotClock:
    """Base release machinery: a monotone high-water mark of runnable slots."""

    def __init__(self) -> None:
        self._released = -1
        self._condition = asyncio.Condition()

    @property
    def released(self) -> int:
        """Highest slot index currently released (-1 before any release)."""
        return self._released

    async def wait_for_slot(self, t: int) -> None:
        """Block until slot ``t`` has been released."""
        if self._released >= t:
            return
        async with self._condition:
            await self._condition.wait_for(lambda: self._released >= t)

    async def release(self, upto: int) -> None:
        """Release every slot up to and including ``upto`` (monotone)."""
        if upto <= self._released:
            return
        async with self._condition:
            self._released = upto
            self._condition.notify_all()

    async def pace(self, t: int) -> None:
        """Hold slot ``t`` to real time; virtual clocks return immediately."""

    def started(self, t: int) -> bool:
        """Whether slot ``t``'s start time has passed; always on virtual time."""
        return True


class VirtualClock(SlotClock):
    """Logical time: slots run as fast as the release schedule allows."""


class WallClock(SlotClock):
    """Real-time pacing: slot ``t`` starts ``t * slot_duration`` seconds in.

    The origin is set by the first paced slot, which starts at once: a
    worker that begins mid-horizon (a resume, a respawn) serves its first
    slot immediately and paces the rest from there.  ``slot_duration=0``
    degrades to free-running (releases still gate), which is what load
    tests use to saturate the queues without waiting.
    """

    def __init__(self, slot_duration: float) -> None:
        if slot_duration < 0:
            raise ValueError(
                f"slot_duration must be non-negative, got {slot_duration}"
            )
        super().__init__()
        self.slot_duration = slot_duration
        self._origin: float | None = None

    async def pace(self, t: int) -> None:
        """Sleep until slot ``t``'s scheduled start on the monotonic clock."""
        if self.slot_duration == 0:
            return
        now = asyncio.get_running_loop().time()
        if self._origin is None:
            self._origin = now - t * self.slot_duration
        delay = self._origin + t * self.slot_duration - now
        if delay > 0:
            await asyncio.sleep(delay)

    def started(self, t: int) -> bool:
        """Whether slot ``t``'s start time has passed (never before any pace)."""
        if self.slot_duration == 0:
            return True
        if self._origin is None:
            return False
        now = asyncio.get_running_loop().time()
        return self._origin + t * self.slot_duration <= now
