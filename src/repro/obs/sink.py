"""Tick-domain observation sinks: counting without clocks.

SBL-DET forbids wall-clock reads inside ``repro.{sim,rl,hss,store}``,
so the bit-identity core cannot carry timers.  What it *can* carry is
counts — ticks, fused forwards, training events, kernel-barrier
crossings — because incrementing a Python int neither reads a clock
nor touches the simulated float path.  :class:`ObservationSink` is the
protocol the engines emit those counts through; :class:`DictSink`, the
one ``run_lanes(stats=)`` builds, turns them into a plain dict.

The canonical counter names emitted by the engines are listed in
:data:`ENGINE_COUNTERS` / :data:`ENGINE_MAXIMA` and documented on
:func:`repro.sim.lanes.run_lanes`.
"""

from __future__ import annotations

from typing import Dict, Union

Number = Union[int, float]

#: Monotonic counters every engine backend feeds (see ``run_lanes``).
ENGINE_COUNTERS = (
    "ticks",
    "fused_forwards",
    "fused_rows",
    "train_events",
    "kernel_barriers",
    "script_lanes",
)

#: High-water-mark observations (``record_max``) the engines feed.
ENGINE_MAXIMA = ("max_fused_rows",)


class ObservationSink:
    """Protocol for tick-domain engine instrumentation.

    Two operations only — both clock-free and side-effect-free with
    respect to simulation state:

    - :meth:`count` adds ``n`` to a named monotonic counter;
    - :meth:`record_max` raises a named high-water mark.

    The base class is a usable no-op, so engines may call a sink
    unconditionally once they hold one.
    """

    def count(self, name: str, n: int = 1) -> None:
        """Add ``n`` to the counter ``name`` (no-op here)."""

    def record_max(self, name: str, value: Number) -> None:
        """Raise the high-water mark ``name`` to ``value`` (no-op here)."""


class DictSink(ObservationSink):
    """Sink that accumulates into a caller-owned plain dict.

    ``run_lanes(stats=...)`` feeds the engines one of these: missing
    keys are created on first touch, so ``stats={}`` works.
    """

    def __init__(self, stats: Dict[str, Number]) -> None:
        """Wrap ``stats``; the dict is mutated in place."""
        self.stats = stats

    def count(self, name: str, n: int = 1) -> None:
        """Add ``n`` to ``stats[name]`` (creating it at 0)."""
        self.stats[name] = self.stats.get(name, 0) + n

    def record_max(self, name: str, value: Number) -> None:
        """Raise ``stats[name]`` to at least ``value``."""
        if value > self.stats.setdefault(name, 0):
            self.stats[name] = value


__all__ = [
    "ENGINE_COUNTERS",
    "ENGINE_MAXIMA",
    "ObservationSink",
    "DictSink",
]
