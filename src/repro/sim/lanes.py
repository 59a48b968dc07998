"""Lanes: the arguments of N serial runs, executed one after another.

A *lane* is one :class:`LaneSpec` — exactly the arguments of a serial
:func:`~repro.sim.runner.run_policy` call — and :func:`run_lanes` runs a
list of them and returns their results in spec order.  It is not an
engine of its own: it builds each lane's
:class:`~repro.sim.runner.PolicyRun`, hands the runs to
:func:`repro.sim.kernels.run_kernel_lanes` (which drives every lane the
compiled kernel can take — eligible Sibyl agents and the scripted
baselines), and steps whatever comes back with ``while run.step():
pass``.  Lanes share no state, so the order they run in is
unobservable; every lane — kernel-run or stepped — is
**bit-identical** to ``run_policy`` of the same (policy, trace, config,
seed), asserted by ``tests/sim/test_lanes.py`` and searched by
``tests/sim/test_agent_lanes.py``.

What a list of lanes buys is one future-use CSR for the four Oracle
horizons, one ``TraceSoA`` pack per distinct list or stream in the call
(a trace tuple's pack is the process's one,
:func:`repro.sim.kernels.soa.shared_pack`) and one place for engine
counters (:data:`ENGINE_COUNTERS`).  Stepped lanes are deliberately
not advanced together with stacked forwards: measured against this
loop, doing so is a tie (``docs/engines.md``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Union

from ..baselines.base import PlacementPolicy
from ..hss.request import Request
from ..hss.system import HybridStorageSystem
from .runner import PolicyRun, RunResult

__all__ = [
    "ENGINE_COUNTERS",
    "LaneSpec",
    "run_lanes",
    "fused_train_event",
]

#: The counters ``run_lanes(stats=)`` adds to, zero-filled where the
#: caller's dict lacks them (their meanings are on :func:`run_lanes`).
ENGINE_COUNTERS = (
    "ticks",
    "fused_forwards",
    "fused_rows",
    "train_events",
    "kernel_barriers",
    "script_lanes",
)


@dataclass
class LaneSpec:
    """One lane: the arguments of a serial ``run_policy`` call."""

    policy: PlacementPolicy
    trace: Union[Sequence[Request], Iterable[Request]]
    config: str = "H&M"
    capacity_fractions: Optional[Sequence[float]] = None
    hss: Optional[HybridStorageSystem] = None
    max_requests: Optional[int] = None
    warmup_fraction: float = 0.0

    def make_run(self) -> PolicyRun:
        return PolicyRun(
            self.policy,
            self.trace,
            config=self.config,
            capacity_fractions=self.capacity_fractions,
            hss=self.hss,
            max_requests=self.max_requests,
            warmup_fraction=self.warmup_fraction,
        )


def fused_train_event(agents: Sequence, stack_cache: Optional[dict] = None,
                      cache_key=None) -> None:
    """Commit the training event each of ``agents`` has begun.

    The frozen probe ``rl.fused_train_event_ms_per_lane`` still calls
    this name; it times one serial ``train_commit()`` per lane now.  The
    benchmark-only PR (ROADMAP) deletes it.
    """
    for agent in agents:
        agent.train_commit()


def run_lanes(
    specs: Sequence[LaneSpec],
    stats: Optional[Dict[str, int]] = None,
    backend: Optional[str] = None,
) -> List[RunResult]:
    """Run every lane to completion; results in spec order.

    Each lane is bit-identical to ``run_policy`` with the same spec.
    Lanes the compiled kernel accepts (:mod:`repro.sim.kernels`:
    eligible Sibyl agents and the scripted baselines) run there; every
    other lane — feature ablations, tri-HSS, policy subclasses, or
    everything under ``backend="off"`` or without a compiler — is
    stepped serially, one lane after another.  ``backend`` overrides the
    ``SIBYL_BACKEND`` environment knob.

    ``stats``, when given, gets every :data:`ENGINE_COUNTERS` key it
    lacks at 0, and the lanes add to them — pure observation, never
    behaviour, and never the engine's choice.  A kernel-run agent lane
    reports ``ticks`` (its request count), ``fused_forwards`` /
    ``fused_rows`` (its one-row memo-miss forwards, wherever they ran),
    ``train_events`` and ``kernel_barriers`` (Python-boundary
    crossings); a scripted lane reports ``script_lanes`` only; a
    serially stepped lane reports ``ticks`` and ``train_events`` (read
    off the finished policy) and zero for everything else.
    """
    from . import kernels

    if stats is not None:
        for name in ENGINE_COUNTERS:
            stats.setdefault(name, 0)
    runs = [spec.make_run() for spec in specs]
    for run in kernels.run_kernel_lanes(runs, backend=backend, stats=stats):
        step = run.step
        while step():
            pass
        if stats is not None:
            stats["ticks"] += run.n_total
            stats["train_events"] += getattr(run.policy, "train_events", 0)
    return [run.result() for run in runs]
