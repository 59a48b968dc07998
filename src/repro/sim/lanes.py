"""Lanes: the arguments of N serial runs, executed one after another.

A *lane* is one :class:`LaneSpec` — exactly the arguments of a serial
:func:`~repro.sim.runner.run_policy` call — and :func:`run_lanes` runs a
list of them and returns their results in spec order.  It is not an
engine of its own: it builds each lane's
:class:`~repro.sim.runner.PolicyRun`, hands the runs to
:func:`repro.sim.kernels.run_kernel_lanes` (which drives every lane the
compiled kernel or its NumPy reference can take — eligible Sibyl
agents, and under ``cext`` the scripted baselines), and steps whatever
comes back with ``while run.step(): pass``.  Lanes share no state, so
the order they run in is unobservable; every lane — kernel-run or
stepped — is **bit-identical** to ``run_policy`` of the same (policy,
trace, config, seed), asserted by ``tests/sim/test_lanes.py`` and
searched by ``tests/sim/test_agent_lanes.py``.

What a list of lanes buys is the kernel's per-call sharing (one
``TraceSoA`` pack per distinct trace object, one future-use CSR for the
four Oracle horizons) and one place for engine counters.  Stepped
lanes are deliberately not advanced together with stacked forwards:
measured against this loop, doing so is a tie (``docs/engines.md``).

:func:`group_signature` is the architecture key the placement daemon
(:mod:`repro.serve.engine`) groups its tenants' fused inference by.
:func:`fused_train_event`, the stacked training step, has no caller
left in ``src/`` since the daemon trains each tenant inline; it stays
at this import path for the frozen benchmark probe
``rl.fused_train_event_ms_per_lane`` until ``bench/`` retires that
(ROADMAP, "The benchmark-only PR").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Union

import numpy as np

from ..baselines.base import PlacementPolicy
from ..hss.request import Request
from ..hss.system import HybridStorageSystem
from ..rl.c51 import C51LaneStack, C51Network
from ..rl.dqn import DQNLaneStack
from ..rl.network import NetworkLaneStack
from ..rl.optim import stack_optimizers
from .runner import PolicyRun, RunResult

__all__ = [
    "LaneSpec",
    "run_lanes",
    "fused_train_event",
    "group_signature",
]

#: Most-recently-used fused-training stacks kept per cache (each holds
#: stacked weight/optimizer buffers for one agent subset).
_TRAIN_STACK_CACHE_LIMIT = 8


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
                      cache_key=None) -> np.ndarray:
    """Run one fused training event for agents with pending jobs.

    Every agent must have called ``train_begin`` (its own RNG draws
    already made); this executes the heavy half of all their events at
    once and commits each: per-lane Bellman targets (exactly the serial
    pass), then ``batches_per_training`` stacked forward/backward steps
    through per-lane training weights with one fused optimizer update
    each, scattering weights and optimizer state back so every lane
    ends bit-identical to having trained serially.  Agents must share
    one fusable (architecture, batch shape, optimizer) signature — the
    caller groups them (by :func:`group_signature` and
    :func:`~repro.rl.optim.fusion_signature`).  Returns the
    ``(batches, lanes)`` loss matrix.

    ``stack_cache``/``cache_key`` memoise the stacked weight buffers
    and optimizer across recurring events of the same agent subset.
    """
    agents = list(agents)
    entry = stack_cache.get(cache_key) if stack_cache is not None else None
    if entry is None:
        nets = [agent.training_net for agent in agents]
        if isinstance(nets[0], C51Network):
            head = C51LaneStack(nets)
        else:
            head = DQNLaneStack(nets)
        entry = (head, stack_optimizers([net.optimizer for net in nets]))
        if stack_cache is not None:
            stack_cache[cache_key] = entry
            # Bound the memo: the subsets trained together can churn,
            # and each subset's stacked buffers are worth megabytes —
            # keep the recent few, LRU.
            while len(stack_cache) > _TRAIN_STACK_CACHE_LIMIT:
                stack_cache.pop(next(iter(stack_cache)))
    elif stack_cache is not None:
        stack_cache[cache_key] = stack_cache.pop(cache_key)  # LRU refresh
    head, optimizer = entry

    head.begin_training_event()
    optimizer.gather(head.stack.flat_parameters.shape[1])

    jobs = [agent.train_job for agent in agents]
    rewards, next_obs = [], []
    for agent, (_, unique_slots, _) in zip(agents, jobs):
        r, n = agent.buffer.gather_targets(unique_slots)
        rewards.append(r)
        next_obs.append(n)
    unique_targets = head.precompute_targets(
        rewards, next_obs, [agent.inference_net for agent in agents]
    )
    targets = [t[job[2]] for t, job in zip(unique_targets, jobs)]

    hp = agents[0].hyperparams
    n, n_batches, k = hp.batch_size, hp.batches_per_training, len(agents)
    obs = np.empty((k, n, head.in_features))
    actions = np.empty((k, n), dtype=np.int64)
    batch_targets = np.empty((k, n) + targets[0].shape[1:])
    losses = np.empty((n_batches, k))
    for i in range(n_batches):
        for lane, (agent, job) in enumerate(zip(agents, jobs)):
            agent.buffer.gather_into(job[0][i], obs[lane], actions[lane])
            batch_targets[lane] = targets[lane][i * n:(i + 1) * n]
        losses[i] = head.train_batch(obs, actions, batch_targets, optimizer)

    head.end_training_event()
    optimizer.scatter()
    for lane, agent in enumerate(agents):
        agent.train_commit(losses[:, lane])
    return losses


def group_signature(policy) -> tuple:
    """Fusion-compatibility key of an RL policy's inference network.

    Policies with equal signatures can share one stacked fused forward
    (:class:`~repro.rl.c51.C51LaneStack` / ``DQNLaneStack``); the
    placement daemon groups its tenants by it
    (:mod:`repro.serve.engine`).
    """
    net = policy.inference_net
    arch = NetworkLaneStack.signature(net.network)
    if isinstance(net, C51Network):
        return ("c51", arch, net.config.n_actions, net.config.n_atoms)
    return ("dqn", arch)


def run_lanes(
    specs: Sequence[LaneSpec],
    stats: Optional[Dict[str, int]] = None,
    backend: Optional[str] = None,
) -> List[RunResult]:
    """Run every lane to completion; results in spec order.

    Each lane is bit-identical to ``run_policy`` with the same spec.
    Lanes the SoA kernels accept (:mod:`repro.sim.kernels`: eligible
    Sibyl agents, and under the compiled engine the scripted baselines)
    run there; every other lane — feature ablations, tri-HSS, policy
    subclasses, or everything under ``backend="off"`` — is stepped
    serially, one lane after another.  ``backend`` overrides the
    ``SIBYL_BACKEND`` environment knob.

    ``stats``, when given, is filled with engine counters through a
    :class:`repro.obs.sink.DictSink` — pure observation, never
    behaviour, and never the engine's choice.  A kernel-run agent
    lane reports ``ticks`` (its request count), ``fused_forwards`` /
    ``fused_rows`` / ``max_fused_rows`` (its one-row inference calls),
    ``train_events`` and ``kernel_barriers`` (Python-boundary
    crossings); a scripted lane reports ``script_lanes`` only; a
    serially stepped lane reports ``ticks`` and ``train_events`` (read
    off the finished policy) and zero for everything else.
    """
    from ..obs.sink import ENGINE_COUNTERS, ENGINE_MAXIMA, DictSink
    from . import kernels

    sink = DictSink(stats) if stats is not None else None
    if sink is not None:
        for name in ENGINE_COUNTERS:
            sink.count(name, 0)
        for name in ENGINE_MAXIMA:
            sink.record_max(name, 0)
    runs = [spec.make_run() for spec in specs]
    for run in kernels.run_kernel_lanes(runs, backend=backend, sink=sink):
        step = run.step
        while step():
            pass
        if sink is not None:
            sink.count("ticks", run.n_total)
            sink.count("train_events", getattr(run.policy, "train_events", 0))
    return [run.result() for run in runs]
