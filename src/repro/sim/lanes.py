"""Multi-lane batched engine: N independent runs in lockstep.

PR 1's parallel engine fans (policy × trace × config × seed) cells
across *processes*; inside a process each cell still replayed its trace
strictly one request at a time, so the tiny per-request network forward
dominated the Sibyl loop.  This module removes that ceiling **within**
a process: a *lane* is one resumable :class:`~repro.sim.runner.PolicyRun`,
and :func:`run_lanes` advances all lanes in lockstep — each tick it

1. runs every RL lane's pre-inference half
   (:meth:`~repro.core.agent.SibylAgent.place_begin`: feature
   extraction, replay insertion, per-lane ε-greedy draw, action-memo
   lookup),
2. gathers the observations of the lanes that actually need inference
   into one batch and runs **one fused forward** through the stacked
   per-lane weights (:class:`~repro.rl.c51.C51LaneStack` /
   :class:`~repro.rl.dqn.DQNLaneStack`),
3. scatters the greedy actions back
   (:meth:`~repro.core.agent.SibylAgent.place_commit`) and completes
   each lane's serve + feedback, while heuristic-policy lanes step
   without any inference cost.

**Training is fused the same way.**  A Sibyl lane's periodic training
event (8 batches of 128 through its training network, then a weight
copy) is split by the ``train_begin`` / ``train_commit`` hook pair
mirroring ``place_begin`` / ``place_commit``: at the event, the lane
only draws its own batch samples (``train_begin``); the engine then
batches the heavy half — per-lane Bellman targets plus eight stacked
forward/backward/optimizer steps through per-lane training weights
(:meth:`~repro.rl.c51.C51LaneStack.train_batch`,
:class:`~repro.rl.optim.StackedAdam`) — across every lane whose event
fell on the same tick, and ``train_commit`` finishes each lane (weight
copy, action-memo refresh).  Lanes whose events fall on *nearby* ticks
can be batched too: a lane with a pending event is simply **held** (not
stepped) for up to ``align_window`` ticks while co-trainers arrive —
pure scheduling, since lanes share no state; each lane's batches, RNG
draws, Bellman targets, and losses stay exactly its own.  The window
defaults to 0 (fuse same-tick events only) and is settable per call or
via the ``SIBYL_TRAIN_ALIGN`` environment variable.

Every lane keeps its own replay buffer, network weights, optimizer
state, and seeded RNG.  The hard guarantee (asserted by
``tests/sim/test_lanes.py``): every lane's trajectory, losses, and
final weights are **bit-identical** to a serial ``run_policy`` of the
same (policy, trace, config, seed).  The fused forward/backward
computes, per lane, exactly the floating-point operations the serial
path computes.

Composition with PR 1: ``run_many`` distributes cells across processes
(``SIBYL_PARALLEL``), and each worker packs ``SIBYL_LANES`` cells per
task; within a cell every policy of a ``run_normalized`` lineup rides
its own lane.  Throughput multiplies: cores × lanes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

import numpy as np

if TYPE_CHECKING:
    from ..obs.sink import ObservationSink

from ..baselines.base import PlacementPolicy
from ..hss.request import Request
from ..hss.system import HybridStorageSystem
from ..knobs import resolve_count_env
from ..rl.c51 import C51LaneStack, C51Network
from ..rl.dqn import DQNLaneStack, DQNNetwork
from ..rl.network import NetworkLaneStack
from ..rl.optim import fusion_signature, stack_optimizers
from .runner import LANE_DONE, PolicyRun, RunResult

__all__ = [
    "LaneSpec",
    "run_lanes",
    "fused_train_event",
    "group_signature",
    "resolve_lanes",
    "resolve_train_align",
    "LANES_ENV",
    "TRAIN_ALIGN_ENV",
]

#: Environment knob: how many sweep cells each parallel worker packs
#: into one task (see :func:`repro.sim.parallel.run_many`).
LANES_ENV = "SIBYL_LANES"

#: Environment knob: how many ticks a lane with a pending training
#: event may be held waiting for other lanes' events to align (0 =
#: fuse same-tick events only).
TRAIN_ALIGN_ENV = "SIBYL_TRAIN_ALIGN"

#: Most-recently-used fused-training stacks kept per lane group (each
#: caches stacked weight/optimizer buffers for one lane subset).
_TRAIN_STACK_CACHE_LIMIT = 8


def resolve_lanes(default: int = 1) -> int:
    """Lane/pack count from the ``SIBYL_LANES`` environment variable.

    ``auto``/unset → ``default``; ``0`` and ``1`` both mean "no
    packing"; anything else must be a non-negative integer (garbage or
    a negative value is a misconfiguration and raises rather than
    silently disabling packing).
    """
    return max(1, resolve_count_env(LANES_ENV, default))


def resolve_train_align(default: int = 0) -> int:
    """Event-alignment window (ticks) from ``SIBYL_TRAIN_ALIGN``."""
    return resolve_count_env(TRAIN_ALIGN_ENV, default)


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
    engine groups them; callers going through :func:`run_lanes` never
    call this directly.  Returns the ``(batches, lanes)`` loss matrix.

    ``stack_cache``/``cache_key`` memoise the stacked weight buffers
    and optimizer across recurring events of the same lane subset.
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
            # Bound the memo: with an alignment window the lane subsets
            # flushed together can churn, and each subset's stacked
            # buffers are worth megabytes — keep the recent few, LRU.
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


class _LaneGroup:
    """RL policies sharing one network architecture → one fused stack.

    Built over the policies themselves, one row each, so both fused
    drivers use it: :func:`run_lanes` (rows are ``PolicyRun`` lanes,
    whose training events the group also takes over —
    :meth:`fuse_training`) and the placement daemon
    (:mod:`repro.serve.engine`: rows are tenant agents, trained on its
    own trainer threads).  ``pending`` holds ``(owner, row)`` pairs
    awaiting the next fused forward; the owner is whatever the driver
    commits the action to (a run, a serve job).
    """

    def __init__(self, policies: Sequence) -> None:
        self.policies = list(policies)
        nets = [policy.inference_net for policy in self.policies]
        if isinstance(nets[0], C51Network):
            self.stack = C51LaneStack(nets)
        else:
            self.stack = DQNLaneStack(nets)
        # Zeros, not empty: rows of finished/exploring lanes are fed
        # through the fused forward and discarded; stale-but-finite
        # values keep the maths warning-free.
        self.obs = np.zeros((len(nets), self.stack.in_features))
        # Per-lane weight-version counters: a change means the lane
        # rewrote its inference weights (periodic training copy or a
        # checkpoint restore) and its stack slice must be re-synced
        # before the next fused forward.
        self.weights_seen = [self._version(policy) for policy in self.policies]
        self.pending: List[Tuple[object, int]] = []
        self.runs: List[PolicyRun] = []
        self.fuse_keys: Dict[int, tuple] = {}
        self.train_queue: Dict[int, int] = {}  # row -> ticks waited
        self._train_stacks: Dict[tuple, tuple] = {}

    def fuse_training(self, runs: List[PolicyRun]) -> None:
        """Take over the training events of ``runs`` (row-aligned).

        Lanes exposing the train_begin/train_commit hook pair hand
        their training events to the engine.  Lanes fuse when their
        batch shapes and optimizer constants match (learning rates may
        differ — they stack as a column).
        """
        self.runs = runs
        for row, policy in enumerate(self.policies):
            if not (
                callable(getattr(policy, "train_begin", None))
                and callable(getattr(policy, "train_commit", None))
                and hasattr(policy, "external_training")
            ):
                continue
            policy.external_training = True
            signature = fusion_signature(policy.training_net.optimizer)
            hp = policy.hyperparams
            if signature is None:
                self.fuse_keys[row] = ("solo", row)
            else:
                self.fuse_keys[row] = (
                    hp.batch_size, hp.batches_per_training, signature
                )

    @staticmethod
    def _version(policy) -> int:
        version = getattr(policy, "weights_version", None)
        if version is None:  # foreign RL policy without the counter
            version = getattr(policy, "train_events", 0)
        return version

    def resync(self) -> None:
        """Refresh stack slices of lanes whose weights changed."""
        for row, policy in enumerate(self.policies):
            version = self._version(policy)
            if version != self.weights_seen[row]:
                self.weights_seen[row] = version
                self.stack.refresh(row)

    # --------------------------------------------------------- training
    def collect_pending(self, held: Set[int]) -> None:
        """Queue lanes whose training event fell due this tick."""
        for row in self.fuse_keys:
            if row in self.train_queue:
                continue
            if self.policies[row].train_pending:
                self.train_queue[row] = 0
                held.add(id(self.runs[row]))

    def flush_due(
        self,
        held: Set[int],
        window: int,
        sink: Optional["ObservationSink"] = None,
    ) -> None:
        """Flush aligned event buckets; age the ones still waiting."""
        if not self.train_queue:
            return
        buckets: Dict[tuple, List[int]] = {}
        for row in self.train_queue:
            buckets.setdefault(self.fuse_keys[row], []).append(row)
        for key, rows in buckets.items():
            due = any(self.train_queue[row] >= window for row in rows)
            if not due:
                # No co-trainer can still arrive: every unfinished lane
                # of this fusion class is already waiting.
                due = all(
                    self.runs[row].finished or row in self.train_queue
                    for row, row_key in self.fuse_keys.items()
                    if row_key == key
                )
            if due:
                self._flush(sorted(rows), held, sink)
            else:
                for row in rows:
                    self.train_queue[row] += 1

    def _flush(
        self,
        rows: List[int],
        held: Set[int],
        sink: Optional["ObservationSink"] = None,
    ) -> None:
        for row in rows:
            del self.train_queue[row]
            held.discard(id(self.runs[row]))
        if sink is not None:
            sink.count("train_events", len(rows))
            if len(rows) > 1:
                sink.count("fused_train_events")
        agents = [self.policies[row] for row in rows]
        if len(agents) == 1:
            # A lone event gains nothing from stacking; the serial
            # commit is the identical computation without the gather.
            agents[0].train_commit()
            return
        fused_train_event(agents, self._train_stacks, tuple(rows))


def group_signature(policy) -> tuple:
    """Fusion-compatibility key of an RL policy's inference network.

    Policies with equal signatures can share one stacked fused forward
    (:class:`~repro.rl.c51.C51LaneStack` / ``DQNLaneStack``).  Shared by
    the lane engine's architecture grouping and the placement daemon's
    tenant grouping (:mod:`repro.serve.engine`).
    """
    net = policy.inference_net
    arch = NetworkLaneStack.signature(net.network)
    if isinstance(net, C51Network):
        return ("c51", arch, net.config.n_actions, net.config.n_atoms)
    return ("dqn", arch)


def run_lanes(
    specs: Sequence[LaneSpec],
    align_window: Optional[int] = None,
    stats: Optional[Dict[str, int]] = None,
    backend: Optional[str] = None,
    sink: Optional["ObservationSink"] = None,
) -> List[RunResult]:
    """Advance all lanes in lockstep; results in spec order.

    Each lane is bit-identical to ``run_policy`` with the same spec —
    the engine only changes *when* each lane's work happens (interleaved
    per tick, with lanes briefly held while training events align) and
    *how* RL inference and training are computed (fused across lanes
    instead of per lane).  ``align_window`` is the maximum number of
    ticks a lane with a pending training event waits for co-trainers
    (default: the ``SIBYL_TRAIN_ALIGN`` environment variable, else 0 =
    fuse same-tick events only).

    ``stats``, when given, is filled with engine counters; ``sink``
    accepts any :class:`repro.obs.sink.ObservationSink` for the same
    stream, and when ``SIBYL_OBS=on`` the counts also feed the
    process-wide metrics registry.  All three are pure observation,
    never behaviour: ``ticks`` (lockstep rounds that advanced at least
    one RL lane; per-lane request count on the SoA engines),
    ``fused_forwards`` (stacked inference calls; at most one per
    architecture group per tick), ``fused_rows`` (total
    lane-observations those forwards carried), ``max_fused_rows``
    (widest single forward), ``train_events`` /
    ``fused_train_events`` (training commits, and how many flushes
    stacked more than one lane), and ``kernel_barriers``
    (Python-boundary crossings of the SoA engines; 0 on the lockstep
    path).  ``fused_rows > fused_forwards`` is the smoking gun that
    independent lanes — e.g. the seed replicas of a multi-seed
    campaign — actually shared batched inference instead of each
    paying its own forward.

    Observation never forces an engine: eligible Sibyl lanes divert to
    the SoA kernels (bit-identical by contract) whether or not counters
    are requested, and the kernels feed the same sink.  A kernel-run
    lane reports its own per-request ticks and one-row forwards, so
    multi-lane totals differ from the shared lockstep rounds — pin
    ``backend="off"`` to observe lockstep fusion itself.
    """
    from ..obs import engine_sink
    from ..obs.sink import ENGINE_COUNTERS, ENGINE_MAXIMA, DictSink, combine_sinks

    if align_window is None:
        align_window = resolve_train_align()
    sink = combine_sinks(
        DictSink(stats) if stats is not None else None, sink, engine_sink()
    )
    if sink is not None:
        for name in ENGINE_COUNTERS:
            sink.count(name, 0)
        for name in ENGINE_MAXIMA:
            sink.record_max(name, 0)
    runs = [spec.make_run() for spec in specs]

    # SoA tick-engine diversion: eligible Sibyl lanes run to completion
    # through repro.sim.kernels (bit-identical by contract) and drop out
    # of the lockstep loop below; everything else stays.  ``backend``
    # overrides the ``SIBYL_BACKEND`` environment knob.
    from . import kernels

    remaining = kernels.run_kernel_lanes(runs, backend=backend, sink=sink)

    # Partition: lanes whose policy exposes the externally-driven
    # inference hook (SibylAgent) *and* a head the stacks know how to
    # fuse ride the batched path; everything else — heuristics, oracle,
    # extremes, or a future head type with its own decision rule — steps
    # through the plain per-lane path, which is correct for any policy.
    rl_runs: List[PolicyRun] = []
    plain_runs: List[PolicyRun] = []
    for run in remaining:
        policy = run.policy
        if callable(getattr(policy, "place_begin", None)) and isinstance(
            getattr(policy, "inference_net", None), (C51Network, DQNNetwork)
        ):
            rl_runs.append(run)
        else:
            plain_runs.append(run)

    by_signature: Dict[tuple, List[PolicyRun]] = {}
    for run in rl_runs:
        by_signature.setdefault(group_signature(run.policy), []).append(run)
    groups: List[_LaneGroup] = []
    group_row: Dict[int, Tuple[_LaneGroup, int]] = {}
    for members in by_signature.values():
        group = _LaneGroup([run.policy for run in members])
        group.fuse_training(members)
        groups.append(group)
        for row, run in enumerate(members):
            group_row[id(run)] = (group, row)

    held: Set[int] = set()  # ids of lanes waiting in a training queue
    active_plain = list(plain_runs)
    active_rl = list(rl_runs)
    try:
        while active_plain or active_rl:
            if active_plain:
                active_plain = [run for run in active_plain if run.step()]
            if active_rl:
                advanced = False
                next_rl: List[PolicyRun] = []
                for run in active_rl:
                    if id(run) in held:
                        next_rl.append(run)
                        continue
                    obs = run.step_begin()
                    if obs is LANE_DONE:
                        continue
                    advanced = True
                    next_rl.append(run)
                    # obs None: exploration draw or action-memo hit —
                    # the step already completed inline in step_begin.
                    if obs is not None:
                        group, row = group_row[id(run)]
                        group.obs[row] = obs
                        group.pending.append((run, row))
                if advanced and sink is not None:
                    sink.count("ticks")
                for group in groups:
                    if group.pending:
                        if sink is not None:
                            rows = len(group.pending)
                            sink.count("fused_forwards")
                            sink.count("fused_rows", rows)
                            sink.record_max("max_fused_rows", rows)
                        actions = group.stack.best_actions(group.obs)
                        for run, row in group.pending:
                            run.step_finish(int(actions[row]))
                        group.pending.clear()
                # Fused training: queue lanes whose event fell due this
                # tick (their feedback only ran train_begin), flush the
                # aligned buckets, then re-sync the stack slices of
                # lanes whose inference weights changed.
                for group in groups:
                    group.collect_pending(held)
                    group.flush_due(held, align_window, sink)
                for group in groups:
                    group.resync()
                active_rl = next_rl
    finally:
        # Hand the policies back in their standalone (inline-training)
        # mode: a lane agent reused outside the engine must not leave
        # training events pending for a driver that no longer exists.
        # On a clean exit the loop has drained every queue; if an
        # exception unwound mid-run, a held lane may still owe a
        # commit — abort it so the agent stays usable.
        for group in groups:
            for row in group.fuse_keys:
                policy = group.policies[row]
                policy.external_training = False
                if getattr(policy, "train_pending", False):
                    policy.train_abort()

    return [run.result() for run in runs]
