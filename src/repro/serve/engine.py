"""The placement engine: fused serving rounds over live tenant lanes.

One *engine thread* owns every lane (agents, HSS state, queues) and is
the daemon's one I/O loop: it blocks in ``selectors.select()`` over a
wake socketpair and whatever sockets a front-end registered (the
daemon's listener and client connections), and between two selects
advances the lanes in rounds:

1. :meth:`PlacementEngine.place_begin` runs each queued query's
   pre-inference half (:meth:`~repro.core.agent.SibylAgent.place_begin`:
   feature extraction, replay insertion, ε-greedy draw, action-memo
   lookup) and collects the observations that actually need inference;
2. :meth:`PlacementEngine.place_commit` batches those observations per
   architecture group into **one fused forward** through the stacked
   per-tenant weights, scatters the greedy actions back, serves each
   request closed-loop, and resolves the waiting responses.

A frame read off a socket is decoded, dispatched, served and answered
on that thread (:meth:`Job.resolve` hands the reply to the connection
through ``Job.on_done``); an in-process caller on another thread goes
through :meth:`PlacementEngine.submit`, which queues for the loop and
wakes it through the socketpair, so an idle engine sleeps.

Training runs **on the loop**: :meth:`~repro.serve.lane.TenantLane.complete`
calls ``agent.feedback()``, which runs its own training event inline as
:meth:`repro.sim.runner.PolicyRun.step` does, so a served placement is
the serial statements of an offline :class:`~repro.core.agent.SibylAgent`
replay, bit-identical by construction; the engine only observes the
event.  The price is the tail — a 7 ms event delays every query queued
behind it (``docs/serve.md``, "Training runs on the loop").

The fused-inference groups (:class:`_LaneGroup`) are built over the
tenant agents, one stacked forward per architecture:
``weights_version`` re-syncs a stack slice after each training event.
Checkpoint hot-reload swaps in a *fresh* agent (old one untouched until
the load succeeds) and rebuilds the groups — in-flight and queued
requests are never dropped, they simply commit against whichever
weights are installed when their round runs.
"""

from __future__ import annotations

import logging
import queue
import selectors
import socket
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from .. import knobs
from ..native.blas import blas_threads
from ..obs.metrics import Histogram
from ..obs.tracer import get_tracer, span
from ..rl.c51 import C51LaneStack, C51Network
from ..rl.dqn import DQNLaneStack
from ..rl.network import NetworkLaneStack
from .lane import TenantLane, open_lane
from .protocol import (
    ERR_BAD_REQUEST,
    ERR_CHECKPOINT_FAILED,
    ERR_INTERNAL,
    ERR_RELOAD_FAILED,
    ERR_SHUTTING_DOWN,
    ERR_TENANT_EXISTS,
    ERR_UNKNOWN_TENANT,
    Query,
    error_frame,
    ok_frame,
)

__all__ = ["Job", "PlacementEngine"]

logger = logging.getLogger("repro.serve")


@dataclass
class Job:
    """One submitted query and the two ways its answer gets out.

    An in-process submitter waits on ``done``, the event
    :meth:`PlacementEngine.submit` attaches; a socket connection, which
    lives on the engine thread and cannot wait, sets ``on_done`` instead
    and is called with the job the moment it resolves — its job has no
    event (``done`` is None).  A job is resolved once ``response`` is
    set.  ``t_submit``/``t_begin`` are ``time.perf_counter()`` stamps
    taken when the job is made (its frame decoded) and at the start of
    its serving round; the difference is the queue wait the ``place``
    response reports.
    """

    query: Query
    done: Optional[threading.Event] = None
    response: Optional[Dict[str, Any]] = None
    t_submit: float = field(default_factory=time.perf_counter)
    t_begin: float = 0.0
    on_done: Optional[Callable[["Job"], None]] = None

    def resolve(self, response: Dict[str, Any]) -> None:
        """Install the response and deliver it (engine thread only)."""
        self.response = response
        if self.done is not None:
            self.done.set()
        if self.on_done is not None:
            self.on_done(self)

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until resolved; False on timeout (submitted jobs only)."""
        return self.done.wait(timeout)


def _group_signature(agent) -> tuple:
    """Fusion-compatibility key of an agent's inference network: agents
    with equal keys share one :class:`_LaneGroup` stacked forward."""
    net = agent.inference_net
    arch = NetworkLaneStack.signature(net.network)
    if isinstance(net, C51Network):
        return ("c51", arch, net.config.n_actions, net.config.n_atoms)
    return ("dqn", arch)


class _LaneGroup:
    """Tenant agents sharing one network architecture → one fused stack.

    One row per agent.
    """

    def __init__(self, agents: List) -> None:
        self.agents = list(agents)
        nets = [agent.inference_net for agent in self.agents]
        if isinstance(nets[0], C51Network):
            self.stack = C51LaneStack(nets)
        else:
            self.stack = DQNLaneStack(nets)
        # Zeros, not empty: rows of lanes with no query this round are
        # fed through the fused forward and discarded; stale-but-finite
        # values keep the maths warning-free.
        self.obs = np.zeros((len(nets), self.stack.in_features))
        # Per-lane weight-version counters: a change means the lane
        # rewrote its inference weights (training copy or checkpoint
        # restore) and its stack slice must be re-synced before the
        # next fused forward.
        self.weights_seen = [agent.weights_version for agent in self.agents]

    def resync(self) -> None:
        """Refresh stack slices of lanes whose weights changed."""
        for row, agent in enumerate(self.agents):
            version = agent.weights_version
            if version != self.weights_seen[row]:
                self.weights_seen[row] = version
                self.stack.refresh(row)


class PlacementEngine:
    """Single-threaded lane owner and I/O loop behind a thread-safe inbox.

    ``submit`` (any thread) enqueues a validated query, wakes the loop
    and returns the :class:`Job` to wait on; everything else — serving,
    training events, control ops — happens on the engine thread.  A
    socket front-end shares the loop by registering its sockets with
    :attr:`selector` (``data`` is called with the ready mask) and
    setting :attr:`frontend`.  ``train_mode`` defaults to the
    ``SIBYL_SERVE_TRAIN`` environment knob and is held to the same row
    of :data:`repro.knobs.TABLE` (an unknown mode raises ``ValueError``
    by either route).
    """

    def __init__(self, train_mode: Optional[str] = None) -> None:
        self.train_mode = knobs.get("SIBYL_SERVE_TRAIN", train_mode)
        self.lanes: Dict[str, TenantLane] = {}
        self.counters: Dict[str, int] = {
            "served": 0,
            "errors": 0,
            "rounds": 0,
            "fused_forwards": 0,
            "fused_rows": 0,
            "max_fused_rows": 0,
            "train_events": 0,
            "reloads": 0,
        }
        self.shutting_down = False
        #: Wall-clock instruments behind the ``metrics`` protocol op:
        #: request-phase histograms by name, each made when first
        #: needed, and the seconds training events held the loop.
        self.histograms: Dict[str, Histogram] = {}
        self.trainer_busy_s = 0.0
        self._t_start = time.perf_counter()
        self.inbox: "queue.SimpleQueue" = queue.SimpleQueue()
        #: The socket front-end sharing this loop (a ``PlacementDaemon``),
        #: or None.  Each turn the loop calls its ``advance()`` before
        #: the round and ``select_timeout()`` before blocking, and on
        #: its way out its ``close()``.
        self.frontend = None
        self._selector: Optional[selectors.BaseSelector] = None
        self._wake_r: Optional[socket.socket] = None
        self._wake_w: Optional[socket.socket] = None
        self._drains: List[Job] = []
        self._lane_group: Dict[str, Tuple[_LaneGroup, int]] = {}
        self._groups_stale = True
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name="serve-engine", daemon=True
        )

    # ------------------------------------------------------------ lifecycle
    @property
    def selector(self) -> selectors.BaseSelector:
        """The loop's selector, made with the wake socketpair on first
        use — an engine that is only ever pumped inline (the tests, the
        docs) holds no descriptors."""
        if self._selector is None:
            self._selector = selectors.DefaultSelector()
            self._wake_r, wake_w = socket.socketpair()
            self._wake_r.setblocking(False)
            wake_w.setblocking(False)
            self._selector.register(
                self._wake_r, selectors.EVENT_READ, self._drain_wake
            )
            self._wake_w = wake_w
        return self._selector

    def start(self) -> None:
        """Start the engine thread."""
        self._thread.start()

    def stop(self, timeout: float = 5.0) -> None:
        """Stop the loop; pending jobs resolve ``shutting-down``.

        Callable from any thread, the loop's own included (which it
        does not join).
        """
        self.shutting_down = True
        self._stop.set()
        self._post("wake", None)
        thread = self._thread
        if thread is not threading.current_thread() and thread.is_alive():
            thread.join(timeout)
        if not thread.is_alive():  # never ran, or gone: nobody selects
            self._close_selector()

    def submit(self, query: Query) -> Job:
        """Enqueue a validated query; returns the job to wait on."""
        job = Job(query, done=threading.Event())
        self._post("job", job)
        return job

    def _post(self, kind: str, payload) -> None:
        """The one thread-safe door: queue for the loop, then wake it.

        Put first, wake second, and the loop drains the inbox before it
        ever blocks — so a post is seen whether it lands before the loop
        exists, mid-turn or mid-select.  The wake is best-effort: with
        no loop there is no socket, a full socketpair already holds a
        wake, a closed one has no loop left to wake.
        """
        self.inbox.put((kind, payload))
        wake = self._wake_w
        if wake is not None:
            try:
                wake.send(b"\0")
            except OSError:
                pass

    def _drain_wake(self, mask: int) -> None:
        try:
            self._wake_r.recv(4096)
        except BlockingIOError:
            pass

    def _close_selector(self) -> None:
        if self._selector is not None:
            self._selector.close()
            self._wake_r.close()
            self._wake_w.close()

    # ------------------------------------------------------------ main loop
    def _run(self) -> None:
        selector, frontend = self.selector, self.frontend
        try:
            while True:
                self._turn()
                if self._stop.is_set():
                    break
                timeout = None if frontend is None else frontend.select_timeout()
                for key, mask in selector.select(timeout):
                    key.data(mask)
        finally:
            self._flush_pending()
            if frontend is not None:
                frontend.close()
            self._close_selector()

    def _turn(self) -> None:
        """Everything between two selects: inbox, front-end, one sweep
        of rounds, barriers."""
        inbox = self.inbox
        while not inbox.empty():  # the loop is the inbox's only reader
            self._dispatch(*inbox.get_nowait())
        if self.frontend is not None:
            self.frontend.advance()
        self._serve_ready()
        self._release_barriers()

    def _dispatch(self, kind: str, payload) -> None:
        if kind == "job":
            job = payload
            if job.query.op == "place":
                self._enqueue_place(job)
            else:
                self._control(job)
        # "wake" carries no payload; it only ends the loop's select.

    def _enqueue_place(self, job: Job) -> None:
        if self.shutting_down:
            self._fail(job, ERR_SHUTTING_DOWN, "daemon is shutting down")
            return
        lane = self.lanes.get(job.query.tenant)
        if lane is None:
            self._fail(
                job, ERR_UNKNOWN_TENANT, f"no such tenant: {job.query.tenant!r}"
            )
            return
        lane.queue.append(job)

    def _fail(self, job: Job, code: str, message: str) -> None:
        self.counters["errors"] += 1
        job.resolve(error_frame(code, message, id=job.query.id))

    # -------------------------------------------------------------- serving
    def _serve_ready(self) -> None:
        """Serve rounds until no lane has a queued query; a round takes
        one from every lane that has one."""
        while True:
            jobs = [
                lane.queue.popleft()
                for lane in self.lanes.values() if lane.queue
            ]
            if not jobs:
                return
            self._serve_round(jobs)

    def _serve_round(self, jobs: List[Job]) -> None:
        """One fused round: at most one query per lane.

        A raise inside one lane's own statements fails that lane's job
        alone (:meth:`_fail_lane`) and the round goes on without it; a
        raise in what the round shares — the stacked forward — fails
        every job of the round not yet answered.  Either way every
        submitter gets a structured error instead of a hung socket.  An
        agent left with a begun, uncommitted decision needs no unwinding:
        the decision path only reads the inference network, and the
        agent's next ``place_begin`` replaces the dropped decision.
        """
        self.counters["rounds"] += 1
        t_begin = time.perf_counter()
        for job in jobs:
            job.t_begin = t_begin
        try:
            with span("serve.round", cat="serve", jobs=len(jobs)):
                pending = self.place_begin(jobs)
                self.place_commit(jobs, pending)
        except Exception as exc:
            logger.warning("serving round failed: %s", exc, exc_info=True)
            for job in jobs:
                if job.response is None:
                    self._fail(job, ERR_INTERNAL, "placement round failed")

    def place_begin(self, jobs: List[Job]) -> List[Tuple[Job, TenantLane, np.ndarray]]:
        """Pre-inference half of every job in the round.

        Returns the ``(job, lane, observation)`` triples that need the
        fused forward; the rest already hold a decided action
        (exploration draw or greedy-memo hit) inside their agent.  A
        job whose lane raises is failed here and skipped by
        :meth:`place_commit`.
        """
        pending = []
        for job in jobs:
            lane = self.lanes[job.query.tenant]
            try:
                obs = lane.agent.place_begin(job.query.fields["request"])
            except Exception as exc:
                self._fail_lane(job, lane, exc)
                continue
            if obs is not None:
                pending.append((job, lane, obs))
        return pending

    def place_commit(
        self,
        jobs: List[Job],
        pending: List[Tuple[Job, TenantLane, np.ndarray]],
    ) -> None:
        """Fused forwards, then commit/serve/respond for every job."""
        actions: Dict[int, int] = {}
        if pending:
            self._ensure_groups()
            by_group: Dict[_LaneGroup, List[Tuple[Job, int]]] = {}
            for job, lane, obs in pending:
                group, row = self._lane_group[lane.name]
                group.obs[row] = obs
                by_group.setdefault(group, []).append((job, row))
            for group, members in by_group.items():
                group.resync()
                greedy = group.stack.best_actions(group.obs)
                rows = len(members)
                self.counters["fused_forwards"] += 1
                self.counters["fused_rows"] += rows
                if rows > self.counters["max_fused_rows"]:
                    self.counters["max_fused_rows"] = rows
                for member, row in members:
                    actions[id(member)] = int(greedy[row])
        queue_hist = self._histogram("serve_queue_ms")
        service_hist = self._histogram("serve_service_ms")
        for job in jobs:
            if job.response is not None:  # failed in place_begin
                continue
            lane = self.lanes[job.query.tenant]
            agent = lane.agent
            events = agent.train_events
            try:
                action = agent.place_commit(actions.get(id(job)))
                completing = time.perf_counter()
                seq, result = lane.complete(job.query.fields["request"], action)
            except Exception as exc:
                self._fail_lane(job, lane, exc)
                continue
            done = time.perf_counter()
            if agent.train_events != events:
                self._observe_training(lane, completing, done)
            self.counters["served"] += 1
            queue_ms = (job.t_begin - job.t_submit) * 1e3
            service_ms = (done - job.t_begin) * 1e3
            queue_hist.observe(queue_ms)
            service_hist.observe(service_ms)
            job.resolve(ok_frame({
                "op": "place",
                "tenant": lane.name,
                "seq": seq,
                "action": action,
                "device": result.device,
                "latency_s": result.latency_s,
                "eviction_time_s": result.eviction_time_s,
                "timing": {
                    "queue_ms": round(queue_ms, 4),
                    "service_ms": round(service_ms, 4),
                },
            }, id=job.query.id))

    def _fail_lane(self, job: Job, lane: TenantLane, exc: Exception) -> None:
        """One lane's placement raised: fail its job, spare the round.

        The other tenants of the round are untouched and stay
        bit-identical to their serial replays.  The failing tenant is
        served again from its next query, but what its agent or HSS did
        before the raise stays done, so its own stream is no longer
        promised to match a replay.
        """
        logger.warning(
            "placement failed for %r: %s", lane.name, exc, exc_info=True
        )
        self._fail(job, ERR_INTERNAL, "placement failed")

    def _histogram(self, name: str) -> Histogram:
        hist = self.histograms.get(name)
        if hist is None:
            hist = self.histograms[name] = Histogram(name)
        return hist

    # ------------------------------------------------------------- training
    def _observe_training(
        self, lane: TenantLane, started: float, ended: float
    ) -> None:
        """``lane.complete()`` ran a training event: record what the
        ``metrics`` op reports of it — one count, how long it held the
        loop, a ``serve.train`` span."""
        held_s = ended - started
        self.counters["train_events"] += 1
        self._histogram("serve_hold_ms").observe(held_s * 1e3)
        self.trainer_busy_s += held_s
        tracer = get_tracer()
        if tracer is not None:
            tracer.record("serve.train", "serve", started, tenant=lane.name)

    # ------------------------------------------------------------- controls
    def _control(self, job: Job) -> None:
        op = job.query.op
        if op == "ping":
            job.resolve(ok_frame({"op": "ping"}, id=job.query.id))
        elif op == "open":
            self._open(job)
        elif op in ("save", "reload"):
            self._checkpoint_op(job)
        elif op == "stats":
            self._stats(job)
        elif op == "metrics":
            self._metrics_op(job)
        else:  # drain / shutdown: quiescence barriers
            if op == "shutdown":
                self.shutting_down = True
            self._drains.append(job)

    def _open(self, job: Job) -> None:
        name = job.query.tenant
        if self.shutting_down:
            self._fail(job, ERR_SHUTTING_DOWN, "daemon is shutting down")
            return
        if name in self.lanes:
            self._fail(job, ERR_TENANT_EXISTS, f"tenant exists: {name!r}")
            return
        fields = job.query.fields
        try:
            lane = open_lane(
                name,
                seed=fields["seed"],
                config=fields["config"],
                head=fields["head"],
                capacity_pages=fields["capacity_pages"],
                hyperparams=fields["hyperparams"],
                train_mode=self.train_mode,
            )
        except (ValueError, TypeError) as exc:
            self._fail(job, ERR_BAD_REQUEST, str(exc))
            return
        self.lanes[name] = lane
        self._groups_stale = True
        job.resolve(ok_frame({
            "op": "open",
            "tenant": name,
            "n_devices": lane.hss.n_devices,
            "n_features": lane.agent.extractor.n_features,
            "train_mode": lane.train_mode,
            "weights_version": lane.agent.weights_version,
        }, id=job.query.id))

    def _checkpoint_op(self, job: Job) -> None:
        lane = self.lanes.get(job.query.tenant)
        if lane is None:
            self._fail(
                job, ERR_UNKNOWN_TENANT, f"no such tenant: {job.query.tenant!r}"
            )
            return
        path = job.query.fields["checkpoint"]
        if job.query.op == "save":
            try:
                lane.agent.save_checkpoint(path)
            except (OSError, RuntimeError) as exc:
                logger.warning("checkpoint save failed: %s", exc)
                self._fail(job, ERR_CHECKPOINT_FAILED, str(exc))
                return
            job.resolve(ok_frame({
                "op": "save",
                "tenant": lane.name,
                "checkpoint": path,
                "weights_version": lane.agent.weights_version,
            }, id=job.query.id))
        else:
            self._reload(job, lane, path)

    def _reload(self, job: Job, lane: TenantLane, path: str) -> None:
        """Hot-swap a freshly loaded agent; old one survives failures."""
        fresh = lane.fresh_agent()
        fresh.attach(lane.hss)
        try:
            fresh.load_checkpoint(path)
        except Exception as exc:
            logger.warning(
                "checkpoint reload failed for %r: %s", lane.name, exc
            )
            self._fail(job, ERR_RELOAD_FAILED, str(exc))
            return
        lane.agent = fresh
        self._groups_stale = True
        self.counters["reloads"] += 1
        job.resolve(ok_frame({
            "op": "reload",
            "tenant": lane.name,
            "checkpoint": path,
            "weights_version": fresh.weights_version,
        }, id=job.query.id))

    def _stats(self, job: Job) -> None:
        job.resolve(ok_frame({
            "op": "stats",
            "train_mode": self.train_mode,
            "counters": dict(self.counters),
            "tenants": {
                name: lane.stats() for name, lane in self.lanes.items()
            },
        }, id=job.query.id))

    def _metrics_op(self, job: Job) -> None:
        """The ``metrics`` op: live counters + wall-clock breakdown.

        Supersets ``stats`` with the introspection surface: queue
        depth, request-phase histograms (queue wait, service, training
        hold), trainer occupancy — the fraction of the loop's wall
        time spent inside training events — and the process's BLAS
        thread count (0 when no known BLAS is mapped).
        """
        uptime_s = time.perf_counter() - self._t_start
        busy_s = self.trainer_busy_s
        threads = blas_threads()
        job.resolve(ok_frame({
            "op": "metrics",
            "train_mode": self.train_mode,
            "uptime_s": round(uptime_s, 6),
            "blas_threads": 0 if threads is None else threads,
            "counters": dict(self.counters),
            "queue_depth": sum(
                len(lane.queue) for lane in self.lanes.values()
            ),
            "trainer_busy_s": round(busy_s, 6),
            "trainer_occupancy": round(
                busy_s / uptime_s, 6
            ) if uptime_s > 0 else 0.0,
            "timings": {
                name: hist.summary() for name, hist in self.histograms.items()
            },
            "tenants": {
                name: lane.stats() for name, lane in self.lanes.items()
            },
        }, id=job.query.id))

    # ------------------------------------------------------------- barriers
    def _release_barriers(self) -> None:
        """Resolve drain/shutdown once every lane is idle."""
        if not self._drains:
            return
        if any(lane.queue for lane in self.lanes.values()):
            return
        drains, self._drains = self._drains, []
        shutdown = False
        for job in drains:
            if job.query.op == "shutdown":
                shutdown = True
            job.resolve(ok_frame({"op": job.query.op}, id=job.query.id))
        if shutdown:
            self._stop.set()

    def _flush_pending(self) -> None:
        """Fail whatever is still queued when the engine stops."""
        leftovers: List[Job] = []
        for lane in self.lanes.values():
            leftovers.extend(lane.queue)
            lane.queue.clear()
        leftovers.extend(self._drains)
        self._drains = []
        while True:
            try:
                kind, payload = self.inbox.get_nowait()
            except queue.Empty:
                break
            if kind == "job":
                leftovers.append(payload)
        for job in leftovers:
            if job.response is None:
                self._fail(job, ERR_SHUTTING_DOWN, "daemon stopped")

    # --------------------------------------------------------------- groups
    def _ensure_groups(self) -> None:
        """Rebuild the fused-inference groups after membership changes."""
        if not self._groups_stale:
            return
        by_signature: Dict[tuple, List[TenantLane]] = {}
        for lane in self.lanes.values():
            by_signature.setdefault(
                _group_signature(lane.agent), []
            ).append(lane)
        self._lane_group = {}
        for members in by_signature.values():
            group = _LaneGroup([lane.agent for lane in members])
            for row, lane in enumerate(members):
                self._lane_group[lane.name] = (group, row)
        self._groups_stale = False
