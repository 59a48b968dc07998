"""Policy-over-trace simulation runner.

This is the harness's core loop (Fig. 6 driven end-to-end): build an
HSS for a named configuration, size the fast device as a fraction of
the workload's working set (10% by default, §3), then for every request
ask the policy for a placement, serve it, and hand the outcome back to
the policy.

The loop body lives in :class:`PolicyRun`, a *resumable* per-request
stepper: ``run_policy`` drives one run to completion, and
:func:`repro.sim.lanes.run_lanes` builds one per lane, lets the SoA
kernels (:mod:`repro.sim.kernels`) take the lanes they model, and
drives the rest with the same ``step()`` loop.

All paper results are *normalised to Fast-Only*; ``run_normalized``
runs both the policy and the Fast-Only upper bound on identical fresh
systems and reports the ratios.  The Fast-Only reference for a given
(trace, config, window) is cached per process, so sweep campaigns that
share a reference cell (e.g. every point of a capacity sweep) simulate
it once instead of once per point; synthetic catalog traces are memoised
the same way (:func:`synthetic_trace`), so the cells of a sweep that
share a (workload, n_requests, seed) axis generate the trace once — and
pack it once (:func:`repro.sim.kernels.soa.shared_pack`): every lane
replaying it reads one ``TraceSoA``, and sizes its HSS from that pack's
working set.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from functools import lru_cache
from itertools import islice
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from ..baselines.base import PlacementPolicy
from ..baselines.extremes import FastOnlyPolicy
from ..core.explain import PlacementProfile, profile_from_stats
from ..hss.devices import make_devices
from ..hss.request import Request
from ..hss.system import HybridStorageSystem
from ..traces.stats import working_set_pages
from ..traces.workloads import workload_generator
from .kernels.soa import TraceSoA, clear_shared_packs, shared_pack

__all__ = [
    "RunResult",
    "PolicyRun",
    "build_hss",
    "run_policy",
    "run_reference",
    "synthetic_trace",
    "run_normalized",
    "reference_row",
    "normalized_row",
    "clear_reference_cache",
]

#: The paper's default capacity restrictions: dual-HSS fast device at
#: 10% of the working set (§3); tri-HSS H at 5% and M at 10% (§8.7).
DEFAULT_DUAL_FRACTIONS = (0.10,)
DEFAULT_TRI_FRACTIONS = (0.05, 0.10)


@dataclass(frozen=True)
class RunResult:
    """Outcome of one (policy, trace, configuration) simulation."""

    policy: str
    config: str
    n_requests: int
    avg_latency_s: float
    iops: float
    total_latency_s: float
    eviction_fraction: float
    eviction_time_s: float
    profile: PlacementProfile

    def normalized_latency(self, reference: "RunResult") -> float:
        """Average latency relative to a reference run (e.g. Fast-Only).

        A degenerate reference (zero latency — e.g. an empty measurement
        window on a very short trace) yields ``inf`` instead of raising,
        so sweep campaigns survive pathological cells.
        """
        if reference.avg_latency_s <= 0:
            return float("inf")
        return self.avg_latency_s / reference.avg_latency_s

    def normalized_iops(self, reference: "RunResult") -> float:
        """IOPS relative to a reference run; ``0.0`` on a degenerate
        (zero-IOPS) reference instead of raising."""
        if reference.iops <= 0:
            return 0.0
        return self.iops / reference.iops


def build_hss(
    config: str,
    trace: Iterable[Request],
    capacity_fractions: Optional[Sequence[float]] = None,
    unbounded: bool = False,
) -> HybridStorageSystem:
    """Construct an HSS for a ``&``-joined device config (e.g. ``"H&M"``).

    ``capacity_fractions`` sizes each non-last device as a fraction of
    the trace's working set; the last device is always unbounded.  With
    ``unbounded=True`` every device is unbounded (used for Fast-Only).

    ``trace`` may be any iterable (including a re-iterable streaming
    source); sizing consumes one pass over it.
    """
    devices = make_devices(config)
    if unbounded:
        capacities: List[Optional[int]] = [None] * len(devices)
    else:
        if capacity_fractions is None:
            capacity_fractions = (
                DEFAULT_DUAL_FRACTIONS
                if len(devices) == 2
                else DEFAULT_TRI_FRACTIONS
            )
        if len(capacity_fractions) != len(devices) - 1:
            raise ValueError(
                f"need {len(devices) - 1} capacity fractions for {config!r}, "
                f"got {len(capacity_fractions)}"
            )
        pack = shared_pack(trace)
        wss = len(pack.uniq) if pack is not None else working_set_pages(trace)
        capacities = [
            max(1, int(frac * wss)) for frac in capacity_fractions
        ]
        capacities.append(None)
    return HybridStorageSystem(devices, capacities)


class PolicyRun:
    """One resumable (policy, trace) simulation, advanced a request at
    a time.

    ``step()`` executes exactly one loop iteration of the classic serial
    replay: warmup-window reset, ``policy.place``, closed-loop serve,
    ``policy.feedback``.  The compiled kernel instead takes over a freshly
    built run (its ``policy``, ``hss`` and ``_source``) and leave all
    of it in the state the ``step()`` loop would have.

    ``trace`` may be a sequence, a sized re-iterable streaming source
    (e.g. :class:`repro.traces.msrc.StreamingMSRCTrace` — requests are
    then consumed chunk-by-chunk without materialising the full list),
    or any iterator (materialised on construction).
    """

    def __init__(
        self,
        policy: PlacementPolicy,
        trace: Union[Sequence[Request], Iterable[Request]],
        config: str = "H&M",
        capacity_fractions: Optional[Sequence[float]] = None,
        hss: Optional[HybridStorageSystem] = None,
        max_requests: Optional[int] = None,
        warmup_fraction: float = 0.0,
    ) -> None:
        if isinstance(trace, (list, tuple)):
            source: Union[Sequence[Request], Iterable[Request]] = trace
        elif hasattr(trace, "__len__") and hasattr(trace, "__iter__"):
            source = trace  # sized, re-iterable streaming source
        else:
            source = list(trace)  # plain iterator: materialise once
        if max_requests is not None:
            # Truncation needs a concrete prefix (policies with future
            # knowledge must see exactly the truncated trace).
            if isinstance(source, (list, tuple)):
                source = list(source[:max_requests])
            else:
                source = list(islice(iter(source), max_requests))
        n_total = len(source)  # type: ignore[arg-type]
        if n_total == 0:
            raise ValueError("empty trace")
        if not 0.0 <= warmup_fraction < 1.0:
            raise ValueError("warmup_fraction must be in [0, 1)")
        if hss is None:
            unbounded = getattr(policy, "requires_unbounded_fast", False)
            hss = build_hss(
                config, source, capacity_fractions=capacity_fractions,
                unbounded=unbounded,
            )
        self.policy = policy
        self.config = config
        self.hss = hss
        self.n_total = n_total
        policy.reset()
        policy.attach(hss)
        policy.prepare(source)
        self._source = source  # identity: lanes replaying it share a pack
        self._iter = iter(source)
        self._index = 0
        self._warmup_end = int(n_total * warmup_fraction)
        # Closed-loop replay: a request never issues before the previous
        # one completed, matching trace replay on a real block device and
        # preventing unbounded open-loop queue build-up on slow devices.
        self._completion_s = 0.0
        self.finished = False
        # Bound methods hoisted out of the per-request loop.
        self._place = policy.place
        self._feedback = policy.feedback
        self._serve = hss.serve

    # ------------------------------------------------------------ stepping
    def _fetch(self) -> Optional[Request]:
        request = next(self._iter, None)
        if request is None:
            self.finished = True
            return None
        i = self._index
        if i == self._warmup_end and i > 0:
            hss = self.hss
            hss.stats.reset(hss.n_devices)
            for dev in hss.devices:
                dev.stats.reset()
        return request

    def step(self) -> bool:
        """Advance one request; return False once the trace is exhausted."""
        request = self._fetch()
        if request is None:
            return False
        action = self._place(request)
        now = request.timestamp
        if now < self._completion_s:
            now = self._completion_s
        result = self._serve(request, action, now=now)
        self._completion_s = now + result.latency_s
        self._feedback(request, action, result)
        self._index += 1
        return True

    # -------------------------------------------------------------- result
    def result(self) -> RunResult:
        stats = self.hss.stats
        return RunResult(
            policy=self.policy.name,
            config=self.config,
            n_requests=stats.requests,
            avg_latency_s=stats.avg_latency_s,
            iops=self.hss.throughput_iops(),
            total_latency_s=stats.total_latency_s,
            eviction_fraction=stats.eviction_fraction,
            eviction_time_s=stats.eviction_time_s,
            profile=profile_from_stats(stats),
        )


def run_policy(
    policy: PlacementPolicy,
    trace: Union[Sequence[Request], Iterable[Request]],
    config: str = "H&M",
    capacity_fractions: Optional[Sequence[float]] = None,
    hss: Optional[HybridStorageSystem] = None,
    max_requests: Optional[int] = None,
    warmup_fraction: float = 0.0,
) -> RunResult:
    """Simulate ``policy`` over ``trace`` on a fresh HSS.

    Fast-Only runs get an unbounded system automatically (its definition
    is "all data resides in the fast storage", §7).

    ``warmup_fraction`` excludes the first part of the trace from the
    reported metrics (every request is still served and learned from).
    The paper's traces are orders of magnitude longer than the synthetic
    benches here, so Sibyl's online-adaptation transient amortises away
    there; measuring the steady-state window — identically for every
    policy — is the equivalent at bench scale.
    """
    run = PolicyRun(
        policy,
        trace,
        config=config,
        capacity_fractions=capacity_fractions,
        hss=hss,
        max_requests=max_requests,
        warmup_fraction=warmup_fraction,
    )
    step = run.step
    while step():
        pass
    return run.result()


# ---------------------------------------------------------------------------
# Per-process memos: Fast-Only reference runs and synthetic traces.
# ---------------------------------------------------------------------------

#: Per-process memo of Fast-Only reference runs, keyed by
#: (trace fingerprint, config, max_requests, warmup_fraction).
_REFERENCE_CACHE: "OrderedDict[tuple, RunResult]" = OrderedDict()
_REFERENCE_CACHE_LIMIT = 8

@lru_cache(maxsize=8)
def synthetic_trace(
    workload: str, n_requests: int, seed: int
) -> Tuple[Request, ...]:
    """``make_trace(workload, n_requests, seed)``, memoised per process.

    Every cell of a sweep shares that axis, so a worker generates each
    trace once instead of once per cell.  Returned as a tuple of
    (frozen) requests: the same object is handed to every cell that
    asks for it, so it must not be mutable.  When the compiled draw
    loop wrote the trace, its columns become the tuple's shared pack
    as they are, with no pass over the requests.
    """
    generator = workload_generator(workload, n_requests=n_requests, seed=seed)
    requests, columns = generator.generate_with_columns()
    trace = tuple(requests)
    if columns is not None:
        shared_pack(trace, TraceSoA(trace, *columns))
    return trace


def _trace_fingerprint(trace) -> Optional[tuple]:
    """Value-based identity of a trace, or None when uncacheable.

    Streaming sources may expose a cheap ``fingerprint`` attribute
    (e.g. path + file metadata); concrete request lists hash their
    contents (requests are frozen dataclasses).
    """
    fp = getattr(trace, "fingerprint", None)
    if fp is not None:
        return ("attr", fp)
    if isinstance(trace, (list, tuple)):
        if not trace:
            return ("hash", 0)
        # Full-content hash plus the endpoint requests themselves: a
        # stale hit would need a 64-bit hash collision between two
        # same-length traces that also share both endpoints.
        return ("hash", len(trace), hash(tuple(trace)), trace[0], trace[-1])
    return None


def run_reference(
    trace,
    config: str = "H&M",
    max_requests: Optional[int] = None,
    warmup_fraction: float = 0.0,
) -> RunResult:
    """The Fast-Only reference run for a (trace, config, window) cell.

    Deterministic (Fast-Only is stateless and the replay is seeded by
    the trace alone), so the result is memoised per process: a sweep
    whose points share the reference cell — every capacity fraction of
    a capacity sweep, every point of a hyper-parameter sweep — pays for
    one reference simulation instead of one per point.
    """
    fingerprint = _trace_fingerprint(trace)
    key = None
    if fingerprint is not None:
        key = (fingerprint, config, max_requests, warmup_fraction)
        hit = _REFERENCE_CACHE.get(key)
        if hit is not None:
            _REFERENCE_CACHE.move_to_end(key)
            return hit
    from .lanes import LaneSpec, run_lanes  # local import: lanes builds on us

    (result,) = run_lanes(
        [
            LaneSpec(
                policy=FastOnlyPolicy(),
                trace=trace,
                config=config,
                max_requests=max_requests,
                warmup_fraction=warmup_fraction,
            )
        ]
    )
    if key is not None:
        _REFERENCE_CACHE[key] = result
        while len(_REFERENCE_CACHE) > _REFERENCE_CACHE_LIMIT:
            _REFERENCE_CACHE.popitem(last=False)
    return result


def clear_reference_cache() -> None:
    """Drop the per-process memos — reference runs, synthetic traces and
    their packs — so the next cell starts as cold as in a new process
    (mainly for tests)."""
    _REFERENCE_CACHE.clear()
    synthetic_trace.cache_clear()
    clear_shared_packs()


def reference_row(reference: RunResult) -> Dict[str, float]:
    """The Fast-Only row of a normalised result dict.

    Everything is relative to Fast-Only (the paper's universal
    baseline), so its own normalised metrics are 1.0 by construction;
    the raw reference latency and IOPS ride along so callers adding
    extra policies later (e.g. the Oracle row of a sweep cell, or a
    multi-seed campaign) can normalise against the same reference.
    """
    return {
        "latency": 1.0,
        "iops": 1.0,
        "eviction_fraction": reference.eviction_fraction,
        "fast_preference": 1.0,
        "avg_latency_s": reference.avg_latency_s,
        # Raw (unnormalised) reference throughput, kept so callers
        # adding extra policies later can normalise against it.
        "raw_iops": reference.iops,
    }


def normalized_row(result: RunResult, reference: RunResult) -> Dict[str, float]:
    """One policy's metrics dict, latency/IOPS normalised to ``reference``.

    The single home of the metric projection, applied per (seed,
    policy) lane by :func:`repro.sim.campaign.run_seeded_normalized`.
    """
    return {
        "latency": result.normalized_latency(reference),
        "iops": result.normalized_iops(reference),
        "eviction_fraction": result.eviction_fraction,
        "fast_preference": result.profile.fast_preference,
        "avg_latency_s": result.avg_latency_s,
    }


def run_normalized(
    policies: Sequence[PlacementPolicy],
    trace: Union[Sequence[Request], Iterable[Request]],
    config: str = "H&M",
    capacity_fractions: Optional[Sequence[float]] = None,
    max_requests: Optional[int] = None,
    warmup_fraction: float = 0.0,
) -> Dict[str, Dict[str, float]]:
    """Run policies plus the Fast-Only reference; return normalised metrics.

    Returns ``{policy_name: {"latency": ..., "iops": ...,
    "eviction_fraction": ..., "fast_preference": ...}}`` with latency and
    IOPS normalised to Fast-Only, the paper's universal baseline.

    The one-seed call of
    :func:`repro.sim.campaign.run_seeded_normalized`, which owns the
    reference run, the lane list and the normalisation: every policy
    in the lineup is one lane of :func:`repro.sim.lanes.run_lanes`,
    bit-identical to serial ``run_policy`` calls, so this changes
    wall-clock time only.
    """
    from .campaign import run_seeded_normalized  # local import: campaign builds on us

    (row,) = run_seeded_normalized(
        (None,),  # one anonymous seed: the caller seeded its own policies
        [trace],
        [policies],
        config=config,
        capacity_fractions=capacity_fractions,
        max_requests=max_requests,
        warmup_fraction=warmup_fraction,
    )
    return row
