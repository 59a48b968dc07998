"""The compiled tick engine: C hot loop, Python at the barriers.

``kernel.c`` owns the whole per-request tick — PCG64 exploration draws,
feature binning, the device latency models, LRU placement/eviction,
replay dedup — over flat arrays with dense page ids, and *suspends*
whenever serial semantics need Python:

* **inference barrier** — an action-memo miss the kernel cannot answer
  itself; the caller runs ``inference_net.best_action`` on the mailed
  observation and re-enters (the kernel commits the memo entry and
  resumes mid-tick).  A C51 lane whose inference network
  ``C51Network._compiled`` accepts never stops here: its flat
  parameters are bound into the lane's table (weight copies write into
  them in place) and ``sib_run`` computes the forward itself, with the
  routine ``best_action`` calls, counting it in ``CI_FORWARDS``;
* **training gate** — ``seen % train_interval == 0`` with a full enough
  buffer; the caller hands the replay buffer the kernel's FIFO as its
  sampling order (the storage arrays are the buffer's own), drives the
  agent's own ``train_begin``/``train_commit`` (identical serial code),
  re-evaluates the kernel's action memo in place against the new
  weights, and re-enters.

Everything the serial path would have mutated — RNG state, replay
contents and caches, action memo, page table, tracker, device state and
stats — is reconstructed on the live objects at the end, so the result
(and all post-run state) is bit-identical to serial ``run_policy``:
the kernel re-executes the serial path's arithmetic in C with the same
operations in the same order (``-ffp-contract=off`` keeps the compiler
from fusing them).

A second lane kind needs no barrier at all: a *scripted* lane
(:func:`run_script_c`; the paper's baselines, see :mod:`.script`) packs
only the HSS half of that state plus one decision per request, and the
kernel replays the trace through the same serve/evict routine.

The two languages share one ABI table (:mod:`repro.native.abi`): the
slot indices used below are derived from it, and so is the
``sib_abi.h`` that ``kernel.c`` includes.  Building, loading and the
ABI handshake live in :mod:`repro.native.library`, below both this
package and ``traces/`` and ``rl/`` (the library's other entry points),
and so does the gate: this module runs the ``tick`` row of its entry
table.  Every array packed for a run is checked against the table's
element types before ``sib_run`` (``library.bind``).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional, Sequence

import numpy as np

from ...hss.eviction import BeladyVictimSelector
from ...hss.hdd import HDDDevice
from ...hss.ssd import SSDDevice
from ...native import library
# The slot indices (P_*, CI_*, CD_*, DD_*, DI_*, HI_*, HD_*), the block
# lengths, the strides and the ST_* status codes: plain ints derived
# from abi.TABLE, the table the C side's sib_abi.h is rendered from.
from ...native.abi import *
from ...obs.tracer import span as _span
from .script import LIVE_LOCATION, decide
from .soa import TraceSoA, shared_pack

__all__ = ["run_lanes_c", "run_one_c", "run_script_c"]

_MEMO_CAP = 1 << 16
_U64 = (1 << 64) - 1
#: ``CI_CAP0`` of an unbounded fast device (Fast-Only): never overflows.
_UNBOUNDED = np.iinfo(np.int64).max


# ------------------------------------------------------------- helpers
def _next_pow2(n: int) -> int:
    p = 1
    while p < n:
        p *= 2
    return p


def _rng_state_to_words(rng: np.random.Generator) -> np.ndarray:
    st = rng.bit_generator.state
    s, inc = st["state"]["state"], st["state"]["inc"]
    return np.array(
        [
            (s >> 64) & _U64, s & _U64, (inc >> 64) & _U64, inc & _U64,
            int(st["has_uint32"]), int(st["uinteger"]),
        ],
        dtype=np.uint64,
    )


def _rng_words_to_state(rng: np.random.Generator, words: np.ndarray) -> None:
    rng.bit_generator.state = {
        "bit_generator": "PCG64",
        "state": {
            "state": (int(words[0]) << 64) | int(words[1]),
            "inc": (int(words[2]) << 64) | int(words[3]),
        },
        "has_uint32": int(words[4]),
        "uinteger": int(words[5]),
    }


def _seed_device(run, d: int, dd: np.ndarray, di: np.ndarray) -> None:
    """Mirror device ``d``'s model constants and live state into the
    kernel's flat blocks (exactly the values ``_device_access`` hoists)."""
    hss = run.hss
    dev = hss.devices[d]
    spec = dev.spec
    stats = dev.stats
    drow = dd[d * DD_STRIDE:]
    irow = di[d * DI_STRIDE:]
    drow[DD_NEXT_FREE] = dev._next_free_s
    drow[DD_BUSY] = stats.busy_time_s
    drow[DD_QWAIT] = stats.queue_wait_s
    drow[DD_UTIL] = getattr(dev, "utilization", 0.0)
    drow[DD_GC_TIME] = stats.gc_time_s
    drow[DD_ROVER] = spec.read_overhead_s
    drow[DD_WOVER] = spec.write_overhead_s
    drow[DD_RBW] = spec.read_bandwidth_bps
    drow[DD_WBW] = spec.write_bandwidth_bps
    drow[DD_BI] = dev.background_interference
    irow[DI_READS] = stats.reads
    irow[DI_WRITES] = stats.writes
    irow[DI_PR] = stats.pages_read
    irow[DI_PW] = stats.pages_written
    irow[DI_GC_EVENTS] = stats.gc_events
    ssd = hss._ssd[d]
    irow[DI_HAS_UTIL] = 0 if ssd is None else 1
    irow[DI_UTIL_CAP] = 1 if ssd is None else hss._util_cap[d]
    if isinstance(dev, HDDDevice):
        config = dev.config
        irow[DI_TYPE] = 1
        drow[DD_AVG_ROT] = config.avg_rotational_s
        drow[DD_MIN_SEEK] = config.min_seek_s
        drow[DD_SEEK_SPAN] = config.max_seek_s - config.min_seek_s
        irow[DI_HEAD] = dev._head_page
        irow[DI_TARGET] = dev.target_page
        irow[DI_SEQWIN] = config.sequential_window_pages
        irow[DI_TRACKSPAN] = config.track_span_pages
        irow[DI_CAPPAGES] = max(1, spec.capacity_pages)
    else:
        config = dev.config
        irow[DI_TYPE] = 0
        drow[DD_READ1] = dev._read_1pg_s
        drow[DD_GC_THRESH] = config.gc_threshold
        drow[DD_GC_LAT] = config.gc_latency_s
        drow[DD_GC_DENOM] = max(1e-9, 1.0 - config.gc_threshold)
        drow[DD_BUF_LAT] = config.buffered_write_latency_s
        drow[DD_TR_UNIT] = 4096.0 / spec.write_bandwidth_bps
        drow[DD_BUF_OCC] = dev._buffer_occupancy
        drow[DD_BUF_LAST] = dev._buffer_last_drain_s
        irow[DI_WSG] = dev._writes_since_gc
        irow[DI_BUFFERED] = stats.buffered_writes
        irow[DI_GC_TRIG] = config.gc_trigger_pages
        irow[DI_BUF_PAGES] = config.buffer_pages


def _writeback_device(run, d: int, dd: np.ndarray, di: np.ndarray) -> None:
    hss = run.hss
    dev = hss.devices[d]
    stats = dev.stats
    drow = dd[d * DD_STRIDE:]
    irow = di[d * DI_STRIDE:]
    dev._next_free_s = float(drow[DD_NEXT_FREE])
    stats.busy_time_s = float(drow[DD_BUSY])
    stats.queue_wait_s = float(drow[DD_QWAIT])
    stats.gc_time_s = float(drow[DD_GC_TIME])
    stats.reads = int(irow[DI_READS])
    stats.writes = int(irow[DI_WRITES])
    stats.pages_read = int(irow[DI_PR])
    stats.pages_written = int(irow[DI_PW])
    stats.gc_events = int(irow[DI_GC_EVENTS])
    if isinstance(dev, HDDDevice):
        dev._head_page = int(irow[DI_HEAD])
        dev.target_page = int(irow[DI_TARGET])
    else:
        dev._buffer_occupancy = float(drow[DD_BUF_OCC])
        dev._buffer_last_drain_s = float(drow[DD_BUF_LAST])
        dev._writes_since_gc = int(irow[DI_WSG])
        stats.buffered_writes = int(irow[DI_BUFFERED])
    if isinstance(dev, SSDDevice):
        dev.utilization = float(drow[DD_UTIL])


class _HSSState:
    """The HSS half of one lane's kernel state, common to both lane
    kinds: the trace columns, page table, LRU lists, tracker, devices
    and stats, packed from the live objects and written back to them
    by :meth:`export_hss`.  A scripted lane is this plus its script."""

    def __init__(self, run, trace: TraceSoA) -> None:
        self.run = run
        self.hss = hss = run.hss
        self.trace = trace
        self.uniq = uniq = trace.uniq
        n_pages = len(uniq)

        self.ci = ci = np.zeros(CI_LEN, dtype=np.int64)
        self.cd = cd = np.zeros(CD_LEN, dtype=np.float64)
        ci[CI_NTOTAL] = trace.n
        ci[CI_WARMUP] = run._warmup_end
        ci[CI_CLOCK] = hss.tracker._clock
        cap = hss.capacity_pages[0]
        ci[CI_CAP0] = _UNBOUNDED if cap is None else cap
        ci[CI_SLACK] = hss.eviction_slack_pages
        ci[CI_HEAD0] = ci[CI_TAIL0] = ci[CI_HEAD1] = ci[CI_TAIL1] = -1
        ci[CI_NDEV] = hss.n_devices
        ci[CI_BELADY_NOW] = -1  # LRU victim selection
        cd[CD_COMPLETION] = run._completion_s

        self.dd = dd = np.zeros(2 * DD_STRIDE, dtype=np.float64)
        self.di = di = np.zeros(2 * DI_STRIDE, dtype=np.int64)
        for d in range(2):
            _seed_device(run, d, dd, di)

        self.hi = hi = np.zeros(HI_LEN, dtype=np.int64)
        stats = hss.stats
        hi[HI_REQUESTS] = stats.requests
        hi[HI_READS] = stats.reads
        hi[HI_WRITES] = stats.writes
        hi[HI_PROMOTED] = stats.promoted_pages
        hi[HI_DEMOTED] = stats.demoted_pages
        hi[HI_EVENTS] = stats.eviction_events
        hi[HI_EVICTED] = stats.evicted_pages
        hi[HI_PLACE0] = stats.placements[0]
        hi[HI_PLACE1] = stats.placements[1]
        self.hd = hd = np.zeros(HD_LEN, dtype=np.float64)
        hd[HD_TOTAL_LAT] = stats.total_latency_s
        hd[HD_EVICT_TIME] = stats.eviction_time_s
        hd[HD_LAST_COMPLETION] = stats.last_completion_s

        self.arrays = arrays = [None] * P_NPTR
        arrays[P_CTRL_I] = ci
        arrays[P_CTRL_D] = cd
        arrays[P_TS] = np.ascontiguousarray(trace.timestamps)
        arrays[P_OP] = np.ascontiguousarray(trace.ops)
        arrays[P_DPAGE] = trace.dpage
        arrays[P_SIZE] = np.ascontiguousarray(trace.sizes)
        arrays[P_UNIQ] = uniq
        arrays[P_LOC] = np.full(n_pages, -1, dtype=np.int8)
        arrays[P_LRU_PREV] = np.full(n_pages, -1, dtype=np.int32)
        arrays[P_LRU_NEXT] = np.full(n_pages, -1, dtype=np.int32)
        arrays[P_CNT] = np.zeros(n_pages, dtype=np.int64)
        arrays[P_LAST] = np.full(n_pages, -1, dtype=np.int64)
        arrays[P_DEV_D] = dd
        arrays[P_DEV_I] = di
        arrays[P_HSS_I] = hi
        arrays[P_HSS_D] = hd
        arrays[P_VICTIMS] = np.zeros(n_pages + 1, dtype=np.int32)
        arrays[P_VSORT] = np.zeros(n_pages + 1, dtype=np.int32)

    def export_hss(self) -> None:
        run = self.run
        hss = self.hss
        ci = self.ci

        run._completion_s = float(self.cd[CD_COMPLETION])
        run._index = int(ci[CI_NTOTAL])
        run.finished = True

        tracker = hss.tracker
        uniq = self.uniq
        cnt = self.arrays[P_CNT]
        last = self.arrays[P_LAST]
        touched = np.nonzero(last >= 0)[0]
        pages = uniq[touched].tolist()
        tracker._count = dict(zip(pages, cnt[touched].tolist()))
        tracker._last_access = dict(zip(pages, last[touched].tolist()))
        tracker._clock = int(ci[CI_CLOCK])

        table = hss.table
        loc = self.arrays[P_LOC]
        mapped = np.nonzero(loc >= 0)[0]
        table._location = dict(
            zip(uniq[mapped].tolist(), loc[mapped].astype(int).tolist())
        )
        page_of = uniq.tolist()
        lnext = self.arrays[P_LRU_NEXT].tolist()
        for d in range(2):
            resident = table._resident[d]
            resident.clear()
            p = int(ci[CI_HEAD0 + 2 * d])
            while p >= 0:
                resident[page_of[p]] = None
                p = lnext[p]

        stats = hss.stats
        hi, hd = self.hi, self.hd
        stats.requests = int(hi[HI_REQUESTS])
        stats.reads = int(hi[HI_READS])
        stats.writes = int(hi[HI_WRITES])
        stats.promoted_pages = int(hi[HI_PROMOTED])
        stats.demoted_pages = int(hi[HI_DEMOTED])
        stats.eviction_events = int(hi[HI_EVENTS])
        stats.evicted_pages = int(hi[HI_EVICTED])
        stats.placements = [int(hi[HI_PLACE0]), int(hi[HI_PLACE1])]
        stats.total_latency_s = float(hd[HD_TOTAL_LAT])
        stats.eviction_time_s = float(hd[HD_EVICT_TIME])
        stats.last_completion_s = float(hd[HD_LAST_COMPLETION])

        for d in range(2):
            _writeback_device(run, d, self.dd, self.di)


class _KernelRun(_HSSState):
    """One agent lane's kernel state: the HSS half plus replay buffer,
    action memo, RNG and the Python-side barrier handlers.  ``backend``
    (the lane engine's override of ``SIBYL_BACKEND``) also decides
    whether the lane's forward runs in the kernel."""

    def __init__(self, run, trace: TraceSoA,
                 backend: Optional[str] = None) -> None:
        super().__init__(run, trace)
        self.policy = policy = run.policy
        ci, cd, arrays = self.ci, self.cd, self.arrays

        buf = policy.buffer
        cap = buf.capacity
        # Preallocate the buffer's own storage at full capacity; the
        # kernel writes rows in place, so training-time gathers read
        # the live arrays.  (The serial path grows these geometrically;
        # the final export trims back to the serial length.)
        buf._obs = np.zeros((cap, 6), dtype=np.float64)
        buf._next_obs = np.zeros((cap, 6), dtype=np.float64)
        buf._actions = np.zeros(cap, dtype=np.int64)
        buf._rewards = np.zeros(cap, dtype=np.float64)
        buf._mult = np.zeros(cap, dtype=np.float64)
        rb_hashcap = _next_pow2(max(64, 2 * cap))

        hp = policy.hyperparams
        spec = policy.extractor.spec
        reward_fn = policy.reward_fn

        ci[CI_SEEN] = policy._requests_seen
        ci[CI_TRAIN_INT] = hp.train_interval
        ci[CI_BATCH] = hp.batch_size
        ci[CI_INIT_RAND] = hp.initial_random_requests
        ci[CI_RB_CAP] = cap
        ci[CI_RB_HEAD] = ci[CI_RB_TAIL] = -1
        ci[CI_RB_HASHCAP] = rb_hashcap
        ci[CI_MEMO_CAP] = _MEMO_CAP
        ci[CI_MEMO_HASHCAP] = _MEMO_CAP * 2
        ci[CI_SIZE_BINS] = spec.size_bins
        ci[CI_INTR_BINS] = spec.intr_bins
        ci[CI_CNT_BINS] = spec.cnt_bins
        ci[CI_CAP_BINS] = spec.cap_bins
        cd[CD_EPS] = hp.exploration_rate
        cd[CD_UNIT] = reward_fn.unit_latency_s
        cd[CD_EVICT_COEF] = reward_fn.eviction_penalty_coefficient
        cd[CD_MAX_REWARD] = reward_fn.max_reward

        arrays[P_MAXIMA] = np.ascontiguousarray(
            policy.extractor._maxima_arr, dtype=np.float64
        )
        arrays[P_OBS_MAIL] = np.zeros(6, dtype=np.float64)
        arrays[P_PEND_OBS] = np.zeros(6, dtype=np.float64)
        arrays[P_PEND_KEY] = np.zeros(24, dtype=np.uint8)
        arrays[P_ACTION_COUNTS] = policy.action_counts
        arrays[P_RNG] = _rng_state_to_words(policy.rng)
        arrays[P_RB_OBS] = buf._obs
        arrays[P_RB_NOBS] = buf._next_obs
        arrays[P_RB_ACT] = buf._actions
        arrays[P_RB_REW] = buf._rewards
        arrays[P_RB_MULT] = buf._mult
        arrays[P_RB_KEYS] = np.zeros(cap * 51, dtype=np.uint8)
        arrays[P_RB_HASH] = np.full(rb_hashcap, -1, dtype=np.int32)
        arrays[P_RB_FPREV] = np.full(cap, -1, dtype=np.int32)
        arrays[P_RB_FNEXT] = np.full(cap, -1, dtype=np.int32)
        arrays[P_RB_FREE] = np.zeros(cap, dtype=np.int32)
        arrays[P_RB_ORDER] = np.zeros(cap, dtype=np.int64)
        arrays[P_MEMO_KEYS] = np.zeros(_MEMO_CAP * 24, dtype=np.uint8)
        arrays[P_MEMO_OBS] = np.zeros((_MEMO_CAP, 6), dtype=np.float64)
        arrays[P_MEMO_ACT] = np.zeros(_MEMO_CAP, dtype=np.int32)
        arrays[P_MEMO_HASH] = np.full(_MEMO_CAP * 2, -1, dtype=np.int32)
        if policy.head == "c51":
            net = policy.inference_net
            compiled, _ = net._compiled(backend=backend)
            if compiled is not None:  # else P_C51_PARAMS stays NULL
                compiled.bind_forward(net, ci, arrays)
        self.gate_total: Optional[int] = None
        self.ptrs = library.bind(self.arrays)

    # ------------------------------------------------------- barriers
    def _rebuild_entries(self) -> None:
        """Mirror the kernel's FIFO onto ``buffer._entries`` (the dedup
        map in insertion order), exactly as the serial adds left it."""
        buf = self.policy.buffer
        order = self.arrays[P_RB_ORDER][: int(self.ci[CI_ORDER_N])]
        keys = self.arrays[P_RB_KEYS].tobytes()
        entries: "OrderedDict[bytes, int]" = OrderedDict()
        for slot in order.tolist():
            entries[keys[slot * 51:(slot + 1) * 51]] = slot
        buf._entries = entries
        buf._order_cache = None
        buf._cdf_cache = None

    def _export_memo(self) -> None:
        """Mirror the kernel's action memo onto the agent's dicts, in
        insertion order (``_refresh_action_cache`` iterates it)."""
        policy = self.policy
        n = int(self.ci[CI_MEMO_N])
        keys = self.arrays[P_MEMO_KEYS][: n * 24].tobytes()
        obs = self.arrays[P_MEMO_OBS]
        act = self.arrays[P_MEMO_ACT]
        memo = {}
        cache_obs = {}
        for k in range(n):
            key = keys[k * 24:(k + 1) * 24]
            memo[key] = int(act[k])
            cache_obs[key] = obs[k].copy()
        policy._action_cache = memo
        policy._cache_obs = cache_obs

    def handle_inference(self) -> None:
        obs = self.arrays[P_OBS_MAIL]
        self.ci[CI_ACTION] = int(self.policy.inference_net.best_action(obs))

    def handle_train_gate(self) -> None:
        """One training event on the live agent.  Its replay dedup map
        and action-memo dicts stay empty for the whole run (they are
        mirrored once, in :meth:`export`): the event samples through
        the installed order, and its own memo refresh finds nothing to
        do — the kernel's memo is refreshed here, by the agent's rule.
        """
        policy, ci = self.policy, self.ci
        _rng_words_to_state(policy.rng, self.arrays[P_RNG])
        policy.buffer.set_sampling_order(
            self.arrays[P_RB_ORDER][: int(ci[CI_ORDER_N])].copy()
        )
        self.gate_total = int(ci[CI_RB_TOTAL])
        policy.train_begin()
        policy.train_commit()
        n = int(ci[CI_MEMO_N])
        if n > policy._ACTION_CACHE_LIMIT:
            ci[CI_MEMO_N] = 0
            self.arrays[P_MEMO_HASH].fill(-1)
        elif n:
            self.arrays[P_MEMO_ACT][:n] = policy.inference_net.best_actions(
                self.arrays[P_MEMO_OBS][:n]
            )
        self.arrays[P_RNG][:] = _rng_state_to_words(policy.rng)

    # -------------------------------------------------------- export
    def _trim_buffer_arrays(self) -> None:
        """Shrink the preallocated storage to the serial length (the
        geometric-growth schedule of ``_allocate``/``_grow``)."""
        buf = self.policy.buffer
        cap = buf.capacity
        slot_hi = int(self.ci[CI_RB_SLOT_HI])
        length = min(cap, 1024)
        while length < slot_hi:
            length = min(cap, 2 * length)
        if length < cap:
            for name in ("_obs", "_next_obs", "_actions", "_rewards", "_mult"):
                arr = getattr(buf, name)
                setattr(buf, name, arr[:length].copy())

    def export(self) -> None:
        policy = self.policy
        ci, cd = self.ci, self.cd

        _rng_words_to_state(policy.rng, self.arrays[P_RNG])
        policy._requests_seen = int(ci[CI_SEEN])
        if ci[CI_PENDING]:
            policy._pending = (
                self.arrays[P_PEND_OBS].copy(),
                int(ci[CI_PEND_ACTION]),
                float(cd[CD_PEND_REWARD]),
                bytes(self.arrays[P_PEND_KEY]),
            )
        else:
            policy._pending = None
        self._export_memo()

        buf = policy.buffer
        self._rebuild_entries()
        buf._free = self.arrays[P_RB_FREE][: int(ci[CI_RB_FREE_N])].tolist()
        buf._total_added = int(ci[CI_RB_TOTAL])
        if self.gate_total is not None and buf._total_added == self.gate_total:
            # No mutation since the last training event: the serial
            # buffer still holds the caches that event's sampling
            # built.  Reproduce them through the same code path.
            if buf._entries:
                buf.sample_slots(1, rng=np.random.default_rng(0))
        self._trim_buffer_arrays()

        self.export_hss()


def run_one_c(
    run, tick, stats: Optional[dict] = None,
    trace: Optional[TraceSoA] = None, lane: int = 0,
    backend: Optional[str] = None,
) -> None:
    """Drive one ``PolicyRun`` that :func:`~repro.sim.kernels.kernel_eligible`
    accepts to completion through the compiled kernel (``tick``, the
    ``tick`` row's ``library.Binding``), bit-identically to serial
    ``run_policy``.

    ``trace`` is the run's trace already packed (lanes replaying one
    trace share the pack); by default the run's own iterator is packed.
    ``backend`` overrides ``SIBYL_BACKEND`` for the lane's forward, as
    it did for ``tick``.
    ``lane`` only labels the ``kernel.invoke`` span, which also reports
    the ``forwards`` the kernel computed itself.  ``stats`` is added to
    (see ``run_kernel_lanes``); the barrier statuses the
    C loop returns are counted for free in the dispatch loop below, so
    ``kernel_barriers`` prices the Python boundary exactly, and the
    forwards are counted wherever they ran.
    """
    if trace is None:
        trace = TraceSoA.from_run(run)
    state = _KernelRun(run, trace, backend)
    n_inference = 0
    n_train = 0
    with _span(
        "kernel.invoke", cat="kernel", mode="agent", policy=run.policy.name,
        lane=lane, requests=trace.n,
    ) as args:
        while True:
            status = tick.call("sib_run", state.ptrs, state.ci)
            if status == ST_DONE:
                break
            if status == ST_NEED_INFERENCE:
                n_inference += 1
                state.handle_inference()
            else:  # ST_TRAIN_GATE
                n_train += 1
                state.handle_train_gate()
        forwards = n_inference + int(state.ci[CI_FORWARDS])
        if args is not None:
            args["forwards"] = forwards
    state.export()
    if stats is not None:
        stats["ticks"] += trace.n
        stats["fused_forwards"] += forwards
        stats["fused_rows"] += forwards
        stats["train_events"] += n_train
        stats["kernel_barriers"] += n_inference + n_train


def run_script_c(run, tick, trace: TraceSoA,
                 stats: Optional[dict] = None) -> None:
    """Drive one scripted ``PolicyRun`` (``script.script_eligible``) to
    completion: the policy decides every request ahead of the replay
    (:func:`~.script.decide`, Python), then the kernel's one serve/evict
    routine replays the trace taking ``script[i]`` where an agent lane
    would observe, look up and learn.  Bit-identical to serial
    ``run_policy``, post-run HSS and policy state included.
    """
    script = decide(run, trace.requests)
    if script.min() < LIVE_LOCATION or script.max() >= run.hss.n_devices:
        raise ValueError(
            f"{run.policy.name} scripted a device outside this HSS"
        )
    state = _HSSState(run, trace)
    state.ci[CI_SCRIPTED] = 1
    state.arrays[P_SCRIPT] = script
    if type(run.hss.victim_selector) is BeladyVictimSelector:
        state.ci[CI_BELADY_NOW] = 0
        offsets, indices = trace.future_uses
        state.arrays[P_FU_OFF] = offsets
        state.arrays[P_FU_IDX] = indices
        state.arrays[P_FU_CUR] = offsets[:-1].copy()  # one cursor per page
        state.arrays[P_VKEY] = np.zeros(len(offsets), dtype=np.int64)
    ptrs = library.bind(state.arrays)
    with _span(
        "kernel.invoke", cat="kernel", mode="script", policy=run.policy.name,
        requests=trace.n,
    ):
        tick.call("sib_run", ptrs, state.ci)
    state.export_hss()
    if stats is not None:
        stats["script_lanes"] += 1


def run_lanes_c(
    runs: List, scripted: Sequence, tick, stats: Optional[dict] = None,
    backend: Optional[str] = None,
) -> None:
    """Drive every agent run, then every scripted run, to completion
    through the compiled engine ``tick`` (the gate's binding for
    ``backend``, which the lanes' forwards are bound under too).

    A trace tuple's pack is the process's one (:func:`.soa.shared_pack`:
    built once per process, shared by every call that replays it); any
    other source — a list, a stream that re-reads its file on every
    pass — is packed once per call.  Each lane's kernel state is packed,
    run, exported and dropped before the next lane's is built.
    """
    streamed: Dict[int, TraceSoA] = {}

    def pack(run) -> TraceSoA:
        source = run._source
        shared = shared_pack(source)
        if shared is not None:
            return shared
        if id(source) not in streamed:
            streamed[id(source)] = TraceSoA.from_run(run)
        return streamed[id(source)]

    for lane, run in enumerate(runs):
        run_one_c(run, tick, stats=stats, trace=pack(run), lane=lane,
                  backend=backend)
    for run in scripted:
        run_script_c(run, tick, pack(run), stats=stats)
