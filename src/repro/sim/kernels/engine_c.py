"""The compiled tick engine: C hot loop, Python at the barriers.

``kernel.c`` owns the whole per-request tick — PCG64 exploration draws,
feature binning, the device latency models, LRU placement/eviction,
replay dedup — over flat arrays with dense page ids, and *suspends*
whenever serial semantics need Python:

* **inference barrier** — an action-memo miss; the caller runs
  ``inference_net.best_action`` on the mailed observation and re-enters
  (the kernel commits the memo entry and resumes mid-tick);
* **training gate** — ``seen % train_interval == 0`` with a full enough
  buffer; the caller hands the replay buffer the kernel's FIFO as its
  sampling order (the storage arrays are the buffer's own), drives the
  agent's own ``train_begin``/``train_commit`` (identical serial code),
  re-evaluates the kernel's action memo in place against the new
  weights, and re-enters.

Everything the serial path would have mutated — RNG state, replay
contents and caches, action memo, page table, tracker, device state and
stats — is reconstructed on the live objects at the end, so the result
(and all post-run state) is bit-identical to serial ``run_policy``.
The NumPy reference proves the arithmetic; this engine re-executes it
in C with the same operations in the same order (``-ffp-contract=off``
keeps the compiler from fusing them).

A second lane kind needs no barrier at all: a *scripted* lane
(:func:`run_script_c`; the paper's baselines, see :mod:`.script`) packs
only the HSS half of that state plus one decision per request, and the
kernel replays the trace through the same serve/evict routine.

The two languages share one ABI table (:mod:`.abi`): the slot indices
used below are derived from it, and so is the ``sib_abi.h`` that
``kernel.c`` includes.  The shared library is built on demand with the
system C compiler into a gitignored cache keyed by the hash of that
header plus the source; after loading, the kernel's ``sib_abi_hash()``
must equal the table's, and every array packed for a run is checked
against the table's element types (:func:`_check_arrays`).  When no
toolchain is available the backend reports itself unavailable and
``auto`` falls back to the NumPy engine.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import tempfile
from collections import OrderedDict
from typing import Dict, List, Optional, Sequence

import numpy as np

from ...hss.eviction import BeladyVictimSelector
from ...hss.hdd import HDDDevice
from ...hss.ssd import SSDDevice
from ...obs.tracer import span as _span
from . import abi
# The slot indices (P_*, CI_*, CD_*, DD_*, DI_*, HI_*, HD_*), the block
# lengths, the strides and the ST_* status codes: plain ints derived
# from abi.TABLE, the table the C side's sib_abi.h is rendered from.
from .abi import *
from .script import LIVE_LOCATION, decide
from .soa import TraceSoA

__all__ = [
    "available", "unavailable_reason", "so_path",
    "run_lanes_c", "run_one_c", "run_script_c",
]

_MEMO_CAP = 1 << 16
_U64 = (1 << 64) - 1
#: ``CI_CAP0`` of an unbounded fast device (Fast-Only): never overflows.
_UNBOUNDED = np.iinfo(np.int64).max
#: What a slot holds when the lane kind never reads it.
_UNUSED = {ctype: np.zeros(1, dtype=dtype) for ctype, dtype in abi.DTYPES.items()}

# ------------------------------------------------------------- build
_lib = None
_build_error: Optional[str] = None


def _source_path() -> str:
    return os.path.join(os.path.dirname(__file__), "kernel.c")


_BUILD_DIR = os.path.join(os.path.dirname(__file__), "_build")


def _build_digest(header: str, code: bytes) -> str:
    """Names the binary (``kernel-<digest>.so``) after everything
    compiled into it — generated header + ``kernel.c`` — so an edit to
    the ABI table or the source can never load a stale build."""
    return hashlib.sha256(header.encode() + code).hexdigest()[:16]


def _prune_stale_builds(build_dir: str, keep: str) -> None:
    """Remove content-hashed kernel binaries other than ``keep``.

    Every kernel edit produces a new ``kernel-<hash>.so``; without
    this, ``_build/`` accumulates one orphan per edit forever.  In-flight
    temp builds (``tmp*`` from :mod:`tempfile`) never match the
    ``kernel-*.so`` pattern, so concurrent builders are safe.  Failures
    are ignored: pruning is a courtesy, not a correctness step.
    """
    try:
        names = sorted(os.listdir(build_dir))
    except OSError:
        return
    for name in names:
        if (
            name.startswith("kernel-")
            and name.endswith(".so")
            and name != keep
        ):
            try:
                os.unlink(os.path.join(build_dir, name))
            except OSError:
                pass


def _compile(src: str, header: str, target: str) -> Optional[str]:
    """Build ``src`` against ``header`` into ``target``; the error
    text on failure.  Header and output live in a private temp
    directory until the final rename, so concurrent builders never read
    a half-written header or load a half-written library."""
    build_dir = os.path.dirname(target)
    try:
        os.makedirs(build_dir, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=build_dir) as tmp:
            with open(os.path.join(tmp, "sib_abi.h"), "w") as fh:
                fh.write(header)
            out = os.path.join(tmp, "kernel.so")
            cmd = [
                "gcc", "-O2", "-shared", "-fPIC", "-ffp-contract=off",
                "-I", tmp, "-o", out, src, "-lm",
            ]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            if proc.returncode != 0:
                return f"compiler failed: {proc.stderr.strip()[:500]}"
            os.replace(out, target)
    except (OSError, subprocess.SubprocessError) as exc:
        return f"build failed: {exc}"
    _prune_stale_builds(build_dir, os.path.basename(target))
    return None


def so_path() -> str:
    """Where this checkout's kernel binary lives: ``_build/kernel-<digest
    of the generated header + kernel.c>.so``.  :func:`_load` builds it
    there when missing; a differently built binary (CI's sanitizer leg)
    is loaded from the same place, subject to the ABI handshake."""
    with open(_source_path(), "rb") as fh:
        digest = _build_digest(abi.render_header(), fh.read())
    return os.path.join(_BUILD_DIR, f"kernel-{digest}.so")


def _load() -> Optional[ctypes.CDLL]:
    """Build (if needed), load and handshake the kernel; None when
    unavailable."""
    global _lib, _build_error
    if _lib is not None or _build_error is not None:
        return _lib
    try:
        path = so_path()
    except OSError as exc:
        _build_error = f"kernel source unreadable: {exc}"
        return None
    if not os.path.exists(path):
        with _span("kernel.build", cat="kernel", binary=os.path.basename(path)):
            _build_error = _compile(_source_path(), abi.render_header(), path)
        if _build_error is not None:
            return None
    try:
        lib = ctypes.CDLL(path)
        lib.sib_run.restype = ctypes.c_longlong
        lib.sib_run.argtypes = [ctypes.POINTER(ctypes.c_void_p)]
        lib.sib_abi_hash.restype = ctypes.c_ulonglong
        lib.sib_abi_hash.argtypes = []
    except (OSError, AttributeError) as exc:
        _build_error = f"load failed: {exc}"
        return None
    # The file name already covers the table; this catches a binary
    # that got there any other way (copied in, built by hand).
    built, ours = lib.sib_abi_hash(), abi.abi_hash()
    if built != ours:
        _build_error = (
            f"ABI hash mismatch: {os.path.basename(path)} was compiled "
            f"against table {built:#018x}, this process packs by {ours:#018x}"
        )
        return None
    _lib = lib
    return _lib


def available() -> bool:
    """Whether the compiled kernel can be (or has been) built."""
    return _load() is not None


def unavailable_reason() -> str:
    """Why :func:`available` is False (empty string when it isn't)."""
    if _load() is not None:
        return ""
    return _build_error or "unknown"


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


def _kernel_ready(run, trace: TraceSoA) -> bool:
    """Per-run preconditions beyond ``kernel_eligible``.

    The kernel assumes the cold-start state its flat mirrors encode: an
    empty page table/tracker/memo/replay and a PCG64 agent generator.
    Anything else (a resumed run, an exotic bit generator) silently
    takes the NumPy reference — same results, Python speed.
    """
    policy = run.policy
    hss = run.hss
    if trace.n == 0:
        return False
    if type(policy.rng.bit_generator).__name__ != "PCG64":
        return False
    if hss.table._location or hss.tracker._count or hss.tracker._last_access:
        return False
    if policy._pending is not None or policy._requests_seen != 0:
        return False
    if policy._action_cache or policy._cache_obs:
        return False
    buf = policy.buffer
    if buf._obs is not None or buf._free or buf._total_added != 0:
        return False
    if hss.slowest != 1 or policy.hyperparams.train_interval < 1:
        return False
    return True


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


def _check_arrays(arrays: List) -> None:
    """Every packed array must be exactly what ``sib_bind`` casts its
    slot to: the table's element type, C-contiguous.  Anything else the
    kernel would reinterpret byte-wise, so it raises instead."""
    for slot, arr in zip(abi.TABLE.pointers, arrays):
        dtype = abi.DTYPES[slot.ctype]
        if not isinstance(arr, np.ndarray):
            got = type(arr).__name__
        elif arr.dtype != dtype or not arr.flags["C_CONTIGUOUS"]:
            got = f"{arr.dtype}, C-contiguous={arr.flags['C_CONTIGUOUS']}"
        else:
            continue
        raise RuntimeError(
            f"kernel slot {slot.name} ({slot.ctype} *{slot.field}) "
            f"needs a C-contiguous {dtype} array, got {got}"
        )


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

    def bind(self) -> None:
        """Check every packed array against the table and build the
        pointer table; slots the lane kind never reads get a
        placeholder of the slot's element type."""
        arrays = self.arrays
        for k, slot in enumerate(abi.TABLE.pointers):
            if arrays[k] is None:
                arrays[k] = _UNUSED[slot.ctype]
        _check_arrays(arrays)
        ptrs = (ctypes.c_void_p * P_NPTR)()
        for k, arr in enumerate(arrays):
            ptrs[k] = arr.ctypes.data_as(ctypes.c_void_p).value
        self.ptrs = ptrs

    def invoke(self, lib) -> int:
        """One ``sib_run`` entry; raises on the kernel's error status."""
        status = lib.sib_run(self.ptrs)
        if status == ST_ERROR:
            raise RuntimeError(
                "compiled tick kernel aborted "
                f"(err={int(self.ci[CI_ERR])}, i={int(self.ci[CI_I])})"
            )
        return status

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
    action memo, RNG and the Python-side barrier handlers."""

    def __init__(self, run, trace: TraceSoA) -> None:
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
        self.gate_total: Optional[int] = None
        self.bind()

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
    run, sink=None, trace: Optional[TraceSoA] = None, lane: int = 0,
) -> None:
    """Drive one eligible ``PolicyRun`` to completion through the
    compiled kernel, bit-identically to serial ``run_policy``.

    ``trace`` is the run's trace already packed (lanes replaying one
    trace share the pack); by default the run's own iterator is packed.
    ``lane`` only labels the ``kernel.invoke`` span.  ``sink`` receives
    the engine counters (see ``run_kernel_lanes``); the barrier statuses
    the C loop returns are counted for free in the dispatch loop below,
    so ``kernel_barriers`` prices the Python boundary exactly.
    """
    lib = _load()
    if trace is None:
        trace = TraceSoA.from_run(run)
    if lib is None or not _kernel_ready(run, trace):
        from .engine_numpy import run_one_numpy

        run._iter = iter(trace.requests)
        run_one_numpy(run, sink=sink)
        return

    state = _KernelRun(run, trace)
    n_inference = 0
    n_train = 0
    with _span(
        "kernel.invoke", cat="kernel", mode="agent", policy=run.policy.name,
        lane=lane, requests=trace.n,
    ):
        while True:
            status = state.invoke(lib)
            if status == ST_DONE:
                break
            if status == ST_NEED_INFERENCE:
                n_inference += 1
                state.handle_inference()
            else:  # ST_TRAIN_GATE
                n_train += 1
                state.handle_train_gate()
    state.export()
    if sink is not None:
        sink.count("ticks", trace.n)
        if n_inference:
            sink.count("fused_forwards", n_inference)
            sink.count("fused_rows", n_inference)
            sink.record_max("max_fused_rows", 1)
        sink.count("train_events", n_train)
        sink.count("kernel_barriers", n_inference + n_train)


def run_script_c(run, trace: TraceSoA, sink=None) -> None:
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
    state.bind()
    with _span(
        "kernel.invoke", cat="kernel", mode="script", policy=run.policy.name,
        requests=trace.n,
    ):
        state.invoke(_load())
    state.export_hss()
    if sink is not None:
        sink.count("script_lanes")


def run_lanes_c(runs: List, scripted: Sequence = (), sink=None) -> None:
    """Drive every agent run, then every scripted run, to completion
    through the compiled engine.

    Each distinct trace object is packed once per call; each lane's
    kernel state is packed, run, exported and dropped before the next
    lane's is built.
    """
    packed: Dict[int, TraceSoA] = {}

    def pack(run) -> TraceSoA:
        key = id(run._source)
        if key not in packed:
            packed[key] = TraceSoA.from_run(run)
        return packed[key]

    for lane, run in enumerate(runs):
        run_one_c(run, sink=sink, trace=pack(run), lane=lane)
    for run in scripted:
        run_script_c(run, pack(run), sink=sink)
