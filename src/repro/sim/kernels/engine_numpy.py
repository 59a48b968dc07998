"""The NumPy/SoA reference engine: serial semantics, flattened hot loop.

This engine is the **bit-identity reference** for the backend layer: it
executes, per lane, exactly the floating-point operations of serial
``run_policy`` in exactly the same order, against the same live Python
objects (the agent's RNG, replay buffer, action memo, the HSS page
table and device models).  What it removes is everything *around* those
operations — the method-dispatch chain
``step → place → observe_keyed → serve → access → service_time →
feedback → reward``, the per-request ``ServeResult`` construction, and
repeated attribute lookups — by inlining the whole tick into one loop
over the lane's :class:`~repro.sim.kernels.soa.TraceSoA` columns.

Rules of the transliteration (shared with the compiled engine):

* ``min(a, b)`` / ``max(a, b)`` become the exact conditional
  expressions Python's builtins evaluate (``b if b < a else a``), so
  tie and signed-zero behaviour is preserved.
* Expressions keep the source's association: ``elapsed * bw / 4096.0``
  stays ``(elapsed * bw) / 4096.0`` — never pre-reduced to
  ``elapsed * rate``, which rounds differently.
* Anything rare stays a call into the original code: eviction cascades
  run through ``HybridStorageSystem._ensure_capacity``, training events
  through the agent's own ``train_begin``/``train_commit`` — the
  reference never forks logic it doesn't need to.

Because lanes share no state, runs execute to completion one after
another, which keeps every lane trivially bit-identical to its own
serial replay.
"""

from __future__ import annotations

import math
from typing import List

import numpy as np

from ...core.features import log2_bin
from ...hss.hdd import HDDDevice
from ...hss.request import OpType
from .soa import TraceSoA

__all__ = ["run_lanes_numpy", "run_one_numpy"]

_WRITE = OpType.WRITE
_READ = OpType.READ

#: Memo-size bound shared with ``FeatureExtractor`` (1 << 16).
_CACHE_LIMIT = 1 << 16


def run_lanes_numpy(runs: List, sink=None) -> None:
    """Drive every run to completion through the reference engine."""
    for run in runs:
        run_one_numpy(run, sink=sink)


def _device_access(dev):
    """(foreground read, foreground write, background write) closures
    for ``dev``, each ``(now, first_page, n_pages) -> latency``.

    Each closure performs ``_point_head`` + ``StorageDevice.access`` (or
    ``background_access``) + the device's ``service_time`` in one call,
    computing the identical float expressions in the identical order.
    """
    stats = dev.stats
    bi = dev.background_interference
    spec = dev.spec

    if isinstance(dev, HDDDevice):
        config = dev.config
        seq_window = config.sequential_window_pages
        track_span = config.track_span_pages
        avg_rot = config.avg_rotational_s
        min_seek = config.min_seek_s
        seek_span = config.max_seek_s - config.min_seek_s
        cap_pages = max(1, spec.capacity_pages)
        read_overhead = spec.read_overhead_s
        write_overhead = spec.write_overhead_s
        read_bw = spec.read_bandwidth_bps
        write_bw = spec.write_bandwidth_bps
        sqrt = math.sqrt

        def _service(page, n, overhead, bw):
            # _point_head + HDDDevice.service_time (head advanced).
            dev.target_page = page
            delta = page - dev._head_page
            if 0 <= delta <= seq_window:
                positioning = 0.0
            else:
                distance = abs(delta)
                if distance <= track_span:
                    positioning = avg_rot
                else:
                    frac = distance / cap_pages
                    frac = frac if frac < 1.0 else 1.0
                    seek = min_seek + seek_span * sqrt(frac)
                    positioning = seek + avg_rot
            dev._head_page = page + n
            return positioning + overhead + (n * 4096) / bw

        def fg_read(now, page, n):
            nf = dev._next_free_s
            start = nf if nf > now else now
            service = _service(page, n, read_overhead, read_bw)
            dev._next_free_s = start + service
            stats.queue_wait_s += start - now
            stats.busy_time_s += service
            stats.reads += 1
            stats.pages_read += n
            return (start - now) + service

        def fg_write(now, page, n):
            nf = dev._next_free_s
            start = nf if nf > now else now
            service = _service(page, n, write_overhead, write_bw)
            dev._next_free_s = start + service
            stats.queue_wait_s += start - now
            stats.busy_time_s += service
            stats.writes += 1
            stats.pages_written += n
            return (start - now) + service

        def bg_write(now, page, n):
            nf = dev._next_free_s
            start = nf if nf > now else now
            service = _service(page, n, write_overhead, write_bw)
            dev._next_free_s = start + bi * service
            stats.busy_time_s += service
            stats.pages_written += n
            return service

        return fg_read, fg_write, bg_write

    # SSD (type-gated by kernel_eligible, so nothing else reaches here).
    config = dev.config
    read1 = dev._read_1pg_s
    read_overhead = spec.read_overhead_s
    read_bw = spec.read_bandwidth_bps
    write_bw = spec.write_bandwidth_bps
    gc_threshold = config.gc_threshold
    gc_trigger = config.gc_trigger_pages
    gc_latency = config.gc_latency_s
    gc_over_denom = max(1e-9, 1.0 - config.gc_threshold)
    buffer_pages = config.buffer_pages
    buffered_lat = config.buffered_write_latency_s
    tr_unit = 4096.0 / write_bw
    write_overhead = spec.write_overhead_s

    def _write_service(start, n):
        # SSDDevice.service_time's write path.
        elapsed = start - dev._buffer_last_drain_s
        if elapsed > 0.0:
            occupancy = dev._buffer_occupancy - elapsed * write_bw / 4096.0
            dev._buffer_occupancy = occupancy if occupancy > 0.0 else 0.0
        dev._buffer_last_drain_s = start

        if dev.utilization < gc_threshold:
            dev._writes_since_gc = 0
            stall = 0.0
        else:
            writes = dev._writes_since_gc + n
            if writes < gc_trigger:
                dev._writes_since_gc = writes
                stall = 0.0
            else:
                cycles = writes // gc_trigger
                dev._writes_since_gc = writes % gc_trigger
                over = (dev.utilization - gc_threshold) / gc_over_denom
                stall = cycles * gc_latency * (1.0 + 3.0 * over)
                stats.gc_events += cycles
                stats.gc_time_s += stall

        occupancy = dev._buffer_occupancy
        if buffer_pages > 0 and occupancy + n <= buffer_pages:
            dev._buffer_occupancy = occupancy + n
            stats.buffered_writes += 1
            base = buffered_lat + n * tr_unit * 0.25
        else:
            base = write_overhead + (n * 4096) / write_bw
        return base + stall

    def fg_read(now, page, n):
        service = read1 if n == 1 else read_overhead + (n * 4096) / read_bw
        nf = dev._next_free_s
        start = nf if nf > now else now
        dev._next_free_s = start + service
        stats.queue_wait_s += start - now
        stats.busy_time_s += service
        stats.reads += 1
        stats.pages_read += n
        return (start - now) + service

    def fg_write(now, page, n):
        nf = dev._next_free_s
        start = nf if nf > now else now
        service = _write_service(start, n)
        dev._next_free_s = start + service
        stats.queue_wait_s += start - now
        stats.busy_time_s += service
        stats.writes += 1
        stats.pages_written += n
        return (start - now) + service

    def bg_write(now, page, n):
        nf = dev._next_free_s
        start = nf if nf > now else now
        service = _write_service(start, n)
        dev._next_free_s = start + bi * service
        stats.busy_time_s += service
        stats.pages_written += n
        return service

    return fg_read, fg_write, bg_write


def _make_update_util(hss, device):
    """``_update_utilization(device)`` as a zero-argument closure."""
    dev = hss._ssd[device]
    if dev is None:

        def update():
            return None

        return update
    resident = hss.table._resident[device]
    cap = hss._util_cap[device]

    def update():
        v = len(resident) / cap
        dev.utilization = v if v < 1.0 else 1.0

    return update


def run_one_numpy(run, sink=None) -> None:
    """Drive one eligible ``PolicyRun`` to completion, bit-identically.

    The body is the serial loop ``step() → place → serve → feedback``
    with every layer inlined; see the module docstring for the
    transliteration rules.  The run's own objects are mutated
    throughout, so ``run.result()`` and all post-run state (weights,
    optimizer moments, replay contents, memo, RNG) are exactly what the
    serial path produces.

    ``sink`` receives the engine counters after the loop: tick-domain
    integers accumulated in plain locals, so observation adds nothing
    to the per-request path (and nothing to the float stream).
    """
    policy = run.policy
    hss = run.hss
    trace = TraceSoA.from_run(run)

    # ---- agent locals -------------------------------------------------
    hp = policy.hyperparams
    train_interval = hp.train_interval
    batch_size = hp.batch_size
    initial_random = hp.initial_random_requests
    eps = hp.exploration_rate
    n_devices = hss.n_devices
    rng_random = policy.rng.random
    rng_integers = policy.rng.integers
    best_action = policy.inference_net.best_action
    memo = policy._action_cache
    cache_obs = policy._cache_obs
    action_counts = policy.action_counts
    buffer_add = policy.buffer.add
    entries = policy.buffer._entries
    pending = policy._pending
    seen = policy._requests_seen

    # ---- extractor locals ---------------------------------------------
    extractor = policy.extractor
    spec = extractor.spec
    size_bins = spec.size_bins
    intr_bins = spec.intr_bins
    cnt_bins = spec.cnt_bins
    cap_bins = spec.cap_bins
    size_cache = extractor._size_bin_cache
    intr_cache = extractor._intr_bin_cache
    cnt_cache = extractor._cnt_bin_cache
    obs_cache = extractor._obs_cache
    maxima = extractor._maxima_arr
    inf = float("inf")

    # ---- reward locals ------------------------------------------------
    reward_fn = policy.reward_fn
    unit = reward_fn.unit_latency_s
    evict_coef = reward_fn.eviction_penalty_coefficient
    max_reward = reward_fn.max_reward

    # ---- HSS locals ---------------------------------------------------
    table = hss.table
    loc_map = table._location
    resident = table._resident
    res_fast = resident[0]
    slowest = hss.slowest
    res_slow = resident[slowest]
    devices = hss.devices
    ensure_capacity = hss._ensure_capacity
    cap_fast = hss.capacity_pages[0]
    tracker = hss.tracker
    count = tracker._count
    last_access = tracker._last_access
    clock = tracker._clock
    stats = hss.stats
    placements = stats.placements
    access = [_device_access(dev) for dev in devices]
    fg_read = [a[0] for a in access]
    fg_write = [a[1] for a in access]
    bg_write = [a[2] for a in access]
    upd_util = [_make_update_util(hss, d) for d in range(n_devices)]

    # ---- trace columns ------------------------------------------------
    ts_l = trace.timestamps.tolist()
    op_l = trace.ops.tolist()
    page_l = trace.pages.tolist()
    size_l = trace.sizes.tolist()
    n_total = trace.n

    completion_s = run._completion_s
    warmup_end = run._warmup_end
    n_forwards = 0
    n_train = 0

    for i in range(n_total):
        # _fetch(): warmup-window reset before request warmup_end serves.
        if i == warmup_end and i > 0:
            stats.reset(n_devices)
            placements = stats.placements
            for dev in devices:
                dev.stats.reset()

        now = ts_l[i]
        page = page_l[i]
        size = size_l[i]
        is_wr = op_l[i]

        # ---- place_begin: observe_keyed (features._bins_all) ----------
        size_bin = size_cache.get(size)
        if size_bin is None:
            size_bin = log2_bin(size, size_bins)
            size_cache[size] = size_bin

        last = last_access.get(page)
        interval = inf if last is None else clock - last
        intr_bin = intr_cache.get(interval)
        if intr_bin is None:
            intr_bin = log2_bin(interval, intr_bins)
            if len(intr_cache) < _CACHE_LIMIT:
                intr_cache[interval] = intr_bin

        cnt = count.get(page, 0) + 1
        cnt_bin = cnt_cache.get(cnt)
        if cnt_bin is None:
            cnt_bin = log2_bin(cnt, cnt_bins)
            cnt_cache[cnt] = cnt_bin

        frac = (cap_fast - len(res_fast)) / cap_fast
        if frac >= 1.0:
            cap_bin = cap_bins - 1
        elif frac <= 0.0:
            cap_bin = 0
        else:
            cap_bin = int(frac * cap_bins)

        loc = loc_map.get(page)
        bins = (
            size_bin,
            is_wr,
            intr_bin,
            cnt_bin,
            cap_bin,
            1 if loc is None else loc,
        )
        hit = obs_cache.get(bins)
        if hit is None:
            obs = np.array(bins, dtype=np.float64) / maxima
            hit = (obs, obs.astype(np.float32).tobytes())
            if len(obs_cache) < _CACHE_LIMIT:
                obs_cache[bins] = hit
        obs, obs_key = hit

        # ---- place_begin: close the previous transition ---------------
        if pending is not None:
            buffer_add(
                pending[0], pending[1], pending[2], obs,
                obs_bytes=pending[3], next_obs_bytes=obs_key,
            )
            pending = None

        # ---- ε-greedy decision + place_commit -------------------------
        if seen < initial_random:
            action = int(rng_integers(0, n_devices))
        elif rng_random() < eps:
            action = int(rng_integers(0, n_devices))
        else:
            action = memo.get(obs_key)
            if action is None:
                action = int(best_action(obs))
                memo[obs_key] = action
                cache_obs[obs_key] = obs
                n_forwards += 1
        action_counts[action] += 1

        # ---- step(): closed-loop issue-time clamp ---------------------
        if now < completion_s:
            now = completion_s

        # ---- HybridStorageSystem.serve, inlined -----------------------
        eviction_time = 0.0
        promoted = 0
        demoted = 0
        res_act = resident[action]

        if is_wr:
            # One pass: count incoming pages, protect rewrites (= MRU).
            incoming = 0
            if size == 1:
                end = page + 1
                if loc == action:
                    res_act.move_to_end(page)
                else:
                    incoming = 1
            else:
                end = page + size
                for p in range(page, end):
                    if loc_map.get(p) == action:
                        res_act.move_to_end(p)
                    else:
                        incoming += 1
            if incoming > 0:
                eviction_time += ensure_capacity(action, incoming, now)
            latency = fg_write[action](now, page, size)
            for p in range(page, end):
                prev = loc_map.get(p)  # table.place(p, action)
                if prev is None:
                    loc_map[p] = action
                    res_act[p] = None
                elif prev == action:
                    res_act.move_to_end(p)
                else:
                    del resident[prev][p]
                    loc_map[p] = action
                    res_act[p] = None
            upd_util[action]()
        else:
            end = page + size
            if size == 1:
                if loc is None:
                    loc = slowest
                    loc_map[page] = loc
                    res_slow[page] = None
                latency = fg_read[loc](now, page, 1)
                resident[loc].move_to_end(page)
                if loc != action:
                    eviction_time += ensure_capacity(action, 1, now)
                    bg_write[action](now, page, 1)
                    if action < loc:
                        promoted = 1
                    else:
                        demoted = 1
                    del resident[loc][page]
                    loc_map[page] = action
                    res_act[page] = None
                    upd_util[loc]()
                    upd_util[action]()
            else:
                # Lazily map never-seen pages to the slowest device,
                # then group residency per device for access latency.
                groups = {}
                for p in range(page, end):
                    p_loc = loc_map.get(p)
                    if p_loc is None:
                        p_loc = slowest
                        loc_map[p] = slowest
                        res_slow[p] = None
                    group = groups.get(p_loc)
                    if group is None:
                        groups[p_loc] = [p]
                    else:
                        group.append(p)
                latency = 0.0
                for dev_idx in sorted(groups):
                    dev_pages = groups[dev_idx]
                    lat = fg_read[dev_idx](now, dev_pages[0], len(dev_pages))
                    if lat >= latency:
                        latency = lat
                    res_d = resident[dev_idx]
                    for p in dev_pages:
                        res_d.move_to_end(p)
                # Apply the action: migrate non-resident pages.
                if len(groups) > 1 or action not in groups:
                    to_move = [
                        p for p in range(page, end) if loc_map[p] != action
                    ]
                else:
                    to_move = ()
                if to_move:
                    sources = {}
                    for p in to_move:
                        src = loc_map[p]
                        group = sources.get(src)
                        if group is None:
                            sources[src] = [p]
                        else:
                            group.append(p)
                    eviction_time += ensure_capacity(
                        action, len(to_move), now
                    )
                    for src in sorted(sources):
                        src_pages = sources[src]
                        bg_write[action](now, src_pages[0], len(src_pages))
                        if action < src:
                            promoted += len(src_pages)
                        else:
                            demoted += len(src_pages)
                        res_s = resident[src]
                        for p in src_pages:  # table.move(p, action)
                            del res_s[p]
                            loc_map[p] = action
                            res_act[p] = None
                        upd_util[src]()
                    upd_util[action]()

        # tracker.record(p) for every touched page + the stats tail.
        if size == 1:
            count[page] = cnt
            last_access[page] = clock
            clock += 1
        else:
            for p in range(page, end):
                count[p] = count.get(p, 0) + 1
                last_access[p] = clock
                clock += 1
        stats.requests += 1
        if is_wr:
            stats.writes += 1
        else:
            stats.reads += 1
        stats.total_latency_s += latency
        stats.eviction_time_s += eviction_time
        stats.promoted_pages += promoted
        stats.demoted_pages += demoted
        placements[action] += 1
        completion = now + latency
        if completion > stats.last_completion_s:
            stats.last_completion_s = completion

        completion_s = now + latency

        # ---- feedback: LatencyReward (Eq. 1) ---------------------------
        lat_units = latency / unit
        lat_units = lat_units if lat_units > 1e-9 else 1e-9
        inv = 1.0 / lat_units
        base = inv if inv < max_reward else max_reward
        if eviction_time > 0.0:
            r = base - evict_coef * (eviction_time / unit)
            reward = r if r > 0.0 else 0.0
        else:
            reward = base

        pending = (obs, action, reward, obs_key)
        seen += 1
        if seen % train_interval == 0 and len(entries) >= batch_size:
            policy.train_begin()
            policy.train_commit()
            n_train += 1
            # train_commit rebinds the agent's action memo; re-bind the
            # loop's references (the inference net is mutated in place,
            # but re-bind it too so that stays a non-assumption).
            memo = policy._action_cache
            cache_obs = policy._cache_obs
            best_action = policy.inference_net.best_action

    # ---- write the loop-local state back ------------------------------
    run._completion_s = completion_s
    run._index = n_total
    run.finished = True
    policy._pending = pending
    policy._requests_seen = seen
    tracker._clock = clock
    if sink is not None:
        # The names of ``obs.sink.ENGINE_COUNTERS``; a SoA lane is its
        # own tick stream, and every forward carries exactly one row.
        sink.count("ticks", n_total)
        if n_forwards:
            sink.count("fused_forwards", n_forwards)
            sink.count("fused_rows", n_forwards)
            sink.record_max("max_fused_rows", 1)
        sink.count("train_events", n_train)
        sink.count("kernel_barriers", n_forwards + n_train)
