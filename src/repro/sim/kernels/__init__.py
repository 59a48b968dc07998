"""Structure-of-arrays tick engine: the compiled kernel and its gates.

A serially stepped lane's per-request cost is dominated by everything
*around* the network forward: feature extraction, the HSS serve/evict state
machine, reward computation, and replay insertion all walk per-lane
Python objects.  This package removes that ceiling for the common
configuration (a :class:`~repro.core.agent.SibylAgent` on a dual-device
LRU system with the paper's full feature set and latency reward) by
holding the per-tick state — observations, quantised feature bins,
device queue depths/utilisation, the page→device mapping, per-lane
reward accumulators — in contiguous arrays (:mod:`.soa`) and executing
the tick loop in a compiled C kernel (:mod:`.engine_c` drives it; the
library is built on demand with the system C compiler by
:mod:`repro.native.library`).  The kernel owns the whole tick loop
between *barriers*: network inference on an action-memo miss and the
periodic training event stay in Python, executing the identical serial
code paths, while everything else — PCG64 exploration draws, feature
binning, device latency models, LRU eviction, replay dedup — runs in C
with bit-identical arithmetic.

The compiled kernel also serves the paper's *baselines* as scripted
lanes (:mod:`.script`): ``policy.place`` runs over the trace ahead of
the replay and ``kernel.c`` takes the recorded decisions — one
serve/evict routine for every lane of a paper lineup.

Whether the kernel runs is the ``tick`` row of the compiled library's
entry table (:mod:`repro.native.library`, the one reader of the
``SIBYL_BACKEND`` knob; docs/engines.md, "Compiled entry points"):
``auto`` takes it when it builds and loads, else steps every lane
serially (``PolicyRun.step``); ``cext`` raises instead; ``off`` never
loads it.  Either way, results are bit-identical to serial ``run_policy``,
asserted by ``tests/sim/test_soa.py`` and searched by
``tests/sim/test_agent_lanes.py``.
"""

from __future__ import annotations

from typing import List, Optional

from ... import knobs

__all__ = [
    "BACKENDS",
    "get_backend",
    "dual_device_hss",
    "kernel_eligible",
    "run_kernel_lanes",
]

#: The valid ``SIBYL_BACKEND`` values: which tick engine ``run_lanes``
#: uses for eligible lanes.
BACKENDS = knobs.ROWS["SIBYL_BACKEND"].choices


def _tick(name: Optional[str]):
    """The ``tick`` row's binding under ``name`` (default: the
    environment), or None: :func:`repro.native.library.entry`."""
    if name == "numpy":
        # The frozen probe sim.kernels.tick_us_per_req.numpy still asks
        # for the deleted NumPy engine by name; it times serial stepping
        # now.  The benchmark-only PR (ROADMAP) deletes this spelling.
        name = "off"
    from ...native import library

    return library.entry("tick", backend=name)[0]


def get_backend(name: Optional[str] = None) -> Optional[str]:
    """``"cext"``, or ``None`` (= kernel disabled: lanes are stepped
    serially), as the gate resolves the ``tick`` row under ``name``."""
    return None if _tick(name) is None else "cext"


def dual_device_hss(hss) -> bool:
    """The HSS half of both lane gates: the system ``kernel.c`` models —
    two devices (SSD/HDD models, exact types), the slow one unbounded."""
    from ...hss.hdd import HDDDevice
    from ...hss.ssd import SSDDevice

    if hss.n_devices != 2 or hss.capacity_pages[1] is not None:
        return False
    return all(type(d) in (SSDDevice, HDDDevice) for d in hss.devices)


def kernel_eligible(run) -> bool:
    """True when ``run`` matches what the compiled kernel implements.

    The kernel implements the paper's default configuration: a
    :class:`~repro.core.agent.SibylAgent` with the full feature set and
    the Eq. 1 latency reward, on a two-device HSS (SSD/HDD models) with
    a bounded fast device, an unbounded slow device, and LRU victim
    selection — from the cold start its flat mirrors encode: an empty
    page table/tracker/memo/replay, nothing consumed yet, and a PCG64
    agent generator.  Anything else — feature ablations, tri-HSS,
    alternative rewards or selectors, a resumed run, an exotic bit
    generator — is stepped serially by ``run_lanes``, which handles any
    policy.  The gate is deliberately exact (``type`` checks, not
    ``isinstance``): a subclass may override any hook the kernel
    inlines.  (The baselines have their own gate,
    :func:`repro.sim.kernels.script.script_eligible`.)
    """
    from ...core.agent import SibylAgent
    from ...core.features import FEATURE_SETS
    from ...core.reward import LatencyReward
    from ...hss.eviction import LRUVictimSelector

    policy = run.policy
    if type(policy) is not SibylAgent:
        return False
    hss = run.hss
    if not dual_device_hss(hss) or hss.capacity_pages[0] is None:
        return False
    if type(hss.victim_selector) is not LRUVictimSelector:
        return False
    if hss.slowest != 1 or policy.hyperparams.train_interval < 1:
        return False
    if policy.extractor is None or policy.reward_fn is None:
        return False
    if policy.extractor.features is not FEATURE_SETS["all"]:
        return False
    if type(policy.reward_fn) is not LatencyReward:
        return False
    if type(policy.rng.bit_generator).__name__ != "PCG64":
        return False
    if run._index != 0:
        return False
    if hss.table._location or hss.tracker._count or hss.tracker._last_access:
        return False
    if policy._pending is not None or policy._requests_seen != 0:
        return False
    if policy._action_cache or policy._cache_obs:
        return False
    buf = policy.buffer
    return buf._obs is None and not buf._free and buf._total_added == 0


def run_kernel_lanes(runs: List, backend: Optional[str] = None,
                     stats: Optional[dict] = None) -> List:
    """Drive the eligible lanes of ``runs`` to completion; return the rest.

    ``backend`` overrides the environment knob.  With the kernel
    disabled (``off``, or ``auto`` without a compiler) every run is
    returned for the caller to step serially.  Lanes share no state, so
    they are executed one after another; each finishes bit-identical to
    a serial ``run_policy``.  Agent lanes (:func:`kernel_eligible`) and
    scripted lanes (:func:`.script.script_eligible`, the baselines) are
    taken.

    ``stats`` (a dict holding every ``sim.lanes.ENGINE_COUNTERS`` key,
    as ``run_lanes`` hands it) is added to: each agent lane's ``ticks``,
    one-row ``fused_forwards``/``fused_rows`` (every memo-miss forward,
    in the kernel or in Python), ``train_events`` — plus ``kernel_barriers``,
    the number of Python-boundary crossings the kernel paid (its train
    gates, and the inference barriers of a lane whose forward runs in
    Python: the DQN head, a network ``C51Network._compiled`` refuses),
    and ``script_lanes``, the number of scripted lanes (which count
    nothing else).
    """
    tick = _tick(backend)
    if tick is None:
        return list(runs)
    from .engine_c import run_lanes_c
    from .script import script_eligible

    taken = [run for run in runs if kernel_eligible(run)]
    scripted = [run for run in runs if script_eligible(run)]
    if taken or scripted:
        run_lanes_c(taken, scripted, tick, stats=stats, backend=backend)
    chosen = set(map(id, taken + scripted))
    return [run for run in runs if id(run) not in chosen]
