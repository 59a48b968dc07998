"""Scripted lanes: decide in Python, serve in the compiled kernel.

The paper's baselines ignore system feedback (§8.4): ``feedback`` is the
base-class no-op and ``place`` is a function of the request stream alone
— of the HSS they read only its shape, the access tracker (itself a
function of the stream prefix) and, for CDE's "leave a read where it
is", the location of the request's first page.  So the whole run splits
in two: a *decide pass* here calls ``policy.place`` over the trace and
records one ``int8`` per request, then ``kernel.c`` replays the trace
through its one serve/evict routine taking ``script[i]`` as the action
(:func:`repro.sim.kernels.engine_c.run_script_c`).

The decide pass stays Python because the policies *are* Python — their
own learned state (HPS hot set, Archivist weights, RNN-HSS weights and
generator) must end exactly as a serial run leaves it, float order
included.  What it drops is the per-request Python HSS.  The policies
compute only what a decision reads, in both runs alike: RNN-HSS
classifies a page lazily, the first time an epoch asks about it, from
the history row its refresh snapshotted (one ``predict`` per distinct
row); Archivist builds a page's feature vector only to classify it or
to train; Oracle reads a per-request next-use gap its index computed
once per trace.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ...baselines.archivist import ArchivistPolicy
from ...baselines.cde import CDEPolicy
from ...baselines.extremes import FastOnlyPolicy, SlowOnlyPolicy
from ...baselines.hps import HPSPolicy
from ...baselines.oracle import OraclePolicy
from ...baselines.rnn_hss import RNNHSSPolicy
from ...hss.eviction import BeladyVictimSelector, LRUVictimSelector
from ...hss.request import Request
from ...hss.tracking import PageAccessTracker
from . import dual_device_hss

__all__ = ["LIVE_LOCATION", "script_eligible", "decide"]

#: Script entry meaning "where the request's first page lives when it
#: is served, slowest if unmapped" — what :class:`StreamView` answers
#: ``page_location`` with, so CDE's own read rule is evaluated by the
#: kernel against the live page table.
LIVE_LOCATION = -1

_STATIC = (FastOnlyPolicy, SlowOnlyPolicy)
_READS_TRACKER = (CDEPolicy, ArchivistPolicy)
_SCRIPTED = _STATIC + _READS_TRACKER + (HPSPolicy, RNNHSSPolicy, OraclePolicy)


def script_eligible(run) -> bool:
    """True when ``run`` can be scripted: an allow-listed policy on a
    fresh default dual-device HSS.

    Exact types, like :func:`~repro.sim.kernels.kernel_eligible` — a
    subclass may override ``place`` or ``feedback`` to read what the
    decide pass does not provide.  Fast-Only alone may have an unbounded
    fast device; Oracle must have installed its Belady selector, every
    other policy must be on LRU.
    """
    policy, hss = run.policy, run.hss
    kind = type(policy)
    if kind not in _SCRIPTED or not dual_device_hss(hss) or run._index != 0:
        return False
    if hss.capacity_pages[0] is None and kind is not FastOnlyPolicy:
        return False
    if kind is OraclePolicy:
        if hss.victim_selector is not policy._selector:
            return False
        selector = BeladyVictimSelector
    else:
        selector = LRUVictimSelector
    if type(hss.victim_selector) is not selector:
        return False
    tracker = hss.tracker
    return not (hss.table._location or tracker._count or tracker._clock)


class StreamView:
    """All of an HSS a scripted policy may read while deciding.

    The shape (``fastest``/``slowest``/``n_devices``/``capacity_pages``);
    ``page_location``, answered with :data:`LIVE_LOCATION`; and, for the
    policies that read one, a tracker :func:`decide` advances per page
    touch in serve order.  Anything else is an ``AttributeError``: a
    policy later edited to read live placement state fails loudly
    instead of being scripted wrongly.
    """

    __slots__ = ("fastest", "slowest", "n_devices", "capacity_pages", "tracker")

    def __init__(self, hss, tracked: bool) -> None:
        self.fastest = hss.fastest
        self.slowest = hss.slowest
        self.n_devices = hss.n_devices
        self.capacity_pages = tuple(hss.capacity_pages)
        if tracked:
            self.tracker = PageAccessTracker()

    @staticmethod
    def page_location(page: int) -> int:
        """:data:`LIVE_LOCATION`, whatever the page."""
        return LIVE_LOCATION


def decide(run, requests: Sequence[Request]) -> np.ndarray:
    """``policy.place`` over ``requests``: one ``int8`` per request.

    The policy is pointed at a :class:`StreamView` for the pass and back
    at its HSS afterwards; its own state ends as a serial run leaves it.
    """
    policy = run.policy
    kind = type(policy)
    n = len(requests)
    policy.hss = view = StreamView(run.hss, tracked=kind in _READS_TRACKER)
    try:
        place = policy.place
        if kind in _STATIC:
            return np.full(n, place(requests[0]), dtype=np.int8)
        if kind not in _READS_TRACKER:
            return np.fromiter(map(place, requests), dtype=np.int8, count=n)
        record = view.tracker.record
        script = np.empty(n, dtype=np.int8)
        for i, request in enumerate(requests):
            script[i] = place(request)
            for page in request.pages:
                record(page)
        return script
    finally:
        policy.hss = run.hss
