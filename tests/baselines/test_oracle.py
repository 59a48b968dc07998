"""Tests for the future-knowledge Oracle."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.oracle import FutureUseIndex, OraclePolicy
from repro.hss.devices import make_devices
from repro.hss.eviction import BeladyVictimSelector
from repro.hss.request import OpType, Request
from repro.hss.system import HybridStorageSystem
from repro.sim.runner import run_policy
from repro.traces.workloads import make_trace


def read(page, ts=0.0, size=1):
    return Request(ts, OpType.READ, page, size)


class TestPreparation:
    def test_place_before_prepare_raises(self, hm_system):
        p = OraclePolicy()
        p.attach(hm_system)
        with pytest.raises(RuntimeError):
            p.place(read(1))

    def test_prepare_installs_belady_selector(self, hm_system):
        p = OraclePolicy()
        p.attach(hm_system)
        p.prepare([read(1), read(2)])
        assert isinstance(hm_system.victim_selector, BeladyVictimSelector)

    def test_future_index_built_per_page_touch(self, hm_system):
        p = OraclePolicy()
        p.attach(hm_system)
        p.prepare([read(1, size=2), read(1, ts=1.0)])
        assert p._selector.future_uses[1] == [0, 2]
        assert p._selector.future_uses[2] == [1]


class TestPlacement:
    def test_imminent_reuse_goes_fast(self, hm_system):
        p = OraclePolicy(horizon_scale=1.0)
        p.attach(hm_system)
        trace = [read(1, ts=0.0), read(1, ts=1.0), read(2, ts=2.0)]
        p.prepare(trace)
        assert p.place(trace[0]) == 0  # page 1 reused next access

    def test_never_reused_goes_slow(self, hm_system):
        p = OraclePolicy()
        p.attach(hm_system)
        trace = [read(1), read(2, ts=1.0)]
        p.prepare(trace)
        assert p.place(trace[0]) == 1

    def test_distant_reuse_goes_slow(self, hm_system):
        p = OraclePolicy(horizon_scale=0.01)  # horizon < 1 page access
        p.attach(hm_system)
        filler = [read(100 + i, ts=2.0 + i) for i in range(80)]
        trace = [read(1)] + filler + [read(1, ts=99.0)]
        p.prepare(trace)
        assert p.place(trace[0]) == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            OraclePolicy(horizon_scale=0.0)

    def test_reset_clears_foresight(self, hm_system):
        p = OraclePolicy()
        p.attach(hm_system)
        p.prepare([read(1)])
        p.reset()
        assert p._selector is None and p._gaps == []


def _brute_force_gaps(trace):
    """Per request: page accesses from its last page to the first later
    touch of its first page, found by scanning the rest of the trace."""
    starts, clock = [], 0
    for req in trace:
        starts.append(clock)
        clock += req.size
    gaps = []
    for i, req in enumerate(trace):
        end = starts[i] + req.size - 1
        gap = math.inf
        for start, later in zip(starts[i + 1:], trace[i + 1:]):
            if req.page in later.pages:
                gap = start + (req.page - later.page) - end
                break
        gaps.append(gap)
    return gaps


@st.composite
def _requests(draw):
    """Multi-page requests over a few pages: repeats and never-reused
    pages both come up."""
    steps = draw(st.lists(
        st.tuples(st.integers(0, 12), st.integers(1, 4)), min_size=1,
        max_size=40,
    ))
    return [read(page, ts=float(i), size=size)
            for i, (page, size) in enumerate(steps)]


class TestFutureUseIndex:
    @settings(max_examples=200, deadline=None)
    @given(trace=_requests(), pick=st.integers(0, 10**6))
    def test_gaps_equal_a_brute_force_scan(self, trace, pick):
        future, gaps, touches = FutureUseIndex().of(trace)
        expected = _brute_force_gaps(trace)
        assert gaps == expected
        assert touches == sum(req.size for req in trace)
        assert sorted(c for uses in future.values() for c in uses) == list(
            range(touches)
        )
        # A horizon exactly equal to one of the finite gaps: that gap
        # is placed fast, a longer one slow.
        finite = [gap for gap in expected if gap != math.inf]
        horizon = finite[pick % len(finite)] if finite else 1
        p = OraclePolicy(horizon_scale=horizon / 64)
        p.attach(HybridStorageSystem(make_devices("H&M"), [64, None]))
        p.prepare(trace)
        assert p._horizon == horizon
        assert [p.place(req) for req in trace] == [
            0 if gap <= horizon else 1 for gap in expected
        ]

    def test_prepare_reads_a_streaming_trace_once(self, hm_system):
        """One pass builds uses and gaps: ``prepare`` iterates a
        re-iterable source once, as it did before gaps were indexed."""

        class Counted:
            def __init__(self, requests):
                self.requests, self.iterations = requests, 0

            def __len__(self):
                return len(self.requests)

            def __iter__(self):
                self.iterations += 1
                return iter(self.requests)

        trace = Counted(make_trace("rsrch_0", n_requests=300, seed=0))
        p = OraclePolicy()
        p.attach(hm_system)
        p.prepare(trace)
        assert trace.iterations == 1
        # A whole run: sizing the HSS, prepare and the replay.
        run_policy(OraclePolicy(), trace, config="H&M")
        assert trace.iterations == 1 + 3


class TestOracleQuality:
    def test_oracle_beats_naive_static_on_real_trace(self):
        trace = make_trace("rsrch_0", n_requests=3000, seed=1)
        from repro.baselines.extremes import SlowOnlyPolicy

        oracle = run_policy(OraclePolicy(horizon_scale=8.0), trace, config="H&M")
        slow = run_policy(SlowOnlyPolicy(), trace, config="H&M")
        assert oracle.avg_latency_s < slow.avg_latency_s
