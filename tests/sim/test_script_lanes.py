"""Scripted lanes: the baselines decide in Python, ``kernel.c`` serves.

The contract is the one every engine carries — bit-identity to serial
``run_policy`` — but here it covers more than the ``RunResult``: a
scripted lane must leave the HSS (stats, devices, page table, per-device
LRU order, tracker) *and the policy's own learned state* exactly as the
serial replay does.  It is searched with one ``hypothesis`` property
(shrinking) over trace shape, system shape and policy parameters, and
pinned on the cases the property would need luck to hit.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.archivist import ArchivistPolicy
from repro.baselines.cde import CDEPolicy
from repro.baselines.extremes import FastOnlyPolicy, SlowOnlyPolicy
from repro.baselines.hps import HPSPolicy
from repro.baselines.oracle import OraclePolicy
from repro.baselines.rnn_hss import RNNHSSPolicy
from repro.cli import main as cli_main
from repro.hss.devices import make_devices
from repro.hss.eviction import BeladyVictimSelector
from repro.hss.request import OpType, Request
from repro.hss.system import HybridStorageSystem
from repro.native import library
from repro.sim.campaign import seeded_compare_cell
from repro.sim.kernels.script import script_eligible
from repro.sim.lanes import LaneSpec, run_lanes
from repro.sim.runner import (
    PolicyRun,
    build_hss,
    clear_reference_cache,
    run_policy,
)
from repro.traces.workloads import make_trace

pytestmark = pytest.mark.skipif(
    not library.available(),
    reason=f"compiled kernel unavailable: {library.unavailable_reason()}",
)

W, R = OpType.WRITE, OpType.READ


def _trace(steps):
    """``(op, page, size)`` steps, 100 us apart."""
    return [
        Request(1e-4 * i, op, page, size)
        for i, (op, page, size) in enumerate(steps)
    ]


# ------------------------------------------------------------ comparing
def _same(a, b) -> bool:
    """Deep equality that looks inside arrays, dicts and sequences."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.array_equal(a, b)
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(map(_same, a, b))
    return a == b


def _policy_state(policy) -> dict:
    """Everything the policy learned or accumulated.  Objects are
    opened up (network parameters, optimizer moments, generator state);
    ``BeladyVictimSelector._cursor`` is a lookup cache, not state."""
    state = {}
    for name, value in vars(policy).items():
        if name == "hss":
            continue
        if name == "rng":
            value = value.bit_generator.state
        elif name == "network":
            value = [p.copy() for p in value.parameters]
        elif name == "rnn":
            value = {
                **{k: v for k, v in vars(value).items() if k != "optimizer"},
                "optimizer": vars(value.optimizer),
            }
        elif name == "_selector":
            value = None if value is None else value.now
        state[name] = value
    return state


def _lane_state(policy, hss) -> dict:
    return {
        "stats": dataclasses.asdict(hss.stats),
        "devices": [
            {
                "stats": dataclasses.asdict(dev.stats),
                "queue_horizon": dev._next_free_s,
                **{
                    name: getattr(dev, name)
                    for name in (
                        "utilization", "_head_page", "target_page",
                        "_buffer_occupancy", "_buffer_last_drain_s",
                        "_writes_since_gc",
                    )
                    if hasattr(dev, name)
                },
            }
            for dev in hss.devices
        ],
        "location": hss.table._location,
        "lru_order": [list(resident) for resident in hss.table._resident],
        "tracker": (
            hss.tracker._count, hss.tracker._last_access, hss.tracker._clock
        ),
        "attached": policy.hss is hss,
        "policy": _policy_state(policy),
    }


def _assert_scripted_equals_serial(make_policy, trace, make_hss=None, **kw):
    """Run one lane both ways on equal fresh systems; compare it all."""
    serial_policy, lane_policy = make_policy(), make_policy()
    serial_hss = make_hss() if make_hss else None
    lane_hss = make_hss() if make_hss else None
    # PolicyRun, not run_policy: a default-built HSS is reachable after.
    serial_run = PolicyRun(serial_policy, trace, hss=serial_hss, **kw)
    while serial_run.step():
        pass
    spec = LaneSpec(policy=lane_policy, trace=trace, hss=lane_hss, **kw)
    lane_run = spec.make_run()
    assert script_eligible(lane_run)
    stats = {}
    spec.make_run = lambda: lane_run  # run_lanes drives the run held here
    (result,) = run_lanes([spec], backend="cext", stats=stats)
    assert stats["script_lanes"] == 1
    assert stats["ticks"] == stats["kernel_barriers"] == 0
    assert result == serial_run.result()
    assert (lane_run._index, lane_run._completion_s, lane_run.finished) == (
        serial_run._index, serial_run._completion_s, True
    )
    serial = _lane_state(serial_policy, serial_run.hss)
    lane = _lane_state(lane_policy, lane_run.hss)
    for key in serial:
        assert _same(serial[key], lane[key]), key
    return serial_run.hss


# ------------------------------------------------------------ searching
@st.composite
def _traces(draw):
    """Short traces over a small page span (reuse, eviction pressure):
    all single-page, or multi-page up to 40 pages per request."""
    max_size = draw(st.sampled_from([1, 4, 40]))
    span = draw(st.sampled_from([6, 24, 60]))
    steps = draw(st.lists(
        st.tuples(
            st.integers(0, 300),  # gap to the previous request, us
            st.booleans(),
            st.integers(0, span),
            st.integers(1, max_size),
        ),
        min_size=1, max_size=120,
    ))
    now, out = 0.0, []
    for gap_us, is_write, page, size in steps:
        now += gap_us * 1e-6
        out.append(Request(now, W if is_write else R, page, size))
    return out


_seeds = st.integers(0, 3)
_fraction = st.floats(0.05, 0.95)
_policies = st.one_of(
    st.just((FastOnlyPolicy, {})),
    st.just((SlowOnlyPolicy, {})),
    st.tuples(st.just(CDEPolicy), st.fixed_dictionaries({
        "random_size_pages": st.integers(1, 8),
        "hot_access_count": st.integers(1, 6),
    })),
    st.tuples(st.just(HPSPolicy), st.fixed_dictionaries({
        "epoch_requests": st.integers(1, 40),
        "hot_fraction": st.floats(0.05, 1.0),
    })),
    st.tuples(st.just(ArchivistPolicy), st.fixed_dictionaries({
        "epoch_requests": st.integers(8, 40),
        "hidden_sizes": st.sampled_from([(4,), (4, 4)]),
        "train_epochs": st.integers(1, 3),
        "hot_label_fraction": _fraction,
        "seed": _seeds,
    })),
    st.tuples(st.just(RNNHSSPolicy), st.fixed_dictionaries({
        "epoch_requests": st.integers(4, 40),
        "history_windows": st.integers(2, 4),
        "hidden_size": st.integers(2, 4),
        "hot_label_fraction": _fraction,
        "max_train_pages": st.integers(4, 12),
        "seed": _seeds,
    })),
    st.tuples(st.just(OraclePolicy), st.fixed_dictionaries({
        "horizon_scale": st.sampled_from([0.5, 2.0, 8.0, 64.0, 1e9]),
    })),
)


@settings(max_examples=300, deadline=None)
@given(
    trace=_traces(),
    config=st.sampled_from(["H&M", "H&L"]),
    # Down to one page of fast storage: an eviction on every placement.
    capacity_fraction=st.sampled_from([1e-4, 0.02, 0.1, 0.5]),
    slack=st.integers(0, 4),
    warmup_fraction=st.sampled_from([0.0, 0.3, 0.9]),
    truncate=st.one_of(st.none(), st.integers(1, 120)),
    policy=_policies,
)
def test_scripted_lane_is_the_serial_run(
    trace, config, capacity_fraction, slack, warmup_fraction, truncate, policy
):
    kind, params = policy
    served = trace[:truncate]

    def make_hss():
        hss = build_hss(
            config, served, capacity_fractions=(capacity_fraction,),
            unbounded=kind is FastOnlyPolicy,
        )
        hss.eviction_slack_pages = slack
        return hss

    _assert_scripted_equals_serial(
        lambda: kind(**params), trace, make_hss,
        config=config, max_requests=truncate, warmup_fraction=warmup_fraction,
    )


# -------------------------------------------------------------- pinning
class TestBeladyVictims:
    """``do_evict``'s Belady choice against ``BeladyVictimSelector``."""

    #: Three-page writes in descending page order, each head read back
    #: once: the tails stay on the fast device with no future use, in
    #: an LRU order that is not page order.
    STEPS = [
        (W, 30, 3), (W, 20, 3), (R, 20, 1), (R, 30, 1),
        (W, 10, 3), (R, 10, 1), (W, 0, 3), (R, 0, 1),
    ]

    def _run(self, monkeypatch, capacity, slack, steps=STEPS):
        """Both runs; what the serial run's selector saw and chose (the
        scripted lane never calls the Python selector)."""
        selections = []
        select = BeladyVictimSelector.select

        def spy(self, table, device, n):
            resident = list(table.resident_pages(device))
            uses = [self.next_use(page) for page in resident]
            victims = select(self, table, device, n)
            selections.append((resident, uses, n, victims))
            return victims

        monkeypatch.setattr(BeladyVictimSelector, "select", spy)
        _assert_scripted_equals_serial(
            lambda: OraclePolicy(horizon_scale=1e9),
            _trace(steps),
            lambda: HybridStorageSystem(
                make_devices("H&M"), [capacity, None],
                eviction_slack_pages=slack,
            ),
        )
        return selections

    @pytest.mark.parametrize("slack", [0, 1])
    def test_no_resident_page_is_ever_reused(self, monkeypatch, slack):
        """Every next use is infinite: the tie goes to LRU order."""
        selections = self._run(monkeypatch, capacity=5, slack=slack)
        tied = [
            s for s in selections
            if len(s[0]) > s[2] and set(s[1]) == {float("inf")}
        ]
        assert tied
        for resident, _uses, n, victims in tied:
            assert victims == resident[:n]
            assert resident != sorted(resident)

    def test_selector_now_is_the_end_of_the_request(self, monkeypatch):
        """``OraclePolicy.place`` sets ``selector.now`` past the pages
        being served: page 2, rewritten by the very request that forces
        the eviction and never used again, is the farthest — judged
        from the request's start it would look like the nearest."""
        steps = [(W, 0, 3), (W, 1, 3), (R, 0, 1), (R, 1, 1)]
        (selection,) = self._run(monkeypatch, capacity=3, slack=0, steps=steps)
        assert selection == ([0, 1, 2], [6, 7, float("inf")], 1, [2])

    def test_resident_no_more_than_wanted(self, monkeypatch):
        """``len(resident) <= n``: everything goes, in LRU order."""
        selections = self._run(monkeypatch, capacity=3, slack=8)
        assert selections
        for resident, _uses, n, victims in selections:
            assert len(resident) <= n and victims == resident


class TestPinnedCases:
    def test_cde_multi_page_read_straddling_both_devices(self):
        """CDE leaves a read where its *first* page lives — decided by
        the kernel at serve time (the script holds the sentinel)."""
        steps = [(W, 0, 2), (W, 2, 6), (R, 0, 6), (R, 6, 2), (W, 0, 8)]
        hss = _assert_scripted_equals_serial(
            CDEPolicy, _trace(steps), capacity_fractions=(0.5,)
        )
        # Pages 2..5 followed 0 and 1 to the fast device; 6, 7 stayed.
        assert hss.stats.promoted_pages == 4

    def test_read_wider_than_the_stack_buffer(self):
        """A >256-page read with pages on both devices takes the
        kernel's heap path for its to-move mask."""
        steps = [(W, 0, 150), (R, 0, 300), (R, 100, 300)]
        hss = _assert_scripted_equals_serial(
            lambda: CDEPolicy(random_size_pages=1000), _trace(steps),
            capacity_fractions=(0.9,),
        )
        assert hss.stats.promoted_pages >= 150

    def test_fast_only_runs_unbounded(self):
        trace = make_trace("rsrch_0", n_requests=400, seed=2)
        hss = _assert_scripted_equals_serial(
            FastOnlyPolicy, trace, warmup_fraction=0.3
        )
        assert hss.capacity_pages == [None, None]
        assert hss.stats.eviction_events == 0

    def test_subclass_of_a_scripted_policy_is_not_scripted(self):
        class TunedCDE(CDEPolicy):
            pass

        trace = make_trace("rsrch_0", n_requests=300, seed=0)
        stats = {}
        (lane,) = run_lanes(
            [LaneSpec(policy=TunedCDE(), trace=trace)],
            backend="cext", stats=stats,
        )
        assert stats["script_lanes"] == 0
        assert lane == run_policy(TunedCDE(), trace)

    def test_reading_live_placement_state_while_deciding_raises(
        self, monkeypatch
    ):
        def nosy_place(self, request):
            return self.hss.table.location(request.page) or 0

        monkeypatch.setattr(CDEPolicy, "place", nosy_place)
        trace = make_trace("rsrch_0", n_requests=50, seed=0)
        policy = CDEPolicy()
        with pytest.raises(AttributeError, match="table"):
            run_lanes([LaneSpec(policy=policy, trace=trace)], backend="cext")
        assert type(policy.hss).__name__ == "HybridStorageSystem"


def _baselines(seed=0):
    return [
        FastOnlyPolicy(), SlowOnlyPolicy(), CDEPolicy(), HPSPolicy(),
        ArchivistPolicy(seed=seed), RNNHSSPolicy(seed=seed), OraclePolicy(),
    ]


class TestOtherBackendsKeepLockstep:
    @pytest.mark.parametrize("backend", ["off"])
    def test_no_lane_is_scripted_and_results_match(self, backend, monkeypatch):
        monkeypatch.setenv("SIBYL_BACKEND", backend)
        trace = make_trace("hm_1", n_requests=600, seed=1)
        kw = dict(config="H&L", warmup_fraction=0.3)
        stats = {}
        lanes = run_lanes(
            [LaneSpec(policy=p, trace=trace, **kw) for p in _baselines()],
            stats=stats,
        )
        assert stats["script_lanes"] == 0
        assert lanes == [run_policy(p, trace, **kw) for p in _baselines()]
        monkeypatch.setenv("SIBYL_BACKEND", "cext")
        stats = {}
        scripted = run_lanes(
            [LaneSpec(policy=p, trace=trace, **kw) for p in _baselines()],
            stats=stats,
        )
        assert stats["script_lanes"] == len(scripted)
        assert scripted == lanes

    def test_campaign_cell_and_cli_are_byte_identical(
        self, monkeypatch, tmp_path, capsys
    ):
        """The whole Fig. 9 cell — reference, lineup, Oracle search —
        and what ``repro compare`` prints and exports."""
        monkeypatch.setenv("SIBYL_PARALLEL", "serial")
        outputs = {}
        for backend in ("cext", "off"):
            monkeypatch.setenv("SIBYL_BACKEND", backend)
            clear_reference_cache()
            cell = seeded_compare_cell("rsrch_0", "H&M", 500, seeds=(0, 1))
            clear_reference_cache()
            path = tmp_path / f"{backend}.json"
            assert cli_main([
                "compare", "--workloads", "rsrch_0", "hm_1", "--requests",
                "400", "--seeds", "2", "--no-store", "--json", str(path),
            ]) == 0
            stdout = capsys.readouterr().out.replace(str(path), "<json>")
            outputs[backend] = (repr(cell), stdout, path.read_bytes())
        clear_reference_cache()
        assert outputs["cext"] == outputs["off"]
