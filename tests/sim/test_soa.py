"""Tests for the structure-of-arrays tick engine (repro.sim.kernels).

One contract is asserted here, absolutely: every lane's result is
**bit-identical** to a serial ``run_policy`` of the same (policy,
trace, config, seed) — float equality, never approx, including the
agent's full post-run state (weights, optimizer moments, replay
contents, RNG stream) — whether the compiled kernel runs it or
``run_lanes`` steps it serially.

The compiled-backend tests skip cleanly when no C toolchain is
available; ``auto`` then falls back to serial stepping silently, which
is itself asserted.
"""

import numpy as np
import pytest

from repro.baselines.cde import CDEPolicy
from repro.baselines.extremes import FastOnlyPolicy, SlowOnlyPolicy
from repro.baselines.hps import HPSPolicy
from repro.baselines.oracle import OraclePolicy
from repro.core.agent import SibylAgent
from repro.hss.request import OpType, Request
from repro.native import library
from repro.sim.kernels import (
    BACKENDS,
    get_backend,
    kernel_eligible,
)
from repro.sim.lanes import LaneSpec, run_lanes
from repro.sim.runner import run_policy
from repro.traces.workloads import make_trace

requires_cext = pytest.mark.skipif(
    not library.available(),
    reason=f"compiled kernel unavailable: {library.unavailable_reason()}",
)


def _spec_policies(seed=0):
    """One of every policy family: RL, oracle, heuristics, extremes."""
    return [
        SibylAgent(seed=seed),
        SibylAgent(head="dqn", seed=seed),
        OraclePolicy(),
        CDEPolicy(),
        HPSPolicy(),
        FastOnlyPolicy(),
        SlowOnlyPolicy(),
    ]


def _agent_state(agent):
    """The post-run agent state the bit-identity contract covers."""
    return {
        "seen": agent._requests_seen,
        "losses": list(agent.losses),
        "train_events": agent.train_events,
        "counts": np.asarray(agent.action_counts).copy(),
        "weights": agent.inference_net.network.flat_parameters.copy(),
        "train_weights": agent.training_net.network.flat_parameters.copy(),
        "rng": agent.rng.bit_generator.state,
        "entries": list(agent.buffer._entries.items()),
        "total_added": agent.buffer.total_added,
        "memo": dict(agent._action_cache),
    }


def _assert_agents_identical(a, b):
    sa, sb = _agent_state(a), _agent_state(b)
    assert sa["seen"] == sb["seen"]
    assert sa["losses"] == sb["losses"]
    assert sa["train_events"] == sb["train_events"]
    assert np.array_equal(sa["counts"], sb["counts"])
    assert np.array_equal(sa["weights"], sb["weights"])
    assert np.array_equal(sa["train_weights"], sb["train_weights"])
    assert sa["rng"] == sb["rng"]
    assert sa["entries"] == sb["entries"]
    assert sa["total_added"] == sb["total_added"]
    assert sa["memo"] == sb["memo"]


def _single_page_trace(n=1500, seed=11):
    """A hand-built size-1 trace: the real MSRC workloads only emit
    multi-page requests, so the single-page serve branches need a
    synthetic exercise."""
    rng = np.random.default_rng(seed)
    t = 0.0
    reqs = []
    for _ in range(n):
        t += float(rng.random()) * 1e-4
        op = OpType.WRITE if rng.random() < 0.4 else OpType.READ
        reqs.append(
            Request(timestamp=t, op=op, page=int(rng.integers(0, 700)), size=1)
        )
    return reqs


@requires_cext
class TestCompiledBackendBitIdentity:
    def test_matches_serial_deep(self):
        trace = make_trace("rsrch_0", n_requests=1500, seed=2)
        serial_agent = SibylAgent(seed=2)
        c_agent = SibylAgent(seed=2)
        serial = run_policy(serial_agent, trace, config="H&M")
        (laned,) = run_lanes(
            [LaneSpec(policy=c_agent, trace=trace)], backend="cext"
        )
        assert serial == laned
        _assert_agents_identical(serial_agent, c_agent)

    def test_all_policy_families_match_serial(self):
        """Every policy family through the kernel layer: eligible Sibyl
        lanes and the scripted baselines take the kernel, the rest are
        stepped — all bit-identical to serial."""
        trace = make_trace("rsrch_0", n_requests=1200, seed=0)
        serial = [
            run_policy(policy, trace, config="H&M")
            for policy in _spec_policies()
        ]
        laned = run_lanes(
            [LaneSpec(policy=p, trace=trace) for p in _spec_policies()],
            backend="cext",
        )
        for s, l in zip(serial, laned):
            assert s == l

    @pytest.mark.parametrize("n_lanes", [1, 2, 7])
    def test_lane_counts(self, n_lanes):
        traces = [
            make_trace("rsrch_0", n_requests=900, seed=i)
            for i in range(n_lanes)
        ]
        serial_agents = [SibylAgent(seed=i) for i in range(n_lanes)]
        c_agents = [SibylAgent(seed=i) for i in range(n_lanes)]
        serial = [
            run_policy(serial_agents[i], traces[i], config="H&M")
            for i in range(n_lanes)
        ]
        laned = run_lanes(
            [
                LaneSpec(policy=c_agents[i], trace=traces[i])
                for i in range(n_lanes)
            ],
            backend="cext",
        )
        assert serial == laned
        for sa, ca in zip(serial_agents, c_agents):
            _assert_agents_identical(sa, ca)

    def test_dqn_head(self):
        trace = make_trace("prxy_0", n_requests=1000, seed=4)
        serial = run_policy(SibylAgent(head="dqn", seed=4), trace, config="H&M")
        (laned,) = run_lanes(
            [LaneSpec(policy=SibylAgent(head="dqn", seed=4), trace=trace)],
            backend="cext",
        )
        assert serial == laned

    def test_single_page_trace(self):
        """size==1 serve branches (never hit by the MSRC workloads)."""
        trace = _single_page_trace()
        serial = run_policy(SibylAgent(seed=7), trace, config="H&M")
        (laned,) = run_lanes(
            [LaneSpec(policy=SibylAgent(seed=7), trace=trace)],
            backend="cext",
        )
        assert serial == laned

    @pytest.mark.parametrize("config", ["H&M", "H&L"])
    def test_tiny_capacity_eviction_pressure(self, config):
        """capacity_fractions=(0.01,): nearly every placement evicts,
        and an eviction can push the *current request's own* device-0
        pages out mid-serve.  Regression for the kernel's read-path
        move loop, which must fix its to_move set before the eviction
        (re-checking page locations afterwards dragged freshly evicted
        request pages back to the fast device — one extra move per such
        collision, silently skewing a 1%-capacity sweep cell)."""
        trace = make_trace("rsrch_0", n_requests=2000, seed=0)
        kw = dict(
            config=config, capacity_fractions=(0.01,), warmup_fraction=0.1
        )
        serial_agent = SibylAgent(seed=0)
        c_agent = SibylAgent(seed=0)
        serial = run_policy(serial_agent, trace, **kw)
        (laned,) = run_lanes(
            [LaneSpec(policy=c_agent, trace=trace, **kw)], backend="cext"
        )
        assert serial == laned
        _assert_agents_identical(serial_agent, c_agent)

    def test_replay_array_layout_matches_serial(self):
        """The kernel preallocates replay storage at capacity; the
        export must trim back to the serial growth schedule."""
        trace = make_trace("rsrch_0", n_requests=1200, seed=5)
        serial_agent = SibylAgent(seed=5)
        c_agent = SibylAgent(seed=5)
        run_policy(serial_agent, trace, config="H&M")
        run_lanes([LaneSpec(policy=c_agent, trace=trace)], backend="cext")
        sb, cb = serial_agent.buffer, c_agent.buffer
        assert len(sb._mult) == len(cb._mult)
        assert np.array_equal(sb._mult, cb._mult)
        assert sb._free == cb._free


class TestBackendSelection:
    def test_resolve_backend_reads_knob(self, monkeypatch):
        monkeypatch.setenv("SIBYL_BACKEND", "off")
        assert get_backend() is None
        for value in ("nonsense", "numpy"):
            monkeypatch.setenv("SIBYL_BACKEND", value)
            with pytest.raises(
                ValueError, match="SIBYL_BACKEND must be one of "
                "'auto', 'cext', 'off'"
            ):
                get_backend()

    def test_get_backend_off_disables(self):
        assert get_backend("off") is None

    def test_get_backend_auto_resolves(self):
        assert get_backend("auto") == ("cext" if library.available() else None)

    def test_backends_tuple_is_knob_domain(self):
        assert BACKENDS == ("auto", "cext", "off")

    def test_off_backend_still_bit_identical(self):
        """off steps the lane serially (``PolicyRun.step``) — same
        contract."""
        trace = make_trace("rsrch_0", n_requests=600, seed=6)
        serial = run_policy(SibylAgent(seed=6), trace, config="H&M")
        (laned,) = run_lanes(
            [LaneSpec(policy=SibylAgent(seed=6), trace=trace)], backend="off"
        )
        assert serial == laned


class TestEligibilityGate:
    def test_sibyl_default_is_eligible(self):
        trace = make_trace("rsrch_0", n_requests=50, seed=0)
        run = LaneSpec(policy=SibylAgent(seed=0), trace=trace).make_run()
        assert kernel_eligible(run)

    def test_heuristics_are_not(self):
        trace = make_trace("rsrch_0", n_requests=50, seed=0)
        run = LaneSpec(policy=CDEPolicy(), trace=trace).make_run()
        assert not kernel_eligible(run)

    def test_a_run_past_its_cold_start_is_not(self):
        """The kernel seeds its mirrors from a cold start only: a run
        already stepped is left to ``run_lanes``' serial loop."""
        trace = make_trace("rsrch_0", n_requests=50, seed=0)
        run = LaneSpec(policy=SibylAgent(seed=0), trace=trace).make_run()
        run.step()
        assert not kernel_eligible(run)

    def test_tri_hss_is_not(self):
        trace = make_trace("rsrch_0", n_requests=50, seed=0)
        run = LaneSpec(
            policy=SibylAgent(seed=0), trace=trace, config="H&M&L"
        ).make_run()
        assert not kernel_eligible(run)


class TestBuildPruning:
    """Stale content-hashed kernel binaries are removed on new builds."""

    def test_prunes_other_kernel_hashes(self, tmp_path):
        keep = "kernel-aaaa0000bbbb1111.so"
        stale = ["kernel-0123456789abcdef.so", "kernel-feedfacecafe0000.so"]
        for name in [keep, *stale]:
            (tmp_path / name).write_bytes(b"x")
        library._prune_stale_builds(str(tmp_path), keep)
        assert sorted(p.name for p in tmp_path.iterdir()) == [keep]

    def test_spares_inflight_tmp_and_foreign_files(self, tmp_path):
        keep = "kernel-aaaa0000bbbb1111.so"
        spared = [keep, "tmpab12cd.so", "README.txt"]
        for name in [*spared, "kernel-deadbeefdeadbeef.so"]:
            (tmp_path / name).write_bytes(b"x")
        library._prune_stale_builds(str(tmp_path), keep)
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(spared)

    def test_missing_build_dir_is_a_noop(self, tmp_path):
        library._prune_stale_builds(str(tmp_path / "absent"), "kernel-x.so")

    @requires_cext
    def test_load_leaves_exactly_one_binary(self):
        import os

        build_dir = library._BUILD_DIR
        orphan = os.path.join(build_dir, "kernel-0000000000000000.so")
        with open(orphan, "wb") as fh:
            fh.write(b"x")
        try:
            # Force a fresh _load walk (the library object stays cached,
            # but pruning happens on the build path, so re-run it).
            library._prune_stale_builds(
                build_dir,
                next(
                    name for name in sorted(os.listdir(build_dir))
                    if name.startswith("kernel-") and name != os.path.basename(orphan)
                ),
            )
            names = [
                name for name in os.listdir(build_dir)
                if name.startswith("kernel-") and name.endswith(".so")
            ]
            assert len(names) == 1
        finally:
            if os.path.exists(orphan):
                os.unlink(orphan)
