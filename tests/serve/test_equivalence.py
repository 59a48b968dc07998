"""Fused batching equivalence: daemon placements == serial offline agent.

The engine is driven *synchronously* here (its inbox pumped inline, no
threads), so every wave of tenant queries lands in a single fused round
— the widest, most adversarial batching the daemon can produce — and
the resulting placements must still be bit-identical (float equality,
``tests/sim/test_lanes.py`` style) to each tenant's queries replayed
serially through a plain :class:`~repro.core.agent.SibylAgent`.  Three
examples pin those waves; one ``hypothesis`` property then searches
what they do not reach: mixed heads and training cadences, uneven queue
depths, a hot reload with queries already queued.
"""

from __future__ import annotations

import queue
import tempfile
from collections import deque
from pathlib import Path

import pytest
from hypothesis import Phase, event, given, settings
from hypothesis import strategies as st

from repro.serve.engine import PlacementEngine
from repro.serve.loadgen import synthetic_stream
from repro.serve.protocol import Query, parse_query

from serve_harness import FAST_HP, serial_replay

N_TENANTS = 4
N_REQUESTS = 150

#: The fields of a ``place`` reply the offline replay predicts.
SERVED = ("action", "device", "latency_s", "eviction_time_s")


def pump(engine: PlacementEngine) -> None:
    """Process everything queued, inline on the calling thread."""
    while True:
        try:
            kind, payload = engine.inbox.get_nowait()
        except queue.Empty:
            break
        engine._dispatch(kind, payload)
    engine._serve_ready()


def submit_frame(engine: PlacementEngine, frame: dict):
    """Validate a wire frame and enqueue it, like a handler thread."""
    return engine.submit(parse_query(frame))


def test_fused_waves_bit_identical_to_serial():
    """Concurrent multi-tenant waves fuse, and results match serial."""
    engine = PlacementEngine(train_mode="sync")
    streams = {
        f"t{i}": synthetic_stream(seed=50 + i, n=N_REQUESTS)
        for i in range(N_TENANTS)
    }
    for i, name in enumerate(streams):
        job = submit_frame(engine, {
            "op": "open", "tenant": name, "seed": i, "hyperparams": FAST_HP,
        })
        pump(engine)
        assert job.response["ok"], job.response

    responses = {name: [] for name in streams}
    for step in range(N_REQUESTS):
        wave = [
            (name, submit_frame(
                engine, {**streams[name][step], "tenant": name}
            ))
            for name in streams
        ]
        pump(engine)
        for name, job in wave:
            assert job.done.is_set(), "job not resolved by its wave"
            assert job.response["ok"], job.response
            responses[name].append(job.response)

    # The smoking gun that tenants actually shared fused forwards:
    # more lane-rows went through stacked inference than there were
    # stacked calls (impossible if each tenant paid its own forward).
    counters = engine.counters
    assert counters["served"] == N_TENANTS * N_REQUESTS
    assert counters["fused_rows"] > counters["fused_forwards"] > 0
    assert counters["max_fused_rows"] > 1

    for i, (name, got) in enumerate(responses.items()):
        assert [r["seq"] for r in got] == list(range(N_REQUESTS))
        expected = serial_replay(streams[name], seed=i, hyperparams=FAST_HP)
        projected = [
            {k: r[k] for k in
             ("action", "device", "latency_s", "eviction_time_s")}
            for r in got
        ]
        assert projected == expected  # float equality, no tolerance


def test_single_tenant_stack_width_one():
    """K=1 fused path (stack width 1) equals the serial agent too."""
    engine = PlacementEngine(train_mode="sync")
    frames = synthetic_stream(seed=9, n=80)
    job = submit_frame(engine, {
        "op": "open", "tenant": "solo", "seed": 11, "hyperparams": FAST_HP,
    })
    pump(engine)
    assert job.response["ok"]
    got = []
    for frame in frames:
        job = submit_frame(engine, {**frame, "tenant": "solo"})
        pump(engine)
        assert job.response["ok"]
        got.append(job.response)
    expected = serial_replay(frames, seed=11, hyperparams=FAST_HP)
    projected = [
        {k: r[k] for k in ("action", "device", "latency_s", "eviction_time_s")}
        for r in got
    ]
    assert projected == expected


# ---------------------------------------------------------------------------
# The searched half: any interleaving the pump can produce is serial.
# ---------------------------------------------------------------------------

_MAX_TENANTS = 4

#: One tenant: its agent, its training cadence (small, so a stream of
#: at most 120 queries trains many times) and its query stream.  The
#: small capacity puts the fast device under eviction pressure.
_tenant = st.fixed_dictionaries({
    "seed": st.integers(0, 3),
    "head": st.sampled_from(["c51", "dqn"]),
    "train_interval": st.integers(3, 40),
    "batch_size": st.integers(2, 16),
    "exploration_rate": st.sampled_from([0.001, 0.3]),
    "capacity_pages": st.sampled_from([16, 1024]),
    "stream_seed": st.integers(0, 9),
    "length": st.integers(20, 120),
})

#: (tenants, schedule, reload).  ``schedule`` is one row per pump: how
#: many queries each tenant submits before it (0-3, so queue depths
#: differ); whatever the rows leave unsent goes out at once in a final
#: pump.  ``reload`` is ``(tenant, pump)``: that tenant is saved and
#: hot-reloaded after the pump's queries are queued, before they are
#: served.
_cases = st.tuples(
    st.lists(_tenant, min_size=1, max_size=_MAX_TENANTS),
    st.lists(
        st.lists(st.integers(0, 3), min_size=_MAX_TENANTS,
                 max_size=_MAX_TENANTS),
        max_size=50,
    ),
    st.none() | st.tuples(st.integers(0, _MAX_TENANTS - 1),
                          st.integers(0, 50)),
)


def _hyperparams(tenant: dict) -> dict:
    return {
        **FAST_HP,
        "train_interval": tenant["train_interval"],
        "batch_size": tenant["batch_size"],
        "exploration_rate": tenant["exploration_rate"],
    }


def check_served_equals_serial(tenants, schedule, reload, mutate=None):
    """Serve the case through the pump; assert every stream is serial.

    ``mutate(engine)`` runs once the tenants are open — the hook the
    mutant check below breaks the engine through.
    """
    engine = PlacementEngine(train_mode="sync")
    names = [f"t{i}" for i in range(len(tenants))]
    streams = [
        synthetic_stream(seed=t["stream_seed"], n=t["length"]) for t in tenants
    ]
    for name, tenant in zip(names, tenants):
        job = submit_frame(engine, {
            "op": "open", "tenant": name, "seed": tenant["seed"],
            "head": tenant["head"],
            "capacity_pages": tenant["capacity_pages"],
            "hyperparams": _hyperparams(tenant),
        })
        pump(engine)
        assert job.response["ok"], job.response
    if mutate is not None:
        mutate(engine)

    reload_tenant = reload_pump = checkpoint_at = None
    if reload is not None:
        reload_tenant = reload[0] % len(tenants)
        reload_pump = min(reload[1], len(schedule))
    jobs = [[] for _ in tenants]
    with tempfile.TemporaryDirectory() as tmp:
        for step, counts in enumerate(schedule + [[len(s) for s in streams]]):
            if step == reload_pump:
                checkpoint_at = len(jobs[reload_tenant])  # all served so far
            for i, name in enumerate(names):
                sent = len(jobs[i])
                for frame in streams[i][sent:sent + counts[i]]:
                    jobs[i].append(
                        submit_frame(engine, {**frame, "tenant": name})
                    )
            controls = []
            if step == reload_pump:
                path = str(Path(tmp) / "served.npz")
                controls = [
                    submit_frame(engine, {
                        "op": op, "tenant": names[reload_tenant],
                        "checkpoint": path,
                    })
                    for op in ("save", "reload")
                ]
            pump(engine)
            for job in controls:
                assert job.response["ok"], job.response

        trained = evicted = False
        for i, tenant in enumerate(tenants):
            assert all(job.done.is_set() for job in jobs[i])
            got = [job.response for job in jobs[i]]
            assert all(r["ok"] for r in got), got
            expected = serial_replay(
                streams[i], seed=tenant["seed"],
                hyperparams=_hyperparams(tenant),
                capacity_pages=tenant["capacity_pages"], head=tenant["head"],
                checkpoint_at=checkpoint_at if i == reload_tenant else None,
                checkpoint_path=str(Path(tmp) / "offline.npz"),
            )
            assert [
                (r["seq"],) + tuple(r[k] for k in SERVED) for r in got
            ] == [
                (seq,) + tuple(e[k] for k in SERVED)
                for seq, e in enumerate(expected)
            ]  # float equality, no tolerance
            trained = trained or engine.lanes[names[i]].agent.train_events > 0
            evicted = evicted or any(r["eviction_time_s"] > 0 for r in got)
    assert engine.counters["served"] == sum(len(s) for s in streams)
    event(f"trained={trained}")
    event(f"evicted={evicted}")
    event(f"reloaded={reload is not None}")
    event(f"fused={engine.counters['max_fused_rows'] > 1}")


@settings(max_examples=100, deadline=None)
@given(case=_cases)
def test_any_interleaving_is_bit_identical_to_serial(case):
    check_served_equals_serial(*case)


class _WrongEnd(deque):
    """A lane queue whose ``popleft`` takes the newest query."""

    popleft = deque.pop


def _pop_from_the_wrong_end(engine: PlacementEngine) -> None:
    for lane in engine.lanes.values():
        lane.queue = _WrongEnd()


def _never_resync_the_stack(engine: PlacementEngine) -> None:
    engine._ensure_groups()
    for group, _ in engine._lane_group.values():
        group.resync = lambda: None  # fused forwards read stale weights


@pytest.mark.parametrize(
    "mutant", [_pop_from_the_wrong_end, _never_resync_the_stack]
)
def test_property_kills_a_broken_engine(mutant):
    """The property has teeth: neither a LIFO lane queue nor a fused
    stack that misses a tenant's training commits survives it."""

    # Generation only: the first counterexample is enough, unshrunk.
    @settings(max_examples=100, deadline=None, derandomize=True,
              database=None, phases=[Phase.generate])
    @given(case=_cases)
    def mutated(case):
        check_served_equals_serial(*case, mutate=mutant)

    with pytest.raises(AssertionError):
        mutated()
