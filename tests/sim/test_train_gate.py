"""The kernels' training gate, pinned: a lane run by ``numpy`` or
``cext`` is the serial run, state included.

The compiled engine no longer mirrors its replay FIFO and action memo
into the agent's dicts at every gate: it installs the sampling order
(``ExperienceBuffer.set_sampling_order``), lets the agent's own event
run, and re-evaluates its memo array in place.  ``test_agent_lanes.py``
searches that by property; these are the corners it must not miss, by
name — a ten-entry buffer (every batch is mostly repeats, and FIFO
eviction reorders the slots between gates), a memo above the agent's
refresh limit (dropped, and re-learned through fresh inference
barriers), and the expected-value head.
"""

import pytest

from repro.core.agent import SibylAgent
from repro.core.hyperparams import SIBYL_DEFAULT
from repro.sim.kernels import engine_c, kernel_eligible
from repro.sim.lanes import LaneSpec, run_lanes
from repro.sim.runner import run_policy
from repro.traces.workloads import make_trace

from test_soa import _assert_agents_identical

BACKENDS = ["numpy"] + (["cext"] if engine_c.available() else [])

#: A cadence that trains six times over 700 requests.
_BRISK = SIBYL_DEFAULT.replace(
    train_interval=100, initial_random_requests=50, batch_size=16,
    batches_per_training=3,
)


def _serial_and_lane(backend, hyperparams, head="c51", requests=700):
    trace = make_trace("rsrch_0", n_requests=requests, seed=9)
    kw = dict(config="H&M", warmup_fraction=0.3)
    serial = SibylAgent(hyperparams=hyperparams, head=head, seed=2)
    expected = run_policy(serial, trace, **kw)
    probe = SibylAgent(hyperparams=hyperparams, head=head, seed=2)
    assert kernel_eligible(LaneSpec(policy=probe, trace=trace, **kw).make_run())
    lane = SibylAgent(hyperparams=hyperparams, head=head, seed=2)
    stats = {}
    (result,) = run_lanes(
        [LaneSpec(policy=lane, trace=trace, **kw)], backend=backend, stats=stats
    )
    assert result == expected
    assert stats["train_events"] == serial.train_events >= 3
    _assert_agents_identical(serial, lane)
    return lane, stats


@pytest.mark.parametrize("backend", BACKENDS)
def test_capacity_ten_buffer(backend):
    lane, _ = _serial_and_lane(
        backend, _BRISK.replace(buffer_capacity=10, batch_size=8)
    )
    assert len(lane.buffer) == 10


@pytest.mark.parametrize("backend", BACKENDS)
def test_memo_above_the_refresh_limit_is_dropped(backend, monkeypatch):
    monkeypatch.setattr(SibylAgent, "_ACTION_CACHE_LIMIT", 2)
    lane, stats = _serial_and_lane(backend, _BRISK, requests=760)
    # Dropped entries come back as fresh inference barriers: more
    # forwards than the memo left since the last gate could account for.
    assert stats["fused_forwards"] > len(lane._action_cache) > 0


@pytest.mark.parametrize("backend", BACKENDS)
def test_dqn_head(backend):
    lane, _ = _serial_and_lane(backend, _BRISK, head="dqn")
    assert lane._action_cache
