"""Agent lanes, searched: ``run_lanes`` under every backend is serial.

``tests/sim/test_script_lanes.py`` searches the baselines' scripted
path; this is the same property for the lanes that carry the paper's
contribution.  One ``hypothesis`` property (shrinking) draws a trace
shape, a system shape, the agent's head, seed and a deliberately tiny
training cadence (a handful of requests between training events, so a
120-request trace trains many times), and a lane mix of all three
kinds — kernel-eligible agents, agents the kernels refuse (a feature
ablation, a tri-device system) and a scripted baseline — and asserts
that ``run_lanes`` under ``off`` and ``cext`` each leaves
every lane where serial ``run_policy`` leaves it: ``RunResult``, both
networks, losses, replay contents, action memo and generator state.
"""

from hypothesis import event, given, settings
from hypothesis import strategies as st

from repro.baselines.cde import CDEPolicy
from repro.baselines.hps import HPSPolicy
from repro.baselines.oracle import OraclePolicy
from repro.core.agent import SibylAgent
from repro.core.hyperparams import SIBYL_DEFAULT
from repro.hss.request import OpType, Request
from repro.native import library
from repro.sim.kernels import kernel_eligible
from repro.sim.kernels.script import script_eligible
from repro.sim.lanes import LaneSpec, run_lanes
from repro.sim.runner import run_policy
from repro.traces.workloads import make_trace

from test_soa import _assert_agents_identical

BACKENDS = ["off"] + (["cext"] if library.available() else [])



@st.composite
def _traces(draw):
    """The scripted-lane property's trace shapes (small page span for
    reuse and eviction pressure, single- or multi-page requests), long
    enough that a small training cadence fires several times."""
    max_size = draw(st.sampled_from([1, 4, 40]))
    span = draw(st.sampled_from([6, 24, 60]))
    steps = draw(st.lists(
        st.tuples(
            st.integers(0, 300),  # gap to the previous request, us
            st.booleans(),
            st.integers(0, span),
            st.integers(1, max_size),
        ),
        min_size=40, max_size=160,
    ))
    now, out = 0.0, []
    for gap_us, is_write, page, size in steps:
        now += gap_us * 1e-6
        op = OpType.WRITE if is_write else OpType.READ
        out.append(Request(now, op, page, size))
    return out


_hyperparams = st.builds(
    SIBYL_DEFAULT.replace,
    train_interval=st.integers(3, 40),
    batch_size=st.integers(2, 16),
    batches_per_training=st.integers(1, 3),
    buffer_capacity=st.sampled_from([8, 32, 1000]),
    initial_random_requests=st.integers(0, 30),
    exploration_rate=st.sampled_from([0.001, 0.3]),
    learning_rate=st.sampled_from([1e-2, 1e-3]),
)

#: (kind, config, policy kwargs or class).  ``agent`` is what
#: ``kernel_eligible`` accepts; ``ablation`` and ``tri`` are agents it
#: refuses; ``baseline`` is what ``script_eligible`` accepts.
_lanes = st.one_of(
    st.tuples(st.just("agent"), st.sampled_from(["H&M", "H&L"]), st.just({})),
    st.tuples(
        st.just("ablation"),
        st.sampled_from(["H&M", "H&L"]),
        st.fixed_dictionaries(
            {"feature_set": st.sampled_from(["rt", "ft", "rt+ft+pt"])}
        ),
    ),
    st.tuples(st.just("tri"), st.just("H&M&L"), st.just({})),
    st.tuples(
        st.just("baseline"),
        st.just("H&M"),
        st.sampled_from([CDEPolicy, HPSPolicy, OraclePolicy]),
    ),
)


@settings(max_examples=100, deadline=None)
@given(
    trace=_traces(),
    capacity_fraction=st.sampled_from([1e-4, 0.05, 0.1, 0.5]),
    warmup_fraction=st.sampled_from([0.0, 0.3]),
    head=st.sampled_from(["c51", "dqn"]),
    seed=st.integers(0, 3),
    hyperparams=_hyperparams,
    lanes=st.lists(_lanes, min_size=1, max_size=4),
)
def test_lanes_are_serial_runs_under_every_backend(
    trace, capacity_fraction, warmup_fraction, head, seed, hyperparams, lanes
):
    def build():
        """Fresh ``(policy, run kwargs)`` per lane; lane ``i`` seeds ``seed + i``."""
        out = []
        for i, (kind, config, extra) in enumerate(lanes):
            if kind == "baseline":
                policy = extra()
            else:
                policy = SibylAgent(
                    hyperparams=hyperparams, head=head, seed=seed + i, **extra
                )
            fractions = (capacity_fraction,) * (config.count("&"))
            out.append((policy, dict(
                config=config, capacity_fractions=fractions,
                warmup_fraction=warmup_fraction,
            )))
        return out

    # The mix is what it says: each kind lands on the path it names.
    for (kind, _, _), (policy, kw) in zip(lanes, build()):
        run = LaneSpec(policy=policy, trace=trace, **kw).make_run()
        assert kernel_eligible(run) == (kind == "agent")
        assert script_eligible(run) == (kind == "baseline")

    serial = build()
    expected = [run_policy(policy, trace, **kw) for policy, kw in serial]
    n_scripted = sum(kind == "baseline" for kind, _, _ in lanes)
    agents = [policy for policy, _ in serial if isinstance(policy, SibylAgent)]
    event(f"trained={any(agent.train_events for agent in agents)}")
    event(f"evicted={any(result.eviction_fraction > 0 for result in expected)}")
    for backend in BACKENDS:
        laned = build()
        stats = {}
        results = run_lanes(
            [LaneSpec(policy=policy, trace=trace, **kw) for policy, kw in laned],
            backend=backend,
            stats=stats,
        )
        assert results == expected, backend
        assert stats["script_lanes"] == (n_scripted if backend == "cext" else 0)
        for (s_policy, _), (l_policy, _) in zip(serial, laned):
            if isinstance(s_policy, SibylAgent):
                _assert_agents_identical(s_policy, l_policy)


def test_the_search_reaches_training_and_eviction():
    """The property's smallest cadence on its densest trace shape does
    train and evict under every backend (it is not vacuous)."""
    trace = make_trace("rsrch_0", n_requests=120, seed=0)
    hp = SIBYL_DEFAULT.replace(
        train_interval=3, batch_size=2, buffer_capacity=8,
        initial_random_requests=5,
    )
    for backend in BACKENDS:
        agent = SibylAgent(hyperparams=hp, seed=1)
        (result,) = run_lanes(
            [LaneSpec(policy=agent, trace=trace, capacity_fractions=(0.05,))],
            backend=backend,
        )
        assert agent.train_events >= 30 and agent.losses
        assert result.eviction_fraction > 0
