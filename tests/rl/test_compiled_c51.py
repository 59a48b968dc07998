"""Sibyl's C51 network in the compiled library equals NumPy, byte for byte.

``C51Network.train_batches`` and ``best_action`` run ``sib_c51_train`` /
``sib_c51_act`` when the library can take the network, and the compiled
tick kernel answers a C51 lane's memo misses with the same forward:
NumPy's own ``cblas_dgemm``/``cblas_dgemv`` for every product and
NumPy's own float64 ``tanh``, ``exp`` and ``log`` loops, on the
network's own arrays.  The property here searches batch sizes, hidden
layers, atom counts, Adam settings and signed inputs for a difference
from the NumPy reference in anything the network or its optimizer
holds.  Shapes the library refuses (a 1-wide layer, one action, a
one-row batch) are in the search on purpose: those examples hold the
fallback to the same bytes.  The fallbacks — ``SIBYL_BACKEND=off``,
SGD, ReLU, the DQN head, and under ``auto`` a missing BLAS export or a
failed handshake — must each give the same bytes through NumPy, and
under ``cext`` an entry point that does not resolve raises instead.
"""

import hashlib
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.agent import SibylAgent
from repro.core.hyperparams import SIBYL_DEFAULT
from repro.native import blas, library
from repro.obs.tracer import SpanTracer, set_tracer
from repro.rl.c51 import C51Config, C51Network
from repro.rl.optim import Adam
from repro.sim.lanes import LaneSpec, run_lanes
from repro.sim.runner import run_policy
from repro.traces.workloads import make_trace

COMPILED = C51Network(
    C51Config(optimizer="adam"), rng=np.random.default_rng(0)
)._compiled(128)[0] is not None

requires_compiled = pytest.mark.skipif(
    not COMPILED,
    reason=f"compiled C51 unavailable: {library.unavailable_reason()}",
)

requires_kernel = pytest.mark.skipif(
    not library.available(),
    reason=f"compiled kernel unavailable: {library.unavailable_reason()}",
)


def state(net: C51Network) -> str:
    """Everything the network and its optimizer hold: parameters,
    gradients, moments, step count, and each layer's training buffers
    (but the first layer's input gradient, which nothing writes)."""
    opt = net.optimizer
    h = hashlib.sha256()
    arrays = [net.network.flat_parameters, net.network.flat_gradients,
              *getattr(opt, "_m", []), *getattr(opt, "_v", [])]
    for j, layer in enumerate(net.network.layers):
        if layer._z is not None:
            arrays += [layer._z, layer._act_scratch]
            if j:
                arrays.append(layer._grad_in)
    for array in arrays:
        h.update(array.tobytes())
    h.update(repr((getattr(opt, "_t", None), net.train_steps)).encode())
    return h.hexdigest()


def pair(config, seed, **adam):
    """Two identical networks; ``adam`` replaces the optimizer in both."""
    nets = []
    for _ in range(2):
        net = C51Network(config, rng=np.random.default_rng(seed))
        if adam:
            net.optimizer = Adam(**adam)
        nets.append(net)
    return nets


def numpy_path(run):
    """``run()`` with the compiled library switched off."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("SIBYL_BACKEND", "off")
        return run()


def spans(run, *names):
    """``run()``'s result and the args of its spans named ``names``
    (default ``rl.c51_train``), one list per name."""
    tracer = SpanTracer(capacity=4096)
    previous = set_tracer(tracer)
    try:
        result = run()
    finally:
        set_tracer(previous)
    found = [
        [e["args"] for e in tracer.events() if e["name"] == name]
        for name in names or ("rl.c51_train",)
    ]
    return (result, *found)


def batch(data, rows, n_obs, n_actions, n_atoms, scale):
    """Feature-like observations in [0, 1], or signed floats; target
    pmfs with a share of zero atoms, as projections leave them."""
    if scale is None:
        obs = data.integers(0, 9, size=(rows, n_obs)) / 8.0
    else:
        obs = data.uniform(-scale, scale, size=(rows, n_obs))
    actions = data.integers(0, n_actions, size=rows)
    targets = data.random((rows, n_atoms)) * (data.random((rows, n_atoms)) < 0.4)
    targets[:, 0] += 1e-3
    targets /= targets.sum(axis=1, keepdims=True)
    return obs, actions, targets


@settings(max_examples=150, deadline=None)
@given(
    n_obs=st.integers(1, 7),
    hidden=st.lists(st.integers(1, 40), min_size=1, max_size=3),
    n_actions=st.integers(1, 3),
    n_atoms=st.sampled_from([2, 5, 8, 13, 51, 128, 129, 200]),
    batch_size=st.integers(1, 48),
    steps=st.integers(1, 3),
    lr=st.floats(1e-4, 0.3),
    beta1=st.floats(0.0, 0.99),
    beta2=st.floats(0.0, 0.9999),
    scale=st.one_of(st.none(), st.floats(0.1, 6.0)),
    reset=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_compiled_equals_numpy(
    n_obs, hidden, n_actions, n_atoms, batch_size, steps, lr, beta1, beta2,
    scale, reset, seed,
):
    config = C51Config(
        n_observations=n_obs, n_actions=n_actions, hidden_sizes=tuple(hidden),
        n_atoms=n_atoms, v_min=-2.0, v_max=10.0, learning_rate=lr,
    )
    ours, reference = pair(config, seed, learning_rate=lr, beta1=beta1,
                           beta2=beta2)
    data = np.random.default_rng(seed + 1)
    for rnd in range(2):
        if rnd and reset:
            ours.optimizer.reset()
            reference.optimizer.reset()
        obs, actions, targets = batch(data, steps * batch_size, n_obs,
                                      n_actions, n_atoms, scale)
        losses, found = spans(
            lambda: ours.train_batches(obs, actions, targets, batch_size)
        )
        assert losses == numpy_path(
            lambda: reference.train_batches(obs, actions, targets, batch_size)
        )
        assert state(ours) == state(reference)
        probe = np.concatenate([obs[:12], -obs[:4], np.zeros((1, n_obs))])
        assert [ours.best_action(o) for o in probe] == numpy_path(
            lambda: [reference.best_action(o) for o in probe]
        )
    eligible = min(n_obs, *hidden) >= 2 and n_actions >= 2 and batch_size >= 2
    assert [span["engine"] for span in found] == [
        "cext" if COMPILED and eligible else "python"
    ]
    assert found[0]["steps"] == steps
    t = steps * (1 if reset else 2)
    assert ours.optimizer._t == reference.optimizer._t == t


def _agent(**changes):
    return SibylAgent(hyperparams=SIBYL_DEFAULT.replace(**changes), seed=4)


def _lane(agent, backend, n=1500):
    """One kernel lane: its result and stats, and the args of its
    ``kernel.invoke`` and ``rl.c51_train`` spans."""
    stats = {}
    trace = make_trace("rsrch_0", n_requests=n, seed=3)
    (result,), invoked, trained = spans(
        lambda: run_lanes([LaneSpec(policy=agent, trace=trace, config="H&M")],
                          stats=stats, backend=backend),
        "kernel.invoke", "rl.c51_train",
    )
    return result, stats, invoked, trained


@requires_compiled
def test_kernel_forward_is_best_action():
    """Every memo entry of an untrained C51 lane came from ``sib_run``'s
    own forward, none crossed into Python, and each equals NumPy's
    ``best_action`` on the same observation."""
    agent = _agent(train_interval=10**9)
    _, stats, found, _ = _lane(agent, "cext")
    assert stats["kernel_barriers"] == 0
    assert found[0]["forwards"] == stats["fused_forwards"] > 0
    assert len(agent._action_cache) == stats["fused_forwards"]
    net = agent.inference_net
    assert numpy_path(lambda: {
        key: net.best_action(agent._cache_obs[key])
        for key in agent._action_cache
    }) == agent._action_cache


@requires_compiled
def test_trained_lane_crosses_only_at_training_gates():
    agent = _agent()
    result, stats, found, trained = _lane(agent, "cext")
    assert stats["kernel_barriers"] == stats["train_events"] > 0
    assert found[0]["forwards"] == stats["fused_forwards"] > 0
    assert [s["engine"] for s in trained] == ["cext"] * stats["train_events"]
    assert {s["steps"] for s in trained} == {SIBYL_DEFAULT.batches_per_training}
    reference = _agent()
    serial = numpy_path(lambda: run_policy(
        reference, make_trace("rsrch_0", n_requests=1500, seed=3),
        config="H&M",
    ))
    assert result == serial
    assert agent.losses == reference.losses
    for a, b in ((agent.training_net, reference.training_net),
                 (agent.inference_net, reference.inference_net)):
        assert state(a) == state(b)


def _lanes_equal_numpy(**changes):
    """A kernel lane under ``auto`` lands where serial NumPy does; the agent,
    its stats and its ``rl.c51_train`` spans."""
    agent = _agent(**changes)
    result, stats, _, trained = _lane(agent, "auto")
    reference = _agent(**changes)
    assert result == numpy_path(lambda: run_policy(
        reference, make_trace("rsrch_0", n_requests=1500, seed=3),
        config="H&M",
    ))
    assert agent.losses == reference.losses
    assert state(agent.training_net) == state(reference.training_net)
    return agent, stats, trained


@pytest.mark.parametrize("changes, reason", [
    ({"optimizer": "sgd"}, "optimizer SGD is not Adam"),
    ({"activation": "relu"}, "hidden activation ('relu',) is not swish, beta 1"),
])
def test_refused_networks_keep_numpy(changes, reason):
    agent, stats, trained = _lanes_equal_numpy(**changes)
    assert {(s["engine"], s.get("reason")) for s in trained} == {
        ("python", reason)
    }
    if "activation" in changes and library.available():  # no forward either
        assert stats["kernel_barriers"] == (
            stats["fused_forwards"] + stats["train_events"]
        )
        assert agent.inference_net._compiled()[1] == reason


@requires_kernel
def test_dqn_head_forwards_in_python():
    agent = SibylAgent(head="dqn", seed=4)
    _, stats, _, trained = _lane(agent, "cext")
    assert trained == []
    assert stats["kernel_barriers"] == (
        stats["fused_forwards"] + stats["train_events"]
    )


def test_backend_off_keeps_numpy(monkeypatch):
    monkeypatch.setenv("SIBYL_BACKEND", "off")
    config = C51Config(optimizer="adam")
    ours, reference = pair(config, 2)
    obs, actions, targets = batch(np.random.default_rng(0), 256, 6, 2, 51, None)
    _, found = spans(lambda: ours.train_batches(obs, actions, targets, 128))
    assert found == [{"engine": "python", "reason": "SIBYL_BACKEND=off",
                      "steps": 2}]
    assert ours._compiled() == (None, "SIBYL_BACKEND=off")
    reference._train_steps(obs, actions, targets.reshape(2, 128, 51), 128)
    reference.train_steps += 2
    assert state(ours) == state(reference)


@pytest.fixture
def fresh_primitives(monkeypatch):
    """``auto``, with the rows resolved afresh: the patched cases take
    NumPy (under ``cext`` they raise)."""
    monkeypatch.setenv("SIBYL_BACKEND", "auto")
    library._resolve.cache_clear()
    yield monkeypatch
    library._resolve.cache_clear()


def _no_dgemm(monkeypatch):
    monkeypatch.setattr(blas, "OPENBLAS_EXPORTS", tuple(
        e._replace(dgemm="no_such_dgemm") for e in blas.OPENBLAS_EXPORTS
    ))


def _bad_log(monkeypatch):
    # A valid float64 loop computing something else: only the
    # handshake can tell.
    monkeypatch.setattr(library, "C51_UFUNCS", ("tanh", "exp", "log1p"))


@requires_compiled
@pytest.mark.parametrize("plant, why, forward", [
    # no row: neither training nor the forward is compiled
    (_no_dgemm, "NumPy's OpenBLAS does not export no_such_dgemm", False),
    # log is vetted for training only: the forward's handshake passes
    (_bad_log, "a primitive differs from NumPy's call at shape "
               "6-20-30-102 as 2x51, batch 128", True),
])
def test_unresolved_row_falls_back_under_auto_and_raises_under_cext(
    plant, why, forward, fresh_primitives
):
    plant(fresh_primitives)
    net = C51Network(C51Config(optimizer="adam"), rng=np.random.default_rng(0))
    assert net._compiled(128) == (None, why)
    assert (net._compiled()[0] is not None) == forward
    _, stats, trained = _lanes_equal_numpy()
    assert {s.get("reason") for s in trained} == {why}
    assert library.available()
    assert stats["kernel_barriers"] == stats["train_events"] + (
        0 if forward else stats["fused_forwards"]
    )
    assert stats["fused_forwards"] > 0
    fresh_primitives.setenv("SIBYL_BACKEND", "cext")
    with pytest.raises(RuntimeError, match="compiled c51 entry point is "
                       f"unavailable: {why}"):
        net._compiled(128)


def test_shapes_the_library_refuses(monkeypatch):
    """A refusal never raises, whatever the backend."""
    for backend in ("auto", "cext", "off"):
        monkeypatch.setenv("SIBYL_BACKEND", backend)
        for config, rows in (
            (C51Config(n_observations=1, optimizer="adam"), 128),
            (C51Config(hidden_sizes=(20, 1), optimizer="adam"), 128),
            (C51Config(n_actions=1, optimizer="adam"), 128),
            (C51Config(optimizer="adam"), 1),
        ):
            net = C51Network(config, rng=np.random.default_rng(0))
            compiled, why = net._compiled(rows)
            assert compiled is None and why, (backend, config, rows)


# ------------------------------------------------ the batched passes
def _passes(ours, target, rewards, next_obs, dones, greedy_obs):
    """The target pass and the greedy pass, and their spans."""
    (targets, actions), found = spans(
        lambda: (ours.precompute_targets(rewards, next_obs, dones=dones,
                                         target=target),
                 target.best_actions(greedy_obs)),
        "rl.c51_targets",
    )
    return targets, actions, found


@settings(max_examples=80, deadline=None)
@given(
    n_obs=st.integers(1, 7),
    hidden=st.lists(st.integers(1, 40), min_size=1, max_size=3),
    n_actions=st.integers(1, 3),
    n_atoms=st.sampled_from([2, 5, 7, 8, 9, 51, 128, 129, 200]),
    rows=st.one_of(st.integers(1, 40), st.integers(41, 1100)),
    v_min=st.sampled_from([0.0, -0.0, -2.0, -12.5]),
    span=st.floats(0.5, 30.0),
    discount=st.sampled_from([0.0, 0.5, 0.9, 1.0]),
    levels=st.lists(
        st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]),
                  st.floats(-40.0, 40.0)),
        min_size=1, max_size=6,
    ),
    terminal=st.sampled_from([None, 0.0, 0.1, 1.0]),
    scale=st.one_of(st.none(), st.floats(0.1, 6.0)),
    seed=st.integers(0, 2**32 - 1),
)
def test_compiled_passes_equal_numpy(
    n_obs, hidden, n_actions, n_atoms, rows, v_min, span, discount, levels,
    terminal, scale, seed,
):
    """``precompute_targets`` and ``best_actions``: the projection over
    repeated rewards (signed zeros among them), supports through zero
    and terminal rows; the forward and the head at row counts either
    side of the refusal and atom counts across the pairwise sum's
    thresholds."""
    config = C51Config(
        n_observations=n_obs, n_actions=n_actions, hidden_sizes=tuple(hidden),
        n_atoms=n_atoms, v_min=v_min, v_max=v_min + span, discount=discount,
    )
    data = np.random.default_rng(seed)
    ours, target = pair(config, seed)
    target.network.flat_parameters[...] += data.normal(
        0.0, 0.3, target.network.flat_parameters.shape
    )
    next_obs, _, _ = batch(data, rows, n_obs, n_actions, n_atoms, scale)
    greedy_obs = np.concatenate([next_obs[::-1], -next_obs[:3]])
    rewards = data.choice(np.array(levels), rows)
    dones = None if terminal is None else data.random(rows) < terminal
    got = _passes(ours, target, rewards, next_obs, dones, greedy_obs)
    want = numpy_path(
        lambda: _passes(ours, target, rewards, next_obs, dones, greedy_obs)
    )
    assert got[0].tobytes() == want[0].tobytes()
    assert got[1].dtype == want[1].dtype
    assert got[1].tobytes() == want[1].tobytes()
    eligible = min(n_obs, *hidden) >= 2 and n_actions >= 2 and rows >= 2
    assert [s["engine"] for s in got[2]] == [
        "cext" if COMPILED and eligible else "python"
    ]
    assert [s["rows"] for s in got[2]] == [rows]


def test_passes_fall_back_under_off_and_for_one_row(monkeypatch):
    """``off``, and a one-row block under any backend (NumPy's matmul
    leaves gemm there): NumPy runs, the span says why, and a refusal
    never raises."""
    net = C51Network(C51Config(), rng=np.random.default_rng(0))
    data = np.random.default_rng(1)
    obs, rewards = data.random((40, 6)), data.choice([0.0, 2.5, 7.0], 40)
    want = numpy_path(lambda: net.precompute_targets(rewards, obs))
    one_row = numpy_path(lambda: (net.precompute_targets(rewards[:1], obs[:1]),
                                  net.best_actions(obs[:1])))
    monkeypatch.setenv("SIBYL_BACKEND", "off")
    got, found = spans(lambda: net.precompute_targets(rewards, obs),
                       "rl.c51_targets")
    assert got.tobytes() == want.tobytes()
    assert found == [{"engine": "python", "reason": "SIBYL_BACKEND=off",
                      "rows": 40}]
    for backend in ("auto", "cext", "off"):
        monkeypatch.setenv("SIBYL_BACKEND", backend)
        got, found = spans(
            lambda: (net.precompute_targets(rewards[:1], obs[:1]),
                     net.best_actions(obs[:1])),
            "rl.c51_targets",
        )
        if backend != "off":
            assert found == [{"engine": "python", "rows": 1,
                              "reason": "a batch of fewer than two rows"}]
        assert got[0].tobytes() == one_row[0].tobytes()
        assert got[1].tolist() == one_row[1].tolist()


@requires_compiled
@pytest.mark.parametrize("layout", ["fortran", "wide"])
def test_passes_take_numpy_for_what_they_cannot_read(layout):
    """A batch the compiled passes would read differently from NumPy's
    matmul goes to NumPy, which gives its own answer or raises its own
    error."""
    net = C51Network(C51Config(), rng=np.random.default_rng(0))
    obs = np.random.default_rng(1).random((30, 6 if layout == "fortran" else 7))
    if layout == "fortran":
        obs = np.asfortranarray(obs)
        got, found = spans(
            lambda: net.precompute_targets(np.ones(30), obs), "rl.c51_targets"
        )
        assert got.tobytes() == numpy_path(
            lambda: net.precompute_targets(np.ones(30), obs)
        ).tobytes()
        assert found[0]["reason"] == "observations not a C-ordered float64 batch"
        assert net.best_actions(obs).tolist() == numpy_path(
            lambda: net.best_actions(obs)
        ).tolist()
    else:
        with pytest.raises(ValueError):
            net.best_actions(obs)


def _raised(run):
    """The message of the ``ValueError`` ``run()`` raises (NumPy warns
    of the NaN it casts on the way)."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(ValueError) as info:
            run()
    return str(info.value)


@requires_compiled
def test_a_nan_reward_raises_as_numpy_does():
    net = C51Network(C51Config(), rng=np.random.default_rng(0))
    obs, rewards = np.random.default_rng(1).random((8, 6)), np.ones(8)
    rewards[3] = np.nan
    assert net._target_refusal(net, rewards, None, 8) == "a NaN reward"
    ours = _raised(lambda: net.precompute_targets(rewards, obs))
    assert ours == numpy_path(
        lambda: _raised(lambda: net.precompute_targets(rewards, obs))
    )


def _failed_pass_handshake(monkeypatch):
    """Fail the keys only the batched passes list: a layer's forward
    gemm at one of the pass's fixed row counts."""
    handshake = library._handshake_key

    def planted(routine, key):
        return not (
            key[:3] == ("gemm", False, False) and key[3] in library._PASS_ROWS
        ) and handshake(routine, key)

    monkeypatch.setattr(library, "_handshake_key", planted)


@requires_compiled
def test_failed_pass_handshake_falls_back_under_auto_and_raises_under_cext(
    fresh_primitives,
):
    _failed_pass_handshake(fresh_primitives)
    why = ("a primitive differs from NumPy's call at shape 6-20-30-102 as "
           "2x51, batched")
    net = C51Network(C51Config(optimizer="adam"), rng=np.random.default_rng(0))
    assert net._compiled(rows=64) == (None, why)
    assert net._compiled(128)[0] is not None and net._compiled()[0] is not None
    agent, stats, trained = _lanes_equal_numpy()
    assert [s["engine"] for s in trained] == ["cext"] * stats["train_events"]
    fresh_primitives.setenv("SIBYL_BACKEND", "cext")
    with pytest.raises(RuntimeError, match="compiled c51 entry point is "
                       f"unavailable: {why}"):
        net.best_actions(np.zeros((64, 6)))


@requires_compiled
def test_one_target_pass_per_training_event_in_a_lane():
    """A kernel lane's gates run the target pass and the memo refresh in
    the compiled library too: one ``rl.c51_targets`` span per
    ``rl.c51_train`` span, each ``cext``."""
    agent = _agent()
    trace = make_trace("rsrch_0", n_requests=1500, seed=3)
    _, trained, targets = spans(
        lambda: run_lanes([LaneSpec(policy=agent, trace=trace, config="H&M")],
                          backend="cext"),
        "rl.c51_train", "rl.c51_targets",
    )
    assert len(targets) == len(trained) == agent.train_events > 0
    assert {s["engine"] for s in targets} == {"cext"}


# --------------------------------------------- train_batches' inputs
@pytest.mark.parametrize("backend", ["auto", "off"])
def test_train_batches_takes_any_int_actions_and_target_layout(
    backend, monkeypatch
):
    """Actions of another integer type and Fortran-ordered targets give
    the bytes C-ordered int64 ones do: the compiled path converts them
    and keeps the copies alive through the call."""
    monkeypatch.setenv("SIBYL_BACKEND", backend)
    ours, reference = pair(C51Config(optimizer="adam"), 6)
    obs, actions, targets = batch(np.random.default_rng(2), 256, 6, 2, 51, None)
    losses = ours.train_batches(
        obs, actions.astype(np.int32), np.asfortranarray(targets), 128
    )
    assert losses == numpy_path(
        lambda: reference.train_batches(obs, actions, targets, 128)
    )
    assert state(ours) == state(reference)


@pytest.mark.parametrize("backend", ["auto", "off"])
@pytest.mark.parametrize("rows, batch_size", [(100, 128), (300, 128), (8, 0)])
def test_train_batches_refuses_a_partial_batch(
    backend, rows, batch_size, monkeypatch
):
    monkeypatch.setenv("SIBYL_BACKEND", backend)
    net = C51Network(C51Config(optimizer="adam"), rng=np.random.default_rng(0))
    before = state(net)
    obs, actions, targets = batch(np.random.default_rng(1), rows, 6, 2, 51, None)
    with pytest.raises(ValueError, match=f"^{rows} rows are not a whole "
                       f"number of batches of {batch_size}$"):
        net.train_batches(obs, actions, targets, batch_size)
    assert state(net) == before and net.train_steps == 0


@pytest.mark.parametrize("backend", [
    "auto", "off", pytest.param("cext", marks=requires_compiled),
])
@pytest.mark.parametrize("bad", [-1, 2])
def test_train_batches_refuses_an_action_out_of_range(
    backend, bad, monkeypatch
):
    """Both engines raise before any update: NumPy's gather would clip
    -1 onto another row's slot and train on, the kernel would abort."""
    monkeypatch.setenv("SIBYL_BACKEND", backend)
    net = C51Network(C51Config(optimizer="adam"), rng=np.random.default_rng(0))
    obs, actions, targets = batch(np.random.default_rng(1), 256, 6, 2, 51, None)
    net.train_batches(obs, actions, targets, 128)  # the moments exist
    before = state(net)
    actions[200] = bad
    with pytest.raises(ValueError, match="^action index out of range$"):
        net.train_batches(obs, actions, targets, 128)
    assert state(net) == before and net.train_steps == 2
