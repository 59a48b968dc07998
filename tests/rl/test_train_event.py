"""The learners' flat-pack + workspace shape changes no float.

Sibyl's training event (``train_begin`` + ``train_commit``: one draw,
one target pass through a reused workspace, the batches through one
``train_batches`` call) must leave the agent where a plain loop over
the public per-batch API leaves it — byte for byte, signed zeros
included — and ``ElmanRNN``'s buffered BPTT must equal the five-array
textbook loop it replaced.  The memory half of the contract is here
too: a steady-state event maps nothing fresh but the projected targets
it returns, scratch does not scale with the agents a process builds, and
a layer keeps training buffers for its latest batch size only.
"""

import gc
import hashlib
import tracemalloc

import numpy as np
import pytest

from repro.core.agent import SibylAgent
from repro.core.hyperparams import SIBYL_DEFAULT
from repro.hss.devices import make_devices
from repro.hss.system import HybridStorageSystem
from repro.rl.c51 import project_distribution
from repro.rl.network import mlp, workspace
from repro.rl.optim import SGD, get_optimizer
from repro.rl.rnn import ElmanRNN
from repro.traces.workloads import make_trace

_NEVER = 10 ** 9  # a train_interval that keeps feedback() from training


# --------------------------------------------------------------- the event
def _filled_agent(head, hyperparams, requests, optimizer=None, seed=5):
    """An attached agent that has placed ``requests`` requests (the
    first 20 at random) and never trained: replay buffer and action
    memo populated, initial weights."""
    agent = SibylAgent(
        hyperparams=hyperparams.replace(
            train_interval=_NEVER, initial_random_requests=20
        ),
        head=head, seed=seed,
    )
    hss = HybridStorageSystem(make_devices("H&M"), [64, None])
    agent.attach(hss)
    if optimizer is not None:
        agent.training_net.optimizer = optimizer()
    for request in make_trace("rsrch_0", n_requests=requests, seed=7):
        action = agent.place(request)
        agent.feedback(request, action, hss.serve(request, action))
    return agent


def _reference_event(agent):
    """One training event, the long way round: a draw per batch, the
    Bellman targets of the unique slots from public inference calls
    (and ``project_distribution``), one public ``train_batch`` per
    batch, a batched memo re-evaluation."""
    hp = agent.hyperparams
    buf, train, infer = agent.buffer, agent.training_net, agent.inference_net
    slot_batches = [
        buf.sample_slots(hp.batch_size, rng=agent.rng)
        for _ in range(hp.batches_per_training)
    ]
    unique, inverse = np.unique(
        np.concatenate(slot_batches), return_inverse=True
    )
    rewards, next_obs = buf.gather_targets(unique)
    if agent.head == "c51":
        pmfs = infer.distributions(next_obs)
        best = np.argmax(pmfs @ infer.support, axis=1)
        targets = project_distribution(
            pmfs[np.arange(len(best)), best], rewards,
            np.zeros(len(rewards), dtype=bool), train.support,
            train.config.discount,
        )
    else:
        targets = rewards + train.config.discount * infer.q_values(
            next_obs
        ).max(axis=1)
    targets = targets[inverse]
    n = hp.batch_size
    for i, slots in enumerate(slot_batches):
        obs, actions, batch_rewards, batch_next = buf.gather(slots)
        agent.losses.append(train.train_batch(
            obs, actions, batch_rewards, batch_next,
            targets=targets[i * n:(i + 1) * n],
        ))
    infer.copy_weights_from(train)
    if len(agent._action_cache) > agent._ACTION_CACHE_LIMIT:
        agent._action_cache.clear()
        agent._cache_obs.clear()
    elif agent._action_cache:
        keys = list(agent._cache_obs)
        actions = infer.best_actions(
            np.stack([agent._cache_obs[k] for k in keys])
        )
        agent._action_cache = {k: int(a) for k, a in zip(keys, actions)}
    agent.train_events += 1


def _state_bytes(agent):
    """Everything an event may write, as bytes (``tobytes``: -0.0 != 0.0)."""
    optimizer = agent.training_net.optimizer
    moments = [
        array.tobytes()
        for name in ("_m", "_v", "_velocity")
        for array in getattr(optimizer, name, [])
    ]
    return {
        "training": agent.training_net.network.flat_parameters.tobytes(),
        "inference": agent.inference_net.network.flat_parameters.tobytes(),
        "moments": moments,
        "t": getattr(optimizer, "_t", None),
        "losses": np.array(agent.losses).tobytes(),
        "rng": agent.rng.bit_generator.state,
        "memo": list(agent._action_cache.items()),
        "train_events": agent.train_events,
    }


_SMALL = SIBYL_DEFAULT.replace(batch_size=16, batches_per_training=3)

_CASES = {
    # name: (hyperparams, requests placed, optimizer factory or None)
    "paper-shape-adam": (SIBYL_DEFAULT, 700, None),
    "sgd": (_SMALL.replace(optimizer="sgd"), 300, None),
    "momentum": (_SMALL, 300, lambda: SGD(1e-2, momentum=0.9)),
    "adam": (_SMALL, 300, lambda: get_optimizer("adam", 1e-2)),
    "below-one-batch": (SIBYL_DEFAULT.replace(batches_per_training=2), 40, None),
    "capacity-10": (_SMALL.replace(buffer_capacity=10), 300, None),
}


@pytest.mark.parametrize("head", ["c51", "dqn"])
@pytest.mark.parametrize("case", sorted(_CASES))
def test_event_equals_the_per_batch_loop(head, case):
    hyperparams, requests, optimizer = _CASES[case]
    ours = _filled_agent(head, hyperparams, requests, optimizer)
    reference = _filled_agent(head, hyperparams, requests, optimizer)
    assert ours._action_cache and len(ours.buffer) > 1
    if case == "below-one-batch":
        assert len(ours.buffer) < hyperparams.batch_size
    if case == "capacity-10":
        assert len(ours.buffer) == 10
    for _ in range(3):
        ours.train_begin()
        ours.train_commit()
        _reference_event(reference)
        assert _state_bytes(ours) == _state_bytes(reference)
    assert len(ours.losses) == 3 * hyperparams.batches_per_training
    assert ours.training_net.train_steps == reference.training_net.train_steps


@pytest.mark.parametrize("head", ["c51", "dqn"])
def test_memo_above_the_limit_is_dropped_not_refreshed(head, monkeypatch):
    monkeypatch.setattr(SibylAgent, "_ACTION_CACHE_LIMIT", 4)
    ours = _filled_agent(head, _SMALL, 300)
    reference = _filled_agent(head, _SMALL, 300)
    assert len(ours._action_cache) > 4
    ours.train_begin()
    ours.train_commit()
    _reference_event(reference)
    assert ours._action_cache == {} and ours._cache_obs == {}
    assert _state_bytes(ours) == _state_bytes(reference)


def test_train_batch_is_the_one_step_call():
    """``train_batch`` with precomputed targets and ``train_batches``
    over the same rows are one code path: same bytes, same loss."""
    a = _filled_agent("c51", _SMALL, 300)
    b = _filled_agent("c51", _SMALL, 300)
    slots = a.buffer.sample_slots(32, rng=np.random.default_rng(0))
    obs, actions, rewards, next_obs = a.buffer.gather(slots)
    targets = a.training_net.precompute_targets(
        rewards, next_obs, target=a.inference_net
    )
    stepwise = [
        a.training_net.train_batch(
            obs[rows], actions[rows], rewards[rows], next_obs[rows],
            targets=targets[rows],
        )
        for rows in (slice(0, 16), slice(16, 32))
    ]
    assert stepwise == b.training_net.train_batches(obs, actions, targets, 16)
    assert (
        a.training_net.network.flat_parameters.tobytes()
        == b.training_net.network.flat_parameters.tobytes()
    )


# ---------------------------------------------------------------- ElmanRNN
class _TextbookRNN:
    """The allocation-per-expression BPTT ``ElmanRNN`` replaced: five
    separate arrays, ``np.outer`` accumulated into zeros, a clip and an
    optimizer slot per array.  Kept here as the reference."""

    def __init__(self, n_inputs, n_hidden, n_outputs, rng):
        scale_x = np.sqrt(1.0 / n_inputs)
        scale_h = np.sqrt(1.0 / n_hidden)
        self.w_xh = rng.uniform(-scale_x, scale_x, size=(n_inputs, n_hidden))
        self.w_hh = rng.uniform(-scale_h, scale_h, size=(n_hidden, n_hidden))
        self.b_h = np.zeros(n_hidden)
        self.w_hy = rng.uniform(-scale_h, scale_h, size=(n_hidden, n_outputs))
        self.b_y = np.zeros(n_outputs)
        self.optimizer = get_optimizer("adam", 1e-2)

    def forward(self, sequence):
        h = np.zeros(len(self.b_h))
        hiddens = [h]
        for x in sequence:
            h = np.tanh(x @ self.w_xh + h @ self.w_hh + self.b_h)
            hiddens.append(h)
        logits = h @ self.w_hy + self.b_y
        logits = logits - logits.max()
        exp = np.exp(logits)
        return exp / exp.sum(), hiddens

    def train_sequence(self, sequence, label, bptt_steps=16):
        probs, hiddens = self.forward(sequence)
        loss = -np.log(max(probs[label], 1e-12))
        dlogits = probs.copy()
        dlogits[label] -= 1.0
        g_w_hy = np.outer(hiddens[-1], dlogits)
        g_b_y = dlogits.copy()
        g_w_xh = np.zeros_like(self.w_xh)
        g_w_hh = np.zeros_like(self.w_hh)
        g_b_h = np.zeros_like(self.b_h)
        dh = dlogits @ self.w_hy.T
        steps = min(bptt_steps, sequence.shape[0])
        for t in range(sequence.shape[0] - 1, sequence.shape[0] - 1 - steps, -1):
            h_t, h_prev = hiddens[t + 1], hiddens[t]
            dz = dh * (1.0 - h_t * h_t)
            g_w_xh += np.outer(sequence[t], dz)
            g_w_hh += np.outer(h_prev, dz)
            g_b_h += dz
            dh = dz @ self.w_hh.T
        params = [self.w_xh, self.w_hh, self.b_h, self.w_hy, self.b_y]
        grads = [g_w_xh, g_w_hh, g_b_h, g_w_hy, g_b_y]
        self.optimizer.step(params, [np.clip(g, -5.0, 5.0) for g in grads])
        return float(loss)


def _digest(*arrays):
    h = hashlib.sha256()
    for array in arrays:
        h.update(np.ascontiguousarray(array).tobytes())
    return h.hexdigest()[:16]


def _rnn_digests(make, hidden, steps, bptt, seed):
    """(weights, Adam moments, losses, final probabilities) after 600
    labelled sequences; every seventh has an all-zero feature column."""
    rnn = make(2, hidden, 2, rng=np.random.default_rng(seed))
    data = np.random.default_rng(seed + 100)
    losses = []
    for k in range(600):
        seq = np.log1p(data.integers(0, 6, size=(steps, 2)).astype(np.float64))
        if k % 7 == 0:
            seq[:, 1] = 0.0
        label = int(data.integers(0, 2))
        losses.append(rnn.train_sequence(seq, label, bptt_steps=bptt))
    optimizer = rnn.optimizer
    assert optimizer._t == 600
    return (
        _digest(rnn.w_xh, rnn.w_hh, rnn.b_h, rnn.w_hy, rnn.b_y),
        _digest(
            np.concatenate([m.ravel() for m in optimizer._m]),
            np.concatenate([v.ravel() for v in optimizer._v]),
        ),
        _digest(np.array(losses)),
        _digest(rnn.forward(seq)[0]),
    )


#: (hidden, sequence length, bptt_steps, seed) -> digests computed at the
#: parent commit (five-array ``ElmanRNN``) on the reference box.
_RNN_PINS = {
    (16, 8, 16, 0): (
        "7b808ebca04ff09a", "bc173347209ff98c",
        "7ac256d63c204f54", "b9ced2aee8d316e8",
    ),
    (16, 24, 16, 1): (
        "68b0a332ade663e6", "becf9b48806befeb",
        "e5b2179f21cf2578", "f9c0d2e4c23ceb87",
    ),
    (2, 8, 16, 2): (
        "ac97de972378662f", "c4514c502c6e3390",
        "621b355ead45168f", "56fd2afdb64a7fa6",
    ),
    (2, 5, 3, 3): (
        "3b7f62b5ec44d582", "5fa94a140321ea81",
        "0b461a3aa23b8d88", "de63cf961f768868",
    ),
}


@pytest.mark.parametrize("case", sorted(_RNN_PINS))
def test_elman_rnn_bytes_after_600_sequences(case):
    """T below and above ``bptt_steps``, 16 hidden units and 2."""
    ours = _rnn_digests(ElmanRNN, *case)
    textbook = _rnn_digests(_TextbookRNN, *case)
    assert ours == textbook
    if textbook != _RNN_PINS[case]:
        pytest.skip(
            "this platform's BLAS/libm rounds the textbook loop differently "
            "from the box the parent-commit bytes were pinned on"
        )
    assert ours == _RNN_PINS[case]


def test_elman_rnn_forward_returns_copies():
    rnn = ElmanRNN(2, 4, 2, rng=np.random.default_rng(0))
    first, hiddens = rnn.forward(np.ones((3, 2)))
    kept = first.copy(), hiddens.copy()
    rnn.forward(np.zeros((5, 2)))
    assert np.array_equal(first, kept[0]) and np.array_equal(hiddens, kept[1])


# ------------------------------------------------------------------ memory
def test_steady_state_event_maps_only_the_projection_result():
    """Blocks of 128 KiB and more come from ``mmap``.  A steady-state
    event may ask for one — the projected targets ``project_distribution``
    returns; ``np.bincount`` takes no ``out=``, so the projection goes
    block by block with each result under the threshold — and everything
    else that size lives in the thread's workspace."""
    agent = _filled_agent("c51", SIBYL_DEFAULT, 1500)
    for _ in range(3):  # workspace and layer buffers reach their sizes
        agent.train_begin()
        agent.train_commit()
    threshold = 128 * 1024
    _, unique_slots, _ = agent.train_begin()
    result = len(unique_slots) * agent.training_net.config.n_atoms * 8
    assert result >= threshold  # or the event is too small to tell
    scratch_before = workspace().nbytes
    gc.collect()
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        agent.train_commit()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # Live at the high-water mark: that result, a block's two bincount
    # results (each under the threshold), and small blocks that
    # together stay under one more.
    assert peak - base < result + 3 * threshold
    assert workspace().nbytes == scratch_before


def test_scratch_does_not_grow_with_agents_built():
    first = _filled_agent("c51", SIBYL_DEFAULT, 700, seed=0)
    first.train_begin()
    first.train_commit()
    after_one = workspace().nbytes
    agents = [first]
    for seed in range(1, 6):
        agent = _filled_agent("c51", SIBYL_DEFAULT, 700, seed=seed)
        agent.train_begin()
        agent.train_commit()
        agents.append(agent)
    # Geometric growth to a slightly larger event at most doubles a
    # buffer; six agents' worth would be six times.
    assert workspace().nbytes <= 2 * after_one
    # What an agent itself keeps for training is per-layer, batch-sized.
    for agent in agents:
        for layer in agent.training_net.network.layers:
            held = layer._z.nbytes + layer._act_scratch.nbytes + layer._grad_in.nbytes
            assert held < 512 * 1024


def test_dense_keeps_training_buffers_for_the_latest_batch_only():
    """Archivist trains with ``n = len(pages)``, a new batch size every
    epoch; a buffer set retained per size is a leak."""
    net = mlp([4, 16, 16, 2], hidden_activation="relu",
              rng=np.random.default_rng(0))
    sizes = [700 + 13 * epoch for epoch in range(50)]

    def epoch(n):
        out = net.forward(np.ones((n, 4)), train=True)
        net.backward(out / n)

    epoch(sizes[0])
    gc.collect()
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        for n in sizes:
            epoch(n)
        gc.collect()
        grown, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    one_set = sum(
        sizes[-1] * (2 * layer.out_features + layer.in_features) * 8
        for layer in net.layers
    )
    assert grown - base < 2 * one_set  # 50 retained sets would be ~50x
    assert len(net.layers[0]._z) == sizes[-1]
