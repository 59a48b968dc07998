"""RNN-HSS's network in the compiled library equals the Python loop, byte for byte.

``ElmanRNN.train_sequences`` and ``predict`` run ``sib_rnn_train`` /
``sib_rnn_predict`` when the library can take the network: NumPy's own
``cblas_dgemv`` for every product and NumPy's own float64 ``tanh`` and
``exp`` loops, on the network's own arrays.  The property here searches
shapes, sequence lengths, truncations, batch sizes and Adam settings
for a difference from the ``train_sequence`` loop in anything the
network or its optimizer holds, scratch buffers included.  A 1-wide
layer is in the search on purpose: the library refuses it, so those
examples hold the fallback to the same bytes.  The fallbacks —
``SIBYL_BACKEND=off``, another optimizer, and under ``auto`` a missing
BLAS export, a ufunc that fails its name or signature check, a
handshake mismatch — must each give the same bytes through Python.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_train_event import _RNN_PINS, _digest

from repro.baselines.rnn_hss import RNNHSSPolicy
from repro.native import blas, library
from repro.obs.tracer import SpanTracer, set_tracer
from repro.rl.optim import Adam
from repro.rl.rnn import ElmanRNN
from repro.traces.workloads import make_trace

COMPILED = ElmanRNN(2, 16, 2)._compiled()[0] is not None

requires_compiled = pytest.mark.skipif(
    not COMPILED,
    reason=f"compiled RNN unavailable: {library.unavailable_reason()}",
)


def state(rnn: ElmanRNN) -> str:
    """Everything the network and its optimizer hold."""
    opt = rnn.optimizer
    h = hashlib.sha256()
    for array in (
        rnn.flat_parameters, rnn.flat_gradients, *opt._m, *opt._v,
        rnn._hidden, rnn._dtanh, rnn._dz, rnn._outer_xh, rnn._outer_hh,
        rnn._probs, rnn._recur, rnn._dh,
    ):
        h.update(array.tobytes())
    h.update(repr((opt._t, len(opt._m), len(opt._v))).encode())
    return h.hexdigest()


def pair(n_inputs, n_hidden, n_outputs, seed, **adam):
    """Two identical networks; ``adam`` replaces the optimizer in both."""
    nets = []
    for _ in range(2):
        rnn = ElmanRNN(n_inputs, n_hidden, n_outputs,
                       rng=np.random.default_rng(seed))
        if adam:
            rnn.optimizer = Adam(**adam)
        nets.append(rnn)
    return nets


def python_loop(rnn, sequences, labels, bptt):
    for sequence, label in zip(sequences, labels):
        rnn.train_sequence(sequence, int(label), bptt_steps=bptt)


def engines(run):
    """``run()``'s ``rl.rnn_train`` spans as ``(engine, sequences)``."""
    tracer = SpanTracer(capacity=256)
    previous = set_tracer(tracer)
    try:
        run()
    finally:
        set_tracer(previous)
    return [
        (e["args"]["engine"], e["args"]["sequences"])
        for e in tracer.events() if e["name"] == "rl.rnn_train"
    ]


def batch(data, n, steps, n_inputs, n_outputs, scale):
    """Log-compressed counts, as RNN-HSS feeds it, or signed floats."""
    if scale is None:
        counts = data.integers(0, 40, size=(n, steps, n_inputs))
        sequences = np.log1p(counts.astype(np.float64))
    else:
        sequences = data.uniform(-scale, scale, size=(n, steps, n_inputs))
    return sequences, data.integers(0, n_outputs, size=n)


@settings(max_examples=100, deadline=None)
@given(
    n_inputs=st.integers(1, 4),
    n_hidden=st.integers(1, 24),
    n_outputs=st.integers(2, 3),
    steps=st.integers(1, 24),
    extra_bptt=st.integers(0, 26),
    n=st.integers(1, 300),
    lr=st.floats(1e-4, 0.3),
    beta1=st.floats(0.0, 0.99),
    beta2=st.floats(0.0, 0.9999),
    scale=st.one_of(st.none(), st.floats(0.1, 4.0)),
    reset=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_compiled_equals_the_python_loop(
    n_inputs, n_hidden, n_outputs, steps, extra_bptt, n, lr, beta1, beta2,
    scale, reset, seed,
):
    bptt = extra_bptt % (steps + 3)  # 0 .. T + 2
    ours, reference = pair(n_inputs, n_hidden, n_outputs, seed,
                           learning_rate=lr, beta1=beta1, beta2=beta2)
    data = np.random.default_rng(seed + 1)
    # Two rounds, the second longer: the step buffers regrow between
    # them, and a reset optimizer starts new moments.
    for rnd, length in enumerate((steps, steps + 5)):
        if rnd and reset:
            ours.optimizer.reset()
            reference.optimizer.reset()
        sequences, labels = batch(data, n if rnd == 0 else 7, length,
                                  n_inputs, n_outputs, scale)
        spans = engines(lambda: ours.train_sequences(sequences, labels, bptt))
        python_loop(reference, sequences, labels, bptt)
        assert state(ours) == state(reference)
        probe = [s[:k] for s in sequences[:20] for k in (length, 1)]
        assert ([ours.predict(s) for s in probe]
                == [reference.predict(s) for s in probe])
        assert state(ours) == state(reference)
    expect = "cext" if COMPILED and min(n_inputs, n_hidden) >= 2 else "python"
    assert spans == [(expect, 7)]
    assert ours.optimizer._t == reference.optimizer._t == 7 + (0 if reset else n)


@pytest.mark.parametrize("case", sorted(_RNN_PINS))
def test_pinned_digests_through_train_sequences(case):
    """``test_train_event.py``'s pinned weights, Adam moments and final
    probabilities, trained as one batch."""
    hidden, steps, bptt, seed = case
    rnn = ElmanRNN(2, hidden, 2, rng=np.random.default_rng(seed))
    data = np.random.default_rng(seed + 100)
    sequences, labels = [], []
    for k in range(600):
        seq = np.log1p(data.integers(0, 6, size=(steps, 2)).astype(np.float64))
        if k % 7 == 0:
            seq[:, 1] = 0.0
        sequences.append(seq)
        labels.append(int(data.integers(0, 2)))
    spans = engines(lambda: rnn.train_sequences(sequences, labels, bptt))
    assert spans == [("cext" if COMPILED else "python", 600)]
    assert rnn.optimizer._t == 600
    reference = ElmanRNN(2, hidden, 2, rng=np.random.default_rng(seed))
    python_loop(reference, sequences, labels, bptt)
    assert state(rnn) == state(reference)
    digests = (
        _digest(rnn.w_xh, rnn.w_hh, rnn.b_h, rnn.w_hy, rnn.b_y),
        _digest(np.concatenate(rnn.optimizer._m),
                np.concatenate(rnn.optimizer._v)),
        _digest(rnn.forward(sequences[-1])[0]),
    )
    pins = _RNN_PINS[case]
    if digests != (pins[0], pins[1], pins[3]):
        pytest.skip("this platform's BLAS/libm rounds differently from the "
                    "box the parent-commit bytes were pinned on")


def _fallback_gives_the_same_bytes():
    """Train and classify one network each way; the patched process
    must take the Python loop and land on the compiled bytes."""
    library._resolve.cache_clear()
    ours, reference = pair(2, 16, 2, 5)
    data = np.random.default_rng(9)
    sequences, labels = batch(data, 120, 8, 2, 2, None)
    assert engines(
        lambda: ours.train_sequences(sequences, labels)
    ) == [("python", 120)]
    assert ours._compiled()[0] is None
    python_loop(reference, sequences, labels, 16)
    assert state(ours) == state(reference)
    assert [ours.predict(s) for s in sequences] == [
        reference.predict(s) for s in sequences
    ]


@pytest.fixture
def fresh_primitives(monkeypatch):
    """``auto``, with the rows resolved afresh: the patched cases take
    the Python loop (under ``cext`` they raise, tests/native)."""
    monkeypatch.setenv("SIBYL_BACKEND", "auto")
    library._resolve.cache_clear()
    yield
    library._resolve.cache_clear()


def test_backend_off_keeps_the_python_loop(monkeypatch):
    monkeypatch.setenv("SIBYL_BACKEND", "off")
    _fallback_gives_the_same_bytes()


def test_other_optimizer_keeps_the_python_loop():
    rnn = ElmanRNN(2, 16, 2, optimizer="sgd", rng=np.random.default_rng(0))
    sequences = np.log1p(np.arange(48, dtype=np.float64)).reshape(3, 8, 2)
    assert engines(
        lambda: rnn.train_sequences(sequences, [0, 1, 1])
    ) == [("python", 3)]


@requires_compiled
def test_missing_blas_symbol_falls_back(monkeypatch, fresh_primitives):
    monkeypatch.setattr(blas, "OPENBLAS_EXPORTS", tuple(
        e._replace(dgemv="no_such_dgemv") for e in blas.OPENBLAS_EXPORTS
    ))
    assert library.entry("rnn", 2, 16, 2)[0] is None
    _fallback_gives_the_same_bytes()


@requires_compiled
@pytest.mark.parametrize("swap", [
    "abs",  # np.abs is ``absolute``: the name check fails
    "invert",  # no float64 -> float64 loop: the signature check fails
    "expm1",  # a valid d->d loop computing something else: the handshake
])
def test_failed_ufunc_check_falls_back(swap, monkeypatch, fresh_primitives):
    monkeypatch.setattr(library, "RNN_UFUNCS", ("tanh", swap))
    loop = library._ufunc_loop(getattr(np, swap), swap)
    assert (loop is None) == (swap != "expm1")
    assert library.entry("rnn", 2, 16, 2)[0] is None
    _fallback_gives_the_same_bytes()


def test_shapes_the_library_refuses(monkeypatch):
    """A refusal never raises, whatever the backend."""
    for backend in ("auto", "cext", "off"):
        monkeypatch.setenv("SIBYL_BACKEND", backend)
        for shape in ((1, 16, 2), (2, 1, 2), (2, 16, 1), (2, 16, 8)):
            assert ElmanRNN(*shape)._compiled()[0] is None, (backend, shape)


@requires_compiled
def test_ufunc_loops_are_numpys_first_float64_entries():
    for name in library.RNN_UFUNCS:
        ufunc = getattr(np, name)
        loop, _ = library._ufunc_loop(ufunc, name)
        assert loop
        assert library._ufunc_loop(ufunc, "not" + name) is None


def test_bad_batches_raise_before_any_update():
    rnn = ElmanRNN(2, 4, 2, rng=np.random.default_rng(0))
    before = state(rnn)
    with pytest.raises(ValueError, match="label 2 out of range"):
        rnn.train_sequences(np.zeros((2, 3, 2)), [0, 2])
    with pytest.raises(ValueError, match="input features"):
        rnn.train_sequences(np.zeros((2, 3, 3)), [0, 1])
    with pytest.raises(ValueError, match="labels"):
        rnn.train_sequences(np.zeros((2, 3, 2)), [0])
    assert state(rnn) == before


def test_one_span_per_refresh(hm_system):
    """RNN-HSS trains once per epoch boundary, in one call."""
    policy = RNNHSSPolicy(epoch_requests=200, seed=1)
    policy.attach(hm_system)

    def run():
        for request in make_trace("mds_0", n_requests=1000, seed=0):
            policy.place(request)

    spans = engines(run)
    assert len(spans) == 5
    assert {engine for engine, _ in spans} == {
        "cext" if COMPILED else "python"
    }
    assert all(0 < n <= policy.max_train_pages for _, n in spans)
