"""The compiled library's entry table, its gate and its report.

``repro.native.library.ENTRIES`` has one row per entry point ``kernel.c``
exports; ``library.entry`` is the one gate every caller asks.  Under
``cext`` a row that does not resolve raises, naming the row and the
reason; under ``auto`` its caller takes the Python path; under ``off``
nothing is loaded.  Each row's resolver runs once per process.
"""

import collections
import copy
import gc
import re
import weakref

import numpy as np
import pytest

from repro.native import abi, library
from repro.obs.tracer import SpanTracer, set_tracer
from repro.rl import rnn as rnn_module
from repro.rl.c51 import C51Config, C51Network
from repro.rl.rnn import ElmanRNN
from repro.sim.kernels import get_backend
from repro.traces.synthetic import SyntheticTraceGenerator
from repro.traces.workloads import ALL_WORKLOADS

requires_library = pytest.mark.skipif(
    not library.available(),
    reason=f"compiled library unavailable: {library.unavailable_reason()}",
)

ROWS = sorted(library.ENTRIES)


def _draw_columns():
    gen = SyntheticTraceGenerator(ALL_WORKLOADS["hm_1"], n_requests=50)
    return gen.generate_with_columns()[1]


def _rnn_binding():
    return ElmanRNN(2, 16, 2, rng=np.random.default_rng(0))._compiled()[0]


def _c51_binding():
    net = C51Network(C51Config(optimizer="adam"), rng=np.random.default_rng(0))
    return net._compiled(128)[0]


#: Per row, a caller's own use of it: None means it took the Python path.
CALLERS = {
    "tick": get_backend,
    "draw": _draw_columns,
    "rnn": _rnn_binding,
    "c51": _c51_binding,
}


@pytest.fixture
def fresh_resolution():
    library._resolve.cache_clear()
    yield
    library._resolve.cache_clear()


def _planted(*args):
    raise library.Unresolved("planted failure")


def _spans(run, name):
    tracer = SpanTracer(capacity=64)
    previous = set_tracer(tracer)
    try:
        run()
    finally:
        set_tracer(previous)
    return [e["args"] for e in tracer.events() if e["name"] == name]


def test_every_exported_entry_function_has_a_row():
    """A fourth entry point cannot ship without a row (and so without
    its ``restype``/``argtypes``, its gate and its report)."""
    with open(library._source_path()) as fh:
        source = fh.read()
    exported = set(re.findall(
        r"^(?!static\b)[A-Za-z_][\w \*]*?\b(sib_\w+)\s*\(", source, re.M
    ))
    assert "sib_abi_hash" in exported  # the load-time handshake, no row
    rows = {s for row in library.ENTRIES.values() for s in row.symbols}
    assert exported - {"sib_abi_hash"} == rows
    assert set(CALLERS) == set(library.ENTRIES)


@requires_library
@pytest.mark.parametrize("name", ROWS)
def test_failed_resolution_raises_under_cext_and_falls_back_under_auto(
    name, monkeypatch, fresh_resolution
):
    monkeypatch.setitem(
        library.ENTRIES, name, library.ENTRIES[name]._replace(resolve=_planted)
    )
    monkeypatch.setenv("SIBYL_BACKEND", "cext")
    with pytest.raises(
        RuntimeError,
        match=rf"compiled {name} entry point is unavailable: planted failure",
    ):
        CALLERS[name]()
    assert library.report()[name] == ("python", "planted failure")
    monkeypatch.setenv("SIBYL_BACKEND", "auto")
    assert CALLERS[name]() is None
    assert library.entry(name) == (None, "planted failure")
    for other in ROWS:
        if other != name:
            assert CALLERS[other]() is not None, other


@requires_library
def test_failed_handshake_raises_under_cext(monkeypatch, fresh_resolution):
    """The per-shape check runs at first use, and is strict under cext."""
    monkeypatch.setattr(library, "RNN_UFUNCS", ("tanh", "expm1"))
    monkeypatch.setenv("SIBYL_BACKEND", "cext")
    assert library.report()["rnn"] == ("cext", "")
    with pytest.raises(RuntimeError, match="compiled rnn entry point is "
                       "unavailable: .* differs from NumPy's call at shape "
                       "2-16-2"):
        _rnn_binding()
    monkeypatch.setenv("SIBYL_BACKEND", "auto")
    assert _rnn_binding() is None


@pytest.mark.parametrize("backend", ["auto", "cext", "off"])
def test_eligibility_refusals_never_raise(backend, monkeypatch):
    monkeypatch.setenv("SIBYL_BACKEND", backend)
    sgd = ElmanRNN(2, 16, 2, optimizer="sgd", rng=np.random.default_rng(0))
    spans = _spans(
        lambda: sgd.train_sequences(np.zeros((2, 3, 2)), [0, 1]),
        "rl.rnn_train",
    )
    assert spans == [{"engine": "python",
                      "reason": "optimizer SGD is not Adam", "sequences": 2}]
    wide = ElmanRNN(2, 16, 8, rng=np.random.default_rng(0))
    assert wide._compiled() == (
        None, "shape 2-16-8 has a 1-wide layer or 8+ outputs"
    )


def test_off_reads_off_and_loads_nothing(monkeypatch, fresh_resolution):
    def never(*args):
        raise AssertionError("SIBYL_BACKEND=off reached the library")

    monkeypatch.setattr(library, "load", never)
    for name in ROWS:
        monkeypatch.setitem(
            library.ENTRIES, name, library.ENTRIES[name]._replace(resolve=never)
        )
    monkeypatch.setenv("SIBYL_BACKEND", "off")
    assert library.report() == {
        name: ("off", "SIBYL_BACKEND=off") for name in ROWS
    }
    for name in ROWS:
        assert CALLERS[name]() is None, name


@requires_library
def test_off_holds_for_a_network_bound_before(monkeypatch):
    """The gate is asked on every use: a network bound under ``auto``
    runs its Python loop once ``off`` is set, and its span says so."""
    monkeypatch.setenv("SIBYL_BACKEND", "auto")
    rnn = ElmanRNN(2, 16, 2, rng=np.random.default_rng(0))
    sequences = np.zeros((2, 3, 2))
    train = lambda: rnn.train_sequences(sequences, [0, 1])  # noqa: E731
    assert _spans(train, "rl.rnn_train")[0]["engine"] == "cext"
    monkeypatch.setattr(library, "load", lambda: pytest.fail("library loaded"))
    monkeypatch.setenv("SIBYL_BACKEND", "off")
    assert _spans(train, "rl.rnn_train") == [
        {"engine": "python", "reason": "SIBYL_BACKEND=off", "sequences": 2}
    ]
    assert rnn.predict(sequences[0]) in (0, 1)


@requires_library
def test_report_resolves_each_row_once_per_process(
    monkeypatch, fresh_resolution
):
    calls = {name: 0 for name in ROWS}

    def counted(name, resolve):
        def wrapper():
            calls[name] += 1
            return resolve()
        return wrapper

    for name in ROWS:
        row = library.ENTRIES[name]
        monkeypatch.setitem(
            library.ENTRIES, name, row._replace(resolve=counted(name, row.resolve))
        )
    monkeypatch.setenv("SIBYL_BACKEND", "auto")
    first = library.report()
    assert first == {name: ("cext", "") for name in ROWS}
    for _ in range(3):
        assert library.report() == first
        for name in ROWS:
            assert CALLERS[name]() is not None, name
    assert calls == {name: 1 for name in ROWS}


@requires_library
@pytest.mark.parametrize("name, span, run", [
    ("draw", "traces.generate", _draw_columns),
    ("rnn", "rl.rnn_train", lambda: ElmanRNN(2, 16, 2).train_sequences(
        np.zeros((3, 4, 2)), [0, 1, 0])),
])
def test_a_python_span_says_why(name, span, run, monkeypatch, fresh_resolution):
    monkeypatch.setenv("SIBYL_BACKEND", "auto")
    (args,) = _spans(run, span)
    assert args["engine"] == "cext" and "reason" not in args
    monkeypatch.setitem(
        library.ENTRIES, name, library.ENTRIES[name]._replace(resolve=_planted)
    )
    library._resolve.cache_clear()
    (args,) = _spans(run, span)
    assert (args["engine"], args["reason"]) == ("python", "planted failure")


def test_the_error_status_raises_naming_the_entry_point():
    class Aborts:
        def sib_draw_trace(self, ptrs):
            return abi.ST_ERROR

        def sib_rnn_predict(self, ptrs):
            return abi.ST_DONE

    ci = np.zeros(abi.CI_LEN, dtype=np.int64)
    ci[abi.CI_ERR], ci[abi.CI_I] = 3, 7
    binding = library.Binding("draw", Aborts(), ())
    with pytest.raises(
        RuntimeError,
        match=r"compiled draw entry point sib_draw_trace aborted \(err=3, i=7\)",
    ):
        binding.call("sib_draw_trace", None, ci)
    assert library.Binding("rnn", Aborts(), ()).call(
        "sib_rnn_predict", None, ci
    ) == abi.ST_DONE


# ------------------------------------------------------ the routine table
@pytest.fixture
def handshakes(monkeypatch, fresh_resolution):
    """Rows resolved and keys handshaken afresh, under ``auto``; yields
    how many times each key's handshake ran."""
    monkeypatch.setenv("SIBYL_BACKEND", "auto")
    library._handshake_key.cache_clear()
    runs = collections.Counter()

    def counted(kind, handshake):
        def run(routine, rng, *args):
            runs[(kind, *args)] += 1
            return handshake(routine, rng, *args)
        return run

    for kind, handshake in list(library._HANDSHAKES.items()):
        monkeypatch.setitem(library._HANDSHAKES, kind, counted(kind, handshake))
    yield runs
    library._handshake_key.cache_clear()


def _c51(hidden=(20, 30)):
    return C51Network(C51Config(optimizer="adam", hidden_sizes=hidden),
                      rng=np.random.default_rng(0))


@requires_library
def test_a_key_shared_by_shapes_or_rows_is_handshaken_once(handshakes):
    rnns = [ElmanRNN(n_in, 16, 2) for n_in in (2, 3)]
    net = _c51((16, 16))
    for _ in range(2):
        assert all(r._compiled()[0] is not None for r in rnns)
        assert net._compiled()[0] is not None
        assert net._compiled(128)[0] is not None
        assert net._compiled(rows=64)[0] is not None
    rnn_keys = {k for r in rnns for k in library._rnn_keys(r.n_inputs, 16, 2)[1]}
    c51_keys = {k for args in ((0, False), (128, False), (0, True))
                for k in library._c51_keys(net._widths(), 2, 51, *args)[1]}
    shared = rnn_keys & c51_keys
    assert ("ufunc", "tanh", 16) in shared
    assert ("gemv", library._ROW_MAJOR, 16, 16, True) in shared
    assert set(handshakes) == rnn_keys | c51_keys
    assert set(handshakes.values()) == {1}


#: A caller per shape, and how a refusal names it.
SHAPES = {
    "rnn 2-16-2": (lambda: ElmanRNN(2, 16, 2)._compiled(), "2-16-2"),
    "rnn 2-16-3": (lambda: ElmanRNN(2, 16, 3)._compiled(), "2-16-3"),
    "c51": (lambda: _c51()._compiled(), "6-20-30-102 as 2x51"),
    "c51 batch 128": (lambda: _c51()._compiled(128),
                      "6-20-30-102 as 2x51, batch 128"),
    "c51 batch 64": (lambda: _c51()._compiled(64),
                     "6-20-30-102 as 2x51, batch 64"),
    "c51 batched": (lambda: _c51()._compiled(rows=64),
                    "6-20-30-102 as 2x51, batched"),
}


@requires_library
@pytest.mark.parametrize("length, fails", [
    (2, {"rnn 2-16-2"}),  # the head's exp at two outputs
    (102, {"c51", "c51 batch 128", "c51 batch 64", "c51 batched"}),
    (128 * 51, {"c51 batch 128"}),  # a step's exp over the batch
    (2 * 102, {"c51 batched"}),  # a pass's exp at its two-row count
])
def test_a_wrong_key_fails_exactly_the_shapes_that_need_it(
    length, fails, handshakes, monkeypatch
):
    """A planted wrong NumPy result for ``("ufunc", "exp", length)``."""
    handshake = library._HANDSHAKES["ufunc"]

    def planted(routine, rng, name, n):
        ours, want = handshake(routine, rng, name, n)
        if (name, n) == ("exp", length):
            want = want.copy()
            want[0] = np.nextafter(want[0], np.inf)
        return ours, want

    monkeypatch.setitem(library._HANDSHAKES, "ufunc", planted)
    for caller, (run, shape) in SHAPES.items():
        binding, why = run()
        if caller in fails:
            assert (binding, why) == (
                None, f"a primitive differs from NumPy's call at shape {shape}"
            ), caller
        else:
            assert binding is not None and why == "", caller
    assert handshakes[("ufunc", "exp", length)] == 1


@requires_library
def test_a_table_owns_the_arrays_it_points_to(monkeypatch):
    """Bound over a network and an input nothing else holds, collected,
    then called: the table keeps what it points to, and the bytes are
    NumPy's."""
    monkeypatch.setenv("SIBYL_BACKEND", "auto")
    rnn = ElmanRNN(2, 16, 2, rng=np.random.default_rng(0))
    sequence = np.log1p(np.arange(16.0)).reshape(8, 2)
    binding, _ = library.entry("rnn", 2, 16, 2)

    def bound():
        clone = copy.deepcopy(rnn)
        compiled = rnn_module._CompiledRNN(clone, binding)
        ptrs = compiled._table(clone, len(sequence))
        library.point(ptrs, abi.P_RNN_SEQ, sequence.copy())
        ptrs.arrays[abi.P_CTRL_I][abi.CI_RNN_STEPS] = len(sequence)
        return ptrs

    ptrs = bound()
    gc.collect()
    # What would land in the blocks of arrays the table did not hold.
    litter = [np.full(a.shape, np.nan) for a in ptrs.arrays if a is not None]
    binding.call("sib_rnn_predict", ptrs, ptrs.arrays[abi.P_CTRL_I])
    probs = rnn.forward(sequence)[0]
    assert ptrs.arrays[abi.P_RNN_PROBS].tobytes() == probs.tobytes()
    assert ptrs.arrays[abi.P_CTRL_I][abi.CI_RNN_CLASS] == np.argmax(probs)
    assert all(np.isnan(a).all() for a in litter)


@requires_library
def test_a_call_holds_its_own_arrays_for_that_call_only(monkeypatch):
    """``pointed`` puts the slots back: a training batch is not kept
    alive by the network's binding once the call returns."""
    monkeypatch.setenv("SIBYL_BACKEND", "cext")
    net, data = _c51(), np.random.default_rng(1)
    batch = (data.random((256, 6)), data.integers(0, 2, 256),
             data.random((256, 51)))
    refs = [weakref.ref(array) for array in batch]
    net.train_batches(*batch, 128)
    del batch
    gc.collect()
    assert [ref() for ref in refs] == [None, None, None]
