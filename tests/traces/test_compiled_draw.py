"""The compiled trace draw loop equals the Python loop, byte for byte.

``SyntheticTraceGenerator`` draws each request either in its Python
reference loop or in ``sib_draw_trace``, which calls NumPy's own C
samplers on the generator's own ``bitgen_t``.  The property here
searches generator configurations for a trace the two disagree on:
both branches of ``random_geometric`` (p >= 1/3 searches, p < 1/3
inverts), exactly 4 KiB (no size draw at all), short phases (many
permutation and write-burst boundaries between C calls), any n and
seed.  The fallbacks — ``SIBYL_BACKEND=off`` and, under ``auto``, a
NumPy that does not export a sampler — must give the same bytes through
the Python loop.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.native import library
from repro.obs.tracer import SpanTracer, set_tracer
from repro.sim import runner
from repro.sim.kernels.soa import TraceSoA, shared_pack
from repro.traces import synthetic
from repro.traces.synthetic import SyntheticTraceGenerator
from repro.traces.workloads import ALL_WORKLOADS, WorkloadSpec, make_trace

requires_compiled = pytest.mark.skipif(
    library.report()["draw"][0] != "cext",
    reason=f"compiled draw loop unavailable: {library.report()['draw'][1]}",
)

GOLDEN = json.loads(
    Path(__file__).with_name("golden_trace_sha256.json").read_text()
)


def python_trace(gen: SyntheticTraceGenerator):
    """The reference loop, set up exactly as ``generate`` sets it up."""
    rng = np.random.default_rng(gen.seed)
    cdf = gen._popularity(rng).cumsum()
    cdf /= cdf[-1]
    bases = gen._region_bases(rng)
    perm = rng.permutation(len(bases))
    return gen._draw_python(rng, cdf, bases, perm)


def digest(trace) -> str:
    h = hashlib.sha256()
    for r in trace:
        h.update(f"{r.timestamp!r},{int(r.op)},{r.page},{r.size}\n".encode())
    return h.hexdigest()


def assert_identical(got, want):
    assert len(got) == len(want)
    assert got == want
    assert [type(r.op) for r in got] == [type(r.op) for r in want]
    assert digest(got) == digest(want)


# 4.0 KiB draws no size; up to 12 KiB the size draw's p is >= 1/3
# (``random_geometric``'s search branch, the 7.2-9.2 KiB catalog rows);
# above it, p < 1/3 (the inversion branch), and past ~1 MiB most sizes
# hit the 256-page clamp.
request_kib = st.one_of(
    st.just(4.0),
    st.floats(4.1, 12.0),
    st.floats(12.5, 80.0),
    st.floats(512.0, 4096.0),
)


@requires_compiled
@settings(max_examples=100, deadline=None)
@given(
    write_fraction=st.floats(0.0, 1.0),
    kib=request_kib,
    access=st.floats(1.0, 80.0),
    phase=st.integers(1, 700),
    n=st.integers(1, 2500),
    seed=st.integers(0, 2**32 - 1),
    gap=st.floats(1e-6, 1e-2),
)
def test_compiled_loop_equals_python_loop(
    write_fraction, kib, access, phase, n, seed, gap
):
    spec = WorkloadSpec(
        name="prop", write_fraction=write_fraction,
        avg_request_size_kib=kib, avg_access_count=access,
        unique_requests=1000,
    )
    gen = SyntheticTraceGenerator(
        spec, n_requests=n, seed=seed, phase_requests=phase,
        mean_interarrival_s=gap,
    )
    trace, columns = gen.generate_with_columns()
    assert columns is not None
    assert_identical(trace, python_trace(gen))
    assert_identical(columns.requests(), trace)


@requires_compiled
@pytest.mark.parametrize("name", ["rsrch_0", "hm_1", "usr_0", "YCSB_C"])
def test_catalog_traces_cross_phases_identically(name):
    """9001 requests cross two phase boundaries at the default 4000."""
    gen = synthetic.SyntheticTraceGenerator(
        ALL_WORKLOADS[name], n_requests=9001, seed=3
    )
    assert_identical(gen.generate(), python_trace(gen))


@pytest.mark.parametrize("backend", ["auto", "cext", "off"])
def test_catalog_matches_golden_under_every_backend(backend, monkeypatch):
    monkeypatch.setenv("SIBYL_BACKEND", backend)
    if backend != "off" and library.entry("draw", backend="auto")[0] is None:
        pytest.skip("compiled draw loop unavailable")
    for name in ("rsrch_0", "hm_1", "proj_2", "YCSB_C"):
        for seed in (0, 11):
            trace = make_trace(name, 2000, seed)
            assert digest(trace) == GOLDEN[f"{name}/{seed}"], (name, seed)


def test_off_keeps_the_python_loop(monkeypatch):
    monkeypatch.setenv("SIBYL_BACKEND", "off")
    assert library.entry("draw")[0] is None
    gen = SyntheticTraceGenerator(ALL_WORKLOADS["hm_1"], n_requests=300)
    trace, columns = gen.generate_with_columns()
    assert columns is None
    assert_identical(trace, python_trace(gen))


@pytest.fixture
def fresh_resolution():
    library._resolve.cache_clear()
    yield
    library._resolve.cache_clear()


@requires_compiled
def test_missing_sampler_falls_back_to_the_same_bytes(
    monkeypatch, fresh_resolution
):
    """A NumPy whose ``random._generator`` lacks one export keeps the
    Python loop under ``auto``, and the trace does not change."""
    monkeypatch.setenv("SIBYL_BACKEND", "auto")
    gen = SyntheticTraceGenerator(ALL_WORKLOADS["prn_1"], n_requests=5000)
    compiled, columns = gen.generate_with_columns()
    assert columns is not None
    monkeypatch.setattr(
        library, "SAMPLER_SYMBOLS",
        library.SAMPLER_SYMBOLS[:-1] + ("random_no_such_sampler",),
    )
    library._resolve.cache_clear()
    draw, why = library.entry("draw")
    assert draw is None and "random_no_such_sampler" in why
    fallback, columns = gen.generate_with_columns()
    assert columns is None
    assert_identical(fallback, compiled)


def test_generation_span_names_its_engine(monkeypatch):
    draw, why = library.entry("draw")
    first = "python" if draw is None else "cext"
    why = why or None
    tracer = SpanTracer(capacity=64)
    previous = set_tracer(tracer)
    try:
        make_trace("rsrch_0", 50, 0)
        monkeypatch.setenv("SIBYL_BACKEND", "off")
        make_trace("rsrch_0", 50, 0)
    finally:
        set_tracer(previous)
    spans = [e for e in tracer.events() if e["name"] == "traces.generate"]
    engines = [e["args"]["engine"] for e in spans]
    assert engines == [first, "python"]
    assert [e["args"].get("reason") for e in spans] == [
        why, "SIBYL_BACKEND=off",
    ]
    assert all(e["args"]["requests"] == 50 for e in spans)


class TestSharedPack:
    def setup_method(self):
        runner.clear_reference_cache()

    def teardown_method(self):
        runner.clear_reference_cache()

    def test_one_pack_per_tuple_and_it_is_the_request_pack(self):
        trace = runner.synthetic_trace("hm_1", 1200, 2)
        pack = shared_pack(trace)
        assert shared_pack(trace) is pack
        assert pack.requests is trace
        fresh = TraceSoA.from_requests(list(trace))
        for name in ("timestamps", "ops", "pages", "sizes", "uniq", "dpage"):
            got, want = getattr(pack, name), getattr(fresh, name)
            assert got.dtype == want.dtype and np.array_equal(got, want), name
        for got, want in zip(pack.future_uses, fresh.future_uses):
            assert np.array_equal(got, want)

    def test_pack_is_read_only(self):
        pack = shared_pack(runner.synthetic_trace("rsrch_0", 400, 0))
        arrays = [pack.timestamps, pack.ops, pack.pages, pack.sizes,
                  pack.uniq, pack.dpage, *pack.future_uses]
        for arr in arrays:
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = arr[0]

    def test_working_set_is_the_pack_uniq(self):
        from repro.traces.stats import working_set_pages

        trace = runner.synthetic_trace("proj_2", 900, 1)
        hss = runner.build_hss("H&M", trace)
        wss = working_set_pages(trace)
        assert len(shared_pack(trace).uniq) == wss
        assert hss.capacity_pages[0] == max(1, int(0.10 * wss))

    def test_clear_reference_cache_drops_the_packs(self):
        trace = runner.synthetic_trace("hm_1", 300, 0)
        pack = shared_pack(trace)
        runner.clear_reference_cache()
        assert shared_pack(trace) is not pack
        again = runner.synthetic_trace("hm_1", 300, 0)
        assert again is not trace
        assert shared_pack(again) is not pack

    def test_lists_and_streams_are_not_kept(self):
        assert shared_pack(list(make_trace("hm_1", 50, 0))) is None
