"""Golden digests of the serial tick: ``HybridStorageSystem.serve`` and
``FeatureExtractor`` bins, over 1-page, mixed-size and catalog streams.

Every simulated result downstream of the Python path (the daemon's
placements, ``SIBYL_BACKEND=off`` lanes, the reference ``kernel.c``
mirrors) is a function of these bytes, so a rewrite of ``serve``,
``_evict`` or the feature extraction must reproduce them exactly.  The
serve digest covers every ``ServeResult`` field, the final ``HSSStats``,
each device's counters, the page table's per-device residency (LRU)
order and the access tracker's state.

``serve_pinned_sha256.json`` was captured before the 1-page serve and
single-victim eviction fast paths were folded into the general bodies.
Regenerate (only when a change to these results is *intended*) with
``PYTHONPATH=src python tests/hss/test_serve_pinned.py``.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.core.features import FEATURE_SETS, FeatureExtractor
from repro.hss.devices import make_devices
from repro.hss.request import OpType, Request
from repro.hss.system import HybridStorageSystem
from repro.serve.loadgen import synthetic_stream
from repro.traces.workloads import make_trace

GOLDEN_PATH = Path(__file__).with_name("serve_pinned_sha256.json")
N_REQUESTS = 1500
SHAPES = {"H&M": [64, None], "H&M&L": [32, 64, None]}
SLACKS = (0, 3)
STREAMS = ("one_page", "mixed", "catalog")


def _one_page(seed: int):
    """1-page requests over a 48-page hot set inside 400 pages."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(N_REQUESTS):
        hot = rng.random() < 0.7
        page = int(rng.integers(0, 48 if hot else 400))
        op = OpType.WRITE if rng.random() < 0.4 else OpType.READ
        out.append(Request(i * 1e-4, op, page, 1))
    return out


def _mixed(seed: int):
    """``synthetic_stream``'s frames (sizes 1-4) as requests."""
    return [
        Request(f["t"], OpType.parse(f["rw"]), f["page"], f["size"])
        for f in synthetic_stream(seed, N_REQUESTS)
    ]


def _stream(name: str):
    if name == "one_page":
        return _one_page(3)
    if name == "mixed":
        return _mixed(4)
    return make_trace("rsrch_0", N_REQUESTS, 5)


def _system(shape: str, slack: int) -> HybridStorageSystem:
    return HybridStorageSystem(
        make_devices(shape), SHAPES[shape], eviction_slack_pages=slack
    )


def _replay(hss: HybridStorageSystem, trace, on_request=None):
    """Closed-loop replay with seeded actions; yields each result."""
    rng = np.random.default_rng(17)
    completion = 0.0
    for req in trace:
        if on_request is not None:
            on_request(req)
        action = int(rng.integers(0, hss.n_devices))
        now = max(req.timestamp, completion)
        res = hss.serve(req, action, now=now)
        completion = now + res.latency_s
        yield res


def serve_digest(shape: str, slack: int, stream: str) -> str:
    hss = _system(shape, slack)
    digest = hashlib.sha256()
    for r in _replay(hss, _stream(stream)):
        digest.update(
            f"{r.latency_s!r},{r.device},{r.eviction_occurred},"
            f"{r.eviction_time_s!r},{r.evicted_pages},{r.promoted_pages},"
            f"{r.demoted_pages},{r.action},{r.pages_written_to_action}\n"
            .encode()
        )
    digest.update(repr(hss.stats).encode())
    for d, dev in enumerate(hss.devices):
        digest.update(repr(dev.stats).encode())
        digest.update(repr(list(hss.table.resident_pages(d))).encode())
    tracker = hss.tracker
    digest.update(
        repr(
            (tracker.clock, list(tracker._count.items()),
             list(tracker._last_access.items()))
        ).encode()
    )
    return digest.hexdigest()


def bins_digest(shape: str, feature_set: str) -> str:
    """Bins of every request of the mixed and catalog streams, pre-serve."""
    digest = hashlib.sha256()
    for stream in ("mixed", "catalog"):
        hss = _system(shape, 0)
        ex = FeatureExtractor(hss, feature_set)
        digest.update(
            repr(
                (ex.n_features, ex.feature_names(), ex.state_bits(),
                 ex._maxima_arr.tolist())
            ).encode()
        )

        def observe(req):
            obs, key = ex.observe_keyed(req)
            digest.update(f"{tuple(ex.bins(req))}\n".encode())
            digest.update(obs.tobytes() + key)

        for _ in _replay(hss, _stream(stream), observe):
            pass
    return digest.hexdigest()


def _serve_key(shape: str, slack: int, stream: str) -> str:
    return f"serve/{shape}/slack{slack}/{stream}"


def _bins_key(shape: str, feature_set: str) -> str:
    return f"bins/{shape}/{feature_set}"


def _cases() -> dict:
    """Every pinned digest: key -> (digest function, its arguments)."""
    cases = {
        _serve_key(shape, slack, stream): (serve_digest, (shape, slack, stream))
        for shape in SHAPES
        for slack in SLACKS
        for stream in STREAMS
    }
    cases.update(
        {
            _bins_key(shape, fs): (bins_digest, (shape, fs))
            for shape in SHAPES
            for fs in FEATURE_SETS
        }
    )
    return cases


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(_cases())


@pytest.mark.parametrize("stream", STREAMS)
@pytest.mark.parametrize("slack", SLACKS)
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_serve_matches_golden(golden, shape, slack, stream):
    assert serve_digest(shape, slack, stream) == golden[
        _serve_key(shape, slack, stream)
    ]


@pytest.mark.parametrize("feature_set", sorted(FEATURE_SETS))
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_bins_match_golden(golden, shape, feature_set):
    assert bins_digest(shape, feature_set) == golden[_bins_key(shape, feature_set)]


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_streams_reach_every_branch(shape):
    """The pinned runs exercise what the digests are meant to hold:
    1-page reads and writes, promotions and demotions, single- and
    multi-victim evictions."""
    one = _stream("one_page")
    assert {r.size for r in one} == {1}
    assert {r.size for r in _stream("mixed")} == {1, 2, 3, 4}
    assert min(r.size for r in _stream("catalog")) >= 2
    for slack in SLACKS:
        hss = _system(shape, slack)
        results = list(_replay(hss, one))
        stats = hss.stats
        assert stats.reads and stats.writes
        assert stats.promoted_pages and stats.demoted_pages
        assert stats.eviction_events > 0
        if slack == 0:  # a 1-page overflow evicts exactly one victim
            assert stats.evicted_pages == stats.eviction_events
        else:
            assert stats.evicted_pages > stats.eviction_events
        assert any(r.evicted_pages for r in results)


if __name__ == "__main__":
    captured = {key: fn(*args) for key, (fn, args) in _cases().items()}
    GOLDEN_PATH.write_text(json.dumps(captured, indent=1, sort_keys=True) + "\n")
