"""Golden digests of the synthetic catalog: every trace, request for request.

``golden_trace_sha256.json`` was captured at the commit *before* the
generator's popularity draw moved from ``rng.choice(n, p=probs)`` to a
precomputed CDF + ``searchsorted``, so any rewrite of
:class:`SyntheticTraceGenerator` must reproduce the old RNG stream
exactly — every simulated result in the repo is downstream of it.

Regenerate (only when a trace change is *intended*) with
``PYTHONPATH=src python tests/traces/test_trace_golden.py``.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.traces.workloads import ALL_WORKLOADS, make_trace

GOLDEN_PATH = Path(__file__).with_name("golden_trace_sha256.json")
N_REQUESTS = 2000
SEEDS = (0, 5, 11)


def trace_digest(trace) -> str:
    """sha256 over the exact (shortest-repr) fields of every request."""
    digest = hashlib.sha256()
    for r in trace:
        digest.update(
            f"{r.timestamp!r},{int(r.op)},{r.page},{r.size}\n".encode()
        )
    return digest.hexdigest()


def _capture() -> dict:
    return {
        f"{name}/{seed}": trace_digest(make_trace(name, N_REQUESTS, seed))
        for name in ALL_WORKLOADS
        for seed in SEEDS
    }


def test_golden_covers_the_whole_catalog():
    golden = json.loads(GOLDEN_PATH.read_text())
    assert sorted(golden) == sorted(
        f"{name}/{seed}" for name in ALL_WORKLOADS for seed in SEEDS
    )


@pytest.mark.parametrize("name", sorted(ALL_WORKLOADS))
def test_trace_matches_golden(name):
    golden = json.loads(GOLDEN_PATH.read_text())
    for seed in SEEDS:
        trace = make_trace(name, N_REQUESTS, seed)
        assert len(trace) == N_REQUESTS
        assert trace_digest(trace) == golden[f"{name}/{seed}"], (name, seed)


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps(_capture(), indent=1, sort_keys=True) + "\n")
