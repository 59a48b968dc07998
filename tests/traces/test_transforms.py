"""Tests for trace transformation utilities."""

import pytest

from repro.hss.request import OpType, Request
from repro.traces.transforms import rebase_timestamps, slice_requests


def trace_of(n, start_ts=1.0):
    return [
        Request(start_ts + i, OpType.READ if i % 2 else OpType.WRITE, i * 10, 2)
        for i in range(n)
    ]


class TestSlicing:
    def test_slice_requests(self):
        t = trace_of(10)
        assert slice_requests(t, 2, 5) == t[2:5]
        assert slice_requests(t, 8) == t[8:]


class TestRebase:
    def test_rebase(self):
        t = rebase_timestamps(trace_of(3, start_ts=100.0))
        assert t[0].timestamp == 0.0
        assert t[1].timestamp == pytest.approx(1.0)

    def test_rebase_empty(self):
        assert rebase_timestamps([]) == []

    def test_pure(self):
        original = trace_of(3, start_ts=5.0)
        rebase_timestamps(original)
        assert original[0].timestamp == 5.0

