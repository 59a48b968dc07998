"""Trace transformation utilities.

Positional slicing and timestamp rebasing: what preparing a real MSRC
capture for the harness needs (``examples/real_traces.py``).  Both
functions are pure: they return new lists and never mutate inputs.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..hss.request import Request

__all__ = ["slice_requests", "rebase_timestamps"]


def slice_requests(
    trace: Sequence[Request], start: int, stop: Optional[int] = None
) -> List[Request]:
    """Positional slice (like ``trace[start:stop]`` but always a list)."""
    return list(trace[start:stop])


def rebase_timestamps(trace: Sequence[Request]) -> List[Request]:
    """Shift timestamps so the first request issues at t=0."""
    if not trace:
        return []
    t0 = trace[0].timestamp
    return [
        Request(r.timestamp - t0, r.op, r.page, r.size) for r in trace
    ]
