"""Fixtures for the placement-daemon tests (helpers: serve_harness)."""

from __future__ import annotations

import pytest

from repro.serve.daemon import PlacementDaemon

from serve_harness import DEADLINE_S


@pytest.fixture
def daemon():
    """A live daemon on an ephemeral port (training on its loop)."""
    with PlacementDaemon(port=0, request_timeout_s=DEADLINE_S) as d:
        yield d
