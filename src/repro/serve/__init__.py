"""Sibyl-as-a-service: an online placement daemon.

The batch sweeps elsewhere in this repo replay traces; this package
serves *live* placement queries.  A :class:`PlacementDaemon` owns a
pool of per-tenant :class:`~repro.core.agent.SibylAgent` lanes behind a
newline-delimited-JSON TCP protocol, fuses concurrent tenants'
inference through the lane stacks' batched forward, trains each
tenant inline on its one loop thread, and hot-reloads checkpoints
without dropping in-flight requests.  ``repro.serve.loadgen`` is the
matching deterministic open-loop load generator and benchmark driver.

See ``docs/serve.md`` for the protocol, knobs, and failure modes.
"""

from .daemon import PlacementDaemon
from .engine import PlacementEngine
from .lane import TenantLane, open_lane

__all__ = [
    "PlacementDaemon",
    "PlacementEngine",
    "TenantLane",
    "open_lane",
]
