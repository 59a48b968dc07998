"""Per-tenant serving lane: one live agent, one HSS, one clock.

A *tenant* is one independent placement stream — its own
:class:`~repro.core.agent.SibylAgent`, its own
:class:`~repro.hss.system.HybridStorageSystem`, its own closed-loop
completion clock.  Tenants share nothing but the engine's stacked
network forward (one per architecture group, each row computed from
that tenant's own weights and observation alone); the daemon's
bit-identity contract (the same queries served through the daemon
equal a serial offline replay) rests on this lane reproducing
:meth:`repro.sim.runner.PolicyRun.step` statement for statement.
"""

from __future__ import annotations

from collections import deque
from dataclasses import replace
from typing import Any, Deque, Dict, Optional, Sequence, Tuple

from ..core.agent import SibylAgent
from ..core.hyperparams import SIBYL_DEFAULT
from ..hss.devices import make_devices
from ..hss.request import Request
from ..hss.system import HybridStorageSystem, ServeResult

__all__ = ["TenantLane", "open_lane", "NEVER_TRAIN_INTERVAL"]

#: ``train_interval`` substituted in ``train=off`` mode: no realistic
#: stream reaches it, so training simply never triggers.
NEVER_TRAIN_INTERVAL = 2 ** 62


class TenantLane:
    """One tenant's live serving state inside the placement engine.

    Owned and mutated exclusively by the engine thread: serving, the
    agent's training events (inline in :meth:`complete`), checkpoint
    ops and reload all run there, one after another.
    """

    def __init__(
        self,
        name: str,
        agent: SibylAgent,
        hss: HybridStorageSystem,
        spec: Dict[str, Any],
        train_mode: str,
    ) -> None:
        self.name = name
        self.agent = agent
        self.hss = hss
        #: Constructor kwargs that rebuild an equivalent fresh agent —
        #: checkpoint reload swaps in a new agent instead of mutating
        #: the live one, so a failed load degrades gracefully.
        self.spec = dict(spec)
        self.train_mode = train_mode
        #: Closed-loop completion horizon (``PolicyRun._completion_s``).
        self.completion_s = 0.0
        #: Responses committed so far; echoed as ``seq`` so clients can
        #: prove zero dropped/duplicated responses.
        self.seq = 0
        #: Placement jobs waiting for an engine round.
        self.queue: Deque = deque()

    # ------------------------------------------------------------ serving
    def complete(self, request: Request, action: int) -> Tuple[int, ServeResult]:
        """Serve + feed back one placed request; returns (seq, result).

        The closed-loop tail of :meth:`repro.sim.runner.PolicyRun.step`:
        the request issues no earlier than the previous completion, the
        horizon advances by the served latency, and the agent sees the
        outcome — running its own training event when one is due — the
        statements (and float operations) of the serial offline replay,
        which is what the equivalence tests pin.
        """
        now = request.timestamp
        if now < self.completion_s:
            now = self.completion_s
        result = self.hss.serve(request, action, now=now)
        self.completion_s = now + result.latency_s
        self.agent.feedback(request, action, result)
        seq = self.seq
        self.seq += 1
        return seq, result

    # ------------------------------------------------------------- reload
    def fresh_agent(self) -> SibylAgent:
        """A new agent with this lane's construction parameters.

        ``load_checkpoint`` deliberately does not re-seed the live
        agent's RNG, so an in-place reload could never match "a fresh
        agent loaded from the same checkpoint".  Building the
        replacement first also means a checkpoint that fails to load
        leaves the serving agent untouched.
        """
        return SibylAgent(**self.spec)

    def stats(self) -> Dict[str, Any]:
        """This tenant's row of the ``stats`` response."""
        return {
            "seq": self.seq,
            "queued": len(self.queue),
            "train_mode": self.train_mode,
            "train_events": self.agent.train_events,
            "weights_version": self.agent.weights_version,
            "completion_s": self.completion_s,
        }


def open_lane(
    name: str,
    seed: int = 0,
    config: str = "H&M",
    head: str = "c51",
    capacity_pages: Sequence[int] = (1024,),
    hyperparams: Optional[Dict[str, Any]] = None,
    train_mode: str = "sync",
) -> TenantLane:
    """Build a tenant lane: devices, HSS, attached agent.

    ``capacity_pages`` sizes each non-last device in pages (the last
    device of a config is always unbounded, as in
    :func:`repro.sim.runner.build_hss` — the daemon has no trace to
    derive working-set fractions from, so capacities are absolute).
    Raises ``ValueError`` on an unknown config, a capacity count that
    does not match the device count, or bad hyper-parameter overrides;
    the engine maps that to a ``bad-request`` response.
    """
    devices = make_devices(config)
    caps = list(capacity_pages)
    if len(caps) != len(devices) - 1:
        raise ValueError(
            f"config {config!r} has {len(devices)} devices and needs "
            f"{len(devices) - 1} capacity_pages entries, got {len(caps)}"
        )
    hss = HybridStorageSystem(devices, caps + [None])
    hp = replace(SIBYL_DEFAULT, **(hyperparams or {}))
    if train_mode == "off":
        hp = replace(hp, train_interval=NEVER_TRAIN_INTERVAL)
    spec = {"hyperparams": hp, "head": head, "seed": seed}
    agent = SibylAgent(**spec)
    agent.attach(hss)
    return TenantLane(name, agent, hss, spec, train_mode)
