"""Reward structures (Eq. 1 and the rejected alternatives of §11).

The paper's reward is

    R = 1/L_t                      if no eviction occurred
    R = max(0, 1/L_t − R_p)        if the placement triggered evictions

with ``R_p = 0.001 × L_e`` (L_e = time spent evicting pages from fast to
slow storage).  Request latency "faithfully captures the status of the
hybrid storage system" because it embeds queueing, GC, and buffer state.

Latencies are normalised by a *unit latency* (:func:`make_reward` derives
it from the configuration's devices) before inversion, so rewards land
in a stable numeric range for the C51 support; dividing every latency
by one positive constant is a monotone rescaling, so the ordering of
every pair of decisions is preserved.

§11 ("Necessity of the reward") describes two alternatives the authors
tried and rejected; both are implemented here so the ablation benchmark
can reproduce that comparison:

* hit-rate reward — 1 when served by the fast device, else 0;
* eviction-penalty-only reward — −1 on eviction, else 0.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..hss.system import HybridStorageSystem, ServeResult

__all__ = [
    "RewardFunction",
    "LatencyReward",
    "HitRateReward",
    "EvictionPenaltyReward",
    "EnduranceAwareReward",
    "make_reward",
]


class RewardFunction:
    """Maps a served request's outcome to a scalar reward."""

    name = "base"

    def __call__(self, result: ServeResult) -> float:
        raise NotImplementedError

    @property
    def v_min(self) -> float:
        """Lower edge of the return support for C51."""
        return 0.0

    @property
    def v_max(self) -> float:
        """Upper edge of the return support for C51."""
        return 12.0


@dataclass
class LatencyReward(RewardFunction):
    """The paper's Eq. 1 reward.

    Parameters
    ----------
    unit_latency_s:
        Normalisation unit; pick the fast device's page-read latency so
        a fast-device hit yields a reward near 1.
    eviction_penalty_coefficient:
        The paper's multiplier on L_e is 0.001 with L_e in microseconds;
        after normalising both L_t and L_e by ``unit_latency_s`` (10 μs)
        the equivalent coefficient is ~0.05-0.1.  The default keeps the
        paper's property that a typical eviction cancels the latency
        reward (the max(0, ·) floor then applies).
    max_reward:
        Clip for sub-unit latencies (e.g. buffered writes), keeping the
        reward inside the C51 support.
    """

    unit_latency_s: float = 10e-6
    eviction_penalty_coefficient: float = 0.05
    max_reward: float = 1.2

    name = "latency"

    def __post_init__(self) -> None:
        if self.unit_latency_s <= 0:
            raise ValueError("unit_latency_s must be positive")
        if self.eviction_penalty_coefficient < 0:
            raise ValueError("eviction_penalty_coefficient must be >= 0")
        if self.max_reward <= 0:
            raise ValueError("max_reward must be positive")

    def __call__(self, result: ServeResult) -> float:
        latency_units = max(1e-9, result.latency_s / self.unit_latency_s)
        base = min(self.max_reward, 1.0 / latency_units)
        if not result.eviction_occurred:
            return base
        penalty = self.eviction_penalty_coefficient * (
            result.eviction_time_s / self.unit_latency_s
        )
        return max(0.0, base - penalty)

    @property
    def v_max(self) -> float:
        # Geometric-series bound on the return: r_max / (1 - gamma) with
        # the paper's gamma=0.9 gives 10 * max_reward.
        return 10.0 * self.max_reward


@dataclass
class HitRateReward(RewardFunction):
    """Rejected alternative 1 (§11): maximise fast-device hit rate.

    "Sibyl (1) tries to aggressively place data in the fast storage
    device, which leads to unnecessary evictions, and (2) cannot capture
    the asymmetry in the latencies" — reproduced by the ablation bench.
    """

    fast_device: int = 0

    name = "hit_rate"

    def __call__(self, result: ServeResult) -> float:
        return 1.0 if result.device == self.fast_device else 0.0

    @property
    def v_max(self) -> float:
        return 10.0


@dataclass
class EvictionPenaltyReward(RewardFunction):
    """Rejected alternative 2 (§11): punish evictions, reward nothing.

    Leads Sibyl to park everything on the slow device; kept for the
    reward ablation.
    """

    penalty: float = 1.0

    name = "eviction_penalty"

    def __post_init__(self) -> None:
        if self.penalty <= 0:
            raise ValueError("penalty must be positive")

    def __call__(self, result: ServeResult) -> float:
        return -self.penalty if result.eviction_occurred else 0.0

    @property
    def v_min(self) -> float:
        return -10.0 * self.penalty

    @property
    def v_max(self) -> float:
        return 0.5


@dataclass
class EnduranceAwareReward(RewardFunction):
    """§11's sketched extension: multi-objective latency + endurance.

    "To optimize for endurance, one might use the number of writes to
    an endurance-critical device in the reward function."  This reward
    wraps the Eq. 1 latency term and subtracts a wear penalty
    proportional to the pages this decision programmed onto the
    endurance-critical device (by default the fast NVM, device 0).

    The trade-off knob is ``wear_coefficient``: 0 recovers the pure
    latency reward; larger values push write traffic off the critical
    device at some latency cost (quantified by the
    ``benchmarks/test_ext_endurance.py`` ablation).
    """

    latency_reward: LatencyReward = None  # type: ignore[assignment]
    wear_coefficient: float = 0.02
    critical_device: int = 0

    name = "endurance"

    def __post_init__(self) -> None:
        if self.latency_reward is None:
            self.latency_reward = LatencyReward()
        if self.wear_coefficient < 0:
            raise ValueError("wear_coefficient must be >= 0")
        if self.critical_device < 0:
            raise ValueError("critical_device must be >= 0")

    def __call__(self, result: ServeResult) -> float:
        base = self.latency_reward(result)
        if result.action != self.critical_device:
            return base
        wear = self.wear_coefficient * result.pages_written_to_action
        return max(0.0, base - wear)

    @property
    def v_max(self) -> float:
        return self.latency_reward.v_max


def make_reward(
    name: str, hss: HybridStorageSystem | None = None, **kwargs
) -> RewardFunction:
    """Build a reward by name, deriving the unit latency from the HSS.

    ``make_reward("latency", hss)`` sets the normalisation unit to one
    tenth of the slowest device's characteristic read latency, floored
    at the fast device's (the comment below gives the reason).
    """
    key = name.lower()
    if key == "latency":
        if hss is not None and "unit_latency_s" not in kwargs:
            # Scale the unit to the *configuration*: one tenth of the
            # slowest device's characteristic read latency (floored at
            # the fast device's).  This keeps slow-device rewards
            # numerically visible on the C51 atom grid regardless of
            # how wide the inter-device latency gap is — the agent must
            # be able to rank "slow hit" above "penalised eviction"
            # (Eq. 1's whole point) in H&L just as in H&M.
            slow_char = max(
                dev.characteristic_read_latency_s() for dev in hss.devices
            )
            fast_char = hss.devices[0].characteristic_read_latency_s()
            kwargs["unit_latency_s"] = max(slow_char / 10.0, fast_char)
        return LatencyReward(**kwargs)
    if key in ("hit_rate", "hitrate"):
        return HitRateReward(**kwargs)
    if key in ("eviction_penalty", "eviction"):
        return EvictionPenaltyReward(**kwargs)
    if key == "endurance":
        if hss is not None and "latency_reward" not in kwargs:
            kwargs["latency_reward"] = make_reward("latency", hss)
        return EnduranceAwareReward(**kwargs)
    raise ValueError(f"unknown reward {name!r}")
