"""Experience replay buffer (§6.2.1).

Sibyl stores ⟨State, Action, Reward, NextState⟩ transitions in a
bounded buffer in host DRAM and trains on randomly sampled batches
("experience replay").  Two paper-specific details are reproduced:

* **Deduplication** — "To minimize its design overhead, we deduplicate
  data in the stored experiences": identical transitions are stored
  once with a multiplicity count (sampling remains weighted by
  multiplicity so the training distribution is unchanged).
* **Sizing** — the default capacity is 1000 entries, where Fig. 8 shows
  performance saturating; at 100 bits/experience this is the 100 KiB
  of DRAM accounted in §10.2.

Storage layout: unique transitions live in preallocated contiguous
arrays (one row per slot), so sampling a batch is a single fancy-index
gather instead of re-stacking Python lists per batch.  The dedup map
only stores ``key -> slot``; slots freed by FIFO eviction are recycled.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from typing import List, Optional, Tuple

import numpy as np

__all__ = ["Experience", "ExperienceBuffer"]

#: Bits per stored experience: 40 (state) + 4 (action) + 16 (reward,
#: half-precision) + 40 (next state), §6.2.1.
EXPERIENCE_BITS = 100

Experience = Tuple[np.ndarray, int, float, np.ndarray]

#: Initial number of preallocated slots (grown geometrically up to the
#: buffer capacity, so huge capacities don't allocate up front).
_INITIAL_SLOTS = 1024

#: Single-byte action encodings (the dedup key's action field).
_ACTION_BYTES = [bytes([i]) for i in range(256)]

#: Half-precision reward serialisations, memoised by float value: the
#: reward distribution of a run is heavily repetitive (latencies
#: quantise), so the np.float16 round-trip on the replay hot path is
#: usually a dict hit.  Value-keyed and pure, so safely shared across
#: agents and lanes; bounded against adversarial reward streams.
_REWARD_BYTES: dict = {}
_REWARD_BYTES_LIMIT = 1 << 16

#: ±0.0 compare equal as dict keys but serialise differently (the
#: float16 sign bit), so the zeros bypass the memo with fixed encodings.
_POS_ZERO_F16 = np.float16(0.0).tobytes()
_NEG_ZERO_F16 = np.float16(-0.0).tobytes()


def _reward_bytes(reward: float) -> bytes:
    if reward == 0.0:
        return _NEG_ZERO_F16 if math.copysign(1.0, reward) < 0 else _POS_ZERO_F16
    encoded = _REWARD_BYTES.get(reward)
    if encoded is None:
        encoded = np.float16(reward).tobytes()
        if len(_REWARD_BYTES) < _REWARD_BYTES_LIMIT:
            _REWARD_BYTES[reward] = encoded
    return encoded


class ExperienceBuffer:
    """Bounded FIFO of deduplicated transitions.

    When full, the oldest *unique* transition is dropped, so the buffer
    always reflects the most recent system behaviour — the property that
    lets Sibyl adapt online to workload phase changes (§8.3).

    ``seed`` drives the buffer's *own* generator, used only when
    :meth:`sample` is called without an explicit ``rng`` — so default
    sampling is reproducible run-to-run instead of silently drawing
    from a fresh OS-seeded generator.
    """

    def __init__(self, capacity: int = 1000, seed: int = 0) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._seed = seed
        self._rng = np.random.default_rng(seed)
        # key -> slot index; insertion order = age.
        self._entries: "OrderedDict[bytes, int]" = OrderedDict()
        self._free: List[int] = []
        self._total_added = 0
        # Contiguous per-slot storage, allocated on first add (the
        # observation shape is only known then).
        self._obs: Optional[np.ndarray] = None
        self._next_obs: Optional[np.ndarray] = None
        self._actions: Optional[np.ndarray] = None
        self._rewards: Optional[np.ndarray] = None
        self._mult: Optional[np.ndarray] = None
        # Cached (insertion-order slots, sampling CDF) for sampling
        # (set_sampling_order); invalidated by any mutation.
        self._order_cache: Optional[np.ndarray] = None
        self._cdf_cache: Optional[np.ndarray] = None

    # ------------------------------------------------------------- helpers
    @staticmethod
    def _compose_key(
        obs_bytes: bytes, action: int, reward: float, next_obs_bytes: bytes
    ) -> bytes:
        # Quantise the reward to half precision — the stored format —
        # so dedup matches what the hardware buffer would hold.
        return (
            obs_bytes
            + _ACTION_BYTES[action & 0xFF]
            + _reward_bytes(reward)
            + next_obs_bytes
        )

    @staticmethod
    def _key(obs: np.ndarray, action: int, reward: float, next_obs: np.ndarray) -> bytes:
        return ExperienceBuffer._compose_key(
            np.asarray(obs, dtype=np.float32).tobytes(),
            action,
            reward,
            np.asarray(next_obs, dtype=np.float32).tobytes(),
        )

    def _allocate(self, obs: np.ndarray, next_obs: np.ndarray) -> None:
        n = min(self.capacity, _INITIAL_SLOTS)
        self._obs = np.empty((n,) + obs.shape, dtype=np.float64)
        self._next_obs = np.empty((n,) + next_obs.shape, dtype=np.float64)
        self._actions = np.empty(n, dtype=np.int64)
        self._rewards = np.empty(n, dtype=np.float64)
        self._mult = np.zeros(n, dtype=np.float64)

    def _grow(self) -> None:
        n = min(self.capacity, 2 * len(self._mult))
        for name in ("_obs", "_next_obs", "_actions", "_rewards", "_mult"):
            old = getattr(self, name)
            new = np.zeros((n,) + old.shape[1:], dtype=old.dtype)
            new[: len(old)] = old
            setattr(self, name, new)

    # ------------------------------------------------------------- mutate
    def add(
        self,
        obs: np.ndarray,
        action: int,
        reward: float,
        next_obs: np.ndarray,
        obs_bytes: Optional[bytes] = None,
        next_obs_bytes: Optional[bytes] = None,
    ) -> None:
        """Insert a transition, deduplicating identical ones.

        ``obs_bytes``/``next_obs_bytes`` optionally supply the float32
        serialisations of the observations (exactly
        ``np.asarray(x, np.float32).tobytes()``) when the caller already
        has them, skipping a redundant conversion on the hot path.
        """
        if action < 0:
            raise ValueError("action must be >= 0")
        if obs_bytes is not None and next_obs_bytes is not None:
            key = self._compose_key(obs_bytes, action, reward, next_obs_bytes)
        else:
            key = self._key(obs, action, reward, next_obs)
        slot = self._entries.get(key)
        if slot is not None:
            self._mult[slot] += 1.0
            self._entries.move_to_end(key)
        else:
            obs_arr = np.asarray(obs, dtype=np.float64)
            next_arr = np.asarray(next_obs, dtype=np.float64)
            if self._obs is None:
                self._allocate(obs_arr, next_arr)
            while len(self._entries) >= self.capacity:
                _, evicted = self._entries.popitem(last=False)
                self._mult[evicted] = 0.0
                self._free.append(evicted)
            if self._free:
                slot = self._free.pop()
            else:
                slot = len(self._entries)
                if slot >= len(self._mult):
                    self._grow()
            self._obs[slot] = obs_arr
            self._next_obs[slot] = next_arr
            self._actions[slot] = int(action)
            self._rewards[slot] = float(reward)
            self._mult[slot] = 1.0
            self._entries[key] = slot
        self._total_added += 1
        self._order_cache = None
        self._cdf_cache = None

    def clear(self) -> None:
        self._entries.clear()
        self._free = []
        self._total_added = 0
        if self._mult is not None:
            self._mult.fill(0.0)
        self._order_cache = None
        self._cdf_cache = None

    # ------------------------------------------------------------- sample
    def sample(
        self, batch_size: int, rng: Optional[np.random.Generator] = None
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Sample a batch (with replacement, weighted by multiplicity).

        Returns stacked arrays (obs, actions, rewards, next_obs).  With
        no explicit ``rng`` the buffer's own seeded generator is used,
        so default sampling stays reproducible.

        The draw replicates ``Generator.choice(n, size, p=weights)``
        exactly — one uniform block per call searched against the
        multiplicity CDF — but the CDF is cached between mutations, so
        the 8 batches of a training event build it once.  Same RNG
        stream, same indices, a fraction of the per-call overhead.
        """
        return self.gather(self.sample_slots(batch_size, rng=rng))

    def sample_slots(
        self, batch_size: int, rng: Optional[np.random.Generator] = None
    ) -> np.ndarray:
        """Storage slots of one sampled batch (the draws :meth:`sample`
        makes, without gathering the arrays).

        Callers that post-process per *unique* transition — Sibyl's
        training event computes one Bellman target per unique slot and
        gathers — use this to see through the with-replacement
        sampling.
        """
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if rng is None:
            rng = self._rng
        if self._order_cache is None:
            if not self._entries:
                raise ValueError("cannot sample from an empty buffer")
            self.set_sampling_order(np.fromiter(
                self._entries.values(), dtype=np.int64, count=len(self._entries)
            ))
        idx = self._cdf_cache.searchsorted(rng.random(batch_size), side="right")
        return self._order_cache[idx]

    def set_sampling_order(self, order: np.ndarray) -> None:
        """Cache the sampling order — the held slots, oldest first — and
        the multiplicity CDF searched against it, until the next mutation.

        :meth:`sample_slots` calls this with its own dedup map's slots.
        An engine that owns the storage arrays and keeps the FIFO on its
        side (the compiled tick kernel) calls it with that FIFO before a
        training event, so the event samples exactly as it would have
        had every ``add`` gone through this object.
        """
        weights = self._mult[order]
        weights = weights / weights.sum()
        cdf = weights.cumsum()
        cdf /= cdf[-1]
        self._order_cache = order
        self._cdf_cache = cdf

    def gather(
        self, slots: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Stacked (obs, actions, rewards, next_obs) for ``slots``."""
        return (
            self._obs[slots],
            self._actions[slots],
            self._rewards[slots],
            self._next_obs[slots],
        )

    def gather_targets(self, slots: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """(rewards, next_obs) only — the Bellman-target inputs."""
        return self._rewards[slots], self._next_obs[slots]

    # ------------------------------------------------------------- sizing
    def __len__(self) -> int:
        """Number of *unique* experiences currently held."""
        return len(self._entries)

    @property
    def total_added(self) -> int:
        """Transitions ever inserted (including deduplicated ones)."""
        return self._total_added

    @property
    def is_full(self) -> bool:
        return len(self._entries) >= self.capacity

    def storage_bits(self) -> int:
        """DRAM footprint at the paper's 100 bits/experience (§10.2)."""
        return self.capacity * EXPERIENCE_BITS

    def storage_kib(self) -> float:
        return self.storage_bits() / 8.0 / 1024.0
