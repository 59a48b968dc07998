"""Categorical Deep Q-Network (C51) in numpy.

Sibyl's policy is a Categorical DQN (Bellemare et al., "A Distributional
Perspective on Reinforcement Learning"), chosen because learning the full
*distribution* of returns "helps Sibyl capture more information from the
environment to make better data placement decisions" (§6.2.1).

The value distribution is represented by ``n_atoms`` fixed support points
(atoms) ``z_i`` uniformly spaced over ``[v_min, v_max]``.  The network
outputs one logit per (action, atom); a per-action softmax turns logits
into a probability mass function, and ``Q(s, a) = Σ_i p_i(s, a) · z_i``.

Training uses the distributional Bellman projection: the target
distribution ``r + γ·z`` (from a separate *target network*, which for
Sibyl is the inference network that lags the training network) is
projected back onto the fixed support, and the training network minimises
the cross-entropy to that projection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .network import (
    FeedForwardNetwork,
    LaneStackTraining,
    NetworkLaneStack,
    mlp,
)
from .optim import Optimizer, get_optimizer

__all__ = ["C51Config", "C51Network", "C51LaneStack", "project_distribution"]


@dataclass(frozen=True)
class C51Config:
    """Hyper-parameters of the categorical DQN.

    Defaults follow Table 2 of the paper (γ=0.9, α=1e-4) with the
    paper's 6-feature observation, two-action placement, and the 20/30
    hidden layers of Fig. 7(b).
    """

    n_observations: int = 6
    n_actions: int = 2
    hidden_sizes: Tuple[int, ...] = (20, 30)
    n_atoms: int = 51
    v_min: float = 0.0
    v_max: float = 12.0
    discount: float = 0.9
    learning_rate: float = 1e-4
    optimizer: str = "sgd"
    activation: str = "swish"

    def __post_init__(self) -> None:
        if self.n_observations <= 0 or self.n_actions <= 0:
            raise ValueError("observation/action dimensions must be positive")
        if self.n_atoms < 2:
            raise ValueError("need at least two atoms")
        if self.v_max <= self.v_min:
            raise ValueError("v_max must exceed v_min")
        if not 0.0 <= self.discount <= 1.0:
            raise ValueError("discount must lie in [0, 1]")


def project_distribution(
    next_probs: np.ndarray,
    rewards: np.ndarray,
    dones: np.ndarray,
    support: np.ndarray,
    discount: float,
) -> np.ndarray:
    """Project ``r + γ·z`` onto the fixed support (the C51 Lb operator).

    Parameters
    ----------
    next_probs:
        ``(batch, n_atoms)`` pmf of the chosen next-state action.
    rewards:
        ``(batch,)`` immediate rewards.
    dones:
        ``(batch,)`` booleans; terminal transitions bootstrap nothing.
    support:
        ``(n_atoms,)`` atom locations, uniformly spaced.
    discount:
        γ.

    Returns
    -------
    ``(batch, n_atoms)`` projected target pmf; each row sums to 1.
    """
    next_probs = np.asarray(next_probs, dtype=np.float64)
    rewards = np.asarray(rewards, dtype=np.float64).reshape(-1, 1)
    dones = np.asarray(dones, dtype=bool).reshape(-1, 1)
    batch, n_atoms = next_probs.shape
    v_min, v_max = float(support[0]), float(support[-1])
    delta_z = (v_max - v_min) / (n_atoms - 1)

    # Bellman-updated atom positions, clipped to the support range.
    # Temporaries are folded in place (each value is still computed by
    # the same expression, just written into an existing buffer), which
    # matters at the fused-training block size of 1024 transitions.
    if dones.any():
        tz = rewards + np.where(dones, 0.0, discount) * support.reshape(1, -1)
    else:
        tz = rewards + discount * support.reshape(1, -1)
    np.clip(tz, v_min, v_max, out=tz)
    b = np.subtract(tz, v_min, out=tz)  # fractional atom index ...
    b /= delta_z                        # ... = (tz - v_min) / delta_z
    # b >= 0, so int truncation is floor.  Defining upper = lower + 1
    # (clipped into range) subsumes the integral-b special case: the
    # fractional part is then 0, so the upper weight vanishes and all
    # mass lands on the lower atom.
    lower = b.astype(np.int64)
    upper = np.minimum(lower + 1, n_atoms - 1)
    w_upper = np.subtract(b, lower, out=b)
    w_upper *= next_probs
    w_lower = next_probs - w_upper
    # Scatter-add via bincount on flattened (row, atom) indices — a
    # single C-level accumulation instead of np.add.at's slow per-index
    # ufunc loop.
    offsets = (np.arange(batch, dtype=np.int64) * n_atoms).reshape(-1, 1)
    m = np.bincount(
        np.add(offsets, lower, out=lower).ravel(),
        weights=w_lower.ravel(),
        minlength=batch * n_atoms,
    )
    m += np.bincount(
        np.add(offsets, upper, out=upper).ravel(),
        weights=w_upper.ravel(),
        minlength=batch * n_atoms,
    )
    return m.reshape(batch, n_atoms)


class C51Network:
    """A categorical-DQN head over a feed-forward trunk.

    This class is used twice by Sibyl: once as the *training network*
    (updated by SGD) and once as the *inference network* (updated only
    through periodic weight copies).
    """

    def __init__(
        self,
        config: C51Config,
        rng: Optional[np.random.Generator] = None,
        network: Optional[FeedForwardNetwork] = None,
    ) -> None:
        self.config = config
        self.rng = rng or np.random.default_rng()
        sizes = (
            [config.n_observations]
            + list(config.hidden_sizes)
            + [config.n_actions * config.n_atoms]
        )
        self.network = network or mlp(
            sizes, hidden_activation=config.activation, rng=self.rng
        )
        if self.network.out_features != config.n_actions * config.n_atoms:
            raise ValueError("network output size must be n_actions * n_atoms")
        # Flat parameter/gradient views: the optimizer updates the whole
        # network as one vector (identical values, far fewer ufunc calls).
        self.network.pack_parameters()
        self.support = np.linspace(
            config.v_min, config.v_max, config.n_atoms, dtype=np.float64
        )
        self.optimizer: Optimizer = get_optimizer(
            config.optimizer, config.learning_rate
        )
        self.train_steps = 0
        # Preallocated gradient scratch for train_batch, keyed by batch
        # size (training uses one fixed batch size, so this is a single
        # reused buffer in practice).
        self._grad_scratch: dict = {}

    # ------------------------------------------------------------ inference
    def logits(self, obs: np.ndarray, train: bool = False) -> np.ndarray:
        """``(batch, n_actions, n_atoms)`` raw logits."""
        out = self.network.forward(obs, train=train)
        return out.reshape(-1, self.config.n_actions, self.config.n_atoms)

    def distributions(self, obs: np.ndarray, train: bool = False) -> np.ndarray:
        """Per-action pmfs, ``(batch, n_actions, n_atoms)``."""
        logits = self.logits(obs, train=train)
        if train:
            # The returned logits alias the cached pre-activations the
            # backward pass needs; don't mutate them.
            logits = logits - logits.max(axis=-1, keepdims=True)
        else:
            logits -= logits.max(axis=-1, keepdims=True)
        np.exp(logits, out=logits)
        logits /= logits.sum(axis=-1, keepdims=True)
        return logits

    def q_values(self, obs: np.ndarray) -> np.ndarray:
        """Expected returns ``(batch, n_actions)``."""
        return self.distributions(obs) @ self.support

    def best_action(self, obs: np.ndarray) -> int:
        """Greedy action for a single observation (fused hot path)."""
        obs = np.asarray(obs, dtype=np.float64).ravel()
        logits = self.network.forward_1d(obs).reshape(
            self.config.n_actions, self.config.n_atoms
        )
        logits -= logits.max(axis=1, keepdims=True)
        np.exp(logits, out=logits)
        q = (logits @ self.support) / logits.sum(axis=1)
        return int(np.argmax(q))

    def best_actions(self, obs: np.ndarray) -> np.ndarray:
        """Greedy actions for a batch of observations."""
        return np.argmax(self.q_values(obs), axis=1)

    def bootstrap_targets(self, next_observations: np.ndarray) -> np.ndarray:
        """Next-state bootstrap pmfs ``(batch, n_atoms)`` in one pass.

        This is the target-network half of ``train_batch`` factored out
        so a caller training several batches against a *frozen* target
        (Sibyl's training thread) can batch all of them into a single
        forward pass and slice the result.
        """
        next_observations = np.atleast_2d(
            np.asarray(next_observations, dtype=np.float64)
        )
        next_dist = self.distributions(next_observations)
        next_q = next_dist @ self.support
        next_best = np.argmax(next_q, axis=1)
        return next_dist[np.arange(len(next_best)), next_best]

    def precompute_targets(
        self,
        rewards: np.ndarray,
        next_observations: np.ndarray,
        dones: Optional[np.ndarray] = None,
        target: Optional["C51Network"] = None,
    ) -> np.ndarray:
        """Projected Bellman target pmfs for a block of transitions.

        Factors the entire target side of ``train_batch`` (bootstrap
        forward + distributional projection) out so that several batches
        trained against a frozen target network share one fused pass;
        slice the result per batch and pass it as ``targets``.
        """
        rewards = np.asarray(rewards, dtype=np.float64).ravel()
        if dones is None:
            dones = np.zeros(len(rewards), dtype=bool)
        bootstrap = target if target is not None else self
        next_probs = bootstrap.bootstrap_targets(next_observations)
        return project_distribution(
            next_probs, rewards, dones, self.support, self.config.discount
        )

    # ------------------------------------------------------------- training
    def train_batch(
        self,
        observations: np.ndarray,
        actions: np.ndarray,
        rewards: np.ndarray,
        next_observations: np.ndarray,
        dones: Optional[np.ndarray] = None,
        target: Optional["C51Network"] = None,
        targets: Optional[np.ndarray] = None,
    ) -> float:
        """One SGD step on a batch of transitions; returns the mean loss.

        ``target`` supplies the bootstrap distribution; Sibyl passes its
        inference network here (the lagged copy), falling back to the
        training network itself when omitted.  ``targets`` optionally
        supplies precomputed projected target pmfs (from
        :meth:`precompute_targets`), skipping the whole per-call target
        side.
        """
        observations = np.atleast_2d(np.asarray(observations, dtype=np.float64))
        next_observations = np.atleast_2d(
            np.asarray(next_observations, dtype=np.float64)
        )
        actions = np.asarray(actions, dtype=np.int64).ravel()
        rewards = np.asarray(rewards, dtype=np.float64).ravel()
        batch = observations.shape[0]
        if dones is None:
            dones = np.zeros(batch, dtype=bool)
        else:
            dones = np.asarray(dones, dtype=bool).ravel()
        if not (len(actions) == len(rewards) == len(dones) == batch):
            raise ValueError("batch size mismatch across transition fields")
        if actions.min(initial=0) < 0 or actions.max(initial=0) >= self.config.n_actions:
            raise ValueError("action index out of range")

        if targets is not None:
            target_pmf = np.asarray(targets, dtype=np.float64)
            if target_pmf.shape != (batch, self.config.n_atoms):
                raise ValueError("targets shape mismatch")
        else:
            target_pmf = self.precompute_targets(
                rewards, next_observations, dones=dones, target=target
            )

        # Forward with caching, then softmax cross-entropy gradient on the
        # chosen action's atoms only.  Both the loss and the gradient
        # involve just the chosen action's atoms, and the per-action
        # softmax is independent, so gather first and softmax half the
        # logits (softmax commutes with the gather).
        logits = self.logits(observations, train=True)
        rows = np.arange(batch)
        chosen = logits[rows, actions]
        chosen -= chosen.max(axis=-1, keepdims=True)
        np.exp(chosen, out=chosen)
        chosen /= chosen.sum(axis=-1, keepdims=True)
        loss = -np.sum(
            target_pmf * np.log(np.clip(chosen, 1e-12, None)), axis=1
        ).mean()

        grad = self._grad_scratch.get(batch)
        if grad is None:
            grad = np.empty_like(logits)
            self._grad_scratch[batch] = grad
        grad.fill(0.0)
        grad[rows, actions] = (chosen - target_pmf) / batch
        self.network.zero_grad()
        self.network.backward(
            grad.reshape(batch, self.config.n_actions * self.config.n_atoms)
        )
        self.optimizer.step(
            [self.network.flat_parameters], [self.network.flat_gradients]
        )
        self.train_steps += 1
        return float(loss)

    # --------------------------------------------------------------- sync
    def copy_weights_from(self, other: "C51Network") -> None:
        """Copy the training network weights into this (inference) network."""
        self.network.copy_weights_from(other.network)

    def clone(self) -> "C51Network":
        """Create an identical network (Sibyl's inference-network spawn)."""
        return C51Network(self.config, rng=self.rng, network=self.network.clone())


class C51LaneStack(LaneStackTraining):
    """Fused greedy-action inference across K independent C51 networks.

    Built by the placement daemon (:mod:`repro.serve.engine`) over the
    *inference* networks of its tenants: one round's cache-miss
    observations are gathered into a ``(K, n_obs)`` batch, pushed
    through a :class:`~repro.rl.network.NetworkLaneStack` (per-lane
    weights), and the per-lane greedy actions are scattered back.  The post-network
    math mirrors :meth:`C51Network.best_action` operation for operation
    (shift, exp, expected value over each lane's own support, argmax),
    so the fused action equals the serial one bit for bit.
    """

    def __init__(self, networks: Sequence[C51Network]) -> None:
        networks = list(networks)
        if not networks:
            raise ValueError("need at least one network")
        head = (networks[0].config.n_actions, networks[0].config.n_atoms)
        for net in networks[1:]:
            if (net.config.n_actions, net.config.n_atoms) != head:
                raise ValueError(
                    "all networks in a lane stack must share one head shape"
                )
        self.n_actions, self.n_atoms = head
        self.networks = networks
        self.stack = NetworkLaneStack([net.network for net in networks])
        # (K, n_atoms, 1): each lane's own support column (v_min/v_max
        # depend on the lane's reward function).
        self.supports = np.stack([net.support for net in networks])[:, :, None]
        self._grad_scratch: dict = {}

    def __len__(self) -> int:
        return len(self.stack)

    @property
    def in_features(self) -> int:
        return self.stack.in_features

    def refresh(self, lane: int) -> None:
        """Re-sync lane ``lane`` after a training→inference weight copy."""
        self.stack.refresh(lane)

    def best_actions(self, obs: np.ndarray) -> np.ndarray:
        """Greedy action per lane for ``(K, n_obs)`` observations."""
        k = len(self.stack)
        logits = self.stack.forward(obs).reshape(k, self.n_actions, self.n_atoms)
        logits -= logits.max(axis=2, keepdims=True)
        np.exp(logits, out=logits)
        q = np.matmul(logits, self.supports)[:, :, 0] / logits.sum(axis=2)
        return np.argmax(q, axis=1)

    # --------------------------------------------------------- fused training
    # (event lifecycle + per-lane precompute_targets: LaneStackTraining)
    def train_batch(
        self,
        observations: np.ndarray,
        actions: np.ndarray,
        targets: np.ndarray,
        optimizer,
    ) -> np.ndarray:
        """One fused SGD step: every lane's batch through its own weights.

        ``observations`` is ``(K, B, n_obs)``, ``actions`` ``(K, B)``,
        ``targets`` the per-lane projected target pmfs ``(K, B,
        n_atoms)``; ``optimizer`` is the lanes'
        :class:`~repro.rl.optim.StackedOptimizer`.  Returns the ``(K,)``
        per-lane mean losses.  Per lane this is operation for operation
        :meth:`C51Network.train_batch` with precomputed ``targets`` —
        gather the chosen action's logits, softmax them, cross-entropy
        loss and gradient, stacked backward, one fused optimizer step —
        so losses and updated weights are bit-identical to K serial
        calls.  Requires :meth:`begin_training_event`.
        """
        k, batch = actions.shape
        logits = self.stack.train_forward(observations).reshape(
            k, batch, self.n_actions, self.n_atoms
        )
        lanes = np.arange(k)[:, None]
        rows = np.arange(batch)[None, :]
        chosen = logits[lanes, rows, actions]
        chosen -= chosen.max(axis=-1, keepdims=True)
        np.exp(chosen, out=chosen)
        chosen /= chosen.sum(axis=-1, keepdims=True)
        losses = -np.sum(
            targets * np.log(np.clip(chosen, 1e-12, None)), axis=2
        ).mean(axis=1)

        grad = self._zeroed_grad_scratch(logits)
        grad[lanes, rows, actions] = (chosen - targets) / batch
        self.stack.train_backward(
            grad.reshape(k, batch, self.n_actions * self.n_atoms)
        )
        optimizer.step(self.stack.flat_parameters, self.stack.flat_gradients)
        for net in self.networks:
            net.train_steps += 1
        return losses
