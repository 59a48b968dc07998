"""Plain (expected-value) Deep Q-Network.

The paper selects C51 over value-estimate DQN variants (§6.2.1); this
module implements the standard DQN so the benchmark suite can run the
ablation comparing the two, and so downstream users can swap heads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .network import (
    FeedForwardNetwork,
    NetworkLaneStack,
    mlp,
    workspace,
)
from .optim import Optimizer, get_optimizer

__all__ = ["DQNConfig", "DQNNetwork", "DQNLaneStack"]


@dataclass(frozen=True)
class DQNConfig:
    """Hyper-parameters for the expected-value DQN head."""

    n_observations: int = 6
    n_actions: int = 2
    hidden_sizes: Tuple[int, ...] = (20, 30)
    discount: float = 0.9
    learning_rate: float = 1e-4
    optimizer: str = "sgd"
    activation: str = "swish"

    def __post_init__(self) -> None:
        if self.n_observations <= 0 or self.n_actions <= 0:
            raise ValueError("observation/action dimensions must be positive")
        if not 0.0 <= self.discount <= 1.0:
            raise ValueError("discount must lie in [0, 1]")


class DQNNetwork:
    """Q-network with a Huber-loss TD update and target-network bootstrap."""

    def __init__(
        self,
        config: DQNConfig,
        rng: Optional[np.random.Generator] = None,
        network: Optional[FeedForwardNetwork] = None,
    ) -> None:
        self.config = config
        self.rng = rng or np.random.default_rng()
        sizes = [config.n_observations] + list(config.hidden_sizes) + [config.n_actions]
        self.network = network or mlp(
            sizes, hidden_activation=config.activation, rng=self.rng
        )
        # Flat parameter/gradient views for single-vector optimizer steps.
        self.network.pack_parameters()
        self.optimizer: Optimizer = get_optimizer(
            config.optimizer, config.learning_rate
        )
        self.train_steps = 0

    # ------------------------------------------------------------ inference
    def q_values(self, obs: np.ndarray) -> np.ndarray:
        return self.network.forward(obs)

    def best_action(self, obs: np.ndarray) -> int:
        obs = np.asarray(obs, dtype=np.float64).ravel()
        return int(np.argmax(self.network.forward_1d(obs)))

    def best_actions(self, obs: np.ndarray) -> np.ndarray:
        obs = np.atleast_2d(np.asarray(obs, dtype=np.float64))
        return np.argmax(self.network.forward_scratch(obs, workspace()), axis=1)

    def precompute_targets(
        self,
        rewards: np.ndarray,
        next_observations: np.ndarray,
        dones: Optional[np.ndarray] = None,
        target: Optional["DQNNetwork"] = None,
    ) -> np.ndarray:
        """TD targets ``(batch,)`` for a block of transitions (the whole
        target side of ``train_batch`` — one forward of the bootstrap
        network, its max next-state Q-values — so several batches
        against a frozen target share it; slice per batch and pass as
        ``targets``)."""
        rewards = np.asarray(rewards, dtype=np.float64).ravel()
        if dones is None:
            dones = np.zeros(len(rewards), dtype=bool)
        next_observations = np.atleast_2d(
            np.asarray(next_observations, dtype=np.float64)
        )
        bootstrap = target if target is not None else self
        next_q = bootstrap.network.forward_scratch(
            next_observations, workspace()
        ).max(axis=1)
        return rewards + np.where(dones, 0.0, self.config.discount) * next_q

    # ------------------------------------------------------------- training
    def train_batch(
        self,
        observations: np.ndarray,
        actions: np.ndarray,
        rewards: np.ndarray,
        next_observations: np.ndarray,
        dones: Optional[np.ndarray] = None,
        target: Optional["DQNNetwork"] = None,
        huber_delta: float = 1.0,
        targets: Optional[np.ndarray] = None,
    ) -> float:
        """One TD(0) step with Huber loss; returns the mean loss.

        ``targets`` optionally supplies precomputed TD targets (see
        :meth:`precompute_targets`), skipping the target forward pass.
        The step itself is :meth:`train_batches` with one batch.
        """
        observations = np.atleast_2d(np.asarray(observations, dtype=np.float64))
        actions = np.asarray(actions, dtype=np.int64).ravel()
        rewards = np.asarray(rewards, dtype=np.float64).ravel()
        batch = observations.shape[0]
        if dones is None:
            dones = np.zeros(batch, dtype=bool)
        else:
            dones = np.asarray(dones, dtype=bool).ravel()
        if actions.min(initial=0) < 0 or actions.max(initial=0) >= self.config.n_actions:
            raise ValueError("action index out of range")

        if targets is not None:
            td_target = np.asarray(targets, dtype=np.float64).ravel()
            if len(td_target) != batch:
                raise ValueError("targets length mismatch")
        else:
            td_target = self.precompute_targets(
                rewards, next_observations, dones=dones, target=target
            )
        return self.train_batches(
            observations, actions, td_target, batch, huber_delta
        )[0]

    def train_batches(
        self,
        observations: np.ndarray,
        actions: np.ndarray,
        targets: np.ndarray,
        batch_size: int,
        huber_delta: float = 1.0,
    ) -> List[float]:
        """One TD(0) step per ``batch_size`` consecutive rows; the mean
        Huber loss of each (the expected-value counterpart of
        :meth:`repro.rl.c51.C51Network.train_batches`: inputs as
        :meth:`train_batch` has validated them, the TD errors kept and
        the losses taken from them once, after the last step)."""
        n_actions = self.config.n_actions
        steps = len(observations) // batch_size
        net = self.network
        step_params = [net.flat_parameters], [net.flat_gradients]
        targets = targets.reshape(steps, batch_size)
        # Index of each sample's chosen action in a batch's flat Q-values.
        picks = actions.reshape(steps, batch_size) + np.arange(
            0, batch_size * n_actions, n_actions
        )
        err = np.empty((steps, batch_size))
        grad = np.empty(batch_size * n_actions)
        for i in range(steps):
            q = net.forward(
                observations[i * batch_size:(i + 1) * batch_size], train=True
            ).reshape(-1)
            e = np.subtract(q[picks[i]], targets[i], out=err[i])
            quadratic = np.abs(e) <= huber_delta
            grad.fill(0.0)
            grad[picks[i]] = (
                np.where(quadratic, e, huber_delta * np.sign(e)) / batch_size
            )
            net.backward(grad.reshape(batch_size, n_actions))
            self.optimizer.step(*step_params)
        self.train_steps += steps
        abs_err = np.abs(err)
        return np.where(
            abs_err <= huber_delta,
            0.5 * err * err,
            huber_delta * (abs_err - 0.5 * huber_delta),
        ).mean(axis=1).tolist()

    # --------------------------------------------------------------- sync
    def copy_weights_from(self, other: "DQNNetwork") -> None:
        self.network.copy_weights_from(other.network)

    def clone(self) -> "DQNNetwork":
        return DQNNetwork(self.config, rng=self.rng, network=self.network.clone())


class DQNLaneStack:
    """Fused greedy-action inference across K independent DQN networks.

    The expected-value counterpart of
    :class:`~repro.rl.c51.C51LaneStack`: one stacked forward through
    per-lane weights, then an argmax per lane — operation for operation
    what :meth:`DQNNetwork.best_action` computes serially.
    """

    def __init__(self, networks: Sequence[DQNNetwork]) -> None:
        networks = list(networks)
        if not networks:
            raise ValueError("need at least one network")
        self.networks = networks
        self.n_actions = networks[0].config.n_actions
        self.stack = NetworkLaneStack([net.network for net in networks])

    def __len__(self) -> int:
        return len(self.stack)

    @property
    def in_features(self) -> int:
        return self.stack.in_features

    def refresh(self, lane: int) -> None:
        self.stack.refresh(lane)

    def best_actions(self, obs: np.ndarray) -> np.ndarray:
        """Greedy action per lane for ``(K, n_obs)`` observations."""
        return np.argmax(self.stack.forward(obs), axis=1)
