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
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .network import (
    FeedForwardNetwork,
    LaneStackTraining,
    NetworkLaneStack,
    Workspace,
    mlp,
    take_rows,
    workspace,
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


#: Rows are projected in blocks of at most this many (row, atom) cells:
#: one ``np.bincount`` result of 128 000 bytes, under 128 KiB.
_BINCOUNT_ELEMENTS = 16_000


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
    rewards = np.asarray(rewards, dtype=np.float64).ravel()
    dones = np.asarray(dones, dtype=bool).ravel()
    batch, n_atoms = next_probs.shape
    v_min, v_max = float(support[0]), float(support[-1])
    delta_z = (v_max - v_min) / (n_atoms - 1)
    ws = workspace()

    # A row's geometry — between which two support atoms each of its
    # Bellman-updated atoms lands, and how far along — depends on its
    # reward alone, and a replay sample holds far fewer distinct rewards
    # than rows (latencies quantise): build it once per distinct reward
    # and gather.  Terminal rows bootstrap nothing; a batch with any
    # takes every row as its own level.
    if dones.any():
        levels, row_level = rewards, np.arange(batch)
        scale = np.where(dones, 0.0, discount).reshape(-1, 1)
    else:
        levels, row_level = np.unique(rewards, return_inverse=True)
        scale = discount
    shape = (len(levels), n_atoms)
    # Bellman-updated atom positions, clipped to the support range ...
    b = np.multiply(
        scale, support.reshape(1, -1), out=ws.array("project.b", shape)
    )
    b += levels.reshape(-1, 1)
    np.clip(b, v_min, v_max, out=b)
    b -= v_min      # ... as a fractional atom index
    b /= delta_z    # = (tz - v_min) / delta_z
    # b >= 0, so int truncation is floor.  Defining upper = lower + 1
    # (clipped into range) subsumes the integral-b special case: the
    # fractional part is then 0, so the upper weight vanishes and all
    # mass lands on the lower atom.
    lower = ws.array("project.lower", shape, np.int64)
    np.copyto(lower, b, casting="unsafe")
    upper = np.add(lower, 1, out=ws.array("project.upper", shape, np.int64))
    np.minimum(upper, n_atoms - 1, out=upper)
    b -= lower
    # Scatter-add via bincount on flattened (row, atom) indices — a
    # single C-level accumulation instead of np.add.at's slow per-index
    # ufunc loop — a block of rows at a time: rows share no output
    # element, so every sum keeps its order, while the per-row
    # temporaries and np.bincount's results (it takes no out=) stay
    # small, the latter under the allocator's mmap threshold.
    out = np.empty((batch, n_atoms))
    block = max(1, _BINCOUNT_ELEMENTS // n_atoms)
    offsets = np.arange(0, block * n_atoms, n_atoms).reshape(-1, 1)
    for start in range(0, batch, block):
        level = row_level[start:start + block]
        probs = next_probs[start:start + block]
        w_upper = take_rows(b, level, ws.array("project.w_upper", probs.shape))
        w_upper *= probs
        w_lower = np.subtract(
            probs, w_upper, out=ws.array("project.w_lower", probs.shape)
        )
        index = take_rows(
            lower, level, ws.array("project.index", probs.shape, np.int64)
        )
        index += offsets[: len(level)]
        m = np.bincount(
            index.ravel(), weights=w_lower.ravel(), minlength=index.size
        )
        take_rows(upper, level, index)
        index += offsets[: len(level)]
        m += np.bincount(
            index.ravel(), weights=w_upper.ravel(), minlength=index.size
        )
        out[start:start + block] = m.reshape(probs.shape)
    return out


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

    # ------------------------------------------------------------ inference
    def _greedy(
        self, obs: np.ndarray, ws: Workspace
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Per-action pmfs ``(batch, n_actions, n_atoms)`` of a float64
        batch — in ``ws``, see ``forward_scratch`` — and the greedy
        action of each row."""
        config = self.config
        pmfs = self.network.forward_scratch(obs, ws).reshape(
            -1, config.n_actions, config.n_atoms
        )
        column = ws.array("c51.column", pmfs.shape[:2] + (1,))
        pmfs -= np.maximum.reduce(pmfs, axis=-1, keepdims=True, out=column)
        np.exp(pmfs, out=pmfs)
        pmfs /= np.add.reduce(pmfs, axis=-1, keepdims=True, out=column)
        q = np.matmul(pmfs, self.support, out=ws.array("c51.q", pmfs.shape[:2]))
        return pmfs, np.argmax(q, axis=1)

    def distributions(self, obs: np.ndarray) -> np.ndarray:
        """Per-action pmfs, ``(batch, n_actions, n_atoms)``."""
        obs = np.atleast_2d(np.asarray(obs, dtype=np.float64))
        return self._greedy(obs, workspace())[0].copy()

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
        obs = np.atleast_2d(np.asarray(obs, dtype=np.float64))
        return self._greedy(obs, workspace())[1]

    def precompute_targets(
        self,
        rewards: np.ndarray,
        next_observations: np.ndarray,
        dones: Optional[np.ndarray] = None,
        target: Optional["C51Network"] = None,
    ) -> np.ndarray:
        """Projected Bellman target pmfs for a block of transitions.

        The entire target side of ``train_batch`` — bootstrap forward,
        the greedy next action's pmf, distributional projection —
        factored out so that several batches trained against a frozen
        target network share one pass; slice the result per batch and
        pass it as ``targets``.
        """
        rewards = np.asarray(rewards, dtype=np.float64).ravel()
        if dones is None:
            dones = np.zeros(len(rewards), dtype=bool)
        next_observations = np.atleast_2d(
            np.asarray(next_observations, dtype=np.float64)
        )
        ws = workspace()
        config = self.config
        pmfs, best = (target if target is not None else self)._greedy(
            next_observations, ws
        )
        best += np.arange(0, pmfs.shape[0] * config.n_actions, config.n_actions)
        next_probs = take_rows(
            pmfs.reshape(-1, config.n_atoms), best,
            ws.array("c51.next_probs", (len(best), config.n_atoms)),
        )
        return project_distribution(
            next_probs, rewards, dones, self.support, config.discount
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
        side.  The step itself is :meth:`train_batches` with one batch.
        """
        observations = np.atleast_2d(np.asarray(observations, dtype=np.float64))
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
        return self.train_batches(observations, actions, target_pmf, batch)[0]

    def train_batches(
        self,
        observations: np.ndarray,
        actions: np.ndarray,
        targets: np.ndarray,
        batch_size: int,
    ) -> List[float]:
        """One SGD step per ``batch_size`` consecutive rows; the mean
        loss of each.  Inputs as :meth:`train_batch` has validated them
        (float64 observations, int64 actions in range, the rows'
        projected target pmfs): a training event hands over its batches
        as one block.

        Per step: forward with caching, then softmax cross-entropy
        gradient on the chosen action's atoms only — loss and gradient
        involve just those, and the per-action softmax is independent,
        so gather first and softmax half the logits.  Each step leaves
        its rows' cross-entropies; the losses are taken from them once,
        after the last step.
        """
        n_actions, n_atoms = self.config.n_actions, self.config.n_atoms
        steps = len(observations) // batch_size
        ws = workspace()
        net = self.network
        step_params = [net.flat_parameters], [net.flat_gradients]
        targets = targets.reshape(steps, batch_size, n_atoms)
        # Row of each sample's chosen action in a batch's logits viewed
        # as (batch_size * n_actions, n_atoms).
        picks = actions.reshape(steps, batch_size) + np.arange(
            0, batch_size * n_actions, n_actions
        )
        soft = ws.array("c51.soft", (batch_size, n_atoms))
        work = ws.array("c51.work", (batch_size, n_atoms))
        column = ws.array("c51.step_column", (batch_size, 1))
        grad = ws.array("c51.grad", (batch_size * n_actions, n_atoms))
        cross_entropy = np.empty((steps, batch_size))
        for i in range(steps):
            logits = net.forward(
                observations[i * batch_size:(i + 1) * batch_size], train=True
            ).reshape(batch_size * n_actions, n_atoms)
            take_rows(logits, picks[i], soft)
            soft -= np.maximum.reduce(soft, axis=-1, keepdims=True, out=column)
            np.exp(soft, out=soft)
            soft /= np.add.reduce(soft, axis=-1, keepdims=True, out=column)
            np.subtract(soft, targets[i], out=work)
            work /= batch_size
            grad.fill(0.0)
            grad[picks[i]] = work
            np.maximum(soft, 1e-12, out=work)
            np.log(work, out=work)
            work *= targets[i]
            np.add.reduce(work, axis=1, out=cross_entropy[i])
            net.backward(grad.reshape(batch_size, n_actions * n_atoms))
            self.optimizer.step(*step_params)
        self.train_steps += steps
        return (-cross_entropy).mean(axis=1).tolist()

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
