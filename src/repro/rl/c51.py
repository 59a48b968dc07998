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

:meth:`C51Network.train_batches` and :meth:`C51Network.best_action` run
in the compiled library (``sib_c51_train``, ``sib_c51_act`` in
:mod:`repro.native`) when it can take the network, and so does the
compiled tick kernel's memo-miss forward: the same statements on the
same arrays, every product through the ``cblas_dgemm``/``cblas_dgemv``
call NumPy makes and ``tanh``/``exp``/``log`` through NumPy's own float64
loops, so the bytes are NumPy's by construction.  The NumPy code stays
the reference, and the path for a network the library cannot take
(:meth:`C51Network._refusal`) or wherever the ``c51`` row of its entry
table (:data:`repro.native.library.ENTRIES`) does not resolve.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..native import abi
from ..obs.tracer import span
from .activations import Identity, Swish
from .network import (
    FeedForwardNetwork,
    NetworkLaneStack,
    Workspace,
    mlp,
    take_rows,
    workspace,
)
from .optim import Adam, Optimizer, get_optimizer

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
        compiled, _ = self._compiled()
        if compiled is not None and obs.size == self.config.n_observations:
            return compiled.act(obs)
        logits = self.network.forward_1d(obs).reshape(
            self.config.n_actions, self.config.n_atoms
        )
        logits -= logits.max(axis=1, keepdims=True)
        np.exp(logits, out=logits)
        q = (logits @ self.support) / logits.sum(axis=1)
        return int(np.argmax(q))

    def best_actions(self, obs: np.ndarray) -> np.ndarray:
        """Greedy actions for a batch of observations: one
        ``sib_c51_greedy`` call when the compiled library takes the
        batch, else :meth:`_greedy` in NumPy."""
        obs = np.atleast_2d(np.asarray(obs, dtype=np.float64))
        compiled, _ = self._compiled(rows=len(obs))
        if compiled is not None and not self._batch_refusal(obs):
            return compiled.greedy(obs)
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
        pass it as ``targets``.  The pass is one ``sib_c51_targets``
        call when the compiled library takes the target network and the
        block, else NumPy; an ``rl.c51_targets`` span says which.
        """
        rewards = np.asarray(rewards, dtype=np.float64).ravel()
        next_observations = np.atleast_2d(
            np.asarray(next_observations, dtype=np.float64)
        )
        net = target if target is not None else self
        rows = len(next_observations)
        compiled, why = net._compiled(rows=rows)
        if compiled is not None:
            why = net._batch_refusal(next_observations) or self._target_refusal(
                net, rewards, dones, rows
            )
        if why:
            compiled = None
        engine = {"engine": "cext"} if compiled is not None else {
            "engine": "python", "reason": why,
        }
        with span("rl.c51_targets", cat="rl", **engine, rows=rows):
            if compiled is not None:
                return compiled.targets(
                    next_observations, rewards, dones, self.config.discount
                )
            if dones is None:
                dones = np.zeros(len(rewards), dtype=bool)
            return self._targets(net, rewards, next_observations, dones)

    def _target_refusal(
        self, net: "C51Network", rewards: np.ndarray,
        dones: Optional[np.ndarray], rows: int,
    ) -> str:
        """Why the compiled target pass cannot take this block (empty
        when it can): NumPy raises on it, or projects onto a support
        the target network's forward does not use."""
        if len(rewards) != rows or (dones is not None and np.size(dones) != rows):
            return "rewards, dones and observations differ in length"
        if np.isnan(rewards).any():
            return "a NaN reward"
        if net is not self and net.support.tobytes() != self.support.tobytes():
            return "the target network's support differs"
        return ""

    def _targets(
        self, net: "C51Network", rewards: np.ndarray,
        next_observations: np.ndarray, dones: np.ndarray,
    ) -> np.ndarray:
        """:meth:`precompute_targets` in NumPy, ``net`` the target."""
        ws = workspace()
        config = self.config
        pmfs, best = net._greedy(next_observations, ws)
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
        loss of each.  Inputs as :meth:`train_batch` has shaped them
        (float64 observations, integer actions, the rows' projected
        target pmfs): a training event hands over its batches as one
        block.  Actions out of range and a partial batch raise
        ``ValueError`` here, before either engine updates anything.

        Per step: forward with caching, then softmax cross-entropy
        gradient on the chosen action's atoms only — loss and gradient
        involve just those, and the per-action softmax is independent,
        so gather first and softmax half the logits.  Each step leaves
        its rows' cross-entropies; the losses are taken from them once,
        after the last step.  The steps run in one call into the
        compiled library when it can take the network, else in NumPy
        (:meth:`_train_steps`); an ``rl.c51_train`` span says which.
        """
        n_atoms = self.config.n_atoms
        if batch_size < 1 or len(observations) % batch_size:
            raise ValueError(
                f"{len(observations)} rows are not a whole number of "
                f"batches of {batch_size}"
            )
        if actions.min(initial=0) < 0 or actions.max(initial=0) >= self.config.n_actions:
            raise ValueError("action index out of range")
        steps = len(observations) // batch_size
        targets = targets.reshape(steps, batch_size, n_atoms)
        compiled, why = (
            self._compiled(batch_size) if steps else (None, "no full batch")
        )
        if compiled is not None and not (
            observations.dtype == np.float64
            and observations.flags.c_contiguous
            and observations.shape[1:] == (self.config.n_observations,)
        ):
            compiled, why = None, "observations not a C-ordered float64 batch"
        engine = {"engine": "cext"} if compiled is not None else {
            "engine": "python", "reason": why,
        }
        with span("rl.c51_train", cat="rl", **engine, steps=steps):
            if compiled is None:
                cross_entropy = self._train_steps(
                    observations, actions, targets, batch_size
                )
            else:
                cross_entropy = compiled.train(
                    self, observations, actions, targets, batch_size
                )
        self.train_steps += steps
        return (-cross_entropy).mean(axis=1).tolist()

    def _train_steps(
        self,
        observations: np.ndarray,
        actions: np.ndarray,
        targets: np.ndarray,
        batch_size: int,
    ) -> np.ndarray:
        """:meth:`train_batches` in NumPy, ``targets`` shaped ``(steps,
        batch_size, n_atoms)``: each step's per-row cross-entropies."""
        n_actions, n_atoms = self.config.n_actions, self.config.n_atoms
        steps = len(targets)
        ws = workspace()
        net = self.network
        step_params = [net.flat_parameters], [net.flat_gradients]
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
        return cross_entropy

    # ------------------------------------------------------------ compiled
    def _widths(self) -> Tuple[int, ...]:
        """Every layer's width, the observation first."""
        layers = self.network.layers
        return (layers[0].in_features, *(layer.out_features for layer in layers))

    def _refusal(self, batch_size: int = 0, rows: Optional[int] = None) -> str:
        """Why the compiled library cannot take this network (empty
        when it can) for a forward, with ``batch_size`` for training
        steps of that many rows, or with ``rows`` for a batched pass
        (the target pass, :meth:`best_actions`) over that many: an
        activation other than swish with beta 1 on a hidden layer or
        identity on the head, a shape where NumPy's products are not
        all BLAS calls (a 1-wide layer, one action, a batch of fewer
        than two rows), or training under another optimizer than
        :class:`Adam`."""
        layers = self.network.layers
        for layer in layers[:-1]:
            act = layer.activation
            if type(act) is not Swish or act.beta != 1.0:
                return f"hidden activation {act.signature} is not swish, beta 1"
        if type(layers[-1].activation) is not Identity:
            return f"head activation {layers[-1].activation.name} is not identity"
        widths = self._widths()
        if min(widths) < 2 or self.config.n_actions < 2:
            return (f"shape {'-'.join(map(str, widths))} has a 1-wide layer "
                    "or one action")
        if batch_size:
            if type(self.optimizer) is not Adam:
                return f"optimizer {type(self.optimizer).__name__} is not Adam"
            if batch_size < 2:
                return "a batch of one row"
        if rows is not None and rows < 2:
            return "a batch of fewer than two rows"
        return ""

    def _batch_refusal(self, obs: np.ndarray) -> str:
        """Why a batched pass cannot take ``obs`` as it is (empty when
        it can): NumPy reads any other layout through other BLAS calls,
        or raises."""
        if obs.flags.c_contiguous and obs.shape[1:] == (
            self.config.n_observations,
        ):
            return ""
        return "observations not a C-ordered float64 batch"

    def _compiled(
        self, batch_size: int = 0, backend: Optional[str] = None,
        rows: Optional[int] = None,
    ) -> Tuple[Optional["_CompiledC51"], str]:
        """``(binding, "")``: this network's arrays in the compiled
        library (bound on the first call that gets one) for a forward,
        with ``batch_size`` for training steps of that many rows, or
        with ``rows`` for a batched pass over that many; or ``(None,
        why)``: NumPy runs.  The gate is asked on every call, so
        ``SIBYL_BACKEND=off`` holds for a network bound before;
        ``backend`` overrides the knob (a kernel lane's engine)."""
        why = self._refusal(batch_size, rows)
        if why:
            return None, why
        from ..native import library

        c51, why = library.entry(
            "c51", self._widths(), self.config.n_actions, self.config.n_atoms,
            batch_size, rows is not None, backend=backend,
        )
        if c51 is None:
            return None, why
        compiled = _BINDINGS.get(self)
        if compiled is None:
            compiled = _BINDINGS[self] = _CompiledC51(self, c51)
        return compiled, ""

    # --------------------------------------------------------------- sync
    def copy_weights_from(self, other: "C51Network") -> None:
        """Copy the training network weights into this (inference) network."""
        self.network.copy_weights_from(other.network)

    def clone(self) -> "C51Network":
        """Create an identical network (Sibyl's inference-network spawn)."""
        return C51Network(self.config, rng=self.rng, network=self.network.clone())


class _CompiledC51:
    """One :class:`C51Network`'s arrays in the library's pointer table.

    Held beside the network in :data:`_BINDINGS`, not on it: the network
    stays plain data (copies, pickles and state comparisons see what
    NumPy leaves), and a copy binds its own arrays on first use.

    The table points at the network's flat parameters, gradients and
    support, which live as long as the network (weight copies write
    into them), and at this binding's scratch and input, and is built
    once.  A training call points slots at what it holds for that call
    only (:func:`repro.native.library.pointed`): the optimizer's current
    moments (created as ``Adam.step``'s first call creates them), each
    Dense layer's training buffers, the step's workspace arrays and the
    batch.
    """

    def __init__(self, net: C51Network, binding) -> None:
        from ..native import library

        self._c51 = binding
        fns, self._ilp64 = binding.resolved
        widths = net._widths()
        self._fns = np.array(fns, dtype=np.uint64)
        self._dims = np.array(widths, dtype=np.int64)
        self._ci = np.zeros(abi.CI_LEN, dtype=np.int64)
        self._cd = np.zeros(abi.CD_LEN, dtype=np.float64)
        # Every layer's output, the sigmoid, the Q-values, the pmf sums.
        self._scratch = np.zeros(
            sum(widths[1:]) + max(widths[1:]) + 2 * net.config.n_actions
        )
        self._obs = np.zeros(widths[0])
        # A batched pass's scratch per row, and the atoms (kernel.c's
        # c51_pass carves the same array).
        self._pass_row = 3 * max(widths[1:]) + net.config.n_actions
        self._n_atoms = net.config.n_atoms
        self._layers: Tuple = ()  # the Dense buffers P_C51_LAYERS points at
        table = [None] * abi.P_NPTR
        self.bind_forward(net, self._ci, table)
        table[abi.P_CTRL_I] = self._ci
        table[abi.P_CTRL_D] = self._cd
        table[abi.P_C51_OBS] = self._obs
        table[abi.P_C51_GRADS] = net.network.flat_gradients
        self._ptrs = library.bind(table)

    def bind_forward(self, net: C51Network, ci: np.ndarray, table: list) -> None:
        """Point ``table`` (a pointer table's arrays) and ``ci`` (its
        control block) at ``net``'s forward: what ``sib_c51_act`` reads,
        and what ``sib_run`` reads for a memo miss."""
        ci[abi.CI_C51_NLAYERS] = len(self._dims) - 1
        ci[abi.CI_C51_NACT] = net.config.n_actions
        ci[abi.CI_C51_NATOMS] = net.config.n_atoms
        ci[abi.CI_BLAS_ILP64] = self._ilp64
        table[abi.P_NP_FNS] = self._fns
        table[abi.P_C51_DIMS] = self._dims
        table[abi.P_C51_PARAMS] = net.network.flat_parameters
        table[abi.P_C51_SUPPORT] = net.support
        table[abi.P_C51_SCRATCH] = self._scratch

    def act(self, obs: np.ndarray) -> int:
        self._obs[...] = obs
        self._c51.call("sib_c51_act", self._ptrs, self._ci)
        return int(self._ci[abi.CI_C51_ACTION])

    def _layer_buffers(self, net: C51Network, batch_size: int) -> np.ndarray:
        """``P_C51_LAYERS``: each Dense layer's training buffers, sized
        for ``batch_size`` rows as its forward would size them."""
        layers = net.network.layers
        for layer in layers:
            layer.reserve(batch_size)
        held = tuple(
            buffer for layer in layers
            for buffer in (layer._z, layer._act_scratch, layer._grad_in)
        )
        if len(held) != len(self._layers) or any(
            a is not b for a, b in zip(held, self._layers)
        ):
            self._layers = held
            self._addresses = np.array(
                [buffer.ctypes.data for buffer in held], dtype=np.uint64
            )
        return self._addresses

    def train(self, net: C51Network, observations: np.ndarray,
              actions: np.ndarray, targets: np.ndarray,
              batch_size: int) -> np.ndarray:
        from ..native import library

        ci, cd, ptrs = self._ci, self._cd, self._ptrs
        n_actions, n_atoms = net.config.n_actions, net.config.n_atoms
        steps = len(targets)
        optimizer = net.optimizer
        if not optimizer._m:  # what Adam.step's first call creates
            flat = net.network.flat_parameters
            optimizer._m = [np.zeros_like(flat)]
            optimizer._v = [np.zeros_like(flat)]
        ws = workspace()
        cross_entropy = np.empty((steps, batch_size))
        held = (
            (abi.P_C51_M, optimizer._m[0]),
            (abi.P_C51_V, optimizer._v[0]),
            (abi.P_C51_OBS, observations),
            (abi.P_C51_ACTIONS, np.ascontiguousarray(actions, dtype=np.int64)),
            (abi.P_C51_TARGETS, np.ascontiguousarray(targets, dtype=np.float64)),
            (abi.P_C51_CE, cross_entropy),
            (abi.P_C51_SOFT, ws.array("c51.soft", (batch_size, n_atoms))),
            (abi.P_C51_WORK, ws.array("c51.work", (batch_size, n_atoms))),
            (abi.P_C51_GRAD, ws.array(
                "c51.grad", (batch_size * n_actions, n_atoms))),
            (abi.P_C51_LAYERS, self._layer_buffers(net, batch_size)),
        )
        ci[abi.CI_C51_BATCH] = batch_size
        ci[abi.CI_C51_STEPS] = steps
        ci[abi.CI_C51_ADAM_T] = optimizer._t
        cd[abi.CD_C51_LR] = optimizer.learning_rate
        cd[abi.CD_C51_BETA1] = optimizer.beta1
        cd[abi.CD_C51_BETA2] = optimizer.beta2
        cd[abi.CD_C51_EPS] = optimizer.eps
        try:
            with library.pointed(ptrs, held):
                self._c51.call("sib_c51_train", ptrs, ci)
        finally:
            optimizer._t = int(ci[abi.CI_C51_ADAM_T])
        return cross_entropy

    def greedy(self, obs: np.ndarray) -> np.ndarray:
        best = np.empty(len(obs), dtype=np.int64)
        self._run_pass("sib_c51_greedy", obs, ((abi.P_C51_BEST, best),))
        return best

    def targets(self, obs: np.ndarray, rewards: np.ndarray,
                dones: Optional[np.ndarray], discount: float) -> np.ndarray:
        flags = None if dones is None else np.ascontiguousarray(
            dones, dtype=bool
        ).ravel().view(np.uint8)
        out = np.empty((len(obs), self._n_atoms))
        self._cd[abi.CD_C51_DISCOUNT] = discount
        self._run_pass("sib_c51_targets", obs, (
            (abi.P_C51_REWARDS, rewards),
            (abi.P_C51_DONES, flags),
            (abi.P_C51_PROJ, out),
        ))
        return out

    def _run_pass(self, symbol: str, obs: np.ndarray, held: tuple) -> None:
        """One batched pass over ``obs``: ``held``'s ``(slot, array)``
        pairs and the pass's workspace scratch."""
        from ..native import library

        rows = len(obs)
        scratch = workspace().array(
            "c51.pass", (rows * self._pass_row + 2 * self._n_atoms,)
        )
        self._ci[abi.CI_C51_ROWS] = rows
        with library.pointed(self._ptrs, ((abi.P_C51_OBS, obs),
                                          (abi.P_C51_PASS, scratch), *held)):
            self._c51.call(symbol, self._ptrs, self._ci)


#: Each network's binding, for as long as the network lives.
_BINDINGS: "weakref.WeakKeyDictionary[C51Network, _CompiledC51]" = (
    weakref.WeakKeyDictionary()
)


class C51LaneStack:
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
