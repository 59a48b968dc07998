"""The Sibyl agent (Algorithm 1, Figs. 6-7).

Sibyl is an online RL agent wrapped in the common
:class:`~repro.baselines.base.PlacementPolicy` interface:

* ``place(request)`` is the *RL decision thread*: extract the state
  observation, finish the previous transition (whose next-state is this
  observation), and pick an action ε-greedily from the **inference
  network**.
* ``feedback(request, action, result)`` closes the loop: compute the
  reward from the served latency and eviction time (Eq. 1) and, every
  ``train_interval`` requests, run the *RL training thread* — 8 random
  batches of 128 experiences through the **training network** — then
  copy the training weights into the inference network.

The two-network split mirrors the paper's design: the inference network
is only ever *read* on the decision path and only ever *written* by the
periodic weight copy, so (in the real system) training never blocks
placement decisions.  Here the event runs inline in ``feedback()``, in
the simulator and the placement daemon alike: under CPython's GIL a
second thread measured slower than the loop it was meant to spare
(``docs/serve.md``, "Training runs on the loop").
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from ..baselines.base import PlacementPolicy
from ..hss.request import Request
from ..hss.system import HybridStorageSystem, ServeResult
from ..rl.c51 import C51Config, C51Network
from ..rl.dqn import DQNConfig, DQNNetwork
from ..rl.network import take_rows, workspace
from .features import FeatureExtractor, FeatureSpec
from .hyperparams import SIBYL_DEFAULT, SibylHyperParams
from .replay import ExperienceBuffer
from .reward import RewardFunction, make_reward

__all__ = ["SibylAgent"]


class SibylAgent(PlacementPolicy):
    """Online RL data-placement agent.

    Parameters
    ----------
    hyperparams:
        Table 2 values by default; pass ``SIBYL_OPT`` for the low-
        learning-rate variant of §8.3.
    feature_set:
        One of :data:`~repro.core.features.FEATURE_SETS` (``"all"`` is
        the paper's configuration; others reproduce Fig. 13).
    reward:
        Reward name (``"latency"``, ``"hit_rate"``,
        ``"eviction_penalty"``) or a :class:`RewardFunction` instance.
    head:
        ``"c51"`` (the paper's Categorical DQN) or ``"dqn"`` for the
        expected-value ablation.
    seed:
        Drives exploration, replay sampling, and weight initialisation.

    The agent starts with *no prior knowledge* and learns online — there
    is no offline pre-training (§6.2.2).
    """

    name = "Sibyl"

    def __init__(
        self,
        hyperparams: SibylHyperParams = SIBYL_DEFAULT,
        feature_set: str = "all",
        reward: Union[str, RewardFunction] = "latency",
        head: str = "c51",
        seed: int = 0,
        feature_spec: Optional[FeatureSpec] = None,
    ) -> None:
        super().__init__()
        if head not in ("c51", "dqn"):
            raise ValueError(f"head must be 'c51' or 'dqn', got {head!r}")
        self.hyperparams = hyperparams
        self.feature_set = feature_set
        self.feature_spec = feature_spec
        self._reward_spec = reward
        self.head = head
        self.seed = seed
        # Populated by attach():
        self.extractor: Optional[FeatureExtractor] = None
        self.reward_fn: Optional[RewardFunction] = None
        self.training_net = None
        self.inference_net = None
        self.buffer = ExperienceBuffer(hyperparams.buffer_capacity, seed=seed)
        self.rng = np.random.default_rng(seed)
        self._pending: Optional[tuple] = None  # (obs, action, reward, obs_key)
        self._current: Optional[tuple] = None  # (obs, action, obs_key)
        self._inflight: Optional[tuple] = None  # (obs, obs_key, action | None)
        self._requests_seen = 0
        self.train_events = 0
        self.losses: list = []
        self.action_counts: Optional[np.ndarray] = None
        self._train_job: Optional[tuple] = None  # train_begin → train_commit
        # Monotonic count of inference-weight rewrites (weight copies,
        # attach, checkpoint restores).  The daemon watches this to
        # know when a lane's slice of the stacked inference weights is
        # stale — unlike ``train_events``, it never resets, so a
        # checkpoint restore is always visible.
        self.weights_version = 0
        # Greedy-action memo.  Observations are quantised bin vectors,
        # so the visited state space is small and heavily revisited, and
        # the inference network only changes at weight-copy events —
        # between copies, argmax-Q per observation is a pure function.
        # After each weight copy the memo is *re-evaluated in one batched
        # forward pass* (instead of discarded), so steady-state decisions
        # are dictionary lookups.  Fully invalidated on reset / attach /
        # checkpoint load, where the network itself is replaced.
        self._action_cache: dict = {}
        self._cache_obs: dict = {}

    # -------------------------------------------------------------- setup
    def attach(self, hss: HybridStorageSystem) -> None:
        super().attach(hss)
        self.extractor = FeatureExtractor(
            hss, feature_set=self.feature_set, spec=self.feature_spec
        )
        if isinstance(self._reward_spec, RewardFunction):
            self.reward_fn = self._reward_spec
        else:
            self.reward_fn = make_reward(self._reward_spec, hss)
        hp = self.hyperparams
        n_obs = self.extractor.n_features
        n_actions = hss.n_devices
        if self.head == "c51":
            config = C51Config(
                n_observations=n_obs,
                n_actions=n_actions,
                hidden_sizes=hp.hidden_sizes,
                n_atoms=hp.n_atoms,
                v_min=self.reward_fn.v_min,
                v_max=self.reward_fn.v_max,
                discount=hp.discount,
                learning_rate=hp.learning_rate,
                optimizer=hp.optimizer,
                activation=hp.activation,
            )
            self.training_net = C51Network(config, rng=self.rng)
        else:
            config = DQNConfig(
                n_observations=n_obs,
                n_actions=n_actions,
                hidden_sizes=hp.hidden_sizes,
                discount=hp.discount,
                learning_rate=hp.learning_rate,
                optimizer=hp.optimizer,
                activation=hp.activation,
            )
            self.training_net = DQNNetwork(config, rng=self.rng)
        self.inference_net = self.training_net.clone()
        self.action_counts = np.zeros(n_actions, dtype=np.int64)
        self._action_cache.clear()
        self._cache_obs.clear()
        self.weights_version += 1

    # ----------------------------------------------------------- decision
    def place(self, request: Request) -> int:
        # place_commit falls back to a local single-observation forward
        # when inference is needed and no fused action was supplied.
        self.place_begin(request)
        return self.place_commit()

    def place_begin(self, request: Request) -> Optional[np.ndarray]:
        """Everything in :meth:`place` up to the network forward.

        Returns the observation that *needs* inference, or ``None`` when
        the action is already determined (exploration draw or greedy
        action-memo hit).  An external driver — the placement daemon —
        batches the returned observations across lanes into one fused
        forward and completes each decision with :meth:`place_commit`.
        ``place`` itself is exactly ``place_begin`` + a single-
        observation forward + ``place_commit``, so the two paths follow
        the same statements (and the same RNG draw order) per request.
        """
        if self.extractor is None or self.inference_net is None:
            raise RuntimeError("SibylAgent.place called before attach()")
        # The float32 image of the observation doubles as the replay
        # dedup key and the action-memo key; the extractor memoises both
        # per bin tuple, so repeated states cost two dict lookups.
        obs, obs_key = self.extractor.observe_keyed(request)
        # Complete the previous transition: its next-state is this
        # observation (a "time step" is a storage request, §5).
        if self._pending is not None:
            p_obs, p_action, p_reward, p_key = self._pending
            self.buffer.add(
                p_obs, p_action, p_reward, obs,
                obs_bytes=p_key, next_obs_bytes=obs_key,
            )
            self._pending = None
        explore = (
            self._requests_seen < self.hyperparams.initial_random_requests
            or self.rng.random() < self.hyperparams.exploration_rate
        )
        if explore:
            self._inflight = (obs, obs_key, int(self.rng.integers(0, self.n_devices)))
            return None
        action = self._action_cache.get(obs_key)
        if action is not None:
            self._inflight = (obs, obs_key, action)
            return None
        self._inflight = (obs, obs_key, None)
        return obs

    @property
    def place_pending(self) -> bool:
        """True between :meth:`place_begin` and :meth:`place_commit`."""
        return self._inflight is not None

    def place_abort(self) -> None:
        """Drop an in-flight decision without committing it.

        An external driver (the placement daemon's engine) unwinding
        after a mid-round error clears the pending decision so the
        agent is immediately reusable.  The aborted request is simply
        never placed — its transition was already recorded by
        ``place_begin`` as the *next-state* of the previous decision,
        which stays valid.
        """
        self._inflight = None

    def place_commit(self, greedy_action: Optional[int] = None) -> int:
        """Second half of :meth:`place`: commit the pending decision.

        ``greedy_action`` supplies the externally computed greedy action
        for the observation :meth:`place_begin` returned (the lane
        engine's fused forward); it must equal what
        ``inference_net.best_action`` would return for that observation.
        When ``place_begin`` returned ``None`` the action was already
        decided and ``greedy_action`` is ignored.  Falls back to a local
        forward if inference was needed but no action is supplied.
        """
        if self._inflight is None:
            raise RuntimeError("place_commit() without a preceding place_begin()")
        obs, obs_key, action = self._inflight
        if action is None:
            if greedy_action is None:
                greedy_action = self.inference_net.best_action(obs)
            action = int(greedy_action)
            self._action_cache[obs_key] = action
            self._cache_obs[obs_key] = obs
        self._inflight = None
        self._current = (obs, action, obs_key)
        self.action_counts[action] += 1
        return action

    # ----------------------------------------------------------- feedback
    def feedback(self, request: Request, action: int, result: ServeResult) -> None:
        if self._current is None:
            raise RuntimeError("feedback() without a preceding place()")
        obs, chosen, obs_key = self._current
        if chosen != action:
            raise ValueError("feedback action does not match the placed action")
        reward = self.reward_fn(result)
        self._pending = (obs, action, reward, obs_key)
        self._current = None
        self._requests_seen += 1
        hp = self.hyperparams
        # Train once enough *unique* experiences exist to fill a batch.
        # The warm-up is deliberately decoupled from ``buffer_capacity``:
        # gating on a full buffer would mean capacities larger than the
        # trace length never train at all (the Fig. 8 sweep's big-buffer
        # points would silently degrade to the ε-greedy prior).
        if (
            self._requests_seen % hp.train_interval == 0
            and len(self.buffer) >= hp.batch_size
        ):
            # The RL training thread (§6.2.2): batch updates + weight copy.
            self.train_begin()
            self.train_commit()

    def train_begin(self) -> tuple:
        """First half of a training event: the per-lane random draws.

        Mirrors :meth:`place_begin`: everything up to the network work.
        Samples all of the event's batches from the replay buffer in one
        draw of this agent's own RNG (``batches_per_training *
        batch_size`` uniforms: the stream batch-by-batch draws would
        consume) and collapses them to their unique slots, leaving the
        heavy half — Bellman targets, the forward/backward passes,
        weight copy — owed to :meth:`train_commit`.  An external driver
        (``fused_train_event``) can batch that half across lanes; the
        returned job is ``(slot_batches, unique_slots, inverse)``,
        ``slot_batches`` one row per batch.
        """
        if self._train_job is not None:
            raise RuntimeError(
                "train_begin() while a training event is already pending"
            )
        hp = self.hyperparams
        slots = self.buffer.sample_slots(
            hp.batches_per_training * hp.batch_size, rng=self.rng
        )
        unique_slots, inverse = np.unique(slots, return_inverse=True)
        self._train_job = (
            slots.reshape(hp.batches_per_training, hp.batch_size),
            unique_slots,
            inverse,
        )
        return self._train_job

    @property
    def train_job(self) -> Optional[tuple]:
        """The pending ``(slot_batches, unique_slots, inverse)`` job."""
        return self._train_job

    def train_commit(self, losses: Optional[list] = None) -> None:
        """Second half of a training event: updates + weight copy.

        With no ``losses`` the batches run locally: the bootstrap
        (inference) network is frozen for the whole event, so the
        Bellman targets of every *unique* sampled slot (bootstrap
        forward + distributional projection) are computed in one fused
        pass and gathered back per sample — the same values the
        per-batch loop would compute, once each — and the batches go
        through one ``train_batches`` call.  ``losses`` supplies
        the per-batch losses of an externally executed event
        (``fused_train_event``'s stacked forward/backward, which also
        wrote the updated weights into ``training_net``); they must equal what the
        local path would compute.  Either way the training weights are
        then copied into the inference network, the greedy-action memo
        is re-evaluated, and the event counters advance.
        """
        if self._train_job is None:
            raise RuntimeError("train_commit() without a pending train_begin()")
        slot_batches, unique_slots, inverse = self._train_job
        self._train_job = None
        if losses is not None:
            self.losses.extend(float(loss) for loss in losses)
        else:
            u_rewards, u_next = self.buffer.gather_targets(unique_slots)
            unique_targets = self.training_net.precompute_targets(
                u_rewards, u_next, target=self.inference_net
            )
            targets = take_rows(unique_targets, inverse, workspace().array(
                "agent.targets", inverse.shape + unique_targets.shape[1:]
            ))
            obs, actions, _, _ = self.buffer.gather(slot_batches.ravel())
            self.losses.extend(self.training_net.train_batches(
                obs, actions, targets, slot_batches.shape[1]
            ))
        self.inference_net.copy_weights_from(self.training_net)
        self._refresh_action_cache()
        self.train_events += 1
        self.weights_version += 1

    #: Above this many memoised states, refreshing stops paying for
    #: itself and the memo is simply dropped.
    _ACTION_CACHE_LIMIT = 8192

    def _refresh_action_cache(self) -> None:
        """Re-evaluate the greedy-action memo against the new weights.

        One batched forward over every memoised observation replaces
        len(cache) single-observation forwards that the decision path
        would otherwise pay as cache misses after a weight copy.
        """
        if not self._action_cache:
            return
        if len(self._action_cache) > self._ACTION_CACHE_LIMIT:
            self._action_cache.clear()
            self._cache_obs.clear()
            return
        obs_mat = np.concatenate(list(self._cache_obs.values()))
        actions = self.inference_net.best_actions(
            obs_mat.reshape(len(self._cache_obs), -1)
        )
        self._action_cache = dict(zip(self._cache_obs, actions.tolist()))

    # -------------------------------------------------------------- reset
    def reset(self) -> None:
        """Forget everything: fresh networks, empty buffer, re-seeded RNG."""
        self.rng = np.random.default_rng(self.seed)
        self.buffer = ExperienceBuffer(self.hyperparams.buffer_capacity, seed=self.seed)
        self._pending = None
        self._current = None
        self._inflight = None
        self._requests_seen = 0
        self.train_events = 0
        self.losses = []
        self._train_job = None
        self._action_cache.clear()
        self._cache_obs.clear()
        if self.hss is not None:
            self.attach(self.hss)

    # ------------------------------------------------------ checkpointing
    def save_checkpoint(self, path) -> None:
        """Persist both networks' weights to an ``.npz`` file.

        The experience buffer is deliberately not persisted: it holds
        the *most recent* system behaviour (Fig. 8), which is stale by
        definition when a checkpoint is restored into a new run.
        """
        if self.training_net is None or self.inference_net is None:
            raise RuntimeError("cannot checkpoint before attach()")
        arrays = {}
        for prefix, net in (
            ("training", self.training_net),
            ("inference", self.inference_net),
        ):
            for key, value in net.network.state_dict().items():
                arrays[f"{prefix}.{key}"] = value
        arrays["requests_seen"] = np.array([self._requests_seen])
        np.savez(path, **arrays)

    def load_checkpoint(self, path) -> None:
        """Restore network weights saved by :meth:`save_checkpoint`.

        The agent must already be attached to an HSS with the same
        observation/action dimensions.  In-flight transition state
        (``_pending``/``_current``), the experience buffer, a pending
        training job, the optimizer's moment estimates, and the action
        counters all describe the *pre-restore* run, so they are
        cleared here — the restored agent must not complete a stale
        half-transition, train on stale gradᵗ statistics, or report
        stale placement statistics.  The greedy-action memo is dropped
        and ``weights_version`` advances so any lane stack the agent
        rides re-syncs its slice of the stacked inference weights
        (``train_events`` resets to 0 and is therefore useless as a
        staleness signal here).
        """
        if self.training_net is None or self.inference_net is None:
            raise RuntimeError("attach() before loading a checkpoint")
        data = np.load(path)
        for prefix, net in (
            ("training", self.training_net),
            ("inference", self.inference_net),
        ):
            state = {
                key[len(prefix) + 1:]: data[key]
                for key in data.files
                if key.startswith(prefix + ".")
            }
            net.network.load_state_dict(state)
        self._requests_seen = int(data["requests_seen"][0])
        self._pending = None
        self._current = None
        self._inflight = None
        self._train_job = None
        self.buffer.clear()
        self._action_cache.clear()
        self._cache_obs.clear()
        self.training_net.optimizer.reset()
        self.train_events = 0
        self.losses = []
        self.weights_version += 1
        if self.action_counts is not None:
            self.action_counts.fill(0)

    # -------------------------------------------------------- diagnostics
    @property
    def fast_preference(self) -> float:
        """Fraction of placements directed at the fastest device (Fig. 17)."""
        if self.action_counts is None or self.action_counts.sum() == 0:
            return 0.0
        return float(self.action_counts[0] / self.action_counts.sum())

    def q_snapshot(self, request: Request) -> np.ndarray:
        """Inference-network Q-values for a request (explainability, §9)."""
        if self.extractor is None or self.inference_net is None:
            raise RuntimeError("agent not attached")
        obs = self.extractor.observe(request)
        return self.inference_net.q_values(np.atleast_2d(obs))[0]
