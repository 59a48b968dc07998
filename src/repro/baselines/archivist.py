"""Archivist — supervised NN data placement (Ren et al., §3/§7).

Archivist "uses a neural network classifier to predict the target
device for data placement."  The behaviours the paper attributes to it
(and which explain its losses against Sibyl) are reproduced here:

* it works in **epochs**: pages are classified hot/cold at the start of
  each epoch "and does not change its placement decision throughout the
  execution of that epoch" (§8.6);
* it "does not perform any promotion or eviction of data" of its own —
  placement only applies to newly written/first-touched data in the
  epoch;
* it is **supervised**: the classifier is trained on labels derived
  from the *previous* epoch's observed hotness, so it chases a moving
  target with no system-level feedback (§8.1).

The classifier is a small numpy MLP over per-page features (access
count, access interval, last request size/type), trained with softmax
cross-entropy at every epoch boundary.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from ..hss.request import Request
from ..rl.network import FeedForwardNetwork, mlp
from .base import PlacementPolicy

__all__ = ["ArchivistPolicy"]

#: A touch's (access count, access interval, size, is_write).
_Inputs = Tuple[int, float, int, bool]


class ArchivistPolicy(PlacementPolicy):
    """Epoch-based supervised NN classifier for target-device prediction."""

    name = "Archivist"

    def __init__(
        self,
        epoch_requests: int = 1000,
        hidden_sizes: Tuple[int, ...] = (16, 16),
        learning_rate: float = 1e-2,
        train_epochs: int = 30,
        hot_label_fraction: float = 0.3,
        seed: int = 0,
    ) -> None:
        super().__init__()
        if epoch_requests < 1:
            raise ValueError("epoch_requests must be >= 1")
        if not 0.0 < hot_label_fraction < 1.0:
            raise ValueError("hot_label_fraction must be in (0, 1)")
        if train_epochs < 1:
            raise ValueError("train_epochs must be >= 1")
        self.epoch_requests = epoch_requests
        self.hidden_sizes = hidden_sizes
        self.learning_rate = learning_rate
        self.train_epochs = train_epochs
        self.hot_label_fraction = hot_label_fraction
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        self.network: FeedForwardNetwork = self._fresh_network()
        self._trained = False
        self._seen = 0
        # Per-page raw feature inputs at its latest touch this epoch.
        self._epoch_inputs: Dict[int, _Inputs] = {}
        self._epoch_counts: Dict[int, int] = {}
        # Decisions frozen for the current epoch.
        self._epoch_decision: Dict[int, int] = {}

    # ------------------------------------------------------------ network
    def _fresh_network(self) -> FeedForwardNetwork:
        return mlp(
            [4, *self.hidden_sizes, 2],
            hidden_activation="relu",
            rng=self.rng,
        )

    @staticmethod
    def _features(inputs: _Inputs) -> np.ndarray:
        count, interval, size, is_write = inputs
        return np.array(
            [
                np.log2(count + 1.0) / 16.0,
                np.log2(interval + 1.0) / 20.0,
                np.log2(size + 1.0) / 8.0,
                float(is_write),
            ],
            dtype=np.float64,
        )

    def _train(self) -> None:
        """Fit the classifier on the finished epoch's hotness labels."""
        if len(self._epoch_counts) < 8:
            return
        pages = list(self._epoch_counts)
        counts = np.array([self._epoch_counts[p] for p in pages])
        cutoff = np.quantile(counts, 1.0 - self.hot_label_fraction)
        labels = (counts >= max(1.0, cutoff)).astype(np.int64)
        feats = np.stack([self._features(self._epoch_inputs[p]) for p in pages])
        n = len(pages)
        for _ in range(self.train_epochs):
            logits = self.network.forward(feats, train=True)
            logits = logits - logits.max(axis=1, keepdims=True)
            exp = np.exp(logits)
            probs = exp / exp.sum(axis=1, keepdims=True)
            grad = probs
            grad[np.arange(n), labels] -= 1.0
            grad /= n
            self.network.backward(grad)
            for p, g in zip(self.network.parameters, self.network.gradients):
                p -= self.learning_rate * g
        self._trained = True

    # ------------------------------------------------------------- policy
    def place(self, request: Request) -> int:
        hss = self._require_hss()
        page = request.page
        self._seen += 1
        # Read now, turned into features only where a decision or
        # _train reads them.
        interval = hss.tracker.access_interval(page)
        inputs = (
            hss.tracker.access_count(page),
            1e6 if interval is None else interval,
            request.size,
            request.is_write,
        )
        self._epoch_inputs[page] = inputs
        self._epoch_counts[page] = self._epoch_counts.get(page, 0) + 1

        if self._seen % self.epoch_requests == 0:
            self._train()
            self._epoch_decision.clear()
            self._epoch_inputs = {}
            self._epoch_counts = {}

        # Frozen per-epoch decision: classify once, reuse until epoch end.
        if page in self._epoch_decision:
            return self._epoch_decision[page]
        if self._trained:
            logits = self.network.forward(self._features(inputs))[0]
            decision = hss.fastest if int(np.argmax(logits)) == 1 else hss.slowest
        else:
            # Cold start before any training epoch has completed.
            decision = hss.slowest
        self._epoch_decision[page] = decision
        return decision

    def reset(self) -> None:
        self.rng = np.random.default_rng(self.seed)
        self.network = self._fresh_network()
        self._trained = False
        self._seen = 0
        self._epoch_inputs = {}
        self._epoch_counts = {}
        self._epoch_decision = {}
