"""RNN-HSS — recurrent hotness prediction, adapted from Kleio (§3/§7).

Kleio trains per-page RNNs to predict hot pages in hybrid memory; the
paper adapts it to storage as "RNN-HSS", noting two structural
limitations that we preserve faithfully:

* it is **supervised**, trained on profiled access history rather than
  system feedback, so it "do[es] not consider any system-level
  feedback" (§8.1);
* per-page RNNs are prohibitively expensive, so (like the paper's
  adaptation) we train a *shared* RNN over per-page access-history
  sequences, refreshed at epoch boundaries.

Per epoch, the RNN consumes each candidate page's recent history —
a sequence of (accesses-in-window, wrote-in-window) feature pairs — and
classifies the page hot or cold for the next epoch.  Hot pages are
placed fast on their next touch; cold pages slow.

Classification is lazy: the refresh snapshots every page's history, and
a page is classified the first time the coming epoch asks about it, from
its snapshot row, with verdicts shared between equal rows.  The weights
do not move between refreshes, so each verdict is the one classifying
every page at the refresh would have given.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from ..hss.request import Request
from ..rl.rnn import ElmanRNN
from .base import PlacementPolicy

__all__ = ["RNNHSSPolicy"]


class RNNHSSPolicy(PlacementPolicy):
    """Shared-RNN hotness classifier with epoch-wise refresh."""

    name = "RNN-HSS"

    def __init__(
        self,
        epoch_requests: int = 1000,
        history_windows: int = 8,
        hidden_size: int = 16,
        hot_label_fraction: float = 0.3,
        max_train_pages: int = 256,
        seed: int = 0,
    ) -> None:
        super().__init__()
        if epoch_requests < 1:
            raise ValueError("epoch_requests must be >= 1")
        if history_windows < 2:
            raise ValueError("history_windows must be >= 2")
        if not 0.0 < hot_label_fraction < 1.0:
            raise ValueError("hot_label_fraction must be in (0, 1)")
        self.epoch_requests = epoch_requests
        self.history_windows = history_windows
        self.hidden_size = hidden_size
        self.hot_label_fraction = hot_label_fraction
        self.max_train_pages = max_train_pages
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        self.rnn = ElmanRNN(2, hidden_size, 2, rng=self.rng)
        self._seen = 0
        # page -> per-window [reads+writes, writes] history (bounded deque).
        self._history: Dict[int, List[List[float]]] = {}
        self._snapshot()
        self._trained = False

    def _snapshot(
        self, sequences: Optional[np.ndarray] = None, pages: Sequence[int] = ()
    ) -> None:
        """Hold a refresh's input rows for the coming epoch's verdicts."""
        self._sequences = sequences
        self._row: Dict[int, int] = {page: i for i, page in enumerate(pages)}
        # row bytes -> verdict, filled as pages are asked about.
        self._verdicts: Dict[bytes, bool] = {}

    # ----------------------------------------------------------- tracking
    def _touch(self, request: Request) -> None:
        page = request.page
        hist = self._history.get(page)
        if hist is None:
            hist = self._history[page] = [
                [0.0, 0.0] for _ in range(self.history_windows)
            ]
        hist[-1][0] += 1.0
        if request.is_write:
            hist[-1][1] += 1.0

    def _roll_windows(self) -> None:
        for hist in self._history.values():
            hist.pop(0)
            hist.append([0.0, 0.0])

    # ----------------------------------------------------------- training
    def _refresh(self) -> None:
        """Train the shared RNN and snapshot the pages to classify."""
        pages = list(self._history)
        if len(pages) < 8:
            return
        history = np.array(list(self._history.values()), dtype=np.float64)
        # Window counts are whole numbers, so their sum is exact in any order.
        totals = history[:, :, 0].sum(axis=1)
        cutoff = np.quantile(totals, 1.0 - self.hot_label_fraction)
        labels = (totals >= max(1.0, cutoff)).tolist()
        # One (windows, 2) input sequence per page, counts log-compressed
        # for stable RNN inputs; built once for training and classifying.
        sequences = np.log1p(history)
        # Sample a bounded training set (per-page RNNs are the expense
        # the paper calls impractical; we cap instead).
        idx = np.arange(len(pages))
        if len(idx) > self.max_train_pages:
            idx = self.rng.choice(idx, size=self.max_train_pages, replace=False)
        for i in idx.tolist():
            self.rnn.train_sequence(sequences[i], int(labels[i]))
        self._trained = True
        self._snapshot(sequences, pages)

    def _is_hot(self, page: int) -> bool:
        """The RNN's verdict on ``page``'s snapshot row (cold if none)."""
        row = self._row.get(page)
        if row is None:
            return False
        sequence = self._sequences[row]
        key = sequence.tobytes()
        hot = self._verdicts.get(key)
        if hot is None:
            hot = self._verdicts[key] = self.rnn.predict(sequence) == 1
        return hot

    # ------------------------------------------------------------- policy
    def place(self, request: Request) -> int:
        hss = self._require_hss()
        self._seen += 1
        self._touch(request)
        if self._seen % (self.epoch_requests // self.history_windows + 1) == 0:
            self._roll_windows()
        if self._seen % self.epoch_requests == 0:
            self._refresh()
        if not self._trained:
            return hss.slowest
        return hss.fastest if self._is_hot(request.page) else hss.slowest

    def reset(self) -> None:
        self.rng = np.random.default_rng(self.seed)
        self.rnn = ElmanRNN(2, self.hidden_size, 2, rng=self.rng)
        self._seen = 0
        self._history = {}
        self._snapshot()
        self._trained = False
