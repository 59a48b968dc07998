"""A minimal Elman RNN in numpy, used by the RNN-HSS baseline.

RNN-HSS (adapted from Kleio, §7 "Baselines") predicts page hotness with a
recurrent network.  We implement a single-layer Elman RNN with tanh
recurrence and a linear classification head, trained with truncated
backpropagation through time (BPTT) and cross-entropy loss.

Parameters and gradients are views into one flat vector each (as
:meth:`FeedForwardNetwork.pack_parameters` packs the feed-forward nets)
and both passes write into preallocated buffers: on a handful of
16-element vectors a pass costs its number of NumPy calls, not their
arithmetic.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from .optim import Optimizer, get_optimizer

__all__ = ["ElmanRNN"]


class ElmanRNN:
    """``h_t = tanh(x_t @ W_xh + h_{t-1} @ W_hh + b_h)`` with a softmax head.

    Small by design: RNN-HSS classifies per-page access sequences into
    hot/cold, so the input is a short feature vector per time step and the
    output is a 2-class distribution after the final step.
    """

    def __init__(
        self,
        n_inputs: int,
        n_hidden: int,
        n_outputs: int,
        learning_rate: float = 1e-2,
        optimizer: str = "adam",
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        if min(n_inputs, n_hidden, n_outputs) <= 0:
            raise ValueError("all dimensions must be positive")
        self.n_inputs = n_inputs
        self.n_hidden = n_hidden
        self.n_outputs = n_outputs
        rng = rng or np.random.default_rng()
        shapes = [
            (n_inputs, n_hidden), (n_hidden, n_hidden), (n_hidden,),
            (n_hidden, n_outputs), (n_outputs,),
        ]
        bounds = np.cumsum([0] + [int(np.prod(shape)) for shape in shapes])

        def views(flat: np.ndarray):
            return [
                flat[lo:hi].reshape(shape)
                for lo, hi, shape in zip(bounds, bounds[1:], shapes)
            ]

        self.flat_parameters = np.zeros(bounds[-1])
        self.flat_gradients = np.zeros(bounds[-1])
        self.w_xh, self.w_hh, self.b_h, self.w_hy, self.b_y = views(
            self.flat_parameters
        )
        self._g_w_xh, self._g_w_hh, self._g_b_h, self._g_w_hy, self._g_b_y = (
            views(self.flat_gradients)
        )
        scale_x = np.sqrt(1.0 / n_inputs)
        scale_h = np.sqrt(1.0 / n_hidden)
        self.w_xh[...] = rng.uniform(-scale_x, scale_x, size=shapes[0])
        self.w_hh[...] = rng.uniform(-scale_h, scale_h, size=shapes[1])
        self.w_hy[...] = rng.uniform(-scale_h, scale_h, size=shapes[3])
        self.optimizer: Optimizer = get_optimizer(optimizer, learning_rate)
        # Reused buffers, regrown together for the longest sequence seen:
        # hidden states (row 0 is h_0 = 0), 1 - h_t^2, and per BPTT step
        # dz and the two outer products it feeds.  Zeroed, so that equal
        # histories leave equal objects.
        self._probs = np.zeros(n_outputs)
        self._recur = np.zeros(n_hidden)
        self._dh = np.zeros(n_hidden)
        self._reserve(8)

    def _reserve(self, steps: int) -> None:
        n_in, n_hid = self.n_inputs, self.n_hidden
        self._hidden = np.zeros((steps + 1, n_hid))
        self._dtanh = np.zeros((steps, n_hid))
        self._dz = np.zeros((steps, n_hid))
        self._outer_xh = np.zeros((steps, n_in, n_hid))
        self._outer_hh = np.zeros((steps, n_hid, n_hid))

    # ------------------------------------------------------------ forward
    def _forward(self, sequence: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """:meth:`forward` into the reused buffers (which it returns)."""
        sequence = np.atleast_2d(np.asarray(sequence, dtype=np.float64))
        steps, width = sequence.shape
        if width != self.n_inputs:
            raise ValueError(
                f"expected {self.n_inputs} input features, got {width}"
            )
        if len(self._hidden) <= steps:
            self._reserve(2 * steps)
        hidden, recur = self._hidden, self._recur
        # Every x_t @ W_xh in one call: a stack of (1, n_in) rows goes
        # row by row through the vector kernel np.dot uses, so each
        # product has the bytes of its own per-step call.
        np.matmul(sequence[:, None, :], self.w_xh, out=hidden[1:steps + 1, None])
        for t in range(steps):
            h = hidden[t + 1]
            np.dot(hidden[t], self.w_hh, out=recur)
            h += recur
            h += self.b_h
            np.tanh(h, out=h)
        probs = np.dot(hidden[steps], self.w_hy, out=self._probs)
        probs += self.b_y
        probs -= probs.max()
        np.exp(probs, out=probs)
        probs /= probs.sum()
        return probs, hidden[: steps + 1]

    def forward(self, sequence: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Run one sequence ``(T, n_inputs)``; return (probs, hidden
        states ``(T + 1, n_hidden)``, the initial zero state first)."""
        probs, hiddens = self._forward(sequence)
        return probs.copy(), hiddens.copy()

    def predict(self, sequence: np.ndarray) -> int:
        """Class index for one sequence."""
        return int(np.argmax(self._forward(sequence)[0]))

    def predict_proba(self, sequence: np.ndarray) -> np.ndarray:
        return self.forward(sequence)[0]

    # ------------------------------------------------------------ training
    def train_sequence(
        self, sequence: np.ndarray, label: int, bptt_steps: int = 16
    ) -> float:
        """One truncated-BPTT update on a labelled sequence; returns loss."""
        if not 0 <= label < self.n_outputs:
            raise ValueError(f"label {label} out of range")
        sequence = np.atleast_2d(np.asarray(sequence, dtype=np.float64))
        dlogits, hiddens = self._forward(sequence)
        loss = -np.log(max(dlogits[label], 1e-12))

        dlogits[label] -= 1.0
        np.multiply(hiddens[-1][:, None], dlogits, out=self._g_w_hy)
        self._g_b_y[...] = dlogits
        dh = np.dot(dlogits, self.w_hy.T, out=self._dh)
        last = sequence.shape[0] - 1
        steps = max(0, min(bptt_steps, sequence.shape[0]))
        if steps:
            # dz_k for BPTT step k (time last - k), then each recurrent
            # gradient as its terms summed in that order.
            dtanh = self._dtanh[: last + 1]
            np.multiply(hiddens[1:], hiddens[1:], out=dtanh)
            np.subtract(1.0, dtanh, out=dtanh)
            dz = self._dz[:steps]
            np.multiply(dh, dtanh[last], out=dz[0])
            for k in range(1, steps):  # no dh past the last step read
                np.dot(dz[k - 1], self.w_hh.T, out=dh)
                np.multiply(dh, dtanh[last - k], out=dz[k])
            back = slice(last, last - steps if steps <= last else None, -1)
            for inputs, outer, grad in (
                (sequence[back], self._outer_xh, self._g_w_xh),
                (hiddens[back], self._outer_hh, self._g_w_hh),
            ):
                outer = outer[:steps]
                np.multiply(inputs[:, :, None], dz[:, None, :], out=outer)
                np.add.reduce(outer, axis=0, out=grad)
            np.add.reduce(dz, axis=0, out=self._g_b_h)
        else:  # nothing propagated back in time: only the head learns
            self.flat_gradients[: -(self.w_hy.size + self.b_y.size)] = 0.0
        # Clip to keep BPTT stable on long hot sequences.
        np.clip(self.flat_gradients, -5.0, 5.0, out=self.flat_gradients)
        self.optimizer.step([self.flat_parameters], [self.flat_gradients])
        return float(loss)

    @property
    def parameter_count(self) -> int:
        return self.flat_parameters.size
