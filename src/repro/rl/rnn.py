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

So :meth:`ElmanRNN.train_sequences` and :meth:`ElmanRNN.predict` run in
the compiled library (``sib_rnn_train``, ``sib_rnn_predict`` in
:mod:`repro.native`) when it can take the network: the same statements
on the same arrays, every product through the ``cblas_dgemv`` NumPy
calls and ``tanh``/``exp`` through NumPy's own float64 loops, so the
bytes are the Python loop's by construction.  That loop stays the
reference, and the path for a network the library cannot take
(:meth:`ElmanRNN._refusal`) or wherever the ``rnn`` row of its entry
table (:data:`repro.native.library.ENTRIES`) does not resolve.
"""

from __future__ import annotations

import weakref
from typing import Optional, Sequence, Tuple

import numpy as np

from ..native import abi
from ..obs.tracer import span
from .optim import Adam, Optimizer, get_optimizer

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
        compiled, _ = self._compiled()
        if compiled is not None:
            sequence = np.asarray(sequence, dtype=np.float64)
            if sequence.ndim == 2 and len(sequence) and (
                sequence.shape[1] == self.n_inputs
            ):
                return compiled.predict(self, sequence)
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

    def train_sequences(
        self,
        sequences: np.ndarray,
        labels: Sequence[int],
        bptt_steps: int = 16,
    ) -> None:
        """:meth:`train_sequence` on each ``(sequences[i], labels[i])`` in
        order, ``sequences`` shaped ``(n, T, n_inputs)``: in the compiled
        library when it can take this network, else in that loop."""
        sequences = np.ascontiguousarray(sequences, dtype=np.float64)
        labels = np.array(labels, dtype=np.int64).reshape(-1)
        if sequences.ndim != 3 or len(sequences) != len(labels):
            raise ValueError(
                "expected (n, T, n_inputs) sequences and n labels, got "
                f"{sequences.shape} and {labels.shape}"
            )
        if sequences.shape[2] != self.n_inputs:
            raise ValueError(
                f"expected {self.n_inputs} input features, "
                f"got {sequences.shape[2]}"
            )
        bad = (labels < 0) | (labels >= self.n_outputs)
        if bad.any():
            raise ValueError(f"label {int(labels[bad][0])} out of range")
        compiled, why = (
            self._compiled() if sequences.size else (None, "empty batch")
        )
        engine = {"engine": "cext"} if compiled is not None else {
            "engine": "python", "reason": why,
        }
        with span("rl.rnn_train", cat="rl", **engine, sequences=len(labels)):
            if compiled is None:
                for sequence, label in zip(sequences, labels.tolist()):
                    self.train_sequence(sequence, label, bptt_steps)
            else:
                compiled.train(self, sequences, labels, bptt_steps)

    def _refusal(self) -> str:
        """Why the compiled library cannot take this network (empty
        when it can): an optimizer other than :class:`Adam`, or a shape
        where NumPy's products are not all gemv calls (a 1-wide layer,
        where ``np.dot`` takes its scalar paths) or its head sum not the
        short sequential loop (eight outputs or more)."""
        if type(self.optimizer) is not Adam:
            return f"optimizer {type(self.optimizer).__name__} is not Adam"
        if self.n_inputs < 2 or self.n_hidden < 2 or not 2 <= self.n_outputs < 8:
            return (f"shape {self.n_inputs}-{self.n_hidden}-{self.n_outputs}"
                    " has a 1-wide layer or 8+ outputs")
        return ""

    def _compiled(self) -> Tuple[Optional["_CompiledRNN"], str]:
        """``(binding, "")``: this network's arrays in the compiled
        library (bound on the first call that gets one), or ``(None,
        why)``: the Python loop runs.  The gate is asked on every call,
        so ``SIBYL_BACKEND=off`` holds for a network bound before."""
        why = self._refusal()
        if why:
            return None, why
        from ..native import library

        rnn, why = library.entry("rnn", self.n_inputs, self.n_hidden, self.n_outputs)
        if rnn is None:
            return None, why
        compiled = _BINDINGS.get(self)
        if compiled is None:
            compiled = _BINDINGS[self] = _CompiledRNN(self, rnn)
        return compiled, ""

    @property
    def parameter_count(self) -> int:
        return self.flat_parameters.size


class _CompiledRNN:
    """One :class:`ElmanRNN`'s arrays in the library's pointer table.

    Held beside the network in :data:`_BINDINGS`, not on it: the network
    stays plain data (copies, pickles and state comparisons see what the
    Python loop leaves), and a copy binds its own arrays on first use.

    The table points at the network's own parameters, gradients, Adam
    moments and scratch buffers, so a compiled call leaves the object
    exactly as the Python loop would.  The flat vectors and the head's
    buffers live as long as the network; the table is rebuilt when the
    step buffers are regrown or the optimizer's moments replaced
    (created, reset, or a new optimizer).  ``predict`` copies its
    sequence into a bound input buffer; ``train`` points the input
    slots at its batch for the one call.
    """

    def __init__(self, rnn: ElmanRNN, binding) -> None:
        self._rnn = binding
        fns, ilp64 = binding.resolved
        self._fns = np.array(fns, dtype=np.uint64)
        self._ci = np.zeros(abi.CI_LEN, dtype=np.int64)
        self._cd = np.zeros(abi.CD_LEN, dtype=np.float64)
        self._ci[abi.CI_RNN_NIN] = rnn.n_inputs
        self._ci[abi.CI_RNN_NHID] = rnn.n_hidden
        self._ci[abi.CI_RNN_NOUT] = rnn.n_outputs
        self._ci[abi.CI_BLAS_ILP64] = ilp64
        self._bound: Tuple = ()
        self._ptrs = None
        self._input = np.zeros((0, rnn.n_inputs))

    def _table(self, rnn: ElmanRNN, steps: int):
        """The pointer table, the step buffers grown to ``steps`` first
        as :meth:`ElmanRNN._forward` grows them."""
        if len(rnn._hidden) <= steps:
            rnn._reserve(2 * steps)
        optimizer = rnn.optimizer
        moments = optimizer._m
        if (
            self._bound
            and rnn._hidden is self._bound[0]
            and moments is self._bound[1]
            and (not moments or moments[0] is self._bound[2])
        ):
            return self._ptrs
        from ..native import library

        self._input = np.zeros((len(rnn._hidden), rnn.n_inputs))
        table = [None] * abi.P_NPTR
        for slot, array in (
            (abi.P_CTRL_I, self._ci),
            (abi.P_CTRL_D, self._cd),
            (abi.P_NP_FNS, self._fns),
            (abi.P_RNN_SEQ, self._input),
            (abi.P_RNN_PARAMS, rnn.flat_parameters),
            (abi.P_RNN_GRADS, rnn.flat_gradients),
            (abi.P_RNN_M, moments[0] if moments else None),
            (abi.P_RNN_V, optimizer._v[0] if moments else None),
            (abi.P_RNN_HIDDEN, rnn._hidden),
            (abi.P_RNN_DTANH, rnn._dtanh),
            (abi.P_RNN_DZ, rnn._dz),
            (abi.P_RNN_OUTER_XH, rnn._outer_xh),
            (abi.P_RNN_OUTER_HH, rnn._outer_hh),
            (abi.P_RNN_PROBS, rnn._probs),
            (abi.P_RNN_RECUR, rnn._recur),
            (abi.P_RNN_DH, rnn._dh),
        ):
            table[slot] = array
        self._ptrs = library.bind(table)
        self._ci[abi.CI_RNN_CAP] = len(rnn._hidden)
        self._bound = (rnn._hidden, moments, moments[0] if moments else None)
        return self._ptrs

    def train(self, rnn: ElmanRNN, sequences: np.ndarray,
              labels: np.ndarray, bptt: int) -> None:
        from ..native import library

        ci, cd = self._ci, self._cd
        optimizer = rnn.optimizer
        if not optimizer._m:  # what Adam.step's first call creates
            optimizer._m = [np.zeros_like(rnn.flat_parameters)]
            optimizer._v = [np.zeros_like(rnn.flat_parameters)]
        ptrs = self._table(rnn, sequences.shape[1])
        ci[abi.CI_RNN_STEPS] = sequences.shape[1]
        ci[abi.CI_RNN_NSEQ] = len(sequences)
        ci[abi.CI_RNN_BPTT] = bptt
        ci[abi.CI_RNN_ADAM_T] = optimizer._t
        cd[abi.CD_RNN_LR] = optimizer.learning_rate
        cd[abi.CD_RNN_BETA1] = optimizer.beta1
        cd[abi.CD_RNN_BETA2] = optimizer.beta2
        cd[abi.CD_RNN_EPS] = optimizer.eps
        try:
            with library.pointed(ptrs, ((abi.P_RNN_SEQ, sequences),
                                        (abi.P_RNN_LABELS, labels))):
                self._rnn.call("sib_rnn_train", ptrs, ci)
        finally:
            optimizer._t = int(ci[abi.CI_RNN_ADAM_T])

    def predict(self, rnn: ElmanRNN, sequence: np.ndarray) -> int:
        ci = self._ci
        steps = len(sequence)
        ptrs = self._table(rnn, steps)
        self._input[:steps] = sequence
        ci[abi.CI_RNN_STEPS] = steps
        self._rnn.call("sib_rnn_predict", ptrs, ci)
        return int(ci[abi.CI_RNN_CLASS])


#: Each network's binding, for as long as the network lives.
_BINDINGS: "weakref.WeakKeyDictionary[ElmanRNN, _CompiledRNN]" = (
    weakref.WeakKeyDictionary()
)
