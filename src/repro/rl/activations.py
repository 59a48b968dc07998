"""Activation functions for the feed-forward networks used by Sibyl.

The paper uses the *swish* activation (Ramachandran et al.) for all
fully-connected layers because it "outperforms ReLU" for Sibyl's data
placement task (§6.2.2).  Each activation is implemented as a small
stateless object exposing ``forward`` and ``backward`` so the network can
run without any autograd framework.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Activation", "Swish", "ReLU", "Identity", "Tanh", "get_activation"]


class Activation:
    """Base class for stateless activations.

    ``forward`` maps pre-activations ``z`` to activations ``a``;
    ``backward`` maps upstream gradients ``grad`` (w.r.t. ``a``) to
    gradients w.r.t. ``z`` given the ``z`` passed on the forward pass.
    Both allocate their result.  ``forward_inplace`` and the
    ``forward_train``/``backward_train`` pair are the same expressions
    written into buffers the caller owns.
    """

    name = "base"
    #: How many ``z``-shaped arrays ``forward_train`` needs as scratch.
    train_slots = 1

    @property
    def signature(self) -> tuple:
        """Value identity: two activations with equal signatures compute
        the same function (parameterised subclasses extend this)."""
        return (self.name,)

    def forward(self, z: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def forward_inplace(self, z: np.ndarray, ws=None) -> np.ndarray:
        """Like ``forward`` but may overwrite ``z`` (pure inference: the
        pre-activations are not needed afterwards).  With ``ws`` (a
        :class:`~repro.rl.network.Workspace`) an activation that needs a
        temporary takes it from there instead of allocating one."""
        return self.forward(z)

    def forward_train(self, z: np.ndarray, scratch: np.ndarray) -> np.ndarray:
        """The activation of ``z`` for a training forward.

        Written into ``scratch`` (shape ``(train_slots,) + z.shape``),
        which also keeps whatever the backward pass would otherwise
        recompute (swish: the sigmoid) until :meth:`backward_train`.
        """
        raise NotImplementedError

    def backward(self, z: np.ndarray, grad: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def backward_train(
        self, z: np.ndarray, grad: np.ndarray, scratch: np.ndarray
    ) -> np.ndarray:
        """``backward`` after ``forward_train(z, scratch)``, allocating
        nothing: the result overwrites ``z`` (and ``scratch`` may be
        clobbered), so it is good for one call per forward."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class Swish(Activation):
    """swish(z) = z * sigmoid(beta * z); beta=1 (a.k.a. SiLU)."""

    name = "swish"
    train_slots = 2  # the activation and the sigmoid

    def __init__(self, beta: float = 1.0) -> None:
        if beta <= 0:
            raise ValueError(f"beta must be positive, got {beta}")
        self.beta = float(beta)

    @property
    def signature(self) -> tuple:
        return (self.name, self.beta)

    def _sigmoid(self, z: np.ndarray, out=None) -> np.ndarray:
        """``sigmoid(beta * z)`` (``beta == 1`` is not multiplied)."""
        # sigmoid(x) == 0.5 * (1 + tanh(x / 2)) exactly; tanh is stable
        # over the whole real line, so this needs no sign branching —
        # one ufunc pass instead of the classic two-branch formulation
        # (which costs boolean masks and scatter/gather on the hot path).
        if self.beta != 1.0:
            s = np.multiply(z, self.beta, out=out)
            s *= 0.5
        else:
            s = np.multiply(z, 0.5, out=out)
        np.tanh(s, out=s)
        s += 1.0
        s *= 0.5
        return s

    def forward(self, z: np.ndarray) -> np.ndarray:
        s = self._sigmoid(z)
        return np.multiply(z, s, out=s)

    def forward_inplace(self, z: np.ndarray, ws=None) -> np.ndarray:
        z *= self._sigmoid(
            z, out=None if ws is None else ws.array("swish.sigmoid", z.shape)
        )
        return z

    def forward_train(self, z: np.ndarray, scratch: np.ndarray) -> np.ndarray:
        # Keep the sigmoid for the backward pass: it is the expensive
        # (tanh-based) half of both directions and identical in both.
        a, s = scratch
        self._sigmoid(z, out=s)
        return np.multiply(z, s, out=a)

    def backward(self, z: np.ndarray, grad: np.ndarray) -> np.ndarray:
        s = self._sigmoid(z)
        # d/dz [z * s(bz)] = s(bz) + b*z*s(bz)*(1-s(bz))
        return grad * (s + self.beta * z * s * (1.0 - s))

    def backward_train(
        self, z: np.ndarray, grad: np.ndarray, scratch: np.ndarray
    ) -> np.ndarray:
        a, s = scratch
        if self.beta != 1.0:  # else a is b*z*s already
            np.multiply(z, self.beta, out=a)
            a *= s
        np.subtract(1.0, s, out=z)
        z *= a
        z += s
        z *= grad
        return z


class ReLU(Activation):
    """Rectified linear unit, kept for the ablation against swish."""

    name = "relu"

    def forward(self, z: np.ndarray) -> np.ndarray:
        return np.maximum(z, 0.0)

    def forward_inplace(self, z: np.ndarray, ws=None) -> np.ndarray:
        return np.maximum(z, 0.0, out=z)

    def forward_train(self, z: np.ndarray, scratch: np.ndarray) -> np.ndarray:
        return np.maximum(z, 0.0, out=scratch[0])

    def backward(self, z: np.ndarray, grad: np.ndarray) -> np.ndarray:
        return grad * (z > 0.0)

    def backward_train(
        self, z: np.ndarray, grad: np.ndarray, scratch: np.ndarray
    ) -> np.ndarray:
        return np.multiply(grad, z > 0.0, out=z)


class Tanh(Activation):
    """Hyperbolic tangent, used by the RNN-HSS baseline's recurrent cell."""

    name = "tanh"

    def forward(self, z: np.ndarray) -> np.ndarray:
        return np.tanh(z)

    def forward_inplace(self, z: np.ndarray, ws=None) -> np.ndarray:
        return np.tanh(z, out=z)

    def forward_train(self, z: np.ndarray, scratch: np.ndarray) -> np.ndarray:
        return np.tanh(z, out=scratch[0])

    def backward(self, z: np.ndarray, grad: np.ndarray) -> np.ndarray:
        t = np.tanh(z)
        return grad * (1.0 - t * t)

    def backward_train(
        self, z: np.ndarray, grad: np.ndarray, scratch: np.ndarray
    ) -> np.ndarray:
        t = scratch[0]
        np.multiply(t, t, out=z)
        np.subtract(1.0, z, out=z)
        z *= grad
        return z


class Identity(Activation):
    """Linear output layer (Q-value logits)."""

    name = "identity"
    train_slots = 0

    def forward(self, z: np.ndarray) -> np.ndarray:
        return z

    def forward_inplace(self, z: np.ndarray, ws=None) -> np.ndarray:
        return z

    def forward_train(self, z: np.ndarray, scratch: np.ndarray) -> np.ndarray:
        return z

    def backward(self, z: np.ndarray, grad: np.ndarray) -> np.ndarray:
        return grad

    def backward_train(
        self, z: np.ndarray, grad: np.ndarray, scratch: np.ndarray
    ) -> np.ndarray:
        return grad


_REGISTRY = {
    "swish": Swish,
    "silu": Swish,
    "relu": ReLU,
    "tanh": Tanh,
    "identity": Identity,
    "linear": Identity,
}


def get_activation(name: str) -> Activation:
    """Look up an activation by name (``swish``, ``relu``, ``tanh``, ...)."""
    try:
        return _REGISTRY[name.lower()]()
    except KeyError:
        raise ValueError(
            f"unknown activation {name!r}; available: {sorted(_REGISTRY)}"
        ) from None
