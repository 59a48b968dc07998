"""Optimizers for the numpy neural-network substrate.

The paper trains Sibyl's training network with stochastic gradient
descent (§6.1, Algorithm 1 line 18).  We provide plain SGD (optionally
with momentum) plus Adam, which TF-Agents uses by default and which we
expose for the hyper-parameter studies.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

__all__ = [
    "Optimizer",
    "SGD",
    "Adam",
    "get_optimizer",
]


class Optimizer:
    """Base optimizer over a flat list of parameter arrays.

    Parameters are updated in place so that network layers keep their
    references.  ``step`` takes parallel lists of parameters and grads.
    """

    def __init__(self, learning_rate: float) -> None:
        if learning_rate <= 0:
            raise ValueError(f"learning_rate must be positive, got {learning_rate}")
        self.learning_rate = float(learning_rate)

    def step(self, params: List[np.ndarray], grads: List[np.ndarray]) -> None:
        raise NotImplementedError

    def state_dict(self) -> Dict:
        return {"learning_rate": self.learning_rate}

    def reset(self) -> None:
        """Clear any accumulated state (momentum buffers etc.)."""


class SGD(Optimizer):
    """Stochastic gradient descent with optional classical momentum."""

    def __init__(self, learning_rate: float = 1e-4, momentum: float = 0.0) -> None:
        super().__init__(learning_rate)
        if not 0.0 <= momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {momentum}")
        self.momentum = float(momentum)
        self._velocity: List[np.ndarray] = []

    def step(self, params: List[np.ndarray], grads: List[np.ndarray]) -> None:
        if len(params) != len(grads):
            raise ValueError("params and grads length mismatch")
        if self.momentum == 0.0:
            for p, g in zip(params, grads):
                p -= self.learning_rate * g
            return
        if not self._velocity:
            self._velocity = [np.zeros_like(p) for p in params]
        for v, p, g in zip(self._velocity, params, grads):
            v *= self.momentum
            v -= self.learning_rate * g
            p += v

    def reset(self) -> None:
        self._velocity = []

    def state_dict(self) -> Dict:
        d = super().state_dict()
        d["momentum"] = self.momentum
        return d


class Adam(Optimizer):
    """Adam optimizer (Kingma & Ba) with bias correction."""

    def __init__(
        self,
        learning_rate: float = 1e-4,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ) -> None:
        super().__init__(learning_rate)
        if not 0.0 <= beta1 < 1.0 or not 0.0 <= beta2 < 1.0:
            raise ValueError("betas must be in [0, 1)")
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)
        self._m: List[np.ndarray] = []
        self._v: List[np.ndarray] = []
        self._t = 0

    def step(self, params: List[np.ndarray], grads: List[np.ndarray]) -> None:
        if len(params) != len(grads):
            raise ValueError("params and grads length mismatch")
        if not self._m:
            self._m = [np.zeros_like(p) for p in params]
            self._v = [np.zeros_like(p) for p in params]
        self._t += 1
        b1, b2 = self.beta1, self.beta2
        bias1 = 1.0 - b1**self._t
        bias2 = 1.0 - b2**self._t
        # Fused form of p -= lr * (m/bias1) / (sqrt(v/bias2) + eps):
        # hoist the scalar factors and keep the temporaries to two.
        alpha = self.learning_rate / bias1
        inv_sqrt_bias2 = 1.0 / np.sqrt(bias2)
        for m, v, p, g in zip(self._m, self._v, params, grads):
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * (g * g)
            denom = np.sqrt(v)
            denom *= inv_sqrt_bias2
            denom += self.eps
            update = np.divide(m, denom, out=denom)
            update *= alpha
            p -= update

    def reset(self) -> None:
        self._m = []
        self._v = []
        self._t = 0

    def state_dict(self) -> Dict:
        d = super().state_dict()
        d.update(beta1=self.beta1, beta2=self.beta2, eps=self.eps, t=self._t)
        return d


_REGISTRY = {"sgd": SGD, "adam": Adam}


def get_optimizer(name: str, learning_rate: float, **kwargs) -> Optimizer:
    """Instantiate an optimizer by name (``sgd`` or ``adam``)."""
    try:
        cls = _REGISTRY[name.lower()]
    except KeyError:
        raise ValueError(
            f"unknown optimizer {name!r}; available: {sorted(_REGISTRY)}"
        ) from None
    return cls(learning_rate=learning_rate, **kwargs)
