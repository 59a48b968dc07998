"""Optimizers for the numpy neural-network substrate.

The paper trains Sibyl's training network with stochastic gradient
descent (§6.1, Algorithm 1 line 18).  We provide plain SGD (optionally
with momentum) plus Adam, which TF-Agents uses by default and which we
expose for the hyper-parameter studies.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

__all__ = [
    "Optimizer",
    "SGD",
    "Adam",
    "get_optimizer",
    "StackedOptimizer",
    "StackedSGD",
    "StackedAdam",
    "stack_optimizers",
    "fusion_signature",
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


# ---------------------------------------------------------------------------
# Lane-stacked optimizers: K independent flat-packed optimizers fused into
# one update over a (K, P) parameter matrix.
# ---------------------------------------------------------------------------


class StackedOptimizer:
    """K per-lane optimizers fused into one step on stacked parameters.

    A fused training event (``fused_train_event``) keeps every lane's
    flat-packed parameter vector as one row of a ``(K, P)`` matrix; a
    stacked optimizer applies each member's update rule to its own row
    in a handful of whole-matrix ufunc calls.  Every per-row operation is the
    elementwise expression the member optimizer evaluates serially, so
    the fused step is **bit-identical** per lane.

    Lifecycle per training event: :meth:`gather` pulls each member's
    state (momentum / moment estimates / step counts) into the stacked
    buffers, :meth:`step` is called once per batch, and :meth:`scatter`
    writes the advanced state back into the members — so a lane that
    later trains *serially* (alone on an event) continues from exactly
    the state the fused path left.

    Members may use different learning rates (a per-lane column); their
    structural constants (momentum, betas, eps) must match —
    :func:`fusion_signature` is the grouping key.
    """

    def __init__(self, members: Sequence[Optimizer]) -> None:
        members = list(members)
        if not members:
            raise ValueError("need at least one optimizer")
        head = fusion_signature(members[0])
        if head is None:
            raise ValueError(f"{type(members[0]).__name__} cannot be stacked")
        for opt in members[1:]:
            if fusion_signature(opt) != head:
                raise ValueError(
                    "all stacked optimizers must share one fusion signature"
                )
        self.members = members
        self._lr = np.array(
            [[opt.learning_rate] for opt in members], dtype=np.float64
        )

    def __len__(self) -> int:
        return len(self.members)

    def gather(self, n_params: int) -> None:
        """Copy member state into the stacked buffers (start of event)."""

    def scatter(self) -> None:
        """Write the stacked state back into the members (end of event)."""

    def step(self, params: np.ndarray, grads: np.ndarray) -> None:
        """One fused update on ``(K, P)`` parameters/gradients."""
        raise NotImplementedError


class StackedSGD(StackedOptimizer):
    """Fused :class:`SGD` steps (uniform momentum, per-lane rates)."""

    def __init__(self, members: Sequence[Optimizer]) -> None:
        super().__init__(members)
        self.momentum = members[0].momentum
        self._velocity: Optional[np.ndarray] = None

    def gather(self, n_params: int) -> None:
        if self.momentum == 0.0:
            return  # plain SGD is stateless
        if self._velocity is None or self._velocity.shape[1] != n_params:
            self._velocity = np.zeros((len(self.members), n_params))
        for row, opt in enumerate(self.members):
            # A member that never stepped has no buffer yet: zeros, the
            # value its own lazy initialisation would start from.
            self._velocity[row] = opt._velocity[0] if opt._velocity else 0.0

    def scatter(self) -> None:
        if self.momentum == 0.0:
            return
        for row, opt in enumerate(self.members):
            opt._velocity = [self._velocity[row].copy()]

    def step(self, params: np.ndarray, grads: np.ndarray) -> None:
        if self.momentum == 0.0:
            params -= self._lr * grads
            return
        v = self._velocity
        v *= self.momentum
        v -= self._lr * grads
        params += v


class StackedAdam(StackedOptimizer):
    """Fused :class:`Adam` steps (uniform betas/eps, per-lane rate and t).

    The per-lane bias-correction scalars are computed with the exact
    Python-float expressions the serial :meth:`Adam.step` uses (the
    ``float ** int`` power, the division) rather than numpy's ``power``
    ufunc, whose libm path may round integral exponents differently —
    then broadcast as columns, keeping every row bit-identical to its
    member's serial update even when lanes have different step counts.
    """

    def __init__(self, members: Sequence[Optimizer]) -> None:
        super().__init__(members)
        head = members[0]
        self.beta1, self.beta2, self.eps = head.beta1, head.beta2, head.eps
        k = len(members)
        self._t = np.zeros(k, dtype=np.int64)
        self._alpha = np.empty((k, 1))
        self._inv_sqrt_bias2 = np.empty((k, 1))
        self._m: Optional[np.ndarray] = None
        self._v: Optional[np.ndarray] = None

    def gather(self, n_params: int) -> None:
        k = len(self.members)
        if self._m is None or self._m.shape[1] != n_params:
            self._m = np.zeros((k, n_params))
            self._v = np.zeros((k, n_params))
        for row, opt in enumerate(self.members):
            self._t[row] = opt._t
            if opt._m:
                self._m[row] = opt._m[0]
                self._v[row] = opt._v[0]
            else:
                self._m[row] = 0.0
                self._v[row] = 0.0

    def scatter(self) -> None:
        for row, opt in enumerate(self.members):
            opt._t = int(self._t[row])
            opt._m = [self._m[row].copy()]
            opt._v = [self._v[row].copy()]

    def step(self, params: np.ndarray, grads: np.ndarray) -> None:
        self._t += 1
        b1, b2 = self.beta1, self.beta2
        for row, opt in enumerate(self.members):
            t = int(self._t[row])
            bias1 = 1.0 - b1**t
            bias2 = 1.0 - b2**t
            self._alpha[row, 0] = opt.learning_rate / bias1
            self._inv_sqrt_bias2[row, 0] = 1.0 / np.sqrt(bias2)
        m, v = self._m, self._v
        m *= b1
        m += (1.0 - b1) * grads
        v *= b2
        v += (1.0 - b2) * (grads * grads)
        denom = np.sqrt(v)
        denom *= self._inv_sqrt_bias2
        denom += self.eps
        update = np.divide(m, denom, out=denom)
        update *= self._alpha
        params -= update


def fusion_signature(optimizer: Optimizer) -> Optional[tuple]:
    """Grouping key for stacking: optimizers fuse iff their keys match.

    Learning rates deliberately stay out of the key (they become a
    per-lane column); the structural constants that enter the update as
    shared scalars must match.  ``None`` marks an unstackable type.
    """
    if type(optimizer) is SGD:
        return ("sgd", optimizer.momentum)
    if type(optimizer) is Adam:
        return ("adam", optimizer.beta1, optimizer.beta2, optimizer.eps)
    return None


_STACK_REGISTRY = {SGD: StackedSGD, Adam: StackedAdam}


def stack_optimizers(members: Sequence[Optimizer]) -> StackedOptimizer:
    """Build the stacked counterpart of a homogeneous optimizer list."""
    members = list(members)
    if not members:
        raise ValueError("need at least one optimizer")
    cls = _STACK_REGISTRY.get(type(members[0]))
    if cls is None:
        raise ValueError(
            f"no stacked implementation for {type(members[0]).__name__}"
        )
    return cls(members)


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
