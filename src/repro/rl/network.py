"""A minimal feed-forward neural network in numpy.

The paper's networks (§6.2.2, Fig. 7b) are tiny: an input layer of six
state features, two fully-connected hidden layers of 20 and 30 neurons
with swish activations, and a linear output head.  This module provides
``Dense`` layers and a ``FeedForwardNetwork`` container with explicit
forward/backward passes, weight (de)serialisation, and the weight-copy
operation Sibyl uses to sync the inference network with the training
network (Algorithm 1 line 19).
"""

from __future__ import annotations

import math
import threading
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from .activations import Activation, get_activation

__all__ = [
    "Workspace",
    "workspace",
    "take_rows",
    "Dense",
    "FeedForwardNetwork",
    "NetworkLaneStack",
    "LaneStackTraining",
    "mlp",
    "count_macs",
    "count_parameters",
]


class Workspace:
    """Scratch arrays reused from call to call, one set per thread.

    Written ``a @ W + b``, every link of a batch forward or a training
    event is a fresh temporary — and above the allocator's 128 KiB mmap
    threshold a fresh mapping, faulted in page by page.  Code that
    wants an ``out=`` buffer asks :func:`workspace` for ``array(key,
    shape)`` and gets the same storage every time (grown geometrically),
    so a thread holds scratch for the largest batch it has seen, not a
    buffer set per network or per agent.

    Contents are undefined on entry.  A view is good until the thread
    asks for its key again; nothing that escapes to a caller may alias
    one.
    """

    def __init__(self) -> None:
        self._flat: Dict[Hashable, np.ndarray] = {}

    def array(
        self, key: Hashable, shape: Tuple[int, ...], dtype=np.float64
    ) -> np.ndarray:
        size = math.prod(shape)
        flat = self._flat.get((key, dtype))
        if flat is None or flat.size < size:
            grown = 0 if flat is None else 2 * flat.size
            flat = np.empty(max(size, grown), dtype=dtype)
            self._flat[key, dtype] = flat
        return flat[:size].reshape(shape)

    @property
    def nbytes(self) -> int:
        return sum(flat.nbytes for flat in self._flat.values())


_THREAD = threading.local()


def workspace() -> Workspace:
    """The calling thread's :class:`Workspace` (the placement daemon's
    loop thread gets its own, so an event there shares nothing with a
    learner on the caller's thread)."""
    try:
        return _THREAD.workspace
    except AttributeError:
        _THREAD.workspace = Workspace()
        return _THREAD.workspace


def take_rows(a: np.ndarray, index: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``a[index]`` written into ``out``.  ``index`` must be in range:
    under NumPy's default ``mode="raise"`` the gather is staged through
    a fresh buffer the size of ``out``, which is what ``out`` is for."""
    return np.take(a, index, axis=0, out=out, mode="clip")


class Dense:
    """A fully-connected layer ``a = act(x @ W + b)``.

    Weights are initialised with He-uniform scaling, which behaves well
    for both swish and ReLU activations at this network size.
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        activation: Activation | str = "identity",
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        if in_features <= 0 or out_features <= 0:
            raise ValueError("layer dimensions must be positive")
        self.in_features = int(in_features)
        self.out_features = int(out_features)
        if isinstance(activation, str):
            activation = get_activation(activation)
        self.activation = activation
        rng = rng or np.random.default_rng()
        limit = np.sqrt(6.0 / in_features)
        self.weight = rng.uniform(-limit, limit, size=(in_features, out_features))
        self.bias = np.zeros(out_features, dtype=np.float64)
        # Gradient buffers, parallel to (weight, bias).
        self.grad_weight = np.zeros_like(self.weight)
        self.grad_bias = np.zeros_like(self.bias)
        # What a training forward leaves for backward(): its input, the
        # pre-activations, the activation's scratch, and room for the
        # input gradient.  One set, for the latest batch size.
        self._x: Optional[np.ndarray] = None
        self._z: Optional[np.ndarray] = None
        self._act_scratch: Optional[np.ndarray] = None
        self._grad_in: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        if not train:
            return self.activation.forward(x @ self.weight + self.bias)
        # The cached pre-activations are consumed by the matching
        # backward() before the next forward can overwrite them.
        n = len(x)
        if self._z is None or len(self._z) != n:
            self._z = np.empty((n, self.out_features))
            self._act_scratch = np.empty(
                (self.activation.train_slots, n, self.out_features)
            )
            self._grad_in = np.empty((n, self.in_features))
        np.matmul(x, self.weight, out=self._z)
        self._z += self.bias
        self._x = x
        return self.activation.forward_train(self._z, self._act_scratch)

    def backward(
        self, grad_out: np.ndarray, propagate: bool = True
    ) -> Optional[np.ndarray]:
        """Backprop ``grad_out`` (w.r.t. this layer's output).

        Writes the weight/bias gradients into ``grad_weight``/
        ``grad_bias`` and returns the gradient w.r.t. the input (in a
        buffer the next backward overwrites), or None without
        ``propagate`` — a first layer has nobody to hand it to.
        Requires a preceding ``forward(..., train=True)``, whose cached
        pre-activations it consumes.
        """
        if self._x is None or self._z is None:
            raise RuntimeError("backward() called before forward(train=True)")
        grad_z = self.activation.backward_train(
            self._z, grad_out, self._act_scratch
        )
        np.matmul(self._x.T, grad_z, out=self.grad_weight)
        np.add.reduce(grad_z, axis=0, out=self.grad_bias)
        self._x = None  # the cached forward is spent
        if propagate:
            return np.matmul(grad_z, self.weight.T, out=self._grad_in)
        return None

    def zero_grad(self) -> None:
        self.grad_weight.fill(0.0)
        self.grad_bias.fill(0.0)

    @property
    def parameters(self) -> List[np.ndarray]:
        return [self.weight, self.bias]

    @property
    def gradients(self) -> List[np.ndarray]:
        return [self.grad_weight, self.grad_bias]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Dense({self.in_features}, {self.out_features}, "
            f"activation={self.activation.name})"
        )


class FeedForwardNetwork:
    """A stack of :class:`Dense` layers with manual backprop.

    This is the structure shared by Sibyl's training and inference
    networks, Archivist's classifier, and the RNN-HSS output head.
    """

    def __init__(self, layers: Sequence[Dense]) -> None:
        if not layers:
            raise ValueError("network needs at least one layer")
        for prev, nxt in zip(layers, layers[1:]):
            if prev.out_features != nxt.in_features:
                raise ValueError(
                    f"layer size mismatch: {prev.out_features} -> {nxt.in_features}"
                )
        self.layers = list(layers)
        # Preallocated per-layer buffers for the single-observation
        # inference fast path (see forward_1d); built lazily.
        self._fwd1d_buffers: Optional[List[np.ndarray]] = None
        # Optional flat parameter/gradient storage (see pack_parameters).
        self._flat_params: Optional[np.ndarray] = None
        self._flat_grads: Optional[np.ndarray] = None

    # ---------------------------------------------------------------- shape
    @property
    def in_features(self) -> int:
        return self.layers[0].in_features

    @property
    def out_features(self) -> int:
        return self.layers[-1].out_features

    # ------------------------------------------------------------- compute
    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        for layer in self.layers:
            x = layer.forward(x, train=train)
        return x

    __call__ = forward

    def forward_1d(self, x: np.ndarray) -> np.ndarray:
        """Fused inference pass for one observation (no batch axis).

        Reuses preallocated per-layer buffers and in-place activations,
        so the per-request decision path allocates nothing.  The
        returned array is one of those internal buffers: callers must
        consume it before the next ``forward_1d`` call and must not
        mutate or retain it.
        """
        if self._fwd1d_buffers is None:
            self._fwd1d_buffers = [
                np.empty(layer.out_features, dtype=np.float64)
                for layer in self.layers
            ]
        for layer, z in zip(self.layers, self._fwd1d_buffers):
            np.dot(x, layer.weight, out=z)
            z += layer.bias
            x = layer.activation.forward_inplace(z)
        return x

    def forward_scratch(self, x: np.ndarray, ws: Workspace) -> np.ndarray:
        """Inference pass for a ``(batch, in_features)`` float64 array,
        every intermediate in ``ws``: the values of ``forward(x)``, in
        an array that aliases the workspace — consume it before the
        thread's next forward and let nothing that outlives the caller
        alias it."""
        n = len(x)
        for j, layer in enumerate(self.layers):
            # Two buffers in turn: a layer reads one and writes the other.
            z = ws.array(("forward.z", j % 2), (n, layer.out_features))
            np.matmul(x, layer.weight, out=z)
            z += layer.bias
            x = layer.activation.forward_inplace(z, ws)
        return x

    def backward(self, grad_out: np.ndarray) -> None:
        """Backprop the loss gradient w.r.t. the output of the preceding
        ``forward(..., train=True)`` into every layer's gradients (the
        input gradient of the first layer is not computed)."""
        grad = np.atleast_2d(grad_out)
        for layer in self.layers[:0:-1]:
            grad = layer.backward(grad)
        self.layers[0].backward(grad, propagate=False)

    def zero_grad(self) -> None:
        if self._flat_grads is not None:
            self._flat_grads.fill(0.0)
            return
        for layer in self.layers:
            layer.zero_grad()

    # ------------------------------------------------------------- weights
    @property
    def parameters(self) -> List[np.ndarray]:
        return [p for layer in self.layers for p in layer.parameters]

    @property
    def gradients(self) -> List[np.ndarray]:
        return [g for layer in self.layers for g in layer.gradients]

    def pack_parameters(self) -> None:
        """Re-home all weights/gradients as views into two flat buffers.

        Afterwards :attr:`flat_parameters` / :attr:`flat_gradients` view
        the entire network as one contiguous vector each, so an
        optimizer update is a handful of ufunc calls on one array
        instead of one call chain per (weight, bias) pair — the values
        computed are identical element for element.  Layer attributes
        stay valid (they become views), so forwards, backwards, and
        (de)serialisation are unaffected.  Idempotent.
        """
        if self._flat_params is not None:
            return
        total = sum(
            p.size for layer in self.layers for p in layer.parameters
        )
        flat_p = np.empty(total, dtype=np.float64)
        flat_g = np.zeros(total, dtype=np.float64)
        offset = 0
        for layer in self.layers:
            for attr_p, attr_g in (("weight", "grad_weight"), ("bias", "grad_bias")):
                current = getattr(layer, attr_p)
                n = current.size
                view_p = flat_p[offset:offset + n].reshape(current.shape)
                view_g = flat_g[offset:offset + n].reshape(current.shape)
                view_p[...] = current
                view_g[...] = getattr(layer, attr_g)
                setattr(layer, attr_p, view_p)
                setattr(layer, attr_g, view_g)
                offset += n
        self._flat_params = flat_p
        self._flat_grads = flat_g

    @property
    def flat_parameters(self) -> Optional[np.ndarray]:
        """The packed parameter vector (None before ``pack_parameters``)."""
        return self._flat_params

    @property
    def flat_gradients(self) -> Optional[np.ndarray]:
        return self._flat_grads

    def get_weights(self) -> List[np.ndarray]:
        """Return copies of all parameter arrays (for checkpointing)."""
        return [p.copy() for p in self.parameters]

    def set_weights(self, weights: Sequence[np.ndarray]) -> None:
        params = self.parameters
        if len(weights) != len(params):
            raise ValueError(
                f"expected {len(params)} weight arrays, got {len(weights)}"
            )
        for p, w in zip(params, weights):
            if p.shape != np.shape(w):
                raise ValueError(f"shape mismatch: {p.shape} vs {np.shape(w)}")
            p[...] = w

    def copy_weights_from(self, other: "FeedForwardNetwork") -> None:
        """Sibyl's periodic training->inference weight transfer."""
        if self._flat_params is not None and other._flat_params is not None:
            self._flat_params[...] = other._flat_params
            return
        self.set_weights(other.parameters)

    def clone(self) -> "FeedForwardNetwork":
        """Structural + weight copy (used to spawn the inference network)."""
        clones = []
        for layer in self.layers:
            c = Dense(layer.in_features, layer.out_features, layer.activation)
            c.weight = layer.weight.copy()
            c.bias = layer.bias.copy()
            clones.append(c)
        return FeedForwardNetwork(clones)

    def state_dict(self) -> Dict[str, np.ndarray]:
        out: Dict[str, np.ndarray] = {}
        for i, layer in enumerate(self.layers):
            out[f"layer{i}.weight"] = layer.weight.copy()
            out[f"layer{i}.bias"] = layer.bias.copy()
        return out

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        for i, layer in enumerate(self.layers):
            layer.weight[...] = state[f"layer{i}.weight"]
            layer.bias[...] = state[f"layer{i}.bias"]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        inner = ", ".join(repr(layer) for layer in self.layers)
        return f"FeedForwardNetwork([{inner}])"


class NetworkLaneStack:
    """K same-architecture networks stacked for one fused multi-lane forward.

    The placement daemon (:mod:`repro.serve.engine`) advances N
    independent tenant lanes in rounds; each round it gathers one
    observation per lane and needs one greedy inference per lane —
    through *that lane's own weights* (lanes train independently).
    This stack keeps, per layer, a ``(K, in, out)`` weight tensor and a
    ``(K, 1, out)`` bias tensor copied from the member networks, so a
    round's inference is one batched ``np.matmul`` per layer instead of K separate
    single-observation forwards.

    Bit-identity: lane ``i``'s slice of the stacked matmul is an
    independent ``(1, in) @ (in, out)`` product over exactly the values
    ``forward_1d`` would use, and numpy evaluates each stacked slice
    with the same BLAS kernel, so the fused result equals the serial
    per-lane forward bit for bit (asserted by
    ``tests/sim/test_lanes.py::TestLaneStacks``).

    Member networks keep training independently; call :meth:`refresh`
    after a lane's weights change (Sibyl's periodic training→inference
    weight copy) to re-sync its slice.

    A stack built over *training* networks additionally supports the
    fused multi-lane training path (:meth:`enable_training`): per-lane
    flat parameter/gradient rows in one ``(K, P)`` matrix each — the
    stacked counterpart of :meth:`FeedForwardNetwork.pack_parameters` —
    with per-layer tensor views into them, a caching
    :meth:`train_forward` and a :meth:`train_backward` whose every
    per-lane slice executes exactly the serial
    ``Dense.forward(train=True)`` / ``Dense.backward`` statements.
    """

    def __init__(self, networks: Sequence[FeedForwardNetwork]) -> None:
        networks = list(networks)
        if not networks:
            raise ValueError("need at least one network")
        signature = self.signature(networks[0])
        for net in networks[1:]:
            if self.signature(net) != signature:
                raise ValueError(
                    "all networks in a lane stack must share one architecture"
                )
        self.networks = networks
        # Stacked inference buffers, built lazily on first use: stacks
        # constructed only to drive fused *training*
        # (``fused_train_event``'s stacks) never pay for — or copy into —
        # inference weights they never read.
        self._weights: List[np.ndarray] = []
        self._biases: List[np.ndarray] = []
        self._scratch: List[np.ndarray] = []
        # Fused-training state, allocated by enable_training().
        self._train_params: Optional[np.ndarray] = None
        self._train_grads: Optional[np.ndarray] = None
        self._train_w: List[np.ndarray] = []
        self._train_b: List[np.ndarray] = []
        self._train_gw: List[np.ndarray] = []
        self._train_gb: List[np.ndarray] = []
        self._train_x: List[Optional[np.ndarray]] = []
        # Per batch size, per layer: (pre-activations, activation scratch).
        self._train_z: Dict[int, List[Tuple[np.ndarray, np.ndarray]]] = {}
        self._train_z_active: Optional[List[Tuple[np.ndarray, np.ndarray]]] = None

    @staticmethod
    def signature(network: FeedForwardNetwork) -> tuple:
        """Architecture key: two networks stack iff their keys match.

        Includes each activation's full value signature (e.g. Swish's
        beta), because :meth:`forward` evaluates every lane with lane
        0's activation objects — parameter-mismatched networks must land
        in different stacks to preserve per-lane bit-identity.
        """
        return tuple(
            (layer.in_features, layer.out_features, layer.activation.signature)
            for layer in network.layers
        )

    def __len__(self) -> int:
        return len(self.networks)

    @property
    def in_features(self) -> int:
        return self.networks[0].in_features

    def _ensure_inference_buffers(self) -> None:
        if self._weights:
            return
        k = len(self.networks)
        for layer in self.networks[0].layers:
            self._weights.append(
                np.empty((k, layer.in_features, layer.out_features))
            )
            self._biases.append(np.empty((k, 1, layer.out_features)))
            self._scratch.append(np.empty((k, 1, layer.out_features)))
        for lane in range(k):
            self.refresh(lane)

    def refresh(self, lane: int) -> None:
        """Re-copy lane ``lane``'s weights into the stack.

        A no-op while the inference buffers are still unbuilt: the lazy
        build copies every lane's then-current weights anyway.
        """
        if not self._weights:
            return
        for j, layer in enumerate(self.networks[lane].layers):
            self._weights[j][lane] = layer.weight
            self._biases[j][lane, 0] = layer.bias

    def forward(self, obs: np.ndarray) -> np.ndarray:
        """Fused forward of one observation per lane.

        ``obs`` is ``(K, in_features)`` float64; returns ``(K,
        out_features)``.  The result aliases an internal scratch buffer:
        consume it before the next ``forward`` call and do not retain it.
        """
        self._ensure_inference_buffers()
        x = obs[:, None, :]
        for weight, bias, z, layer in zip(
            self._weights, self._biases, self._scratch,
            self.networks[0].layers,
        ):
            np.matmul(x, weight, out=z)
            z += bias
            x = layer.activation.forward_inplace(z)
        return x[:, 0, :]

    # --------------------------------------------------------- fused training
    def enable_training(self) -> None:
        """Allocate the stacked flat parameter/gradient state.

        Row ``k`` of :attr:`flat_parameters` / :attr:`flat_gradients` is
        lane ``k``'s entire network as one vector, in exactly the layout
        :meth:`FeedForwardNetwork.pack_parameters` uses (per layer:
        weight then bias), so syncing a lane is a single row copy from /
        to its member network's own flat vector.  The per-layer
        ``(K, in, out)`` / ``(K, out)`` tensors used by the stacked
        forward/backward are *views* into the same storage.  Idempotent.
        """
        if self._train_params is not None:
            return
        for net in self.networks:
            net.pack_parameters()
        layers = self.networks[0].layers
        k = len(self.networks)
        total = sum(layer.weight.size + layer.bias.size for layer in layers)
        self._train_params = np.empty((k, total))
        self._train_grads = np.zeros((k, total))
        offset = 0
        for layer in layers:
            n = layer.weight.size
            shape = (k, layer.in_features, layer.out_features)
            self._train_w.append(
                self._train_params[:, offset:offset + n].reshape(shape)
            )
            self._train_gw.append(
                self._train_grads[:, offset:offset + n].reshape(shape)
            )
            offset += n
            n = layer.bias.size
            self._train_b.append(self._train_params[:, offset:offset + n])
            self._train_gb.append(self._train_grads[:, offset:offset + n])
            offset += n
        self._train_x = [None] * len(layers)

    @property
    def flat_parameters(self) -> Optional[np.ndarray]:
        """Stacked ``(K, P)`` parameters (None before ``enable_training``)."""
        return self._train_params

    @property
    def flat_gradients(self) -> Optional[np.ndarray]:
        return self._train_grads

    def load_member_weights(self) -> None:
        """Copy every member's flat parameters into the stacked rows
        (start of a fused training event — lanes may have trained
        serially since the last one)."""
        for row, net in enumerate(self.networks):
            self._train_params[row] = net.flat_parameters

    def store_member_weights(self) -> None:
        """Write the trained stacked rows back into the member networks
        (end of a fused training event)."""
        for row, net in enumerate(self.networks):
            net.flat_parameters[...] = self._train_params[row]

    def train_forward(self, x: np.ndarray) -> np.ndarray:
        """Stacked caching forward: ``(K, B, in)`` → ``(K, B, out)``.

        Per lane this runs the statements of ``Dense.forward(train=True)``
        — matmul into a reused pre-activation buffer, bias add,
        ``activation.forward_train`` — over that lane's own weight row,
        so each slice equals the serial training forward bit for bit
        (stacked ``np.matmul`` dispatches the same GEMM per slice; the
        activations are elementwise).
        """
        layers = self.networks[0].layers
        buffers = self._train_z.get(x.shape[1])
        if buffers is None:
            lanes_rows = (len(self.networks), x.shape[1])
            buffers = self._train_z[x.shape[1]] = [
                (
                    np.empty(lanes_rows + (layer.out_features,)),
                    np.empty(
                        (layer.activation.train_slots,)
                        + lanes_rows + (layer.out_features,)
                    ),
                )
                for layer in layers
            ]
        self._train_z_active = buffers
        for j, (layer, (z, scratch)) in enumerate(zip(layers, buffers)):
            np.matmul(x, self._train_w[j], out=z)
            z += self._train_b[j][:, None, :]
            self._train_x[j] = x
            x = layer.activation.forward_train(z, scratch)
        return x

    def train_backward(self, grad_out: np.ndarray) -> None:
        """Stacked backprop accumulating into :attr:`flat_gradients`.

        Requires a preceding :meth:`train_forward`, whose cached
        pre-activations it consumes.  Gradients are zeroed then added
        to — per lane the products ``Dense.backward`` writes.  The input
        gradient of the first layer is never needed, so it is not
        computed.
        """
        layers = self.networks[0].layers
        buffers = self._train_z_active
        if buffers is None:
            raise RuntimeError("train_backward() before train_forward()")
        self._train_grads.fill(0.0)
        grad = grad_out
        for j in range(len(layers) - 1, -1, -1):
            z, scratch = buffers[j]
            grad_z = layers[j].activation.backward_train(z, grad, scratch)
            self._train_gw[j] += np.matmul(
                self._train_x[j].transpose(0, 2, 1), grad_z
            )
            self._train_gb[j] += grad_z.sum(axis=1)
            if j:
                grad = np.matmul(grad_z, self._train_w[j].transpose(0, 2, 1))


class LaneStackTraining:
    """Fused-training lifecycle shared by the head lane stacks.

    :class:`~repro.rl.c51.C51LaneStack` and
    :class:`~repro.rl.dqn.DQNLaneStack` differ only in their loss/
    gradient math; the event scaffolding — syncing stacked weights in
    and out of the member networks, the per-lane target precompute, the
    reusable gradient scratch — is identical and lives here.
    Subclasses provide ``self.stack`` (a :class:`NetworkLaneStack`) and
    ``self.networks`` (the member head networks).
    """

    def begin_training_event(self) -> None:
        """Sync the stacked training state from the member networks
        (which may have trained serially since the last fused event)."""
        self.stack.enable_training()
        self.stack.load_member_weights()

    def end_training_event(self) -> None:
        """Write the trained weights back into the member networks."""
        self.stack.store_member_weights()

    def precompute_targets(
        self,
        rewards: Sequence[np.ndarray],
        next_observations: Sequence[np.ndarray],
        targets: Sequence,
    ) -> List[np.ndarray]:
        """Per-lane Bellman/TD targets for one fused training event.

        Deliberately **per-lane** rather than stacked: each lane's
        unique-slot block has its own row count, and BLAS row-blocking
        makes a GEMM's per-row results depend on the total row count —
        padding lanes to a common height would break bit-identity with
        the serial target pass.  The stacked batch steps (fixed-height
        slices) are where fusion pays; this one pass per event stays
        exactly the serial computation.
        """
        return [
            member.precompute_targets(r, n, target=t)
            for member, r, n, t in zip(
                self.networks, rewards, next_observations, targets
            )
        ]

    @staticmethod
    def _zeroed_grad_scratch(like: np.ndarray) -> np.ndarray:
        """A zero-filled workspace buffer shaped like ``like``."""
        grad = workspace().array("lanestack.grad", like.shape)
        grad.fill(0.0)
        return grad


def mlp(
    sizes: Sequence[int],
    hidden_activation: str = "swish",
    output_activation: str = "identity",
    rng: Optional[np.random.Generator] = None,
) -> FeedForwardNetwork:
    """Build an MLP from layer sizes, e.g. ``mlp([6, 20, 30, 2])``.

    This mirrors the paper's network: ``mlp([6, 20, 30, n_actions])``
    with swish hidden activations (§6.2.2).
    """
    if len(sizes) < 2:
        raise ValueError("need at least input and output sizes")
    layers = []
    for i, (n_in, n_out) in enumerate(zip(sizes, sizes[1:])):
        last = i == len(sizes) - 2
        act = output_activation if last else hidden_activation
        layers.append(Dense(n_in, n_out, act, rng=rng))
    return FeedForwardNetwork(layers)


def count_macs(network: FeedForwardNetwork, batch_size: int = 1) -> int:
    """Multiply-accumulate operations for one forward pass (§10.1).

    The paper counts 780 MACs per inference for the 6-20-30-2 network and
    1,597,440 MACs per training step (128-sample batches, 8 batches are a
    separate multiplier applied by the caller).
    """
    if batch_size <= 0:
        raise ValueError("batch_size must be positive")
    return batch_size * sum(
        layer.in_features * layer.out_features for layer in network.layers
    )


def count_parameters(network: FeedForwardNetwork, include_bias: bool = False) -> int:
    """Number of weights (the paper's 780 count excludes biases)."""
    total = sum(layer.in_features * layer.out_features for layer in network.layers)
    if include_bias:
        total += sum(layer.out_features for layer in network.layers)
    return total
