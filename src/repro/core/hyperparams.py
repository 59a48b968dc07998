"""Sibyl's hyper-parameters (Table 2) and the tuning machinery (§6.2.2).

Defaults follow the paper's chosen values where it gives them: γ=0.9,
ε=0.001, batch size 128, experience buffer 1000, 8 batches per training
step.  Two differ from the paper's: α=1e-2 (the paper's is 1e-4) and a
250-request training interval, which is also the period of the
training-to-inference weight copy (the paper's is 1000 requests).  The
paper tunes its pair for multi-hour MSRC traces (millions of requests);
this pair was calibrated for the tens-of-thousands-request benchmark
traces.  The two do not reach the same policy: at 300k requests on
``hm_1`` Sibyl ÷ CDE latency reads 0.588 for 1e-2/250 and 0.788 for
1e-4/1000, and neither pair is best at every horizon (ROADMAP.md, item
1).  The Fig. 14(b) sweep exercises the paper's full α design space
either way.

``SIBYL_OPT`` is the Sibyl_Opt variant of §8.3: identical except for a
10x lower learning rate, which helps highly dynamic mixed workloads.

``doe_grid`` provides the design-of-experiments style sweep used for
one-time offline hyper-parameter tuning: rather than a full factorial,
it varies one parameter at a time around the chosen defaults — the same
axes plotted in Fig. 14.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, Iterator, Sequence, Tuple

__all__ = ["SibylHyperParams", "SIBYL_DEFAULT", "SIBYL_OPT", "doe_grid"]


@dataclass(frozen=True)
class SibylHyperParams:
    """All tunable knobs of the Sibyl agent.

    Attributes mirror Table 2 plus the structural constants of §6:

    * ``discount`` (γ), ``learning_rate`` (α), ``exploration_rate`` (ε),
      ``batch_size``, ``buffer_capacity`` (e_EB) — Table 2;
    * ``train_interval`` — requests between training steps / weight
      copies (250 here; the paper's is 1000, §6.2.2);
    * ``batches_per_training`` — 8 batches per training step (§6.2.2);
    * ``initial_random_requests`` — the TF-Agents-style initial random
      collection phase that seeds the experience buffer with both
      actions before the learned policy takes over (the paper builds on
      TF-Agents, whose DQN drivers collect initial experience with a
      random policy);
    * ``hidden_sizes`` — the 20/30 hidden layers of Fig. 7(b);
    * ``n_atoms`` — C51's distribution support size.
    """

    discount: float = 0.9
    learning_rate: float = 1e-2
    exploration_rate: float = 0.001
    batch_size: int = 128
    buffer_capacity: int = 1000
    train_interval: int = 250
    batches_per_training: int = 8
    initial_random_requests: int = 500
    hidden_sizes: Tuple[int, ...] = (20, 30)
    n_atoms: int = 51
    optimizer: str = "adam"
    activation: str = "swish"

    def __post_init__(self) -> None:
        if not 0.0 <= self.discount <= 1.0:
            raise ValueError("discount must be in [0, 1]")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if not 0.0 <= self.exploration_rate <= 1.0:
            raise ValueError("exploration_rate must be in [0, 1]")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.buffer_capacity < 1:
            raise ValueError("buffer_capacity must be >= 1")
        if self.train_interval < 1:
            raise ValueError("train_interval must be >= 1")
        if self.batches_per_training < 1:
            raise ValueError("batches_per_training must be >= 1")
        if self.initial_random_requests < 0:
            raise ValueError("initial_random_requests must be >= 0")
        if self.n_atoms < 2:
            raise ValueError("n_atoms must be >= 2")
        if not self.hidden_sizes or any(h < 1 for h in self.hidden_sizes):
            raise ValueError("hidden_sizes must be non-empty and positive")

    def replace(self, **changes) -> "SibylHyperParams":
        """Return a copy with the given fields changed."""
        return dataclasses.replace(self, **changes)


#: The paper's chosen values (Table 2).
SIBYL_DEFAULT = SibylHyperParams()

#: Sibyl_Opt for mixed workloads (§8.3): 10x lower learning rate.
SIBYL_OPT = SIBYL_DEFAULT.replace(learning_rate=1e-3)

#: Design spaces explored in Table 2 / Fig. 14.
_DESIGN_SPACE: Dict[str, Sequence] = {
    "discount": (0.0, 0.1, 0.5, 0.9, 0.95, 1.0),
    "learning_rate": (1e-5, 1e-4, 1e-3, 1e-2, 1e-1),
    "exploration_rate": (1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0),
    "batch_size": (64, 128, 256),
    "buffer_capacity": (10, 100, 1000, 10000),
}


def doe_grid(
    parameters: Sequence[str] = ("discount", "learning_rate", "exploration_rate"),
    base: SibylHyperParams = SIBYL_DEFAULT,
) -> Iterator[Tuple[str, object, SibylHyperParams]]:
    """One-at-a-time design-of-experiments sweep around ``base``.

    Yields ``(parameter, value, hyperparams)`` for every point on the
    requested axes — the minimal-experiment design the paper uses
    instead of a full factorial (§6.2.2).
    """
    for param in parameters:
        if param not in _DESIGN_SPACE:
            raise ValueError(
                f"unknown tunable {param!r}; available: {sorted(_DESIGN_SPACE)}"
            )
        for value in _DESIGN_SPACE[param]:
            yield param, value, base.replace(**{param: value})
