"""Reinforcement-learning substrate: numpy networks, C51, DQN, schedules.

The paper builds Sibyl on TF-Agents; this package is the offline,
from-scratch equivalent, written in NumPy so that the reproduction needs
no deep-learning framework.
"""

from .activations import Activation, Identity, ReLU, Swish, Tanh, get_activation
from .c51 import C51Config, C51Network, project_distribution
from .dqn import DQNConfig, DQNNetwork
from .network import (
    Dense,
    FeedForwardNetwork,
    count_macs,
    count_parameters,
    mlp,
)
from .optim import SGD, Adam, Optimizer, get_optimizer
from .rnn import ElmanRNN
from .schedules import ConstantSchedule, ExponentialDecay, LinearDecay, Schedule

__all__ = [
    "Activation",
    "Adam",
    "C51Config",
    "C51Network",
    "ConstantSchedule",
    "DQNConfig",
    "DQNNetwork",
    "Dense",
    "ElmanRNN",
    "ExponentialDecay",
    "FeedForwardNetwork",
    "Identity",
    "LinearDecay",
    "Optimizer",
    "ReLU",
    "SGD",
    "Schedule",
    "Swish",
    "Tanh",
    "count_macs",
    "count_parameters",
    "get_activation",
    "get_optimizer",
    "mlp",
    "project_distribution",
]
