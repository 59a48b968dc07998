"""Reinforcement-learning substrate: numpy networks, C51, DQN, an RNN.

The paper builds Sibyl on TF-Agents; this package is the offline,
from-scratch equivalent, written in NumPy so that the reproduction needs
no deep-learning framework.
"""

from .activations import Activation, Identity, ReLU, Swish, Tanh, get_activation
from .c51 import C51Config, C51Network, project_distribution
from .dqn import DQNConfig, DQNNetwork
from .network import Dense, FeedForwardNetwork, mlp
from .optim import SGD, Adam, Optimizer, get_optimizer
from .rnn import ElmanRNN

__all__ = [
    "Activation",
    "Adam",
    "C51Config",
    "C51Network",
    "DQNConfig",
    "DQNNetwork",
    "Dense",
    "ElmanRNN",
    "FeedForwardNetwork",
    "Identity",
    "Optimizer",
    "ReLU",
    "SGD",
    "Swish",
    "Tanh",
    "get_activation",
    "get_optimizer",
    "mlp",
    "project_distribution",
]
