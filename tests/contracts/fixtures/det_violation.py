"""SBL-DET fixture: one of each determinism violation class.

Not collected by pytest (no ``test_`` prefix); checked by
``tests/contracts/test_contracts.py``.  A trailing comment names its
rule exactly where a finding lands.
"""

import os
import random
import time

import numpy as np


def wall_clock():
    return time.time()  # SBL-DET: clock read


def global_rng():
    return random.random()  # SBL-DET: unseeded global RNG


def np_global_rng():
    return np.random.rand(3)  # SBL-DET: numpy global RNG


def fs_order(d):
    return [name for name in os.listdir(d)]  # SBL-DET: fs-order listing


def fs_order_ok(d):
    return sorted(os.listdir(d))  # allowed: order-insensitive consumer


def id_sort(xs):
    return sorted(xs, key=id)  # SBL-DET: id()-keyed ordering


def set_order(s):
    return [x * 2 for x in set(s)]  # SBL-DET: set-iteration order
