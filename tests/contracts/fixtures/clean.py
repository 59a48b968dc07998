"""A file every contract passes untouched."""

import os
import random


def deterministic(xs, rng):
    return sorted(xs) + [rng.random()]


def listing(d):
    return sorted(os.listdir(d))


def seeded(seed):
    return random.Random(seed).random()  # a seeded stream, not the global one
