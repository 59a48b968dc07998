"""A file every rule should pass untouched."""

import os


def deterministic(xs, rng):
    return sorted(xs) + [rng.random()]


def listing(d):
    return sorted(os.listdir(d))
