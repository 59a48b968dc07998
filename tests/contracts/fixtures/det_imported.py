"""SBL-DET fixture: nondeterminism reached through imported names.

A trailing comment names its rule exactly where a finding lands.
"""

from random import SystemRandom
from time import perf_counter


def os_entropy():
    return SystemRandom().random()  # SBL-DET: OS entropy, never seeded


def from_imported_clock():
    return perf_counter()  # SBL-DET: clock read


def aliased_clock():
    import time as clock

    return clock.monotonic()  # SBL-DET: clock read through an alias
