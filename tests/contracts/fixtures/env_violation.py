"""SBL-ENV fixture: one stray read of the process environment."""

import os


def sneaky_read():
    return os.environ.get("SIBYL_FIXTURE_SNEAKY", "1")  # SBL-ENV
