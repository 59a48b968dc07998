"""SBL-ENV fixture: the environment reached past ``os.environ``.

A trailing comment names its rule exactly where a finding lands.
"""

import os


def aliased_read():
    import os as o

    return o.environ["SIBYL_FIXTURE"]  # SBL-ENV


def unset():
    os.unsetenv("SIBYL_FIXTURE")  # SBL-ENV


def raw_bytes():
    return os.environb  # SBL-ENV
