"""SBL-FORK fixture: a pool worker mutating module-level state."""

from concurrent.futures import ProcessPoolExecutor

_RESULTS = {}
LIMIT = 8  # immutable: allowed


def worker(x):
    _RESULTS[x] = x * x  # SBL-FORK: reached via helper(): per-process copy
    return _RESULTS[x]  # SBL-FORK


def helper(x):
    return worker(x) if x < LIMIT else x  # indirection: still reached


def run(xs):
    with ProcessPoolExecutor(max_workers=2) as pool:
        return list(pool.map(helper, xs))
