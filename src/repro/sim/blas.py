"""Runtime control of the BLAS thread pool NumPy loads.

OpenBLAS starts one thread per core in *every* process that imports
NumPy.  The simulation's matrices are small — only the largest training
gemm crosses OpenBLAS's threading threshold — so the extra threads buy
nothing and then spin-yield, doubling a cell's CPU for the same wall
time; across a pool of N workers it is N x N oversubscription.  So
computing runs at one BLAS thread, in two cases:

* a process whose whole job is computing is pinned once, at start,
  with :func:`set_blas_threads` — a campaign's pool worker (the pool's
  ``initializer``) and the placement daemon (``repro serve``);
* a library call that computes inside someone else's process pins
  around itself and restores the caller's count with
  :func:`limit_blas_threads` — the serial cells of
  :mod:`repro.sim.parallel`.

Nothing else is pinned: code that embeds the library (a
``PlacementDaemon`` in-process, an ``iter_many`` consumer) keeps its
own count.

The control is a *runtime* call into the library NumPy maps into this
process (the first lookup imports NumPy if nothing has yet, so a pin
made before the engine is imported is not a silent no-op) — found in
``/proc/self/maps``, opened by path with
``ctypes`` (which returns the loaded image, not a second copy) and
probed for the ``set_num_threads``/``get_num_threads`` pair under each
prefix OpenBLAS is built with.  No environment variable is read or
set and nothing happens at import time, so ``OPENBLAS_NUM_THREADS``
stays the operator's.  Where no known BLAS is mapped (another
platform, another vendor) every function here is a silent no-op and
:func:`blas_threads` reports ``None`` — results never depend on the
thread count, only CPU time does.
"""

from __future__ import annotations

import ctypes
import os
from contextlib import contextmanager
from functools import lru_cache
from typing import Callable, Iterator, List, Optional, Tuple

__all__ = ["blas_threads", "set_blas_threads", "limit_blas_threads"]

#: ``(set, get)`` exports of the OpenBLAS builds NumPy ships or links
#: against: the scipy-openblas wheels (ILP64, then LP64), then a stock
#: ``libopenblas`` (ILP64, then LP64).
_OPENBLAS_EXPORTS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("scipy_openblas_set_num_threads", "scipy_openblas_get_num_threads"),
    ("openblas_set_num_threads64_", "openblas_get_num_threads64_"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)


def _mapped_openblas() -> List[str]:
    """Paths of the OpenBLAS shared objects mapped into this process."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            lines = maps.read().splitlines()
    except OSError:  # no procfs: not Linux
        return []
    paths: List[str] = []
    for line in lines:
        fields = line.split(None, 5)
        if len(fields) < 6:
            continue  # anonymous mapping
        path = fields[5]
        if "openblas" in os.path.basename(path) and path not in paths:
            paths.append(path)
    return paths


@lru_cache(maxsize=None)
def _controls() -> Optional[Tuple[Callable[[int], None], Callable[[], int]]]:
    """The loaded BLAS's ``(set, get)`` thread-count calls, else ``None``.

    Looked up once per process, on first use; a forked worker inherits
    the parent's answer together with the mapping it points into.  It is
    NumPy's BLAS being looked for, so NumPy is loaded before the look:
    the answer is cached for the life of the process and must not depend
    on whether the caller (a pool initializer, the serial path's pin)
    runs before or after the first cell imports the engine.
    """
    import numpy  # noqa: F401  (maps the BLAS the scan below finds)

    for path in _mapped_openblas():
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for set_name, get_name in _OPENBLAS_EXPORTS:
            setter = getattr(lib, set_name, None)
            getter = getattr(lib, get_name, None)
            if setter is None or getter is None:
                continue
            setter.argtypes = [ctypes.c_int]
            setter.restype = None
            getter.argtypes = []
            getter.restype = ctypes.c_int
            return setter, getter
    return None


def blas_threads() -> Optional[int]:
    """Threads the loaded BLAS uses per call; ``None`` if none is known."""
    controls = _controls()
    return None if controls is None else int(controls[1]())


def set_blas_threads(n: int) -> None:
    """Run the loaded BLAS on ``n`` threads from now on (no-op if unknown)."""
    controls = _controls()
    if controls is not None:
        controls[0](n)


@contextmanager
def limit_blas_threads(n: int) -> Iterator[None]:
    """Run the ``with`` body at ``n`` BLAS threads, then restore the count."""
    previous = blas_threads()
    set_blas_threads(n)
    try:
        yield
    finally:
        if previous is not None:
            set_blas_threads(previous)
