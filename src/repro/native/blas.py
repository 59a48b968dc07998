"""NumPy's OpenBLAS: found once, and its thread pool pinned.

Two callers need NumPy's own BLAS, not a second copy of it: the thread
pin below and the compiled networks (``cblas_dgemv`` for RNN-HSS's,
``cblas_dgemv`` and ``cblas_dgemm`` for Sibyl's: the ``rnn`` and ``c51``
rows of :data:`repro.native.library.ENTRIES`).  Both find it
through :func:`numpy_openblas`: the shared objects with ``openblas`` in
their name are read from ``/proc/self/maps`` and opened by path with
``ctypes`` (which returns the loaded image), and the first one
exporting a known build's thread-count pair is the one; its row in
:data:`OPENBLAS_EXPORTS` names its other exports and integer width.

**The thread pin.**  OpenBLAS starts one thread per core in *every*
process that imports NumPy, but the simulation's matrices are small —
only the largest training gemm crosses its threading threshold — so
the extra threads spin-yield, doubling a cell's CPU for the same wall
time (N x N oversubscription across N workers).  So computing runs at
one BLAS thread: a process whose whole job is computing is pinned once,
at start, with :func:`set_blas_threads` (a campaign's pool worker, the
placement daemon); a library call that computes inside someone else's
process pins around itself and restores the caller's count with
:func:`limit_blas_threads` (the serial cells of :mod:`repro.sim.parallel`).
Code that embeds the library keeps its own count.  The pin is a
runtime call — no environment variable is read or set, so
``OPENBLAS_NUM_THREADS`` stays the operator's — and where no known BLAS
is mapped it is a silent no-op and :func:`blas_threads` is ``None``:
results never depend on the thread count, only CPU time does.

Imports nothing but the standard library (NumPy on first call): it sits
on the daemon's and the campaign's import paths.
"""

from __future__ import annotations

import ctypes
import os
from contextlib import contextmanager
from functools import lru_cache
from typing import Callable, Iterator, List, NamedTuple, Optional, Tuple

__all__ = ["OpenBLASExports", "OPENBLAS_EXPORTS", "mapped_openblas",
           "numpy_openblas", "blas_threads", "set_blas_threads",
           "limit_blas_threads"]


class OpenBLASExports(NamedTuple):
    """The export names of one OpenBLAS build."""

    set_threads: str
    get_threads: str
    dgemv: str
    dgemm: str
    ilp64: bool  # whether its integer arguments are 64-bit


#: The OpenBLAS builds NumPy ships or links against: the scipy-openblas
#: wheels (ILP64, then LP64), then a stock ``libopenblas`` (ILP64, then
#: LP64).
OPENBLAS_EXPORTS = (
    OpenBLASExports("scipy_openblas_set_num_threads64_",
                    "scipy_openblas_get_num_threads64_",
                    "scipy_cblas_dgemv64_", "scipy_cblas_dgemm64_", True),
    OpenBLASExports("scipy_openblas_set_num_threads",
                    "scipy_openblas_get_num_threads",
                    "scipy_cblas_dgemv", "scipy_cblas_dgemm", False),
    OpenBLASExports("openblas_set_num_threads64_",
                    "openblas_get_num_threads64_", "cblas_dgemv64_",
                    "cblas_dgemm64_", True),
    OpenBLASExports("openblas_set_num_threads", "openblas_get_num_threads",
                    "cblas_dgemv", "cblas_dgemm", False),
)


def mapped_openblas() -> List[str]:
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


def numpy_openblas() -> Optional[Tuple[ctypes.CDLL, OpenBLASExports]]:
    """NumPy's OpenBLAS, opened, with its build's export names; None
    where no known build is mapped (another platform, another vendor).

    NumPy is imported first, so the BLAS is mapped before
    :func:`mapped_openblas` looks for it whatever the caller imported
    before.
    """
    import numpy  # noqa: F401  (maps the BLAS the scan below finds)

    for path in mapped_openblas():
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for exports in OPENBLAS_EXPORTS:
            if hasattr(lib, exports.set_threads) and hasattr(
                lib, exports.get_threads
            ):
                return lib, exports
    return None


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
    found = numpy_openblas()
    if found is None:
        return None
    lib, exports = found
    setter = getattr(lib, exports.set_threads)
    getter = getattr(lib, exports.get_threads)
    setter.argtypes = [ctypes.c_int]
    setter.restype = None
    getter.argtypes = []
    getter.restype = ctypes.c_int
    return setter, getter


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
