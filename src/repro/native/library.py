"""Build, load and handshake the compiled library; bind its pointer table.

The shared library is built on demand with the system C compiler into
the gitignored ``native/_build/``, named ``kernel-<digest>.so`` after
the hash of the generated ``sib_abi.h`` plus ``kernel.c``, so neither a
table edit nor a source edit can load a stale binary.  After loading,
the library's ``sib_abi_hash()`` must equal the table's, and every
array bound into a pointer table is checked against the table's element
types (:func:`check_arrays`).  Without a toolchain :func:`load` returns
None and every caller keeps its Python path.

:func:`numpy_samplers` resolves, from NumPy's ``random._generator``
extension, the C samplers ``Generator`` itself calls; the trace draw
loop (``sib_draw_trace``) is handed their addresses, so its draws are
NumPy's by construction.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import tempfile
from functools import lru_cache
from typing import List, Optional, Tuple

import numpy as np

from ..obs.tracer import span as _span
from . import abi

__all__ = [
    "available", "unavailable_reason", "so_path", "load", "check_arrays",
    "bind", "numpy_samplers", "SAMPLER_SYMBOLS",
]

#: What a slot holds when the entry point never reads it.
_UNUSED = {ctype: np.zeros(1, dtype=dtype) for ctype, dtype in abi.DTYPES.items()}

_lib = None
_build_error: Optional[str] = None


def _source_path() -> str:
    return os.path.join(os.path.dirname(__file__), "kernel.c")


_BUILD_DIR = os.path.join(os.path.dirname(__file__), "_build")


def _build_digest(header: str, code: bytes) -> str:
    """Names the binary (``kernel-<digest>.so``) after everything
    compiled into it — generated header + ``kernel.c`` — so an edit to
    the ABI table or the source can never load a stale build."""
    return hashlib.sha256(header.encode() + code).hexdigest()[:16]


def _prune_stale_builds(build_dir: str, keep: str) -> None:
    """Remove content-hashed kernel binaries other than ``keep``.

    Every kernel edit produces a new ``kernel-<hash>.so``; without
    this, ``_build/`` accumulates one orphan per edit forever.  In-flight
    temp builds (``tmp*`` from :mod:`tempfile`) never match the
    ``kernel-*.so`` pattern, so concurrent builders are safe.  Failures
    are ignored: pruning is a courtesy, not a correctness step.
    """
    try:
        names = sorted(os.listdir(build_dir))
    except OSError:
        return
    for name in names:
        if (
            name.startswith("kernel-")
            and name.endswith(".so")
            and name != keep
        ):
            try:
                os.unlink(os.path.join(build_dir, name))
            except OSError:
                pass


def _compile(src: str, header: str, target: str) -> Optional[str]:
    """Build ``src`` against ``header`` into ``target``; the error
    text on failure.  Header and output live in a private temp
    directory until the final rename, so concurrent builders never read
    a half-written header or load a half-written library."""
    build_dir = os.path.dirname(target)
    try:
        os.makedirs(build_dir, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=build_dir) as tmp:
            with open(os.path.join(tmp, "sib_abi.h"), "w") as fh:
                fh.write(header)
            out = os.path.join(tmp, "kernel.so")
            cmd = [
                "gcc", "-O2", "-shared", "-fPIC", "-ffp-contract=off",
                "-I", tmp, "-o", out, src, "-lm",
            ]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            if proc.returncode != 0:
                return f"compiler failed: {proc.stderr.strip()[:500]}"
            os.replace(out, target)
    except (OSError, subprocess.SubprocessError) as exc:
        return f"build failed: {exc}"
    _prune_stale_builds(build_dir, os.path.basename(target))
    return None


def so_path() -> str:
    """Where this checkout's binary lives: ``_build/kernel-<digest of
    the generated header + kernel.c>.so``.  :func:`load` builds it there
    when missing; a differently built binary (CI's sanitizer leg) is
    loaded from the same place, subject to the ABI handshake."""
    with open(_source_path(), "rb") as fh:
        digest = _build_digest(abi.render_header(), fh.read())
    return os.path.join(_BUILD_DIR, f"kernel-{digest}.so")


def load() -> Optional[ctypes.CDLL]:
    """Build (if needed), load and handshake the library; None when
    unavailable."""
    global _lib, _build_error
    if _lib is not None or _build_error is not None:
        return _lib
    try:
        path = so_path()
    except OSError as exc:
        _build_error = f"kernel source unreadable: {exc}"
        return None
    if not os.path.exists(path):
        with _span("kernel.build", cat="kernel", binary=os.path.basename(path)):
            _build_error = _compile(_source_path(), abi.render_header(), path)
        if _build_error is not None:
            return None
    try:
        lib = ctypes.CDLL(path)
        for entry in (lib.sib_run, lib.sib_draw_trace):
            entry.restype = ctypes.c_longlong
            entry.argtypes = [ctypes.POINTER(ctypes.c_void_p)]
        lib.sib_abi_hash.restype = ctypes.c_ulonglong
        lib.sib_abi_hash.argtypes = []
    except (OSError, AttributeError) as exc:
        _build_error = f"load failed: {exc}"
        return None
    # The file name already covers the table; this catches a binary
    # that got there any other way (copied in, built by hand).
    built, ours = lib.sib_abi_hash(), abi.abi_hash()
    if built != ours:
        _build_error = (
            f"ABI hash mismatch: {os.path.basename(path)} was compiled "
            f"against table {built:#018x}, this process packs by {ours:#018x}"
        )
        return None
    _lib = lib
    return _lib


def available() -> bool:
    """Whether the library can be (or has been) built and loaded."""
    return load() is not None


def unavailable_reason() -> str:
    """Why :func:`available` is False (empty string when it isn't)."""
    if load() is not None:
        return ""
    return _build_error or "unknown"


def check_arrays(arrays: List) -> None:
    """Every packed array must be exactly what ``sib_bind`` casts its
    slot to: the table's element type, C-contiguous.  Anything else the
    library would reinterpret byte-wise, so it raises instead."""
    for slot, arr in zip(abi.TABLE.pointers, arrays):
        dtype = abi.DTYPES[slot.ctype]
        if not isinstance(arr, np.ndarray):
            got = type(arr).__name__
        elif arr.dtype != dtype or not arr.flags["C_CONTIGUOUS"]:
            got = f"{arr.dtype}, C-contiguous={arr.flags['C_CONTIGUOUS']}"
        else:
            continue
        raise RuntimeError(
            f"kernel slot {slot.name} ({slot.ctype} *{slot.field}) "
            f"needs a C-contiguous {dtype} array, got {got}"
        )


def bind(arrays: List) -> "ctypes.Array":
    """The pointer table over ``arrays`` (one entry per slot, ``None``
    where the entry point never reads the slot: it gets a placeholder of
    the slot's element type), checked by :func:`check_arrays` first.
    ``arrays`` is completed in place and must outlive the table."""
    for k, slot in enumerate(abi.TABLE.pointers):
        if arrays[k] is None:
            arrays[k] = _UNUSED[slot.ctype]
    check_arrays(arrays)
    ptrs = (ctypes.c_void_p * abi.P_NPTR)()
    for k, arr in enumerate(arrays):
        ptrs[k] = arr.ctypes.data
    return ptrs


#: The ``numpy.random._generator`` exports ``sib_draw_trace`` calls, in
#: ``abi.TABLE.samplers`` order after ``SP_BITGEN``: what
#: ``Generator.random``, ``geometric``, ``exponential`` and ``integers``
#: (int64) call for one draw.
SAMPLER_SYMBOLS = (
    "random_standard_uniform",
    "random_geometric",
    "random_exponential",
    "random_bounded_uint64_fill",
)


@lru_cache(maxsize=None)
def _resolve(symbols: Tuple[str, ...]) -> Optional[Tuple[int, ...]]:
    try:
        generator = ctypes.CDLL(np.random._generator.__file__)
        return tuple(
            ctypes.cast(getattr(generator, name), ctypes.c_void_p).value
            for name in symbols
        )
    except (OSError, AttributeError):
        return None


def numpy_samplers() -> Optional[Tuple[int, ...]]:
    """The addresses of :data:`SAMPLER_SYMBOLS` in this process's NumPy,
    or None when its ``random._generator`` does not export them (the
    trace generator then keeps its Python loop)."""
    return _resolve(SAMPLER_SYMBOLS)
