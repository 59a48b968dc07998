"""Build, load and handshake the compiled library; its table of entry points.

The shared library is built on demand with the system C compiler into
the gitignored ``native/_build/``, named ``kernel-<digest>.so`` after
the hash of the generated ``sib_abi.h`` plus ``kernel.c``, so neither a
table edit nor a source edit can load a stale binary.  After loading,
the library's ``sib_abi_hash()`` must equal the table's, and every
array bound into a pointer table is checked against the table's element
types (:func:`check_arrays`).

:data:`ENTRIES` has one row per entry point — ``tick``, ``draw``,
``rnn``, ``c51`` — naming its C symbols, its resolver (the NumPy
routines the caller hands it) and its check (for the networks, the
routine keys a caller's shape needs, each handshaken once per process;
docs/engines.md, "Compiled entry points").
:func:`entry` is the gate every caller asks, and the one reader of
``SIBYL_BACKEND``; :func:`report` says which engine each row runs, and
why.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import tempfile
import zlib
from contextlib import contextmanager
from functools import lru_cache
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from .. import knobs
from ..obs.tracer import span as _span
from . import abi, blas

__all__ = [
    "available", "unavailable_reason", "so_path", "load", "check_arrays",
    "bind", "point", "pointed", "Entry", "ENTRIES", "Binding", "entry", "report",
    "SAMPLER_SYMBOLS", "RNN_UFUNCS", "C51_UFUNCS",
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
        for row in ENTRIES.values():
            for symbol in row.symbols:
                fn = getattr(lib, symbol)
                fn.restype = ctypes.c_longlong
                fn.argtypes = [ctypes.POINTER(ctypes.c_void_p)]
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
    library would reinterpret byte-wise, so it raises instead.  An
    optional slot may hold ``None`` (NULL)."""
    for slot, arr in zip(abi.TABLE.pointers, arrays):
        _check(slot, arr)


def _check(slot: abi.Pointer, arr) -> None:
    dtype = abi.DTYPES[slot.ctype]
    if arr is None and slot.optional:
        return
    if not isinstance(arr, np.ndarray):
        got = type(arr).__name__
    elif arr.dtype != dtype or not arr.flags.c_contiguous:
        got = f"{arr.dtype}, C-contiguous={arr.flags.c_contiguous}"
    else:
        return
    raise RuntimeError(
        f"kernel slot {slot.name} ({slot.ctype} *{slot.field}) "
        f"needs a C-contiguous {dtype} array, got {got}"
    )


def bind(arrays: List) -> "ctypes.Array":
    """The pointer table over ``arrays`` (one entry per slot, ``None``
    where the entry point never reads the slot: it gets a placeholder of
    the slot's element type, or stays NULL if the slot is optional),
    checked by :func:`check_arrays` first.  ``arrays`` is completed in
    place; the table holds a reference to each (``ptrs.arrays``), so
    what it points to lives as long as it does."""
    for k, slot in enumerate(abi.TABLE.pointers):
        if arrays[k] is None and not slot.optional:
            arrays[k] = _UNUSED[slot.ctype]
    check_arrays(arrays)
    ptrs = (ctypes.c_void_p * abi.P_NPTR)()
    for k, arr in enumerate(arrays):
        ptrs[k] = None if arr is None else arr.ctypes.data
    ptrs.arrays = list(arrays)
    return ptrs


def point(
    ptrs: "ctypes.Array", slot: int, array: Optional[np.ndarray]
) -> None:
    """Re-point slot ``slot`` of a table :func:`bind` built at ``array``
    (``None``: NULL, for an optional slot), checked as
    :func:`check_arrays` checks it; the table holds ``array`` in place
    of the one it pointed to.  For what changes from call to call (a
    batch, a buffer regrown), without repacking the table."""
    _check(abi.TABLE.pointers[slot], array)
    ptrs[slot] = None if array is None else array.ctypes.data
    ptrs.arrays[slot] = array


@contextmanager
def pointed(ptrs: "ctypes.Array", pairs):
    """Each ``(slot, array)`` of ``pairs`` :func:`point`-ed for the block,
    then every slot back at what it held before: a call's own arrays are
    held for the call, and no longer."""
    before = [(slot, ptrs.arrays[slot]) for slot, _ in pairs]
    try:
        for slot, array in pairs:
            point(ptrs, slot, array)
        yield
    finally:
        for slot, array in before:
            point(ptrs, slot, array)


# ------------------------------------------------------ the entry table
class Unresolved(Exception):
    """A resolver's refusal; the message says why."""


class Entry(NamedTuple):
    """A row of :data:`ENTRIES`: the exported symbols; ``resolve()``,
    what the caller hands the entry point beside its arrays (run once
    per process; raises :class:`Unresolved`); ``check(*args)``, the
    caller's shape as a refusal names it and the routine keys that
    shape calls, each of which must pass :func:`_handshake_key`."""

    symbols: Tuple[str, ...]
    resolve: Callable[[], tuple]
    check: Optional[Callable[..., Tuple[str, tuple]]] = None


class Binding(NamedTuple):
    """A resolved entry point: the library and its row's ``resolve()``."""

    name: str
    lib: ctypes.CDLL
    resolved: tuple

    def call(self, symbol: str, ptrs, ci: np.ndarray) -> int:
        """``symbol(ptrs)``'s status; the error status raises, naming
        the entry point, ``CI_ERR`` and ``CI_I``."""
        status = getattr(self.lib, symbol)(ptrs)
        if status == abi.ST_ERROR:
            raise RuntimeError(
                f"compiled {self.name} entry point {symbol} aborted "
                f"(err={int(ci[abi.CI_ERR])}, i={int(ci[abi.CI_I])})"
            )
        return status


@lru_cache(maxsize=None)
def _resolve(name: str) -> Tuple[Optional[tuple], str, set]:
    """Row ``name``'s ``resolve()`` (or its refusal), and the set of
    check arguments that have passed against it."""
    try:
        return ENTRIES[name].resolve(), "", set()
    except Unresolved as exc:
        return None, str(exc), set()


def _state(name: str, args: tuple, backend: Optional[str]):
    """``(mode, binding or None, reason)``; the one read of the knob."""
    mode = knobs.get("SIBYL_BACKEND", backend)
    if mode == "off":
        return mode, None, "SIBYL_BACKEND=off"
    lib = load()
    if lib is None:
        return mode, None, unavailable_reason()
    resolved, why, passed = _resolve(name)
    if resolved is not None and args and args not in passed:
        shape, keys = ENTRIES[name].check(*args)
        if all(_handshake_key(_routine(resolved, key), key) for key in keys):
            passed.add(args)
        else:
            why = f"a primitive differs from NumPy's call at shape {shape}"
    return mode, None if why else Binding(name, lib, resolved), why


def entry(
    name: str, *args, backend: Optional[str] = None
) -> Tuple[Optional[Binding], str]:
    """``(binding, "")`` for row ``name`` and an eligible caller (``args``
    go to the row's check), or ``(None, why)``: the Python path runs.
    Under ``cext`` (the knob, or ``backend``) a row that does not
    resolve raises instead."""
    mode, binding, why = _state(name, args, backend)
    if binding is None and mode == "cext":
        raise RuntimeError(
            f"SIBYL_BACKEND=cext requested but the compiled {name} entry "
            f"point is unavailable: {why}"
        )
    return binding, why


def report() -> Dict[str, Tuple[str, str]]:
    """``{entry: (engine, reason)}``: ``cext``, ``python`` with the
    build, load or resolver failure, or ``off``; no per-use checks."""
    rows = {}
    for name in ENTRIES:
        mode, _, why = _state(name, (), None)
        rows[name] = (mode if mode == "off" else "python" if why else "cext", why)
    return rows


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


def _numpy_samplers() -> Tuple[int, ...]:
    """The addresses of :data:`SAMPLER_SYMBOLS` in this process's NumPy."""
    try:
        generator = ctypes.CDLL(np.random._generator.__file__)
        return tuple(
            ctypes.cast(getattr(generator, name), ctypes.c_void_p).value
            for name in SAMPLER_SYMBOLS
        )
    except (OSError, AttributeError) as exc:
        raise Unresolved(f"NumPy's samplers: {exc}")


class _UFuncHead(ctypes.Structure):
    """The leading fields of NumPy's public ``PyUFuncObject``."""

    _fields_ = [
        ("ob_refcnt", ctypes.c_ssize_t),
        ("ob_type", ctypes.c_void_p),
        ("nin", ctypes.c_int),
        ("nout", ctypes.c_int),
        ("nargs", ctypes.c_int),
        ("identity", ctypes.c_int),
        ("functions", ctypes.POINTER(ctypes.c_void_p)),
        ("data", ctypes.POINTER(ctypes.c_void_p)),
        ("ntypes", ctypes.c_int),
        ("reserved1", ctypes.c_int),
        ("name", ctypes.c_void_p),
        ("types", ctypes.POINTER(ctypes.c_ubyte)),
    ]


def _ufunc_loop(ufunc: np.ufunc, name: str) -> Optional[Tuple[int, int]]:
    """``(loop, data)`` of ``ufunc``'s float64 -> float64 inner loop: the
    first ``d->d`` entry of its ``functions`` table, the one NumPy
    selects for a float64 array.  None unless the struct read back
    agrees with what the ufunc reports through Python at every field
    used: the ints first, then the name, then the type table row by row,
    so no pointer is followed, or handed on, before it is vouched for."""
    if (
        not isinstance(ufunc, np.ufunc)
        or (ufunc.nin, ufunc.nout, ufunc.nargs) != (1, 1, 2)
        or object.__basicsize__ != 2 * ctypes.sizeof(ctypes.c_void_p)
        or type(ufunc).__basicsize__ < ctypes.sizeof(_UFuncHead)
    ):
        return None
    head = _UFuncHead.from_address(id(ufunc))
    if (head.nin, head.nout, head.nargs, head.ntypes) != (
        1, 1, 2, ufunc.ntypes
    ) or not (head.name and head.types and head.functions and head.data):
        return None
    if ctypes.string_at(head.name, len(name) + 1) != name.encode() + b"\0":
        return None
    codes = [np.dtype(t).num for sig in ufunc.types for t in sig.split("->")]
    if [head.types[k] for k in range(2 * head.ntypes)] != codes:
        return None
    double = np.dtype(np.float64).num
    for k in range(head.ntypes):
        if codes[2 * k] == codes[2 * k + 1] == double:
            loop = head.functions[k]
            return (loop, head.data[k] or 0) if loop else None
    return None


#: The NumPy ufuncs whose float64 loops the ``rnn`` row resolves, into
#: the ufunc slots of ``abi.TABLE.np_fns`` (``NF_TANH`` on) in order.
RNN_UFUNCS = ("tanh", "exp")

#: The same for the ``c51`` row (``sib_c51_*`` and ``sib_run``'s forward).
C51_UFUNCS = ("tanh", "exp", "log")


def _numpy_routines(
    exports: Tuple[str, ...], ufuncs: Tuple[str, ...]
) -> Tuple[Tuple[int, ...], bool]:
    """``(addresses in abi.TABLE.np_fns order, BLAS takes 64-bit ints)``:
    NumPy's OpenBLAS ``exports`` (fields of :class:`blas.OpenBLASExports`:
    ``dgemv`` into ``NF_GEMV``, ``dgemm`` into ``NF_GEMM``) and the float64
    loops of ``ufuncs``; a routine the row does not name stays 0."""
    found = blas.numpy_openblas()
    if found is None:
        raise Unresolved("no known OpenBLAS is mapped into this process")
    lib, symbols = found
    fns = [0] * abi.NF_LEN
    for export in exports:
        symbol = getattr(symbols, export)
        fn = getattr(lib, symbol, None)
        if fn is None:
            raise Unresolved(f"NumPy's OpenBLAS does not export {symbol}")
        slot = getattr(abi, "NF_" + export[1:].upper())
        fns[slot] = ctypes.cast(fn, ctypes.c_void_p).value
    for k, name in enumerate(ufuncs):
        loop = _ufunc_loop(getattr(np, name, None), name)
        if loop is None:
            raise Unresolved(f"np.{name} failed its float64 loop check")
        slot = abi.NF_TANH + 2 * k
        fns[slot:slot + 2] = loop
    return tuple(fns), symbols.ilp64


# -------------------------------------------- the routine handshakes
# A key names one routine at one form and length as kernel.c calls it.
# Its handshake returns ``(ours, numpy's)``: equal bytes when the routine
# is the one NumPy calls there.
_ROW_MAJOR, _COL_MAJOR, _NO_TRANS, _TRANS = 101, 102, 111, 112

_LOOP = ctypes.CFUNCTYPE(
    None, ctypes.POINTER(ctypes.c_void_p), ctypes.POINTER(ctypes.c_ssize_t),
    ctypes.POINTER(ctypes.c_ssize_t), ctypes.c_void_p,
)


def _blas_call(routine: tuple, signature: str):
    """``(address, takes 64-bit ints)`` as a ctypes function: in
    ``signature`` ``i`` is an enum, ``n`` a BLAS int, ``d`` a double."""
    address, ilp64 = routine
    kinds = {"i": ctypes.c_int, "n": ctypes.c_int64 if ilp64 else ctypes.c_int32,
             "d": ctypes.c_double, "p": ctypes.c_void_p}
    return ctypes.CFUNCTYPE(None, *(kinds[c] for c in signature))(address)


def _gemv(routine, rng, order, rows, cols, zero):
    """``y = x @ A`` as ``np_gemv`` calls ``cblas_dgemv``: row-major over a
    C-ordered (rows, cols) A, column-major over the transpose of a
    (cols, rows) one; ``y`` zeroed first as ``np.dot`` does, or left
    stale as ``np.matmul`` does."""
    gemv = _blas_call(routine, "iinndpnpndpn")
    shape = (rows, cols) if order == _ROW_MAJOR else (cols, rows)
    ws, xs = rng.uniform(-1.0, 1.0, (3, *shape)), rng.uniform(-2.0, 2.0, (3, rows))
    ours = np.zeros((3, cols)) if zero else np.full((3, cols), np.nan)
    for w, x, y in zip(ws, xs, ours):
        gemv(order, _TRANS, rows, cols, 1.0, w.ctypes.data, shape[1],
             x.ctypes.data, 1, 0.0, y.ctypes.data, 1)
    if zero:
        ops = ws if order == _ROW_MAJOR else ws.transpose(0, 2, 1)
        return ours, np.array([np.dot(x, a) for x, a in zip(xs, ops)])
    if order == _ROW_MAJOR:  # stacked x @ A, as the RNN's input matmul
        return ours, np.matmul(xs[:, None, :], ws)[:, 0]
    return ours, np.matmul(ws, xs[..., None])[..., 0]  # as pmfs @ support


def _gemm(routine, rng, trans_a, trans_b, m, n, k):
    """``C = op(A) @ op(B)`` as ``np_gemm`` calls ``cblas_dgemm``, a
    transposed operand the C-ordered array under it with Trans."""
    gemm = _blas_call(routine, "iiinnndpnpndpn")
    a = rng.uniform(-2.0, 2.0, (k, m) if trans_a else (m, k))
    b = rng.uniform(-1.0, 1.0, (n, k) if trans_b else (k, n))
    ours = np.full((m, n), np.nan)
    gemm(_ROW_MAJOR, _TRANS if trans_a else _NO_TRANS,
         _TRANS if trans_b else _NO_TRANS, m, n, k, 1.0, a.ctypes.data,
         a.shape[1], b.ctypes.data, b.shape[1], 0.0, ours.ctypes.data, n)
    return ours, np.matmul(a.T if trans_a else a, b.T if trans_b else b)


#: Where a ufunc's operands are drawn: the range the networks feed it.
_UFUNC_RANGES = {"tanh": (-4.0, 4.0), "exp": (-30.0, 0.0), "log": (1e-12, 1.0)}


def _ufunc(routine, rng, name, n):
    """``np.<name>(a, out=a)`` through the float64 loop, as ``np_inplace``."""
    a = rng.uniform(*_UFUNC_RANGES[name], n)
    ours, want = a.copy(), a.copy()
    _LOOP(routine[0])((ctypes.c_void_p * 2)(ours.ctypes.data, ours.ctypes.data),
                      (ctypes.c_ssize_t * 1)(n), (ctypes.c_ssize_t * 2)(8, 8),
                      routine[1])
    getattr(np, name)(want, out=want)
    return ours, want


def _pairwise(a: np.ndarray) -> float:
    """NumPy's pairwise float64 sum of a contiguous run, as ``kernel.c``'s
    ``np_pairwise`` adds it: sequentially under eight terms, eight
    accumulators up to 128, else halves split at a multiple of eight."""
    n = len(a)
    if n < 8:
        total = -0.0
        for x in a.tolist():
            total += x
        return total
    if n <= 128:
        acc = a[:8].tolist()
        for i in range(8, n - n % 8, 8):
            for k in range(8):
                acc[k] += float(a[i + k])
        total = ((acc[0] + acc[1]) + (acc[2] + acc[3])) + (
            (acc[4] + acc[5]) + (acc[6] + acc[7])
        )
        for x in a[n - n % 8:].tolist():
            total += x
        return total
    half = n // 2
    half -= half % 8
    return _pairwise(a[:half]) + _pairwise(a[half:])


def _sum_pairwise(routine, rng, n):
    """``np.add.reduce`` along rows of ``n``: +0 plus :func:`_pairwise`."""
    a = rng.standard_normal((4, n)) * np.exp(rng.uniform(-20.0, 20.0, (4, n)))
    return np.array([0.0 + _pairwise(row) for row in a]), np.add.reduce(a, axis=-1)


def _sum_rows(routine, rng, rows, n):
    """``np.add.reduce`` down ``rows`` rows: +0, then row by row."""
    a = rng.standard_normal((rows, n)) * np.exp(rng.uniform(-9.0, 9.0, (rows, n)))
    total = np.zeros(n)
    for row in a:
        total += row
    return total, np.add.reduce(a, axis=0)


#: Each key kind's handshake, by the key's first field.
_HANDSHAKES = {"gemv": _gemv, "gemm": _gemm, "ufunc": _ufunc,
               "sum_pairwise": _sum_pairwise, "sum_rows": _sum_rows}


def _routine(resolved, key: tuple) -> tuple:
    """What ``key`` calls of a row's routine vector: ``(address, takes
    64-bit ints)``, ``(loop, data)``, or nothing (a sum is kernel.c's)."""
    fns, ilp64 = resolved
    if key[0] == "ufunc":
        slot = getattr(abi, "NF_" + key[1].upper())
        return fns[slot], fns[slot + 1]
    return (fns[getattr(abi, "NF_" + key[0].upper())], ilp64) if key[0] in (
        "gemv", "gemm") else ()


@lru_cache(maxsize=None)
def _handshake_key(routine: tuple, key: tuple) -> bool:
    """Whether ``routine`` gives NumPy's bytes at ``key``; once per
    process, routine and key, whichever rows and shapes share them."""
    rng = np.random.default_rng(zlib.crc32(repr(key).encode()))
    ours, want = _HANDSHAKES[key[0]](routine, rng, *key[1:])
    return ours.tobytes() == want.tobytes()


def _rnn_keys(n_inputs, n_hidden, n_outputs) -> Tuple[str, tuple]:
    """``(shape, keys)``: ElmanRNN's stacked input matmul, recurrence and
    head ``np.dot``s, two ``W.T`` products, ``tanh`` and ``exp``."""
    return f"{n_inputs}-{n_hidden}-{n_outputs}", (
        ("gemv", _ROW_MAJOR, n_inputs, n_hidden, False),
        ("gemv", _ROW_MAJOR, n_hidden, n_hidden, True),
        ("gemv", _ROW_MAJOR, n_hidden, n_outputs, True),
        ("gemv", _COL_MAJOR, n_outputs, n_hidden, True),
        ("gemv", _COL_MAJOR, n_hidden, n_hidden, True),
        ("ufunc", "tanh", n_hidden), ("ufunc", "exp", n_outputs))


#: The row counts a batched pass is handshaken at: its rows change
#: from event to event, its routines do not.
_PASS_ROWS = (2, 131)


def _c51_keys(widths, n_actions, n_atoms, batch, batched=False) -> Tuple[str, tuple]:
    """``(shape, keys)``: a forward's, a training ``batch``'s (three gemm
    forms a layer, sums down the batch, ``log``) and the ``batched``
    passes' at each of :data:`_PASS_ROWS`."""
    layers = tuple(zip(widths, widths[1:]))
    keys = [("gemv", _COL_MAJOR, n_atoms, n_actions, False),
            ("ufunc", "exp", n_actions * n_atoms), ("sum_pairwise", n_atoms)]
    for n_in, n_out in layers:
        keys += [("gemv", _ROW_MAJOR, n_in, n_out, True), ("ufunc", "tanh", n_out)]
    if batch:
        for n_in, n_out in layers:
            keys += [("gemm", False, False, batch, n_out, n_in),
                     ("gemm", True, False, n_in, n_out, batch),
                     ("gemm", False, True, batch, n_in, n_out),
                     ("ufunc", "tanh", batch * n_out), ("sum_rows", batch, n_out)]
        keys += [("ufunc", name, batch * n_atoms) for name in ("exp", "log")]
    for rows in _PASS_ROWS if batched else ():
        for n_in, n_out in layers:
            keys += [("gemm", False, False, rows, n_out, n_in),
                     ("ufunc", "tanh", rows * n_out)]
        keys.append(("ufunc", "exp", rows * n_actions * n_atoms))
    shape = "-".join(map(str, widths)) + f" as {n_actions}x{n_atoms}"
    shape += (f", batch {batch}" if batch else "") + (", batched" if batched else "")
    return shape, tuple(keys)


#: The compiled library's entry points, by name.
ENTRIES: Dict[str, Entry] = {
    "tick": Entry(("sib_run",), lambda: ()),
    "draw": Entry(("sib_draw_trace",), _numpy_samplers),
    "rnn": Entry(("sib_rnn_train", "sib_rnn_predict"),
                 lambda: _numpy_routines(("dgemv",), RNN_UFUNCS), _rnn_keys),
    "c51": Entry(("sib_c51_train", "sib_c51_act", "sib_c51_targets",
                  "sib_c51_greedy"),
                 lambda: _numpy_routines(("dgemv", "dgemm"), C51_UFUNCS),
                 _c51_keys),
}
