"""Build, load and handshake the compiled library; its table of entry points.

The shared library is built on demand with the system C compiler into
the gitignored ``native/_build/``, named ``kernel-<digest>.so`` after
the hash of the generated ``sib_abi.h`` plus ``kernel.c``, so neither a
table edit nor a source edit can load a stale binary.  After loading,
the library's ``sib_abi_hash()`` must equal the table's, and every
array bound into a pointer table is checked against the table's element
types (:func:`check_arrays`).

:data:`ENTRIES` has one row per entry point — ``tick``, ``draw``,
``rnn``, ``c51`` — naming its C symbols and its resolver, the NumPy routines
the caller hands it (docs/engines.md, "Compiled entry points").
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
from functools import lru_cache
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from .. import knobs
from ..obs.tracer import span as _span
from . import abi, blas

__all__ = [
    "available", "unavailable_reason", "so_path", "load", "check_arrays",
    "bind", "point", "Entry", "ENTRIES", "Binding", "entry", "report",
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
    place and must outlive the table."""
    for k, slot in enumerate(abi.TABLE.pointers):
        if arrays[k] is None and not slot.optional:
            arrays[k] = _UNUSED[slot.ctype]
    check_arrays(arrays)
    ptrs = (ctypes.c_void_p * abi.P_NPTR)()
    for k, arr in enumerate(arrays):
        ptrs[k] = None if arr is None else arr.ctypes.data
    return ptrs


def point(
    ptrs: "ctypes.Array", slot: int, array: Optional[np.ndarray]
) -> None:
    """Re-point slot ``slot`` of a table :func:`bind` built at ``array``
    (``None``: NULL, for an optional slot), checked as
    :func:`check_arrays` checks it; ``array`` must outlive its use.  For
    what changes from call to call (a batch, a buffer regrown), without
    repacking the table."""
    _check(abi.TABLE.pointers[slot], array)
    ptrs[slot] = None if array is None else array.ctypes.data


# ------------------------------------------------------ the entry table
class Unresolved(Exception):
    """A resolver's or a check's refusal; the message says why."""


class Entry(NamedTuple):
    """A row of :data:`ENTRIES`: the exported symbols; ``resolve()``,
    what the caller hands the entry point beside its arrays (run once
    per process); ``check(resolved, *args)``, the caller's arguments
    vetted at each use.  Both raise :class:`Unresolved`."""

    symbols: Tuple[str, ...]
    resolve: Callable[[], tuple]
    check: Optional[Callable[..., None]] = None


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
def _resolve(name: str) -> Tuple[Optional[tuple], str]:
    try:
        return ENTRIES[name].resolve(), ""
    except Unresolved as exc:
        return None, str(exc)


def _state(name: str, args: tuple, backend: Optional[str]):
    """``(mode, binding or None, reason)``; the one read of the knob."""
    mode = knobs.get("SIBYL_BACKEND", backend)
    if mode == "off":
        return mode, None, "SIBYL_BACKEND=off"
    lib = load()
    if lib is None:
        return mode, None, unavailable_reason()
    resolved, why = _resolve(name)
    if resolved is not None and args:
        try:
            ENTRIES[name].check(resolved, *args)
        except Unresolved as exc:
            why = str(exc)
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


#: The NumPy ufuncs whose float64 loops ``sib_rnn_*`` calls, in
#: ``abi.TABLE.rnn_fns`` order.
RNN_UFUNCS = ("tanh", "exp")

#: The NumPy ufuncs whose float64 loops ``sib_c51_*`` and ``sib_run``'s
#: forward call, in ``abi.TABLE.c51_fns`` order.
C51_UFUNCS = ("tanh", "exp", "log")


def _blas(export: str) -> Tuple[int, bool]:
    """``(address, takes 64-bit ints)`` of NumPy's OpenBLAS export
    ``export`` (a field of :class:`blas.OpenBLASExports`)."""
    found = blas.numpy_openblas()
    if found is None:
        raise Unresolved("no known OpenBLAS is mapped into this process")
    lib, exports = found
    symbol = getattr(exports, export)
    fn = getattr(lib, symbol, None)
    if fn is None:
        raise Unresolved(f"NumPy's OpenBLAS does not export {symbol}")
    return ctypes.cast(fn, ctypes.c_void_p).value, exports.ilp64


def _loops(names: Tuple[str, ...]) -> List[int]:
    """``(loop, data)`` of each ufunc's float64 loop, flattened."""
    loops: List[int] = []
    for name in names:
        loop = _ufunc_loop(getattr(np, name, None), name)
        if loop is None:
            raise Unresolved(f"np.{name} failed its float64 loop check")
        loops += loop
    return loops


def _rnn_primitives() -> Tuple[Tuple[int, ...], bool]:
    """``(addresses in abi.TABLE.rnn_fns order, gemv takes 64-bit ints)``:
    NumPy's ``cblas_dgemv`` and the float64 loops of :data:`RNN_UFUNCS`."""
    gemv, ilp64 = _blas("dgemv")
    return (gemv, *_loops(RNN_UFUNCS)), ilp64


def _c51_primitives() -> Tuple[Tuple[int, ...], bool]:
    """``(addresses in abi.TABLE.c51_fns order, BLAS takes 64-bit
    ints)``: NumPy's ``cblas_dgemv`` and ``cblas_dgemm`` and the float64
    loops of :data:`C51_UFUNCS`."""
    gemv, ilp64 = _blas("dgemv")
    gemm, _ = _blas("dgemm")
    return (gemv, gemm, *_loops(C51_UFUNCS)), ilp64


_LOOP = ctypes.CFUNCTYPE(
    None, ctypes.POINTER(ctypes.c_void_p), ctypes.POINTER(ctypes.c_ssize_t),
    ctypes.POINTER(ctypes.c_ssize_t), ctypes.c_void_p,
)

_ROW_MAJOR, _COL_MAJOR, _NO_TRANS, _TRANS = 101, 102, 111, 112


def _gemv_call(address: int, ilp64: bool):
    """``y = x @ A`` through ``cblas_dgemv`` as ``kernel.c``'s ``rf_gemv``
    calls it: (order, Trans, rows, cols, 1, A, lda, x, 1, 0, y, 1)."""
    blas_int = ctypes.c_int64 if ilp64 else ctypes.c_int32
    gemv = ctypes.CFUNCTYPE(
        None, ctypes.c_int, ctypes.c_int, blas_int, blas_int,
        ctypes.c_double, ctypes.c_void_p, blas_int, ctypes.c_void_p,
        blas_int, ctypes.c_double, ctypes.c_void_p, blas_int,
    )(address)

    def call(order, a, lda, x, y, zero):
        rows, cols = len(x), len(y)
        if zero:
            y[...] = 0.0
        gemv(order, _TRANS, rows, cols, 1.0, a.ctypes.data, lda,
             x.ctypes.data, 1, 0.0, y.ctypes.data, 1)

    return call


def _gemm_call(address: int, ilp64: bool):
    """``c = op(a) @ op(b)`` through ``cblas_dgemm`` as ``kernel.c``'s
    ``np_gemm`` calls it: (RowMajor, transa, transb, M, N, K, 1, a, lda,
    b, ldb, 0, c, N) over C-ordered arrays, a transposed operand passed
    as the C-ordered array under it with the Trans flag."""
    blas_int = ctypes.c_int64 if ilp64 else ctypes.c_int32
    gemm = ctypes.CFUNCTYPE(
        None, ctypes.c_int, ctypes.c_int, ctypes.c_int, blas_int, blas_int,
        blas_int, ctypes.c_double, ctypes.c_void_p, blas_int,
        ctypes.c_void_p, blas_int, ctypes.c_double, ctypes.c_void_p,
        blas_int,
    )(address)

    def call(a, trans_a, b, trans_b, c):
        m, n = c.shape
        k = a.shape[0] if trans_a else a.shape[1]
        gemm(_ROW_MAJOR, _TRANS if trans_a else _NO_TRANS,
             _TRANS if trans_b else _NO_TRANS, m, n, k, 1.0, a.ctypes.data,
             a.shape[1], b.ctypes.data, b.shape[1], 0.0, c.ctypes.data, n)

    return call


def _inplace_call(loop: Tuple[int, int]):
    """``ufunc(a, out=a)`` through the inner loop, as ``rf_inplace``."""
    fn, data = _LOOP(loop[0]), loop[1]

    def call(a):
        args = (ctypes.c_void_p * 2)(a.ctypes.data, a.ctypes.data)
        fn(args, (ctypes.c_ssize_t * 1)(len(a)),
           (ctypes.c_ssize_t * 2)(a.itemsize, a.itemsize), data)

    return call


@lru_cache(maxsize=None)
def _handshake(resolved, n_inputs, n_hidden, n_outputs) -> bool:
    """Each primitive against the NumPy call it stands in for, on the
    network's own shapes, byte for byte: every product the forward and
    backward passes make (the stacked input matmul, the recurrence and
    head ``np.dot``s, the two ``W.T`` products), ``tanh`` in place at
    ``n_hidden`` and ``exp`` in place at ``n_outputs``.  Once per
    process, resolution and shape."""
    (address, *loops), ilp64 = resolved
    gemv = _gemv_call(address, ilp64)
    tanh, exp = _inplace_call(loops[:2]), _inplace_call(loops[2:])
    rng = np.random.default_rng([n_inputs, n_hidden, n_outputs])
    w_xh = rng.uniform(-1.0, 1.0, (n_inputs, n_hidden))
    w_hh = rng.uniform(-1.0, 1.0, (n_hidden, n_hidden))
    w_hy = rng.uniform(-1.0, 1.0, (n_hidden, n_outputs))
    xs = np.log1p(rng.integers(0, 50, (3, n_inputs))).astype(np.float64)
    h = np.tanh(rng.uniform(-3.0, 3.0, n_hidden))
    d = rng.uniform(-1.0, 1.0, n_outputs)
    ours, want = [], []
    stacked = np.empty((len(xs), 1, n_hidden))
    np.matmul(xs[:, None, :], w_xh, out=stacked)
    for k, x in enumerate(xs):
        y = stacked[k, 0] + 1.0  # the matmul writes over a stale row
        gemv(_ROW_MAJOR, w_xh, n_hidden, x, y, zero=False)
        ours.append(y)
        want.append(stacked[k, 0])
    for x, w in ((h, w_hh), (h, w_hy)):  # x @ W, C-ordered W
        y = np.empty(w.shape[1])
        gemv(_ROW_MAJOR, w, w.shape[1], x, y, zero=True)
        ours.append(y)
        want.append(np.dot(x, w, out=np.empty(w.shape[1])))
    for x, w in ((d, w_hy), (h, w_hh)):  # x @ W.T
        y = np.empty(w.shape[0])
        gemv(_COL_MAJOR, w, w.shape[1], x, y, zero=True)
        ours.append(y)
        want.append(np.dot(x, w.T, out=np.empty(w.shape[0])))
    for call, ufunc, a in (
        (tanh, np.tanh, rng.uniform(-4.0, 4.0, n_hidden)),
        (exp, np.exp, -rng.uniform(0.0, 30.0, n_outputs)),
    ):
        mine, theirs = a.copy(), a.copy()
        call(mine)
        ufunc(theirs, out=theirs)
        ours.append(mine)
        want.append(theirs)
    return all(a.tobytes() == b.tobytes() for a, b in zip(ours, want))


def _rnn_check(resolved, *shape: int) -> None:
    """The handshake on the asking network's shape."""
    if not _handshake(resolved, *shape):
        shape = "-".join(map(str, shape))
        raise Unresolved(f"a primitive differs from NumPy's call at shape {shape}")


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


#: The row counts a batched pass is handshaken at: its rows change
#: from event to event, its primitives do not.
_PASS_ROWS = (2, 131)


@lru_cache(maxsize=None)
def _c51_handshake(
    resolved, widths, n_actions, n_atoms, batch, batched=False
) -> bool:
    """Each primitive against the NumPy call it stands in for, on the
    network's own shapes, byte for byte.  A forward (``best_action``):
    each layer's ``np.dot``, ``tanh`` at each hidden width, the head's
    ``matmul`` with the support and ``exp`` over its logits, and
    ``add.reduce`` over ``n_atoms`` (pairwise, from +0).  With ``batch``
    (a training step): each layer's three gemm forms, ``tanh`` at
    ``batch`` rows, ``exp`` and ``log`` at ``batch * n_atoms``, and
    ``add.reduce`` down the batch axis (row by row, from +0).  With
    ``batched`` (the target and greedy passes), at each of
    :data:`_PASS_ROWS`: each layer's forward gemm and ``tanh``, and the
    head's ``exp``, per-action ``add.reduce`` and per-row ``matmul``
    with the support.  Once per process, resolution and shape."""
    (gemv_at, gemm_at, *loops), ilp64 = resolved
    gemv, gemm = _gemv_call(gemv_at, ilp64), _gemm_call(gemm_at, ilp64)
    tanh, exp, log = (_inplace_call(loops[k:k + 2]) for k in (0, 2, 4))
    rng = np.random.default_rng([*widths, n_actions, n_atoms, batch])
    ours, want = [], []

    def ufunc(call, numpy_ufunc, a):
        mine, theirs = a.copy(), a.copy()
        call(mine)
        numpy_ufunc(theirs, out=theirs)
        ours.append(mine)
        want.append(theirs)

    for n_in, n_out in zip(widths, widths[1:]):
        w = rng.uniform(-1.0, 1.0, (n_in, n_out))
        x = rng.uniform(-2.0, 2.0, n_in)
        y = np.full(n_out, np.nan)
        gemv(_ROW_MAJOR, w, n_out, x, y, zero=True)
        ours.append(y)
        want.append(np.dot(x, w, out=np.empty(n_out)))
        ufunc(tanh, np.tanh, rng.uniform(-4.0, 4.0, n_out))
        if not batch:
            continue
        x = rng.uniform(-2.0, 2.0, (batch, n_in))
        g = rng.uniform(-1.0, 1.0, (batch, n_out))
        for a, trans_a, b, trans_b, out, numpy_a, numpy_b in (
            (x, False, w, False, (batch, n_out), x, w),
            (x, True, g, False, (n_in, n_out), x.T, g),
            (g, False, w, True, (batch, n_in), g, w.T),
        ):
            c = np.full(out, np.nan)
            gemm(a, trans_a, b, trans_b, c)
            ours.append(c)
            want.append(np.matmul(numpy_a, numpy_b, out=np.empty(out)))
        ufunc(tanh, np.tanh, rng.uniform(-4.0, 4.0, batch * n_out))
        rows = rng.standard_normal(g.shape) * np.exp(rng.uniform(-9, 9, g.shape))
        total = np.zeros(n_out)
        for row in rows:
            total += row
        ours.append(total)
        want.append(np.add.reduce(rows, axis=0))
    logits = np.exp(-rng.uniform(0.0, 30.0, (n_actions, n_atoms)))
    support = np.linspace(0.0, rng.uniform(1.0, 20.0), n_atoms)
    q = np.full(n_actions, np.nan)
    gemv(_COL_MAJOR, logits, n_atoms, support, q, zero=False)
    ours.append(q)
    want.append(logits @ support)
    ufunc(exp, np.exp, -rng.uniform(0.0, 30.0, n_actions * n_atoms))
    rows = rng.standard_normal((4, n_atoms)) * np.exp(
        rng.uniform(-20.0, 20.0, (4, n_atoms))
    )
    ours.append(np.array([0.0 + _pairwise(row) for row in rows]))
    want.append(np.add.reduce(rows, axis=-1))
    if batch:
        for call, numpy_ufunc, a in (
            (exp, np.exp, -rng.uniform(0.0, 30.0, batch * n_atoms)),
            (log, np.log, rng.uniform(1e-12, 1.0, batch * n_atoms)),
        ):
            ufunc(call, numpy_ufunc, a)
    for rows in _PASS_ROWS if batched else ():
        for n_in, n_out in zip(widths, widths[1:]):
            x = rng.uniform(-2.0, 2.0, (rows, n_in))
            w = rng.uniform(-1.0, 1.0, (n_in, n_out))
            c = np.full((rows, n_out), np.nan)
            gemm(x, False, w, False, c)
            ours.append(c)
            want.append(np.matmul(x, w, out=np.empty((rows, n_out))))
            ufunc(tanh, np.tanh, rng.uniform(-4.0, 4.0, rows * n_out))
        pmfs = rng.uniform(0.0, 1.0, (rows, n_actions, n_atoms))
        ufunc(exp, np.exp, -rng.uniform(0.0, 30.0, pmfs.size))
        ours.append(np.array([0.0 + _pairwise(row) for row in pmfs.reshape(
            -1, n_atoms)]))
        want.append(np.add.reduce(pmfs, axis=-1).ravel())
        q = np.full((rows, n_actions), np.nan)
        for r in range(rows):
            gemv(_COL_MAJOR, pmfs[r], n_atoms, support, q[r], zero=False)
        ours.append(q)
        want.append(np.matmul(pmfs, support, out=np.empty((rows, n_actions))))
    return all(a.tobytes() == b.tobytes() for a, b in zip(ours, want))


def _c51_check(
    resolved, widths, n_actions, n_atoms, batch, batched=False
) -> None:
    """The handshake on the asking network's shape (``batch`` 0: no
    training step; ``batched``: the batched passes)."""
    if not _c51_handshake(
        resolved, widths, n_actions, n_atoms, batch, batched
    ):
        shape = "-".join(map(str, widths)) + f" as {n_actions}x{n_atoms}"
        raise Unresolved(
            f"a primitive differs from NumPy's call at shape {shape}"
            + (f", batch {batch}" if batch else "")
            + (", batched" if batched else "")
        )


#: The compiled library's entry points, by name.
ENTRIES: Dict[str, Entry] = {
    "tick": Entry(("sib_run",), lambda: ()),
    "draw": Entry(("sib_draw_trace",), _numpy_samplers),
    "rnn": Entry(("sib_rnn_train", "sib_rnn_predict"), _rnn_primitives,
                 _rnn_check),
    "c51": Entry(("sib_c51_train", "sib_c51_act", "sib_c51_targets",
                  "sib_c51_greedy"), _c51_primitives, _c51_check),
}
