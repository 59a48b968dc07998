"""The compiled kernel's ABI: one table, rendered twice.

``kernel.c`` and ``engine_c.py`` talk through one ``void *`` pointer
table and a handful of flat control blocks.  Everything both sides must
agree on — slot order, element types, block lengths, strides, status
codes — is declared once in :data:`TABLE`.  From it

* this module *derives* the Python constants (``P_TS``, ``CI_SEEN``,
  ``DD_STRIDE``, ``ST_DONE``, ... — plain ints, exported through
  ``__all__``), and
* :func:`render_header` emits ``sib_abi.h`` — the enums, strides with a
  ``_Static_assert`` each, the typed state struct ``S``, ``sib_bind``
  (the casts out of the pointer table) and ``SIB_ABI_HASH`` — which
  ``kernel.c`` includes.  The header is never checked in; ``engine_c``
  writes it next to the compiler's output when it has to build.

Extending the kernel is a row here plus its use on either side; see
``docs/engines.md`` ("Extending the kernel safely").
``python -m repro.sim.kernels.abi`` prints the header.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Iterator, NamedTuple, Sequence, Tuple

import numpy as np

#: C element type -> the NumPy dtype an array packed into such a slot
#: must have.
DTYPES = {
    "double": np.dtype(np.float64),
    "int64_t": np.dtype(np.int64),
    "uint64_t": np.dtype(np.uint64),
    "int32_t": np.dtype(np.int32),
    "int8_t": np.dtype(np.int8),
    "uint8_t": np.dtype(np.uint8),
}


class Pointer(NamedTuple):
    """One pointer-table slot."""

    name: str  # index constant, both languages
    field: str  # member of the C state struct ``S``
    ctype: str  # element type, a key of DTYPES
    const: bool = False  # the kernel only reads through it


class Table(NamedTuple):
    """The whole ABI.  Order is layout: append, never reorder casually
    (any edit changes :func:`abi_hash` and so the binary's file name)."""

    pointers: Tuple[Pointer, ...]
    ctrl_i: Tuple[str, ...]  # int64 control block
    ctrl_d: Tuple[str, ...]  # float64 control block
    dev_d: Tuple[str, ...]  # per-device float64 block
    dev_d_stride: int
    dev_i: Tuple[str, ...]  # per-device int64 block
    dev_i_stride: int
    hss_i: Tuple[str, ...]  # HSS stats, int64
    hss_d: Tuple[str, ...]  # HSS stats, float64
    status: Tuple[str, ...]  # sib_run return codes


TABLE = Table(
    pointers=(
        Pointer("P_CTRL_I", "ci", "int64_t"),
        Pointer("P_CTRL_D", "cd", "double"),
        Pointer("P_TS", "ts", "double", const=True),
        Pointer("P_OP", "op", "uint8_t", const=True),
        Pointer("P_DPAGE", "dpage", "int64_t", const=True),
        Pointer("P_SIZE", "size", "int64_t", const=True),
        Pointer("P_UNIQ", "uniq", "int64_t", const=True),
        Pointer("P_LOC", "loc", "int8_t"),
        Pointer("P_LRU_PREV", "lprev", "int32_t"),
        Pointer("P_LRU_NEXT", "lnext", "int32_t"),
        Pointer("P_CNT", "cnt", "int64_t"),
        Pointer("P_LAST", "last", "int64_t"),
        Pointer("P_MAXIMA", "maxima", "double", const=True),
        Pointer("P_OBS_MAIL", "obs_mail", "double"),
        Pointer("P_PEND_OBS", "pend_obs", "double"),
        Pointer("P_PEND_KEY", "pend_key", "uint8_t"),
        Pointer("P_ACTION_COUNTS", "action_counts", "int64_t"),
        Pointer("P_RNG", "rngst", "uint64_t"),
        Pointer("P_RB_OBS", "rb_obs", "double"),
        Pointer("P_RB_NOBS", "rb_nobs", "double"),
        Pointer("P_RB_ACT", "rb_act", "int64_t"),
        Pointer("P_RB_REW", "rb_rew", "double"),
        Pointer("P_RB_MULT", "rb_mult", "double"),
        Pointer("P_RB_KEYS", "rb_keys", "uint8_t"),
        Pointer("P_RB_HASH", "rb_hash", "int32_t"),
        Pointer("P_RB_FPREV", "rb_fprev", "int32_t"),
        Pointer("P_RB_FNEXT", "rb_fnext", "int32_t"),
        Pointer("P_RB_FREE", "rb_free", "int32_t"),
        Pointer("P_RB_ORDER", "rb_order", "int64_t"),
        Pointer("P_MEMO_KEYS", "memo_keys", "uint8_t"),
        Pointer("P_MEMO_OBS", "memo_obs", "double"),
        Pointer("P_MEMO_ACT", "memo_act", "int32_t"),
        Pointer("P_MEMO_HASH", "memo_hash", "int32_t"),
        Pointer("P_DEV_D", "dd", "double"),
        Pointer("P_DEV_I", "di", "int64_t"),
        Pointer("P_HSS_I", "hi", "int64_t"),
        Pointer("P_HSS_D", "hd", "double"),
        Pointer("P_VICTIMS", "victims", "int32_t"),
        Pointer("P_VSORT", "vsort", "int32_t"),
        # Scripted lanes: the per-request decisions, and the Belady
        # selector's future-use index (CSR over dense pages) + scratch.
        Pointer("P_SCRIPT", "script", "int8_t", const=True),
        Pointer("P_FU_OFF", "fu_off", "int64_t", const=True),
        Pointer("P_FU_IDX", "fu_idx", "int64_t", const=True),
        Pointer("P_FU_CUR", "fu_cur", "int64_t"),
        Pointer("P_VKEY", "vkey", "int64_t"),
    ),
    ctrl_i=(
        "CI_STATUS", "CI_I", "CI_RESUMED", "CI_NTOTAL", "CI_WARMUP",
        "CI_SEEN", "CI_TRAIN_INT", "CI_BATCH", "CI_INIT_RAND", "CI_CLOCK",
        "CI_CAP0", "CI_SLACK", "CI_RES0", "CI_RES1",
        "CI_HEAD0", "CI_TAIL0", "CI_HEAD1", "CI_TAIL1",
        "CI_PENDING", "CI_PEND_ACTION",
        "CI_RB_CAP", "CI_RB_NENT", "CI_RB_HEAD", "CI_RB_TAIL",
        "CI_RB_FREE_N", "CI_RB_TOMB", "CI_RB_HASHCAP", "CI_RB_TOTAL",
        "CI_RB_SLOT_HI", "CI_MEMO_N", "CI_MEMO_CAP", "CI_MEMO_HASHCAP",
        "CI_ACTION", "CI_ERR", "CI_ORDER_N",
        "CI_SIZE_BINS", "CI_INTR_BINS", "CI_CNT_BINS", "CI_CAP_BINS",
        "CI_NDEV", "CI_SCRIPTED", "CI_BELADY_NOW",
    ),
    ctrl_d=(
        "CD_COMPLETION", "CD_EPS", "CD_UNIT", "CD_EVICT_COEF",
        "CD_MAX_REWARD", "CD_PEND_REWARD",
    ),
    dev_d=(
        "DD_NEXT_FREE", "DD_BUSY", "DD_QWAIT", "DD_UTIL", "DD_GC_TIME",
        "DD_ROVER", "DD_WOVER", "DD_RBW", "DD_WBW", "DD_BI",
        "DD_READ1", "DD_GC_THRESH", "DD_GC_LAT", "DD_GC_DENOM",
        "DD_BUF_LAT", "DD_TR_UNIT", "DD_BUF_OCC", "DD_BUF_LAST",
        "DD_AVG_ROT", "DD_MIN_SEEK", "DD_SEEK_SPAN",
    ),
    dev_d_stride=32,
    dev_i=(
        "DI_TYPE", "DI_READS", "DI_WRITES", "DI_PR", "DI_PW",
        "DI_GC_EVENTS", "DI_BUFFERED", "DI_WSG", "DI_HEAD", "DI_TARGET",
        "DI_GC_TRIG", "DI_BUF_PAGES", "DI_SEQWIN", "DI_TRACKSPAN",
        "DI_CAPPAGES", "DI_HAS_UTIL", "DI_UTIL_CAP",
    ),
    dev_i_stride=24,
    hss_i=(
        "HI_REQUESTS", "HI_READS", "HI_WRITES", "HI_PROMOTED",
        "HI_DEMOTED", "HI_EVENTS", "HI_EVICTED", "HI_PLACE0", "HI_PLACE1",
    ),
    hss_d=("HD_TOTAL_LAT", "HD_EVICT_TIME", "HD_LAST_COMPLETION"),
    status=("ST_DONE", "ST_NEED_INFERENCE", "ST_TRAIN_GATE", "ST_ERROR"),
)


def _enums(table: Table) -> Iterator[Tuple[Sequence[str], str]]:
    """Each index family as ``(names, length sentinel)``."""
    yield [p.name for p in table.pointers], "P_NPTR"
    yield table.ctrl_i, "CI_LEN"
    yield table.ctrl_d, "CD_LEN"
    yield table.dev_d, "DD_LEN"
    yield table.dev_i, "DI_LEN"
    yield table.hss_i, "HI_LEN"
    yield table.hss_d, "HD_LEN"


def constants(table: Table = TABLE) -> Dict[str, int]:
    """Every ABI name -> its integer value, as both languages see it."""
    out: Dict[str, int] = {}
    for names, sentinel in _enums(table):
        out.update((name, k) for k, name in enumerate(names))
        out[sentinel] = len(names)
    out.update((name, k) for k, name in enumerate(table.status))
    out["DD_STRIDE"] = table.dev_d_stride
    out["DI_STRIDE"] = table.dev_i_stride
    return out


def abi_hash(table: Table = TABLE) -> int:
    """64-bit digest of the table; the kernel returns the value it was
    compiled against from ``sib_abi_hash()``."""
    digest = hashlib.sha256(repr(tuple(table)).encode()).digest()
    return int.from_bytes(digest[:8], "big")


def render_header(table: Table = TABLE) -> str:
    """The text of ``sib_abi.h`` for ``table``."""
    out = [
        "/* Generated by repro.sim.kernels.abi from its TABLE: edit the",
        " * table, not this file. */",
        "#ifndef SIB_ABI_H",
        "#define SIB_ABI_H",
        "#include <stdint.h>",
        "",
        f"#define SIB_ABI_HASH 0x{abi_hash(table):016x}ULL",
        "",
    ]
    for names, sentinel in _enums(table):
        out += ["enum {", *(f"    {name}," for name in names),
                f"    {sentinel}", "};"]
    out += ["enum {", *(f"    {name}," for name in table.status), "};", ""]
    for prefix, stride in (("DD", table.dev_d_stride),
                           ("DI", table.dev_i_stride)):
        out += [
            f"#define {prefix}_STRIDE {stride}",
            f"_Static_assert({prefix}_LEN <= {prefix}_STRIDE, "
            f"\"{prefix}_* block outgrew {prefix}_STRIDE\");",
        ]
    decls = [
        (p, ("const " if p.const else "") + p.ctype + " *")
        for p in table.pointers
    ]
    out += ["", "typedef struct {"]
    out += [f"    {decl}{p.field};" for p, decl in decls]
    out += ["} S;", "", "static inline void sib_bind(S *s, void **p) {"]
    out += [f"    s->{p.field} = ({decl})p[{p.name}];" for p, decl in decls]
    out += ["}", "", "#endif", ""]
    return "\n".join(out)


# ``from .abi import *`` is how engine_c gets its slot indices: exactly
# the derived constants, nothing else.
_CONSTANTS = constants()
globals().update(_CONSTANTS)
__all__ = list(_CONSTANTS)

if __name__ == "__main__":
    print(render_header(), end="")
