"""The kernel ABI table and the three checks that stand behind it.

``repro.native.abi`` declares the Python/C boundary once; the C
header and the Python constants are both derived from it.  What can
still go wrong is caught at three points, each asserted here:

* **compile time** — the rendered header plus ``kernel.c`` builds
  warning-free, and a block that outgrows its stride cannot build;
* **load time** — the binary's file name covers the table, and the
  kernel's exported ``sib_abi_hash()`` must equal the table's;
* **pack time** — every array handed to the kernel has the slot's
  element type and is C-contiguous, checked before ``sib_run``.
"""

import os
import shutil
import subprocess

import numpy as np
import pytest

from repro.core.agent import SibylAgent
from repro.native import abi, library
from repro.sim.kernels import engine_c, get_backend
from repro.sim.kernels.soa import TraceSoA
from repro.sim.lanes import LaneSpec, run_lanes
from repro.sim.runner import run_policy
from repro.traces.workloads import make_trace

requires_gcc = pytest.mark.skipif(
    shutil.which("gcc") is None, reason="no C compiler on this machine"
)
requires_cext = pytest.mark.skipif(
    not library.available(),
    reason=f"compiled kernel unavailable: {library.unavailable_reason()}",
)

BLOCKS = ("ctrl_i", "ctrl_d", "dev_d", "dev_i", "hss_i", "hss_d", "status")


def _kernel_source() -> bytes:
    with open(library._source_path(), "rb") as fh:
        return fh.read()


def _so_name(table=abi.TABLE) -> str:
    digest = library._build_digest(abi.render_header(table), _kernel_source())
    return f"kernel-{digest}.so"


def _fresh_run(n_requests=300, seed=0):
    trace = make_trace("rsrch_0", n_requests=n_requests, seed=seed)
    return LaneSpec(policy=SibylAgent(seed=seed), trace=trace).make_run()


@pytest.fixture
def cold_engine(monkeypatch, tmp_path):
    """The library with nothing loaded and an empty build directory."""
    monkeypatch.setattr(library, "_lib", None)
    monkeypatch.setattr(library, "_build_error", None)
    monkeypatch.setattr(library, "_BUILD_DIR", str(tmp_path))
    return tmp_path


class TestTable:
    def test_names_are_unique_within_and_across_blocks(self):
        names = [p.name for p in abi.TABLE.pointers]
        for block in BLOCKS:
            names += getattr(abi.TABLE, block)
        assert len(names) == len(set(names))
        fields = [p.field for p in abi.TABLE.pointers]
        assert len(fields) == len(set(fields))

    def test_device_blocks_fit_their_strides(self):
        assert len(abi.TABLE.dev_d) <= abi.TABLE.dev_d_stride
        assert len(abi.TABLE.dev_i) <= abi.TABLE.dev_i_stride

    def test_every_element_type_maps_to_a_numpy_dtype(self):
        for slot in abi.TABLE.pointers:
            assert slot.ctype in abi.DTYPES, slot

    def test_python_constants_are_positions_in_the_table(self):
        assert abi.P_CTRL_I == 0 and abi.CI_STATUS == 0
        assert abi.TABLE.pointers[abi.P_VSORT].name == "P_VSORT"
        assert abi.TABLE.ctrl_i[abi.CI_NDEV] == "CI_NDEV"
        assert abi.P_NPTR == len(abi.TABLE.pointers)
        assert abi.CI_LEN == len(abi.TABLE.ctrl_i)
        assert abi.HD_LEN == len(abi.TABLE.hss_d)
        assert (abi.DD_STRIDE, abi.DI_STRIDE) == (
            abi.TABLE.dev_d_stride, abi.TABLE.dev_i_stride
        )
        assert [getattr(abi, name) for name in abi.TABLE.status] == [0, 1, 2, 3]
        assert all(type(getattr(abi, name)) is int for name in abi.__all__)

    def test_appending_a_slot_changes_hash_and_binary_name(self):
        """A table edit can never load a stale binary."""
        grown = abi.TABLE._replace(ctrl_i=abi.TABLE.ctrl_i + ("CI_EXTRA",))
        assert abi.constants(grown)["CI_EXTRA"] == abi.CI_LEN
        assert abi.abi_hash(grown) != abi.abi_hash()
        assert _so_name(grown) != _so_name()
        last = abi.TABLE.pointers[-1]
        other = "int32_t" if last.ctype == "int64_t" else "int64_t"
        retyped = abi.TABLE._replace(
            pointers=abi.TABLE.pointers[:-1] + (last._replace(ctype=other),)
        )
        assert abi.abi_hash(retyped) != abi.abi_hash()
        assert _so_name(retyped) != _so_name()


@requires_gcc
class TestCompileTime:
    def _syntax_check(self, tmp_path, table=abi.TABLE):
        (tmp_path / "sib_abi.h").write_text(abi.render_header(table))
        return subprocess.run(
            ["gcc", "-fsyntax-only", "-Wall", "-Wextra", "-Werror",
             "-I", str(tmp_path), library._source_path()],
            capture_output=True, text=True,
        )

    def test_header_plus_kernel_compiles_warning_free(self, tmp_path):
        proc = self._syntax_check(tmp_path)
        assert proc.returncode == 0, proc.stderr

    def test_block_outgrowing_its_stride_cannot_compile(self, tmp_path):
        tight = abi.TABLE._replace(dev_i_stride=len(abi.TABLE.dev_i) - 1)
        proc = self._syntax_check(tmp_path, tight)
        assert proc.returncode != 0
        assert "DI_STRIDE" in proc.stderr


@requires_cext
class TestLoadTime:
    def test_loaded_library_reports_the_table_hash(self):
        assert library.load().sib_abi_hash() == abi.abi_hash()

    def test_cold_load_builds_one_binary_and_leaves_no_header(self, cold_engine):
        assert library.available(), library.unavailable_reason()
        assert sorted(os.listdir(cold_engine)) == [_so_name()]

    def test_warm_load_writes_nothing_and_spawns_no_compiler(
        self, cold_engine, monkeypatch
    ):
        assert library.available()
        before = {
            name: os.stat(cold_engine / name).st_mtime_ns
            for name in os.listdir(cold_engine)
        }
        monkeypatch.setattr(library, "_lib", None)

        def no_compiler(*args, **kwargs):
            raise AssertionError(f"warm load spawned {args!r}")

        monkeypatch.setattr(library.subprocess, "run", no_compiler)
        assert library.available(), library.unavailable_reason()
        after = {
            name: os.stat(cold_engine / name).st_mtime_ns
            for name in os.listdir(cold_engine)
        }
        assert after == before

    def test_foreign_binary_is_refused_and_auto_falls_back(
        self, cold_engine, monkeypatch
    ):
        """A library that sits under the right name but was compiled
        against another table is reported, never run."""
        monkeypatch.setenv("SIBYL_BACKEND", "auto")  # the trace draw too
        other = abi.TABLE._replace(status=abi.TABLE.status + ("ST_EXTRA",))
        assert library._compile(
            library._source_path(),
            abi.render_header(other),
            str(cold_engine / _so_name()),
        ) is None
        assert not library.available()
        reason = library.unavailable_reason()
        assert "ABI hash mismatch" in reason
        assert f"{abi.abi_hash(other):#018x}" in reason
        assert get_backend("auto") is None
        with pytest.raises(RuntimeError, match="ABI hash mismatch"):
            get_backend("cext")

        trace = make_trace("rsrch_0", n_requests=600, seed=1)
        (fallback,) = run_lanes(
            [LaneSpec(policy=SibylAgent(seed=1), trace=trace)], backend="auto"
        )
        assert fallback == run_policy(SibylAgent(seed=1), trace)


#: The RNN's and the C51's routine slots, now both ``P_NP_FNS``: each
#: case packs that row's own routine vector into the one slot.
ROUTINE_ROWS = {"P_RNN_FNS": "rnn", "P_C51_FNS": "c51"}


class TestPackTime:
    @pytest.mark.parametrize(
        "slot, row",
        [pytest.param(slot, None, id=slot.name) for slot in abi.TABLE.pointers]
        + [
            pytest.param(abi.TABLE.pointers[abi.P_NP_FNS], row, id=old)
            for old, row in ROUTINE_ROWS.items()
        ],
    )
    def test_bad_array_names_its_slot(self, slot, row):
        run = _fresh_run(n_requests=50)
        arrays = engine_c._KernelRun(run, TraceSoA.from_run(run)).arrays
        index = getattr(abi, slot.name)
        if row is not None:  # the vector the row's network binds
            resolved, why, _ = library._resolve(row)
            assert resolved is not None, why
            fns = np.array(resolved[0], dtype=np.uint64)
            assert len(fns) == len(abi.TABLE.np_fns)
            arrays[index] = fns
        good = arrays[index]
        if good is None:  # an optional slot left NULL: nothing bound
            assert slot.optional
            library.check_arrays(arrays)
            good = np.zeros(4, dtype=abi.DTYPES[slot.ctype])
        strided = np.zeros(2 * max(good.size, 2), dtype=good.dtype)[::2]
        for bad in (good.astype(np.float32), strided, good.tolist()):
            arrays[index] = bad
            with pytest.raises(RuntimeError, match=rf"slot {slot.name} "):
                library.check_arrays(arrays)
        arrays[index] = good
        library.check_arrays(arrays)

    def test_mistyped_trace_never_reaches_sib_run(
        self, monkeypatch
    ):
        """``TraceSoA`` columns reach the kernel without a dtype
        conversion; an ``int32`` ``sizes`` must raise, not be read as
        ``int64``."""
        run = _fresh_run()
        bad = TraceSoA.from_run(run)
        bad.sizes = bad.sizes.astype(np.int32)
        monkeypatch.setattr(
            engine_c.TraceSoA, "from_run", classmethod(lambda cls, run: bad)
        )

        class NeverEntered:
            def sib_run(self, ptrs):
                raise AssertionError("sib_run entered with a mistyped array")

        tick = library.Binding("tick", NeverEntered(), ())
        with pytest.raises(RuntimeError, match=r"slot P_SIZE .*int32"):
            engine_c.run_one_c(run, tick)
