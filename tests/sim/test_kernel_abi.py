"""The kernel ABI table and the three checks that stand behind it.

``repro.sim.kernels.abi`` declares the Python/C boundary once; the C
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
from repro.sim.kernels import abi, engine_c, get_backend
from repro.sim.kernels.soa import TraceSoA
from repro.sim.lanes import LaneSpec, run_lanes
from repro.traces.workloads import make_trace

requires_gcc = pytest.mark.skipif(
    shutil.which("gcc") is None, reason="no C compiler on this machine"
)
requires_cext = pytest.mark.skipif(
    not engine_c.available(),
    reason=f"compiled kernel unavailable: {engine_c.unavailable_reason()}",
)

BLOCKS = ("ctrl_i", "ctrl_d", "dev_d", "dev_i", "hss_i", "hss_d", "status")


def _kernel_source() -> bytes:
    with open(engine_c._source_path(), "rb") as fh:
        return fh.read()


def _so_name(table=abi.TABLE) -> str:
    digest = engine_c._build_digest(abi.render_header(table), _kernel_source())
    return f"kernel-{digest}.so"


def _fresh_run(n_requests=300, seed=0):
    trace = make_trace("rsrch_0", n_requests=n_requests, seed=seed)
    return LaneSpec(policy=SibylAgent(seed=seed), trace=trace).make_run()


@pytest.fixture
def cold_engine(monkeypatch, tmp_path):
    """``engine_c`` with nothing loaded and an empty build directory."""
    monkeypatch.setattr(engine_c, "_lib", None)
    monkeypatch.setattr(engine_c, "_build_error", None)
    monkeypatch.setattr(engine_c, "_BUILD_DIR", str(tmp_path))
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
             "-I", str(tmp_path), engine_c._source_path()],
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
        assert engine_c._load().sib_abi_hash() == abi.abi_hash()

    def test_cold_load_builds_one_binary_and_leaves_no_header(self, cold_engine):
        assert engine_c.available(), engine_c.unavailable_reason()
        assert sorted(os.listdir(cold_engine)) == [_so_name()]

    def test_warm_load_writes_nothing_and_spawns_no_compiler(
        self, cold_engine, monkeypatch
    ):
        assert engine_c.available()
        before = {
            name: os.stat(cold_engine / name).st_mtime_ns
            for name in os.listdir(cold_engine)
        }
        monkeypatch.setattr(engine_c, "_lib", None)

        def no_compiler(*args, **kwargs):
            raise AssertionError(f"warm load spawned {args!r}")

        monkeypatch.setattr(engine_c.subprocess, "run", no_compiler)
        assert engine_c.available(), engine_c.unavailable_reason()
        after = {
            name: os.stat(cold_engine / name).st_mtime_ns
            for name in os.listdir(cold_engine)
        }
        assert after == before

    def test_foreign_binary_is_refused_and_auto_falls_back(self, cold_engine):
        """A library that sits under the right name but was compiled
        against another table is reported, never run."""
        other = abi.TABLE._replace(status=abi.TABLE.status + ("ST_EXTRA",))
        assert engine_c._compile(
            engine_c._source_path(),
            abi.render_header(other),
            str(cold_engine / _so_name()),
        ) is None
        assert not engine_c.available()
        reason = engine_c.unavailable_reason()
        assert "ABI hash mismatch" in reason
        assert f"{abi.abi_hash(other):#018x}" in reason
        assert get_backend("auto") == "numpy"
        with pytest.raises(RuntimeError, match="ABI hash mismatch"):
            get_backend("cext")

        trace = make_trace("rsrch_0", n_requests=600, seed=1)
        (fallback,) = run_lanes(
            [LaneSpec(policy=SibylAgent(seed=1), trace=trace)], backend="auto"
        )
        (reference,) = run_lanes(
            [LaneSpec(policy=SibylAgent(seed=1), trace=trace)], backend="numpy"
        )
        assert fallback == reference


class TestPackTime:
    @pytest.mark.parametrize("slot", abi.TABLE.pointers, ids=lambda s: s.name)
    def test_bad_array_names_its_slot(self, slot):
        run = _fresh_run(n_requests=50)
        arrays = engine_c._KernelRun(run, TraceSoA.from_run(run)).arrays
        index = getattr(abi, slot.name)
        good = arrays[index]
        strided = np.zeros(2 * max(good.size, 2), dtype=good.dtype)[::2]
        for bad in (good.astype(np.float32), strided, good.tolist()):
            arrays[index] = bad
            with pytest.raises(RuntimeError, match=rf"slot {slot.name} "):
                engine_c._check_arrays(arrays)
        arrays[index] = good
        engine_c._check_arrays(arrays)

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

        monkeypatch.setattr(engine_c, "_load", lambda: NeverEntered())
        with pytest.raises(RuntimeError, match=r"slot P_SIZE .*int32"):
            engine_c.run_one_c(run)
