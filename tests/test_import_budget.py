"""What a process imports: the lazy import graph, pinned.

A ``repro compare`` served whole from the store is interpreter start,
store reads and rendering — it must not load NumPy, the engine or the
pool machinery — and the light verbs stay NumPy-free.  Every case runs
in a subprocess so ``sys.modules`` starts clean; the child drives
``repro.cli.main`` in-process and dumps ``sys.modules`` on its way out.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"), SIBYL_PARALLEL="serial")

#: What a warm campaign must never import (a name also bans its submodules).
ENGINE = (
    "numpy",
    "multiprocessing",
    "repro.rl",
    "repro.serve",
    "repro.analysis",
    "repro.core.agent",
    "repro.hss.system",
    "repro.sim.kernels",
    "repro.sim.lanes",
    "repro.sim.runner",
)

_DRIVER = """
import json, sys
from repro.cli import main
code = main(sys.argv[2:])
with open(sys.argv[1], "w") as out:
    json.dump(sorted(sys.modules), out)
sys.exit(code)
"""


def _python(*argv):
    return subprocess.run(
        [sys.executable, *argv], env=ENV, capture_output=True, text=True,
        timeout=120,
    )


def _cli(tmp_path, *argv):
    """Run ``repro <argv>``; returns the process and its ``sys.modules``."""
    dump = tmp_path / "modules.json"
    proc = _python("-c", _DRIVER, str(dump), *argv)
    assert proc.returncode == 0, proc.stderr
    return proc, json.loads(dump.read_text())


def _loaded(modules, banned):
    return sorted(
        m for m in modules
        if any(m == name or m.startswith(name + ".") for name in banned)
    )


def test_warm_compare_is_byte_identical_and_never_loads_the_engine(tmp_path):
    grid = tmp_path / "grid.json"
    argv = [
        "compare", "--workloads", "rsrch_0", "hm_1", "--requests", "120",
        "--seeds", "2", "--store", str(tmp_path / "store"), "--json", str(grid),
    ]
    cold, cold_modules = _cli(tmp_path, *argv)
    cold_grid = grid.read_bytes()
    assert "0 cell(s) served from store, 2 newly stored" in cold.stderr
    # The probe sees the engine when it is there: a cold run executes cells.
    assert {"numpy", "repro.sim.lanes"} <= set(cold_modules)

    warm, warm_modules = _cli(tmp_path, *argv)
    assert "2 cell(s) served from store, 0 newly stored" in warm.stderr
    assert warm.stdout == cold.stdout
    assert grid.read_bytes() == cold_grid
    assert _loaded(warm_modules, ENGINE) == []
    # The lazy ``repro.baselines`` package names the policies; no policy
    # module (nor ``base``, which pulls in ``hss.system``) may load.
    assert [m for m in warm_modules if m.startswith("repro.baselines.")] == []


@pytest.mark.parametrize("argv", [["workloads"], ["lint", "--list-rules"]])
def test_light_verbs_are_numpy_free(tmp_path, argv):
    _, modules = _cli(tmp_path, *argv)
    assert _loaded(modules, ("numpy",)) == []


def test_import_repro_loads_no_subpackage():
    proc = _python(
        "-c", "import json, sys, repro; json.dump(sorted(sys.modules), sys.stdout)"
    )
    assert proc.returncode == 0, proc.stderr
    modules = json.loads(proc.stdout)
    assert _loaded(modules, ("numpy",)) == []
    assert [m for m in modules if m.startswith("repro")] == ["repro", "repro._lazy"]


@pytest.mark.parametrize(
    "entry",
    [
        ["repro.knobs"],
        ["repro.sim.kernels.abi"],
        ["repro.analysis", "--list-rules"],
        ["repro.serve.loadgen", "--help"],
    ],
    ids=lambda entry: entry[0],
)
def test_module_entry_points_run_clean_under_runpy(entry):
    """``python -m pkg.mod`` warns when importing ``pkg`` already
    imported ``mod``; a lazy ``__init__`` never does."""
    proc = _python("-W", "error::RuntimeWarning", "-m", *entry)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
