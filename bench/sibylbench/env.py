"""Where the harness runs: paths, the scrubbed child environment, children.

Every program process is started through :func:`run_child` or
:func:`spawn`, so all of them see the same environment (every
``SIBYL_*`` variable removed, then ``SIBYL_PARALLEL=2``) and all of
them are reaped with ``os.wait4`` — which is where the CPU time of the
process *and its pool workers* comes from; peak resident set is sampled
from ``/proc`` while the process runs.
"""

from __future__ import annotations

import os
import platform
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Sequence

__all__ = [
    "BENCH_DIR",
    "ROOT",
    "SRC",
    "OUT_DIR",
    "PARALLEL",
    "Child",
    "child_env",
    "host_report",
    "reap",
    "tree_peak_rss_mb",
    "run_child",
    "spawn",
    "backend_in_fresh_process",
]

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

#: Pool width of every campaign child: the reference box has 2 cores,
#: and a fixed width keeps the workload the same on a bigger one.
PARALLEL = 2


def child_env() -> Dict[str, str]:
    """The environment of every program process."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("SIBYL_")}
    env["SIBYL_PARALLEL"] = str(PARALLEL)
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + inherited if inherited else "")
    return env


def _gcc_version() -> str:
    try:
        out = subprocess.run(
            ["gcc", "--version"], capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return out.stdout.splitlines()[0] if out.stdout else "unavailable"


def host_report() -> Dict[str, object]:
    """What the numbers are measured on (call before measuring)."""
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "gcc": _gcc_version(),
        "loadavg_at_start": list(os.getloadavg()),
        "scrubbed_env": sorted(k for k in os.environ if k.startswith("SIBYL_")),
    }


@dataclass
class Child:
    """One finished program process (pool workers folded in)."""

    started: float
    wall_s: float
    returncode: int
    maxrss_mb: float
    cpu_s: float


def _high_water_kib(pid: int) -> int:
    """``VmHWM`` of one process (0 once it is gone)."""
    try:
        with open(f"/proc/{pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except (OSError, ValueError):
        pass
    return 0


def tree_peak_rss_mb(pid: int) -> float:
    """Highest resident set of ``pid`` or any live descendant, in MiB.

    Read from ``/proc`` because ``ru_maxrss`` is no use here: across
    fork+exec a child inherits the *parent's* high-water mark, so it
    would report the harness's own memory whenever that is larger.
    """
    peak = 0
    pending = [pid]
    while pending:
        current = pending.pop()
        peak = max(peak, _high_water_kib(current))
        try:
            for task in os.listdir(f"/proc/{current}/task"):
                with open(f"/proc/{current}/task/{task}/children") as kids:
                    pending.extend(int(kid) for kid in kids.read().split())
        except (OSError, ValueError):
            pass  # exited between the listing and the read
    return peak / 1024.0


class _PeakWatcher(threading.Thread):
    """Samples a process tree's high-water mark until told to stop."""

    def __init__(self, pid: int) -> None:
        super().__init__(name="bench-rss", daemon=True)
        self.pid = pid
        self.peak_mb = 0.0
        self._done = threading.Event()

    def run(self) -> None:
        while not self._done.wait(0.05):
            self.peak_mb = max(self.peak_mb, tree_peak_rss_mb(self.pid))

    def stop(self) -> float:
        self._done.set()
        self.join()
        return self.peak_mb


def reap(proc: subprocess.Popen, started: float, timeout_s: float) -> Child:
    """Wait for ``proc`` with ``wait4`` and account for its resources.

    ``wait4`` has no timeout, so a timer kills a child that hangs.  CPU
    time covers the process and every pool worker it waited for.
    """
    watchdog = threading.Timer(timeout_s, proc.kill)
    watchdog.daemon = True
    watchdog.start()
    watcher = _PeakWatcher(proc.pid)
    watcher.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        watchdog.cancel()
        peak_mb = watcher.stop()
    wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(
        started=started,
        wall_s=wall,
        returncode=proc.returncode,
        maxrss_mb=peak_mb,
        cpu_s=usage.ru_utime + usage.ru_stime,
    )


def spawn(cmd: Sequence[str], stdout, stderr) -> subprocess.Popen:
    """Start a program process in the scrubbed environment."""
    return subprocess.Popen(
        list(cmd), stdout=stdout, stderr=stderr, stdin=subprocess.DEVNULL,
        env=child_env(), cwd=str(ROOT),
    )


def run_child(cmd: Sequence[str], stdout_path: Path, stderr_path: Path,
              timeout_s: float = 170.0) -> Child:
    """Run one program process to exit; wall is launch to reaped."""
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        started = time.perf_counter()
        proc = spawn(cmd, out, err)
        return reap(proc, started, timeout_s)


_BACKEND_PROBE = (
    "from repro.sim.kernels import get_backend; print(get_backend('auto'))"
)


def backend_in_fresh_process(scratch: Path) -> str:
    """The engine ``auto`` resolves to in a new interpreter.

    Builds the kernel ``.so`` on first use and loads it otherwise — the
    check every campaign worker makes.  ``auto`` falls back to NumPy
    silently, so the caller must compare the answer with ``"cext"``.
    """
    out, err = scratch / "backend.out", scratch / "backend.err"
    child = run_child([sys.executable, "-c", _BACKEND_PROBE], out, err,
                      timeout_s=850.0)
    if child.returncode != 0:
        raise RuntimeError(
            "backend probe failed: " + err.read_text(errors="replace")[-500:]
        )
    return out.read_text().strip()
