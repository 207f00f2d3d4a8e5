"""One Ray session per benchmark run.

The session owns everything it starts: a fixed CPU count, a private temp
dir, warm workers, and a shutdown that waits for every process it spawned.
Workers find ``chunksilo_ray`` through ``PYTHONPATH``, which ``run.py`` sets
to the checkout root before ``ray.init``; a worker does not inherit the
driver's ``sys.path``, so a driver launched from another directory would
otherwise fail its first task with ``ModuleNotFoundError``.
"""

from __future__ import annotations

import os
import shutil
import signal
import subprocess
import tempfile
import time
from pathlib import Path

# Linux caps an AF_UNIX socket path at 107 bytes, and Ray puts
# <temp>/session_<YYYY-MM-DD_HH-MM-SS>_<usec>_<pid>/sockets/plasma_store
# under its temp dir: a suffix of at most 64 bytes.
_SOCKET_PATH_MAX = 107
_SESSION_SUFFIX = 64
OBJECT_STORE_BYTES = 1_000_000_000
WORKERS_PER_CPU = 2


def _process_table() -> dict[int, list[int]]:
    children: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path(f"/proc/{entry}/stat").read_text()
        except OSError:
            continue
        ppid = int(stat.rsplit(")", 1)[1].split()[1])
        children.setdefault(ppid, []).append(int(entry))
    return children


def descendants(pid: int) -> set[int]:
    """Every live process below ``pid`` in the process tree."""
    table = _process_table()
    found: set[int] = set()
    todo = [pid]
    while todo:
        for child in table.get(todo.pop(), []):
            if child not in found:
                found.add(child)
                todo.append(child)
    return found


def _running(pid: int) -> bool:
    try:
        state = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0]
    except OSError:
        return False
    if state == "Z":
        try:  # our own zombie child: reap it
            os.waitpid(pid, os.WNOHANG)
        except ChildProcessError:
            pass
        return False
    return True


def _wait_gone(pids: set[int], timeout_s: float) -> set[int]:
    deadline = time.monotonic() + timeout_s
    alive = {p for p in pids if _running(p)}
    while alive and time.monotonic() < deadline:
        time.sleep(0.1)
        alive = {p for p in alive if _running(p)}
    return alive


def _warm_task() -> int:
    import ray.data  # noqa: F401

    from chunksilo_ray.stages import (  # noqa: F401
        assemble,
        canon,
        chunk,
        embed,
        link,
        materialize,
    )
    from chunksilo_ray.util import polars_safe

    polars_safe()
    time.sleep(0.5)  # hold the slot so each concurrent task lands on its own worker
    return 0


class RaySession:
    """A local Ray cluster with ``num_cpus`` CPUs, started and stopped by
    this object. ``stop`` is safe to call after a failed ``start``."""

    def __init__(self, num_cpus: int, temp_dir: Path):
        self.num_cpus = num_cpus
        self.temp_dir = temp_dir  # Ray's temp dir; stop() removes it

    def start(self) -> None:
        import ray

        if len(str(self.temp_dir)) + _SESSION_SUFFIX > _SOCKET_PATH_MAX:
            # too deep for Ray's socket paths: use a short private dir instead
            self.temp_dir = Path(tempfile.mkdtemp(prefix="pb-"))
        ray.init(
            address="local",
            num_cpus=self.num_cpus,
            object_store_memory=OBJECT_STORE_BYTES,
            include_dashboard=False,
            logging_level="ERROR",
            log_to_driver=False,
            _temp_dir=str(self.temp_dir),
            # keep as many idle workers as half-CPU tasks can run at once
            # (the checkpoint writers ask for 0.5 CPU): Ray's default of one
            # per CPU kills the rest after 1 s idle, and respawning them
            # (a cold interpreter with pyarrow imported) landed inside
            # timed operations at random, doubling some appends
            _system_config={"num_workers_soft_limit": WORKERS_PER_CPU * self.num_cpus},
        )
        import ray.data

        ray.data.DataContext.get_current().enable_progress_bars = False
        warm = ray.remote(num_cpus=1 / WORKERS_PER_CPU)(_warm_task)
        ray.get([warm.remote() for _ in range(WORKERS_PER_CPU * self.num_cpus)])

    def stop(self) -> None:
        import ray

        procs = descendants(os.getpid())
        if ray.is_initialized():
            ray.shutdown()
        left = _wait_gone(procs, 30.0)
        for pid in left:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        left = _wait_gone(left, 10.0)
        if left:
            raise RuntimeError(f"processes still running after shutdown: {sorted(left)}")
        shutil.rmtree(self.temp_dir, ignore_errors=True)


def host_speed() -> dict:
    """A quick probe of how fast this host runs right now: a pure-Python
    loop and a 64 MB memory copy, medians of 5. On a shared host these move
    by tens of percent between minutes, and the operation times with them."""
    import numpy as np

    loops, copies = [], []
    src = np.ones(8_000_000)
    dst = np.empty_like(src)
    for _ in range(5):
        t0 = time.perf_counter()
        total = 0
        for i in range(1_000_000):
            total += i
        loops.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        np.copyto(dst, src)
        copies.append(time.perf_counter() - t0)
    return {
        "py_loop_ms": 1000 * sorted(loops)[2],
        "memcpy_gb_per_s": src.nbytes / sorted(copies)[2] / 1e9,
    }


def host_stamp(num_cpus: int) -> dict:
    """Where the numbers came from: cores the process may run on, what
    ``nproc`` reports (it honours OMP_NUM_THREADS), the Ray CPU count and
    library versions."""
    import platform

    import pyarrow
    import ray

    nproc = ""
    if shutil.which("nproc"):
        nproc = subprocess.run(["nproc"], capture_output=True, text=True, check=False).stdout.strip()
    cpu_max = Path("/sys/fs/cgroup/cpu.max")
    return {
        "schedulable_cores": len(os.sched_getaffinity(0)),
        "nproc": int(nproc) if nproc.isdigit() else None,
        "omp_num_threads": os.environ.get("OMP_NUM_THREADS"),
        "cgroup_cpu_max": cpu_max.read_text().strip() if cpu_max.exists() else None,
        "ray_cpus": num_cpus,
        "ray_version": ray.__version__,
        "pyarrow_version": pyarrow.__version__,
        "python_version": platform.python_version(),
    }
