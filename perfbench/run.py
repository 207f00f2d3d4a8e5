"""KG benchmark: one workload, one Ray session, one closed-loop client.

    python3 perfbench/run.py --ray-cpus 2 --workload build --seed 1 --seconds 15 --trace 0

Runs from any working directory. Prints a host stamp and a report of the
named metrics, then, as the last line of standard output, one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: with
``--trace 0`` the end-to-end metrics, with ``--trace 1`` the per-layer ones.
See perfbench/README.md for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import re
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# (metric, unit, operation kinds it is read from); each value is the median
# over the traced operations of those kinds, 0 when the workload runs none
PER_LAYER = [
    ("assemble.busy_s", "s", ("build", "append")),
    ("assemble.rows_out", "count", ("build", "append")),
    ("assemble.bytes_written", "B", ("build", "append")),
    ("link.busy_s", "s", ("build", "append")),
    ("link.rows_out", "count", ("build", "append")),
    ("link.dead_letter_rows", "count", ("build", "append")),
    ("chunks.busy_s", "s", ("build",)),
    ("chunks.rows_out", "count", ("build",)),
    ("chunks.bytes_written", "B", ("build",)),
    ("scan.busy_s", "s", ("resume",)),
    ("canon.busy_s", "s", ("build", "append")),
    ("canon.norms_in", "count", ("build", "append")),
    ("canon.merges", "count", ("build", "append")),
    ("canon.cap_hits", "count", ("build", "append")),
    ("edges.busy_s", "s", ("build",)),
    ("edges.rows_out", "count", ("build",)),
    ("edges.bytes_written", "B", ("build",)),
    ("edges_agg.busy_s", "s", ("build",)),
    ("edges_agg.rows_out", "count", ("build",)),
    ("edges_agg.bytes_written", "B", ("build",)),
    ("nodes.busy_s", "s", ("build",)),
    ("nodes.rows_out", "count", ("build",)),
    ("nodes.bytes_written", "B", ("build",)),
    ("checkpoint.durable_wait_s", "s", ("build",)),
    ("checkpoint.bytes_written", "B", ("build",)),
    ("checkpoint.stages_reused", "count", ("resume",)),
    ("append.fold_s", "s", ("append",)),
    ("ray.executions_build", "count", ("build",)),
    ("ray.executions_append", "count", ("append",)),
    ("ray.executions_resume", "count", ("resume",)),
    ("ray.executions_search", "count", ("search",)),
    ("search.plan_s", "s", ("search",)),
    ("search.exec_s", "s", ("search",)),
    ("search.rows_scanned", "count", ("search",)),
    ("search.rows_returned", "count", ("search",)),
    ("serve.lookup_exec_s", "s", ("hop",)),
    ("serve.neighbors_exec_s", "s", ("hop",)),
    ("trace.span_coverage", "ratio", ("build",)),
]


def _peak_rss_reset() -> None:
    Path("/proc/self/clear_refs").write_text("5")


def _peak_rss_mb() -> float:
    status = Path("/proc/self/status").read_text()
    return int(re.search(r"VmHWM:\s+(\d+) kB", status).group(1)) / 1024


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=["build", "incremental", "query"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--ray-cpus", type=int, required=True)
    p.add_argument("--scale", choices=["full", "tiny"], default="full")
    p.add_argument("--inject-fault", action="store_true", help="corrupt every timed graph output (self-test)")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    os.chdir(ROOT)
    # the script's own dir must not shadow modules (this dir has a trace.py)
    sys.path[:] = [str(ROOT)] + [p for p in sys.path if Path(p or ".").resolve() != ROOT / "perfbench"]
    # Ray workers start from the session's environment, not the driver's sys.path
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT), os.environ.get("PYTHONPATH")]))
    os.environ["RAY_USAGE_STATS_ENABLED"] = "0"
    os.environ.pop("RAY_ADDRESS", None)
    try:
        import chunksilo_ray  # noqa: F401
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        return 2

    from perfbench.session import RaySession, host_speed, host_stamp
    from perfbench.trace import Tracer
    from perfbench.workloads import SIZES, WORKLOADS, Client

    work = ROOT / ".perfbench_run" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    # Ray's temp dir path is kept short: its socket paths must fit 107 bytes
    session = RaySession(args.ray_cpus, ROOT / ".perfbench_run" / f"r{os.getpid()}")
    try:
        t0 = time.perf_counter()
        session.start()
        wl = WORKLOADS[args.workload](work, args.seed, SIZES[args.scale], args.inject_fault)
        wl.setup()
        setup_s = time.perf_counter() - t0
        reference_ok = wl.reference_ok()

        client = Client(Tracer() if args.trace else None)
        speed_before = host_speed()
        _peak_rss_reset()
        start = time.perf_counter()
        # each phase gets its own share of the run, so a slow primary phase
        # does not starve the auxiliary one of samples
        client.loop(start + (1 - wl.aux_share) * args.seconds, wl.primary_op)
        client.loop(time.perf_counter() + wl.aux_share * args.seconds, wl.aux_op)
        rss_mb = _peak_rss_mb()
        stamp = {**host_stamp(args.ray_cpus), "speed_before": speed_before, "speed_after": host_speed()}
    finally:
        session.stop()
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # only when no other run is using it

    ops = client.ops
    attempted = len(ops)
    # a wrong reference makes every comparison against it meaningless
    failed = attempted if not reference_ok else sum(not op.ok for op in ops)

    def walls(kind):
        return [op.wall_s for op in ops if op.kind == kind]

    def med(kind, key=None):
        return _median([op.extra[key] if key else op.wall_s for op in ops if op.kind == kind and op.ok])

    end_to_end = {
        "setup_s": (setup_s, "s"),
        "op_ms": (1000 * med(wl.primary), "ms"),
        "aux_ms": (1000 * med(wl.aux), "ms"),
        "driver_rss_mb": (rss_mb, "MB"),
    }
    report = {name: {"value": v, "unit": u} for name, (v, u) in {**end_to_end, **wl.report(med)}.items()}
    report["failed_frac"] = {"value": failed / attempted, "unit": "ratio"}
    report["samples"] = {kind: len(walls(kind)) for kind in (wl.primary, wl.aux)}
    report["walls_s"] = {kind: walls(kind) for kind in (wl.primary, wl.aux)}
    print(json.dumps({"host": stamp}))
    print(json.dumps({"workload": args.workload, "seed": args.seed, "report": report}))

    if args.trace:
        traced = [op for op in ops if op.layers is not None]
        metrics = {
            name: (_median([op.layers.get(name, 0) for op in traced if op.kind in kinds]), unit)
            for name, unit, kinds in PER_LAYER
        }
        on = [op.wall_s for op in ops if op.kind == wl.primary and op.layers is not None]
        off = [op.wall_s for op in ops if op.kind == wl.primary and op.layers is None]
        overhead = _median(on) / _median(off) - 1 if on and off else 0.0
        metrics["trace.overhead_frac"] = (overhead, "ratio")
    else:
        metrics = end_to_end
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
