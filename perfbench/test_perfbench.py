"""Smoke tests of the benchmark itself, at tiny input sizes.

    python3 -m pytest perfbench -q -p no:cacheprovider

Each test runs ``perfbench/run.py`` as a subprocess from a temporary working
directory, which also checks that the benchmark runs from outside the
checkout root.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
RUN = ROOT / "perfbench" / "run.py"


def _bench(cwd: Path, workload: str, trace: int, *extra: str, run: Path = RUN) -> tuple[int, list[str]]:
    cmd = [sys.executable, str(run), "--ray-cpus", "2", "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), "--scale", "tiny", *extra]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc.returncode, proc.stdout.strip().splitlines()


def _result(lines: list[str]) -> dict:
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


def test_dropped_edges_agg_row_counts_as_failed(tmp_path):
    code, lines = _bench(tmp_path, "build", 0, "--inject-fault")
    assert code == 0
    result = _result(lines)
    assert result["attempted"] > 0
    assert result["failed"] == result["attempted"]
    assert result["correct"] is False
    report = json.loads(lines[-2])["report"]
    assert report["failed_frac"]["value"] == 1.0


# layer metrics that must be non-zero on the workload that exercises them
LAYER_SPANS = {
    "build": [
        "assemble.busy_s", "link.busy_s", "chunks.busy_s", "scan.busy_s", "canon.busy_s",
        "edges.busy_s", "edges_agg.busy_s", "nodes.busy_s", "checkpoint.durable_wait_s",
        "checkpoint.bytes_written", "checkpoint.stages_reused", "ray.executions_build",
        "ray.executions_resume",
    ],
    "incremental": ["assemble.busy_s", "link.busy_s", "canon.busy_s", "append.fold_s", "ray.executions_append"],
    "query": ["search.plan_s", "search.exec_s", "search.rows_returned", "ray.executions_search",
              "serve.lookup_exec_s", "serve.neighbors_exec_s"],
}


@pytest.mark.parametrize("workload", sorted(LAYER_SPANS))
def test_traced_run_spans_every_layer(tmp_path, workload):
    code, lines = _bench(tmp_path, workload, 1)
    assert code == 0
    result = _result(lines)
    assert result["correct"] is True and result["failed"] == 0
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in benchmark["per_layer"]}
    for name in LAYER_SPANS[workload]:
        assert result["metrics"][name]["value"] > 0, name
    if workload == "build":
        assert result["metrics"]["trace.span_coverage"]["value"] >= 0.9


def test_untraced_run_prints_every_end_to_end_metric(tmp_path):
    code, lines = _bench(tmp_path, "query", 0)
    assert code == 0
    result = _result(lines)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in benchmark["end_to_end"]
    }
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    """Only BENCHMARK.json and perfbench/: exit non-zero, print no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    code, lines = _bench(tmp_path, "build", 0, run=tmp_path / "perfbench" / "run.py")
    assert code != 0
    assert not any(line.startswith('{"correct"') for line in lines)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="append_kg raises KeyError '__part' (stages/assemble.py "
                   "_split_by_part) when a read block of the new batch holds only re-delivered conversations")
def test_append_with_a_file_of_only_redelivered_conversations(tmp_path):
    """Open defect found while building the benchmark: the incremental
    workload shuffles its delta rows, so it does not hit this path."""
    proc = subprocess.run(
        [sys.executable, "-c", _REDELIVERED_ONLY_BLOCK, str(tmp_path)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": str(ROOT), "RAY_USAGE_STATS_ENABLED": "0"},
    )
    if proc.returncode != 0 and "KeyError" not in proc.stderr:
        raise RuntimeError(proc.stderr[-3000:])  # failed for another reason
    assert proc.returncode == 0


_REDELIVERED_ONLY_BLOCK = """
import sys
from pathlib import Path

import pyarrow as pa, pyarrow.compute as pc, pyarrow.parquet as pq

from perfbench.session import RaySession

work = Path(sys.argv[1])
session = RaySession(2, work / "ray")
try:
    session.start()
    from chunksilo_ray import datagen
    from chunksilo_ray.pipelines.kg import build_kg
    from chunksilo_ray.pipelines.kg_append import append_kg

    base = datagen.generate_transcripts(1500, seed=42)
    new = datagen.generate_transcripts(300, seed=7)
    new = new.set_column(0, "conv_id", pa.array(["day2-" + c for c in new["conv_id"].to_pylist()]))
    dups = base.filter(pc.is_in(base["conv_id"], value_set=pa.array(sorted(set(base["conv_id"].to_pylist()))[:5])))
    (work / "day2").mkdir()
    pq.write_table(new, work / "day2" / "a-new.parquet")
    pq.write_table(dups, work / "day2" / "b-redelivered.parquet")
    pq.write_table(base, work / "day1.parquet")
    pq.write_table(datagen.alias_table(), work / "alias.parquet")
    build_kg(str(work / "day1.parquet"), str(work / "alias.parquet"), str(work / "out"), with_chunks=False)
    append_kg(str(work / "out"), str(work / "day2"))
finally:
    session.stop()
"""
