"""End-to-end pipeline + resume tests (mirrors reference
test_incremental_ingest.py layer, SURVEY.md §5.3)."""

import json
import pathlib
import shutil

import pytest

pytestmark = pytest.mark.usefixtures("ray_session")


def _run(smoke_corpus, out_dir, **kw):
    from chunksilo_ray.pipelines.kg import build_kg

    return build_kg(
        f"{smoke_corpus}/transcripts.parquet",
        f"{smoke_corpus}/alias_index.parquet",
        out_dir,
        **kw,
    )


def test_outputs_and_schemas(smoke_corpus, tmp_out):
    res = _run(smoke_corpus, tmp_out)
    edges = res["edges"]
    nodes = res["nodes"]
    chunks = res["chunks"]

    e = edges.take(1)[0]
    assert set(e) == {"subj", "pred", "obj", "conv_id", "turn_idx", "weight"}
    n = nodes.take(1)[0]
    assert set(n) == {"entity_id", "surface", "canonical", "type", "freq"}
    c = chunks.take(1)[0]
    assert "embedding" in c and len(c["embedding"]) == 384
    assert res["metrics"]["edges"] > 0
    assert res["metrics"]["nodes"] > 0

    # all placeholder ids were canonicalized away
    for b in edges.iter_batches(batch_format="pyarrow"):
        for col in ("subj", "obj"):
            assert not any(v.startswith("surface:") for v in b[col].to_pylist())


def _count_executions(fn):
    """(fn(), the number of Ray Data executions it started)."""
    from ray.data._internal.execution.streaming_executor import StreamingExecutor

    execute = StreamingExecutor.execute
    started = []

    def counted(executor, *args, **kwargs):
        started.append(1)
        return execute(executor, *args, **kwargs)

    StreamingExecutor.execute = counted
    try:
        return fn(), len(started)
    finally:
        StreamingExecutor.execute = execute


def _assert_same_rows(a, b):
    import pandas as pd

    da, db = a.to_pandas(), b.to_pandas()
    cols = sorted(da.columns)
    assert cols == sorted(db.columns)
    pd.testing.assert_frame_equal(
        da[cols].sort_values(cols).reset_index(drop=True),
        db[cols].sort_values(cols).reset_index(drop=True),
    )


@pytest.mark.parametrize(
    "with_chunks,linking",
    [(True, {}), (False, {}), (False, {"per_row_seconds": 0.0})],
    ids=["chunks", "no_chunks", "poison"],
)
def test_noop_resume_starts_no_execution(smoke_corpus, tmp_out, with_chunks, linking):
    """A build over a complete out dir reuses the recorded extracted scan
    and opens only the checkpoints it returns: no Ray Data execution, and
    the same metrics and tables as the build that wrote them."""
    from chunksilo_ray.config import Config

    cfg = Config({"linking": linking})
    first = _run(smoke_corpus, tmp_out, cfg=cfg, with_chunks=with_chunks)
    again, started = _count_executions(
        lambda: _run(smoke_corpus, tmp_out, cfg=cfg, with_chunks=with_chunks)
    )
    assert started == 0
    assert again["metrics"] == first["metrics"]
    for name in ("edges", "edges_agg", "nodes"):
        _assert_same_rows(again[name], first[name])


STATE_FILES = ("state/distinct_norms.parquet", "state/build_info.json")


@pytest.mark.parametrize("change", ["state_deleted", "state_write_killed"])
def test_resume_rescans_when_the_state_is_not_the_builds(
    smoke_corpus, tmp_path, monkeypatch, change
):
    """A resume whose ingest state is missing or unfinished rescans the
    extracted table once and writes the state a build writes."""
    from chunksilo_ray.pipelines import kg
    from chunksilo_ray.state.manifest import StageCheckpoint

    ref, out = tmp_path / "ref", tmp_path / "kg"
    _run(smoke_corpus, str(ref), with_chunks=False)
    _run(smoke_corpus, str(out), with_chunks=False)
    assert _count_executions(lambda: _run(smoke_corpus, str(out), with_chunks=False))[1] == 0
    shutil.rmtree(out / "state")
    if change == "state_write_killed":
        # the state is written in full, then the run dies before it records
        # the scan: the record of the earlier build must not vouch for it
        record = StageCheckpoint.record_metrics

        def die_at_record(ckpt, extra):
            if extra.get(kg.SCAN_RECORD):
                raise KeyboardInterrupt
            record(ckpt, extra)

        monkeypatch.setattr(StageCheckpoint, "record_metrics", die_at_record)
        with pytest.raises(KeyboardInterrupt):
            _run(smoke_corpus, str(out), with_chunks=False)
        monkeypatch.undo()

    assert _count_executions(lambda: _run(smoke_corpus, str(out), with_chunks=False))[1] == 1
    for f in STATE_FILES:
        assert (out / f).read_bytes() == (ref / f).read_bytes(), f
    assert _count_executions(lambda: _run(smoke_corpus, str(out), with_chunks=False))[1] == 0


def test_resume_skips_completed_stages(smoke_corpus, tmp_out):
    res1 = _run(smoke_corpus, tmp_out, with_chunks=False)
    m1 = json.loads((pathlib.Path(tmp_out) / "edges" / "_MANIFEST.json").read_text())

    # rerun: all stages must be reused (manifest files untouched)
    res2 = _run(smoke_corpus, tmp_out, with_chunks=False)
    m2 = json.loads((pathlib.Path(tmp_out) / "edges" / "_MANIFEST.json").read_text())
    assert m1["created_unix"] == m2["created_unix"]
    assert m1["fingerprint"] == m2["fingerprint"]
    assert res1["metrics"]["edges"] == res2["metrics"]["edges"]


def test_resume_after_partial_failure(smoke_corpus, tmp_out):
    """Kill-and-resume: run the first two stages, 'crash', then resume —
    assembled/extracted checkpoints must be reused, outputs identical."""
    import ray.data as rd

    import chunksilo_ray

    from chunksilo_ray.stages.assemble import assemble_dialogues
    from chunksilo_ray.state.manifest import (
        StageCheckpoint,
        code_fingerprint,
        fingerprint,
        input_fingerprint,
    )

    tpath = f"{smoke_corpus}/transcripts.parquet"
    apath = f"{smoke_corpus}/alias_index.parquet"
    code_fp = code_fingerprint(str(pathlib.Path(chunksilo_ray.__file__).parent))
    in_fp = fingerprint(input_fingerprint(tpath), input_fingerprint(apath), code_fp)
    asm_fp = fingerprint(in_fp, "assemble")
    ckpt = StageCheckpoint(tmp_out, "assembled", asm_fp)
    ckpt.run(lambda: assemble_dialogues(rd.read_parquet(tpath)))
    created = json.loads((pathlib.Path(tmp_out) / "assembled" / "_MANIFEST.json").read_text())[
        "created_unix"
    ]

    # resume the full pipeline: stage 1 checkpoint must be reused as-is
    res = _run(smoke_corpus, tmp_out, with_chunks=False)
    m = json.loads((pathlib.Path(tmp_out) / "assembled" / "_MANIFEST.json").read_text())
    assert m["created_unix"] == created
    assert res["metrics"]["edges"] > 0


def test_changed_input_invalidates(smoke_corpus, tmp_out, tmp_path):
    """A modified input produces a different fingerprint -> stale checkpoints
    are NOT reused (the reference's mtime+hash change-detection semantics)."""
    import shutil

    from chunksilo_ray.state.manifest import fingerprint, input_fingerprint

    src = pathlib.Path(smoke_corpus) / "transcripts.parquet"
    cp1 = input_fingerprint(str(src))
    alt = tmp_path / "transcripts.parquet"
    shutil.copy(src, alt)
    import os

    os.utime(alt, (0, 0))
    cp2 = input_fingerprint(str(alt))
    assert cp1 != cp2
    assert fingerprint(cp1, "assemble") != fingerprint(cp2, "assemble")


def test_sigkill_mid_run_then_resume(smoke_corpus, tmp_out, tmp_path):
    """REAL kill/resume (north rule: 'a killed job resumes without
    recomputation'): SIGKILL a subprocess mid-pipeline right after the first
    stage checkpoint lands, then resume in a fresh process over the same
    out_dir. The assembled checkpoint must be reused byte-identically (same
    manifest mtime) and the resumed run must complete. Partially-written
    later stages are invisible by construction (temp-dir + atomic rename +
    manifest-last)."""
    import os
    import pathlib
    import signal
    import subprocess
    import sys
    import time

    script = f"""
import ray
ray.init(num_cpus=2, include_dashboard=False, logging_level="ERROR")
import sys; sys.path.insert(0, {str(pathlib.Path(__file__).resolve().parents[1])!r})
from chunksilo_ray.pipelines.kg import build_kg
build_kg({smoke_corpus!r} + "/transcripts.parquet",
         {smoke_corpus!r} + "/alias_index.parquet",
         {tmp_out!r}, with_chunks=False)
"""
    child = subprocess.Popen(
        [sys.executable, "-c", script],
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        env={**os.environ, "RAY_ADDRESS": ""},
    )
    asm_manifest = pathlib.Path(tmp_out) / "assembled" / "_MANIFEST.json"
    deadline = time.monotonic() + 180
    try:
        while not asm_manifest.exists():
            if child.poll() is not None:
                raise AssertionError("child finished before the kill point")
            assert time.monotonic() < deadline, "assembled checkpoint never appeared"
            time.sleep(0.05)
        child.send_signal(signal.SIGKILL)
    finally:
        child.wait(timeout=60)

    mtime_before = asm_manifest.stat().st_mtime_ns

    from chunksilo_ray.pipelines.kg import build_kg

    res = build_kg(
        f"{smoke_corpus}/transcripts.parquet",
        f"{smoke_corpus}/alias_index.parquet",
        tmp_out,
        with_chunks=False,
    )
    assert res["metrics"]["edges"] > 0 and res["metrics"]["nodes"] > 0
    # the killed run's assembled checkpoint was REUSED, not rebuilt
    assert asm_manifest.stat().st_mtime_ns == mtime_before
