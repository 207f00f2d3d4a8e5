"""Pytest fixtures: ONE Ray session per test session (driver contract)."""

from __future__ import annotations

import json
import pathlib
import shutil

import pytest


@pytest.fixture(scope="session")
def ray_session():
    import ray
    import ray.data

    ray.init(
        address="local",
        num_cpus=4,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
    )
    ctx = ray.data.DataContext.get_current()
    ctx.enable_progress_bars = False
    yield
    ray.shutdown()


@pytest.fixture(scope="session")
def smoke_corpus():
    """Tiny deterministic transcript corpus (cached under /tmp)."""
    from chunksilo_ray import datagen

    return datagen.corpus_dir(0.001)


@pytest.fixture()
def tmp_out(tmp_path):
    out = tmp_path / "out"
    yield str(out)
    shutil.rmtree(out, ignore_errors=True)


@pytest.fixture()
def ingested_convs():
    """Reads a built KG directory's ingested conv ids: the ``conv_id``
    column of the extracted checkpoints its state/build_info.json lists
    (the build's, one per shard, plus one per recorded append)."""
    import pyarrow.parquet as pq

    def read(out_dir) -> set:
        out = pathlib.Path(out_dir)
        info = json.loads((out / "state" / "build_info.json").read_text())
        convs = set()
        roots = [out / r for r in info["extracted"]]
        for root in roots + [out / "append" / a["batch_fp"] for a in info["appends"]]:
            ext = root / "extracted"
            for part in json.loads((ext / "_MANIFEST.json").read_text())["parts"]:
                t = pq.read_table(ext / part["file"], columns=["conv_id"])
                convs.update(t["conv_id"].to_pylist())
        return convs

    return read


@pytest.fixture()
def executions(monkeypatch):
    """Counts the Ray Data executions started, as the benchmark's tracer
    does."""
    from ray.data._internal.execution.streaming_executor import StreamingExecutor

    runs = []
    execute = StreamingExecutor.execute

    def counted(self, *args, **kwargs):
        runs.append(1)
        return execute(self, *args, **kwargs)

    monkeypatch.setattr(StreamingExecutor, "execute", counted)
    return runs
