"""Per-stage checkpoint manifests with lineage + metrics (resume support).

The Ray analog of the reference's incremental-ingest state (reference
src/chunksilo/index.py:295-406 SQLite IngestionState + index.py:1664-1676
count/time checkpoints): instead of a central DB, every materialized stage
writes its Parquet parts to a temp dir, renames atomically, and records a
JSON manifest carrying a lineage fingerprint (hash of the stage's inputs +
parameters), per-part row counts, and stage metrics (e.g. the build's
record of its extracted scan). A rerun with the same fingerprint skips the stage and re-reads
the checkpoint (``read_parquet``) — a killed job resumes without
recomputation, stage by stage; a changed input invalidates exactly the
stages whose fingerprints change (analog of the reference's mtime+hash
change detection, index.py:1497-1533).
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import shutil
import time
from typing import Callable

import pyarrow.parquet as pq
import ray
import ray.data as rd
from ray.data import Dataset

MANIFEST_NAME = "_MANIFEST.json"


def fingerprint(*parts: object) -> str:
    """Stable lineage fingerprint over stage inputs/parameters."""
    h = hashlib.sha256()
    for p in parts:
        h.update(repr(p).encode("utf-8"))
        h.update(b"\x00")
    return h.hexdigest()[:16]


def input_fingerprint(path: str) -> str:
    """Fingerprint of an input file/dir: paths + sizes + NANOSECOND mtimes
    (the reference's mtime fast-path, index.py:815-824 — no full-content
    hash; whole-second truncation let a same-size rewrite within one second
    silently reuse a stale checkpoint)."""
    p = pathlib.Path(path)
    entries = []
    if p.is_dir():
        for f in sorted(p.rglob("*")):
            if f.is_file():
                st = f.stat()
                entries.append((str(f), st.st_size, st.st_mtime_ns))
    elif p.is_file():
        st = p.stat()
        entries.append((str(p), st.st_size, st.st_mtime_ns))
    return fingerprint(entries)


# Checkpoint part files are written one-per-materialized-block (no row-count
# coalescing): at production block sizes (DataContext.target_max_block_size,
# 128 MiB default) that lands right in parquet's sweet spot, and measured
# locally the old 250k-row coalescing serialized the encode of wide-row
# tables through a handful of write tasks (chunks-with-embeddings checkpoint:
# 7.4 s -> 2.2 s once writes parallelized per block).


@ray.remote(num_cpus=0.5)
def _write_block(block, path: str) -> tuple[int, int]:
    pq.write_table(block, path)
    return block.num_rows, os.stat(path).st_size


def _write_blocks(ds: Dataset, dest: pathlib.Path, prefix: str) -> list[dict]:
    """Write each pinned block of ``ds`` to ``dest/<prefix>NNNNNN.parquet``
    and return the part records of the non-empty ones (empty files are
    dropped).

    Parts are written by ONE PLAIN RAY TASK PER PINNED BLOCK, not by
    ``ds.write_parquet``: a write operator is a full streaming execution,
    and a background-thread execution FIGHTS the foreground stage's
    executor for CPU slots and memory bandwidth (measured: the pipeline
    stage running concurrently with a background write ran 3-4x its
    standalone time). Plain tasks interleave with the foreground execution
    at task granularity, schedule onto the node holding each block
    (locality), and return (rows, bytes) so the manifest needs no per-file
    metadata re-read."""
    refs = ds.to_arrow_refs()
    names = [f"{prefix}{i:06d}.parquet" for i in range(len(refs))]
    results = ray.get([_write_block.remote(b, str(dest / n)) for b, n in zip(refs, names)])
    parts = []
    for name, (rows, nbytes) in zip(names, results):
        if rows:
            parts.append({"file": name, "rows": rows, "bytes": nbytes})
        else:
            (dest / name).unlink(missing_ok=True)
    return parts


def code_fingerprint(package_dir: str) -> str:
    """Fingerprint of the engine's own source (*.py only — __pycache__
    churns on import and must not invalidate checkpoints)."""
    p = pathlib.Path(package_dir)
    entries = [
        (str(f.relative_to(p)), f.stat().st_size, f.stat().st_mtime_ns)
        for f in sorted(p.rglob("*.py"))
    ]
    return fingerprint(entries)


class StageCheckpoint:
    """One materialized stage = one directory of Parquet parts + manifest."""

    def __init__(self, root: str, stage: str, fp: str):
        self.stage = stage
        self.fp = fp
        self.dir = pathlib.Path(root) / stage
        self.manifest_path = self.dir / MANIFEST_NAME

    def manifest(self) -> dict | None:
        if not self.manifest_path.exists():
            return None
        try:
            return json.loads(self.manifest_path.read_text())
        except (OSError, json.JSONDecodeError):
            return None

    def complete(self) -> bool:
        m = self.manifest()
        return bool(m) and m.get("fingerprint") == self.fp

    def read(self) -> Dataset:
        return rd.read_parquet(str(self.dir))

    def _write_checkpoint(self, ds: Dataset, metrics: dict | None) -> None:
        """Write Parquet parts to a temp dir, rename atomically, record the
        manifest. Until the manifest lands, the stage reads as incomplete —
        a crash mid-write simply reruns the stage."""
        tmp = pathlib.Path(str(self.dir) + ".tmp")
        if tmp.exists():
            shutil.rmtree(tmp)
        if self.dir.exists():
            shutil.rmtree(self.dir)
        tmp.mkdir(parents=True)
        parts = _write_blocks(ds, tmp, "part-")
        os.replace(tmp, self.dir)
        manifest = {
            "stage": self.stage,
            "fingerprint": self.fp,
            "rows": sum(p["rows"] for p in parts),
            "parts": parts,
            "metrics": metrics or {},
            "created_unix": int(time.time()),
        }
        self.manifest_path.write_text(json.dumps(manifest, indent=1))

    def append_parts(self, ds: Dataset, tag: str, fp: str) -> None:
        """Add ``ds``'s blocks to this existing checkpoint as extra part
        files (``part-<tag>-NNNNNN.parquet``) and move its manifest to
        fingerprint ``fp`` in place."""
        parts = _write_blocks(ds, self.dir, f"part-{tag}-")
        m = json.loads(self.manifest_path.read_text())
        m["parts"] += parts
        m["rows"] += sum(p["rows"] for p in parts)
        m["fingerprint"] = self.fp = fp
        self.manifest_path.write_text(json.dumps(m, indent=1))

    def run(
        self,
        build: Callable[[], Dataset],
        metrics: dict | None = None,
        write_executor=None,
    ) -> Dataset:
        """Build-or-reuse: if a manifest with a matching fingerprint exists,
        re-read the checkpoint; otherwise execute ``build``, MATERIALIZE the
        stage in the object store, write the Parquet checkpoint from the
        pinned blocks (one encode task per block — measured 3x faster than a
        write operator fused into the build pipeline, whose row-count
        coalescing funneled wide tables through a few tasks), and hand the
        materialized dataset to downstream consumers. Under memory pressure
        Ray spills the pinned blocks; the checkpoint is the durable copy
        either way, and the returned dataset is freed when the caller drops
        it.

        ``write_executor``: a ThreadPoolExecutor — the disk-bound checkpoint
        write runs in the background, OFF the pipeline's critical path;
        ``self.write_future`` resolves when the durable copy + manifest
        exist."""
        self.write_future = None
        if self.complete():
            return self.read()
        ds = build().materialize()
        if write_executor is not None:
            self.write_future = write_executor.submit(self._write_checkpoint, ds, metrics)
            return ds
        self._write_checkpoint(ds, metrics)
        return ds

    def record_metrics(self, extra: dict) -> None:
        """Merge ``extra`` into the manifest's metrics. The manifest is
        replaced atomically: a kill mid-write must not leave a finished
        stage unreadable."""
        m = self.manifest() or {}
        m.setdefault("metrics", {}).update(extra)
        tmp = self.manifest_path.with_name(MANIFEST_NAME + ".tmp")
        tmp.write_text(json.dumps(m, indent=1))
        os.replace(tmp, self.manifest_path)
