"""The flagship pipeline: transcripts Parquet -> knowledge-graph Parquet.

End-to-end composition (SURVEY.md §3.4 lifecycle):

    read_parquet(transcripts)
      -> assemble_dialogues    SHUFFLE #1 (light rows, by conv_id)    [ckpt]
      -> ingest_blocks         ONE task per pinned assembled block
                               (per run of small blocks):
                               extract (broadcast aliases) + its scan
                               partial + dead-letter rows   [ckpt: extracted]
                               and chunk + embed            [ckpt: chunks]
                               (the onnx backend embeds in an actor-pool
                               execution of its own)
      -> build_canonical_map   fold of the scan partials -> SHUFFLE #2
                               (LSH bands) -> driver union-find, saved next
                               to the checkpoints
      -> materialize_graph     ONE two-round task graph over the pinned
                               extracted blocks: per-turn edges plus
                               SHUFFLE #3 (per-block partial sums split
                               by part, one reduce task per part and
                               kind) for edges_agg / nodes; no Ray Data
                               execution, no sort     [ckpt: edges,
                                                      edges_agg, nodes]

A cold build starts one Ray Data execution, the read under the assembly;
every other step is plain Ray tasks over pinned blocks. Checkpoint
boundaries sit right after the shuffles (SURVEY.md §7.4), so a resumed run
skips the expensive exchanges. The extracted scan's result is kept in the
extracted checkpoint's manifest, so a no-op resume opens only the
checkpoints it returns and starts no Ray Data execution. No ray.init()
here — the driver owns the session.
"""

from __future__ import annotations

import functools
import json
import pathlib
import shutil
from concurrent.futures import ThreadPoolExecutor

import pyarrow as pa
import pyarrow.parquet as pq
import ray
import ray.data as rd

from ..config import Config
from ..stages.assemble import assemble_dialogues
from ..stages.canon import (
    build_canonical_map,
    load_canonical_map,
    save_canonical_map,
)
from ..stages.ingest import ingest_blocks, scan_blocks
from ..stages.materialize import materialize_graph
from ..state.manifest import (
    StageCheckpoint,
    _write_blocks,
    code_fingerprint,
    fingerprint,
    input_fingerprint,
)


class ScanStats:
    """The extracted scan: the fold of its per-block ``scan_partial`` rows."""

    __slots__ = ("dead_total", "norms")

    def __init__(self, dead_total: int, norms: set):
        self.dead_total = dead_total
        self.norms = norms

    @classmethod
    def of(cls, partials) -> "ScanStats":
        """Combine ``scan_partial`` tables."""
        total = 0
        norms: set = set()
        for b in partials:
            kinds = b["kind"].to_pylist()
            total += int(sum(n for k, n in zip(kinds, b["n_err"].to_pylist()) if k == 0))
            norms.update(s for k, s in zip(kinds, b["s"].to_pylist()) if k == 1)
        return cls(total, norms)


def scan_extracted_stats(partials: list):
    """Returns a zero-arg callable folding the ``scan_partial`` refs of an
    extracted table (one per block: the dead-letter count and the distinct
    unknown norms, vocabulary-bounded by construction) into ``ScanStats``,
    one partial at a time. Dead rows stay on the workers
    (``write_ingest_state`` writes them block by block), so driver memory
    is O(norm vocab), whatever the number of conversations."""

    def run() -> ScanStats:
        return ScanStats.of(ray.get(r) for r in partials)

    return run


def write_ingest_state(
    out: pathlib.Path, tag: str, stats: ScanStats, dead: list, norms: set
) -> None:
    """Persist what one extracted scan found: the dead-letter rows (``dead``,
    refs of one table per extracted block) under out/dead_letter/<tag>/
    (``tag`` is ``build`` or ``append-<fp8>``; the explicit-policy export of
    extractor-failed rows, SURVEY.md §4 — only when there are any; one
    write task per block, so the rows never reach the driver), and
    ``norms``, the distinct unknown norms of everything ingested so far, as
    out/state/distinct_norms.parquet. Which conversations are ingested is
    not state of its own: it is the ``conv_id`` column of the extracted
    checkpoints build_info.json lists."""
    if stats.dead_total:
        dest = out / "dead_letter" / tag
        shutil.rmtree(dest, ignore_errors=True)  # left by a killed attempt
        dest.mkdir(parents=True)
        # materialize() binds the refs as the dataset's blocks: no execution
        _write_blocks(rd.from_arrow_refs(dead).materialize(), dest, "part-")
    (out / "state").mkdir(exist_ok=True)
    pq.write_table(
        pa.table({"norm": pa.array(sorted(norms), pa.string())}),
        out / "state" / "distinct_norms.parquet",
    )


# key of the extracted manifest's metrics that records the canonical map whose
# ingest state the build's scan wrote (see build_kg)
SCAN_RECORD = "ingest_state"


def void_scan_record(out: pathlib.Path) -> None:
    """Clear the scan record in out/extracted/'s manifest. Called before the
    ingest state or the graph it describes change, so that a run killed
    midway leaves no record vouching for a half-written state."""
    ext = StageCheckpoint(str(out), "extracted", "")
    if ext.manifest_path.exists():
        ext.record_metrics({SCAN_RECORD: None})


def build_kg(
    transcripts_path: str,
    alias_path: str,
    out_dir: str,
    cfg: Config | None = None,
    with_chunks: bool = True,
) -> dict:
    """Run (or resume) the KG construction pipeline. Returns
    {"edges": Dataset, "nodes": Dataset, "chunks": Dataset|None,
     "metrics": dict, "out_dir": str}."""
    cfg = cfg or Config()
    out = pathlib.Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    # opt-in stage wall-clock trace (GRAFT_TIMING=1): per-stage completion
    # offsets on stderr — the profiling hook behind BASELINE.md's scaling
    # analysis (stages overlap, so offsets are completion times, not costs)
    import os as _os
    import sys as _sys
    import time as _time

    _t0 = _time.perf_counter()
    _trace = _os.environ.get("GRAFT_TIMING") == "1"

    def _mark(name: str) -> None:
        if _trace:
            print(f"[kg +{_time.perf_counter() - _t0:7.2f}s] {name}",
                  file=_sys.stderr, flush=True)

    # explicit block-size control (north rule: target_max_block_size for
    # wide rows / very long conversations)
    tmbs = cfg.get("runtime.target_max_block_size")
    if tmbs:
        rd.DataContext.get_current().target_max_block_size = int(tmbs)

    # lineage root: inputs + the engine code itself — checkpoints produced by
    # an older code version must never be silently reused (the reference's
    # analog: reindex on version change)
    code_fp = code_fingerprint(str(pathlib.Path(__file__).resolve().parents[1]))
    in_fp = fingerprint(
        input_fingerprint(transcripts_path), input_fingerprint(alias_path), code_fp
    )

    # Every fingerprint is known before any stage runs, so what a run must
    # do is decided up front: a checkpoint is opened only for a consumer
    # that runs (each open is a read_parquet planning round trip), and the
    # extracted scan runs only when its recorded result no longer describes
    # the ingest state on disk. A no-op resume opens the checkpoints it
    # returns and starts no Ray Data execution.
    link_cfg = cfg.section("linking")
    canon_cfg = cfg.section("canon")
    asm_fp = fingerprint(in_fp, "assemble")
    ext_fp = fingerprint(asm_fp, "extract", sorted(link_cfg.items()))
    cmap_fp = fingerprint(ext_fp, "canon", sorted(canon_cfg.items()))
    edges_fp = fingerprint(cmap_fp, "edges")
    edges_agg_fp = fingerprint(edges_fp, "edges_agg")
    nodes_fp = fingerprint(cmap_fp, "nodes")
    asm_ckpt = StageCheckpoint(out_dir, "assembled", asm_fp)
    ext_ckpt = StageCheckpoint(out_dir, "extracted", ext_fp)
    edges_ckpt = StageCheckpoint(out_dir, "edges", edges_fp)
    edges_agg_ckpt = StageCheckpoint(out_dir, "edges_agg", edges_agg_fp)
    nodes_ckpt = StageCheckpoint(out_dir, "nodes", nodes_fp)
    chunks_ckpt = None
    if with_chunks:
        chk_cfg = cfg.section("chunking")
        emb_cfg = cfg.section("embedding")
        chunks_fp = fingerprint(asm_fp, "chunks", sorted(chk_cfg.items()), sorted(emb_cfg.items()))
        chunks_ckpt = StageCheckpoint(out_dir, "chunks", chunks_fp)

    cmap = load_canonical_map(out, cmap_fp)
    record = _scan_record(out, ext_ckpt, cmap_fp) if cmap is not None else None
    graph_ckpts = (edges_ckpt, edges_agg_ckpt, nodes_ckpt)
    ext_open = record is None or not all(ck.complete() for ck in graph_ckpts)
    need_ext = ext_open and not ext_ckpt.complete()
    need_chunks = chunks_ckpt is not None and not chunks_ckpt.complete()
    asm_open = not asm_ckpt.complete() or need_ext or need_chunks

    # Stage work runs one stage after another on this thread: overlapping
    # independent Dataset executions on driver threads, measured at sf0.3,
    # lost to strict serialization (61 s vs 85 s at 16 CPUs) — concurrent
    # streaming executions each assume they own the cluster, so they fight
    # over CPU slots, object-store memory and memory bandwidth instead of
    # pipelining. One background pool remains, a measured win: the
    # checkpoint writer. Disk-bound durable copies run OFF the critical
    # path; all futures are awaited before metrics/return. Leaving the block
    # shuts the pool down, so no thread outlives the call; after a failure
    # the pending checkpoint writes still land, and a rerun reuses the
    # stages that finished.
    with ThreadPoolExecutor(max_workers=2) as writer:
        # ---- stage 1: assembly (lengths-only exchange) ----------------------
        assembled = None
        if asm_open:
            assembled = asm_ckpt.run(
                lambda: assemble_dialogues(rd.read_parquet(transcripts_path)),
                write_executor=writer,
            )
            _mark("assembled materialized")

        # ---- stage 2: ingest tasks over the pinned assembled blocks --------
        # mention detect + entity link + triple extraction, its scan (the
        # dead-letter count and rows, and the distinct unknown norms that
        # canonicalization needs) and chunk + embed, fused into one task per
        # block (stages/ingest.py); only the halves whose checkpoints are
        # incomplete run, and the alias table is broadcast only when
        # extraction does
        ingest = functools.cache(
            lambda: ingest_blocks(
                assembled,
                ray.put(pq.read_table(alias_path)) if need_ext else None,
                link_cfg if need_ext else None,
                chk_cfg if need_chunks else None,
                emb_cfg if need_chunks else None,
            )
        )
        extracted = None
        if ext_open:
            extracted = ext_ckpt.run(lambda: ingest().extracted, write_executor=writer)
            _mark("extracted materialized")
        chunks = None
        if chunks_ckpt is not None:
            chunks = chunks_ckpt.run(lambda: ingest().chunks, write_executor=writer)
            _mark("chunks built")

        # the scan runs when the build has no recorded result for this
        # extracted table and canonical map, or the state that result
        # describes is gone: over the ingest tasks' partials, or one task
        # per block of an extracted checkpoint this run did not write
        if record is None:
            scan, dead = (ingest().scan, ingest().dead) if need_ext else scan_blocks(extracted)
            stats = scan_extracted_stats(scan)()

        # ---- stage 3: canonicalization (LSH bands -> driver union-find) -----
        if cmap is None:
            cmap = build_canonical_map(
                extracted,  # nested extraction output, pinned blocks
                norms=stats.norms,  # collected by the scan above
                **canon_cfg,
            )
            save_canonical_map(out, cmap, cmap_fp)
        _mark("canonical map built")

        # ---- stage 4: graph materialize -------------------------------------
        # one task graph yields all three tables; it runs at the first of
        # the three checkpoints that is not complete, and each table keeps
        # its own checkpoint, so a resume rebuilds only the missing ones
        graph = functools.cache(lambda: materialize_graph(extracted, cmap))
        edges, edges_agg, nodes = (
            ck.run(lambda i=i: graph()[i], write_executor=writer)
            for i, ck in enumerate(graph_ckpts)
        )
        _mark("graph built")

        # durability barrier: all background checkpoint writes must land
        # before metrics read the manifests / the call returns resumable state
        for ck in (asm_ckpt, ext_ckpt, chunks_ckpt, edges_ckpt, edges_agg_ckpt, nodes_ckpt):
            fut = getattr(ck, "write_future", None)
            if fut is not None:
                fut.result()
        _mark("checkpoint writes durable")

        if record is None:
            # ---- incremental-ingest state + dead-letter surfacing -----------
            # state/ carries what `append_kg` (pipelines/kg_append.py) needs
            # to fold a new day of conversations in WITHOUT touching the base
            # corpus again: the distinct unknown norms (canonical-map
            # extension) and the build parameters, whose ``appends`` list
            # names the extracted checkpoints that hold every ingested
            # conv id (membership check). dead_letter/ rows are counted in
            # metrics AND persisted as a queryable Parquet partition. The
            # graph the build wrote holds no append's conversations, so its
            # state lists none; any older scan record is voided first, so a
            # run killed midway rescans.
            void_scan_record(out)
            shutil.rmtree(out / "dead_letter", ignore_errors=True)
            write_ingest_state(out, "build", stats, dead, stats.norms)
            (out / "state" / "build_info.json").write_text(
                json.dumps(
                    {
                        "transcripts_path": str(transcripts_path),
                        "alias_path": str(alias_path),
                        "code_fp": code_fp,
                        "in_fp": in_fp,
                        "cmap_fp": cmap_fp,
                        "edges_fp": edges_fp,
                        "edges_agg_fp": edges_agg_fp,
                        "nodes_fp": nodes_fp,
                        "appends": [],
                        "sections": {k: dict(cfg.section(k)) for k in ("linking", "canon")},
                    },
                    indent=1,
                )
            )
            # the scan's result is kept with the checkpoint it was taken
            # over, written last: a later run reuses it instead of rescanning
            record = {"dead_letter_turns": stats.dead_total, SCAN_RECORD: cmap_fp}
            ext_ckpt.record_metrics(record)

    dead_letter_turns = record["dead_letter_turns"]
    metrics = {
        "turns": (asm_ckpt.manifest() or {}).get("rows"),
        "extracted_turns": (ext_ckpt.manifest() or {}).get("rows"),
        "edges": (edges_ckpt.manifest() or {}).get("rows"),
        "edges_agg": (edges_agg_ckpt.manifest() or {}).get("rows"),
        "nodes": (nodes_ckpt.manifest() or {}).get("rows"),
        "canonical_merges": len(cmap),
        "dead_letter_turns": dead_letter_turns,
        "dead_letter_path": (
            str(out / "dead_letter" / "build") if dead_letter_turns else None
        ),
    }
    return {
        "edges": edges,
        "edges_agg": edges_agg,
        "nodes": nodes,
        "chunks": chunks,
        "metrics": metrics,
        "out_dir": str(out),
    }


def _scan_record(out: pathlib.Path, ext_ckpt: StageCheckpoint, cmap_fp: str) -> dict | None:
    """The scan result a previous build recorded in ``ext_ckpt``'s manifest,
    when it was taken over this extracted checkpoint for the canonical map
    ``cmap_fp`` and the ingest state it wrote is still on disk; else None."""
    m = ext_ckpt.manifest()
    if not m or m.get("fingerprint") != ext_ckpt.fp:
        return None
    record = m.get("metrics", {})
    if record.get(SCAN_RECORD) != cmap_fp:
        return None
    files = [out / "state" / "distinct_norms.parquet", out / "state" / "build_info.json"]
    if record["dead_letter_turns"]:
        files.append(out / "dead_letter" / "build")
    return record if all(f.exists() for f in files) else None
