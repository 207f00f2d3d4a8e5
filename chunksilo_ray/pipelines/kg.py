"""The flagship pipeline: transcripts Parquet -> knowledge-graph Parquet.

End-to-end composition (SURVEY.md §3.4 lifecycle):

    read_parquet(shard)                                  one per input shard
      -> assemble_dialogues    SHUFFLE #1 (light rows, by conv_id)    [ckpt]
      -> ingest_blocks         ONE task per pinned assembled block
                               (per run of small blocks):
                               extract (broadcast aliases) + its scan
                               partial + dead-letter rows   [ckpt: extracted]
                               and chunk + embed     [ckpt: chunks, one table
                                                      over every shard]
                               (the onnx backend embeds in an actor-pool
                               execution of its own)
      -> build_canonical_map   fold of every shard's scan partials ->
                               SHUFFLE #2 (LSH bands) -> driver union-find,
                               saved next to the checkpoints
      -> materialize_graph     ONE two-round task graph over the pinned
                               extracted blocks of every shard: per-turn
                               edges plus SHUFFLE #3 (per-block partial sums
                               split by part, one reduce task per part and
                               kind) for edges_agg / nodes; no Ray Data
                               execution, no sort     [ckpt: edges,
                                                      edges_agg, nodes]

The input is a Parquet file or directory, or a list of shards. A file or
directory is one input whose assembled / extracted checkpoints sit in the
out dir itself. Each shard of a list has its own under
out/shards/<file stem>/, so a resume, or a build with one more shard,
assembles and extracts only the shards whose checkpoints are missing.
Conversations never span shards (each shard holds whole conversations, the
usual layout of conversation logs), so the assembly runs shard by shard.
Everything after the ingest is built once over all shards: one canonical
map from the union of their norms, one chunks table and one graph.

A cold build starts one Ray Data execution per shard, the read under its
assembly; every other step is plain Ray tasks over pinned blocks.
Checkpoint boundaries sit right after the shuffles (SURVEY.md §7.4), so a
resumed run skips the expensive exchanges. The extracted scan's result is
kept in each extracted checkpoint's manifest, so a no-op resume opens only
the checkpoints it returns and starts no Ray Data execution. No ray.init()
here — the driver owns the session.
"""

from __future__ import annotations

import functools
import json
import os
import pathlib
import shutil
from concurrent.futures import ThreadPoolExecutor

import pyarrow as pa
import pyarrow.parquet as pq
import ray
import ray.data as rd
from ray.data import Dataset

from ..config import Config
from ..stages.assemble import assemble_dialogues
from ..stages.canon import (
    build_canonical_map,
    load_canonical_map,
    save_canonical_map,
)
from ..stages.ingest import ingest_blocks, scan_blocks
from ..stages.materialize import graph_parts, materialize_graph
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


# the distinct unknown norms of everything ingested, under out/state
NORMS_FILE = "distinct_norms.parquet"

# key of the extracted manifest's metrics that records the canonical map whose
# ingest state the build's scan wrote (see build_kg)
SCAN_RECORD = "ingest_state"


def write_ingest_state(
    out: pathlib.Path, tag: str, stats: ScanStats, dead: list, norms: set, state: pathlib.Path
) -> None:
    """Persist what one extracted scan found: the dead-letter rows (``dead``,
    refs of one table per extracted block) under out/dead_letter/<tag>/
    (``tag`` is ``build`` or ``append-<fp8>``; the explicit-policy export of
    extractor-failed rows, SURVEY.md §4 — only when there are any; one
    write task per block, so the rows never reach the driver), and
    ``norms``, the distinct unknown norms of everything ingested so far, as
    ``state``/distinct_norms.parquet (out/state for a build; an append
    stages its own). Which conversations are ingested is not state of its
    own: it is the ``conv_id`` column of the extracted checkpoints
    build_info.json lists."""
    if stats.dead_total:
        dest = out / "dead_letter" / tag
        shutil.rmtree(dest, ignore_errors=True)  # left by a killed attempt
        dest.mkdir(parents=True)
        # materialize() binds the refs as the dataset's blocks: no execution
        _write_blocks(rd.from_arrow_refs(dead).materialize(), dest, "part-")
    state.mkdir(parents=True, exist_ok=True)
    pq.write_table(
        pa.table({"norm": pa.array(sorted(norms), pa.string())}),
        state / NORMS_FILE,
    )


def build_roots(info: dict) -> list[str]:
    """The directories (relative to the out dir) of the build's extracted
    checkpoints, as build_info.json ``info`` lists them: "." for a single
    input, shards/<stem> per shard. A build_info.json written before the
    list existed describes a single input."""
    return info.get("extracted", ["."])


def write_build_info(out: pathlib.Path, info: dict) -> None:
    """Replace out/state/build_info.json atomically: it is the record that
    commits a build's or an append's state."""
    path = out / "state" / "build_info.json"
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps(info, indent=1))
    os.replace(tmp, path)


def void_scan_record(out: pathlib.Path, roots: list[str] | None = None) -> None:
    """Clear the scan record in the manifests of the extracted checkpoints
    under ``roots`` and of the build that out/state/build_info.json
    describes. Called before the ingest state or the graph it describes
    change, so that a run killed midway leaves no record vouching for a
    half-written state."""
    roots = list(roots or [])
    info_path = out / "state" / "build_info.json"
    if info_path.exists():
        roots += build_roots(json.loads(info_path.read_text()))
    for root in dict.fromkeys(roots):
        ext = StageCheckpoint(str(out / root), "extracted", "")
        if ext.manifest_path.exists():
            ext.record_metrics({SCAN_RECORD: None})


def _shards(transcripts_path: str | list[str]) -> list[tuple[str, str]]:
    """(checkpoint root relative to the out dir, input path) per shard: a
    file or directory is one input rooted at the out dir itself; each
    element of a list is a shard rooted at shards/<file stem>, in stem
    order."""
    if not isinstance(transcripts_path, list):
        return [(".", str(transcripts_path))]
    if not transcripts_path:
        raise ValueError("build_kg got an empty list of shards")
    paths: dict[str, str] = {}
    for path in map(str, transcripts_path):
        stem = pathlib.Path(path).stem
        if stem in paths:
            raise ValueError(
                f"shards {paths[stem]!r} and {path!r} share the file stem {stem!r}, "
                "which names a shard's checkpoints"
            )
        paths[stem] = path
    return [(f"shards/{stem}", paths[stem]) for stem in sorted(paths)]


def concat_blocks(parts: list[Dataset]) -> Dataset:
    """The blocks of ``parts``, in order, as one materialized dataset: no
    ``Dataset.union`` and, for materialized parts, no execution
    (``materialize()`` binds the refs as the dataset's blocks)."""
    if len(parts) == 1:
        return parts[0]
    return rd.from_arrow_refs([ref for ds in parts for ref in ds.to_arrow_refs()]).materialize()


def _rows(ckpts) -> int:
    return sum((ck.manifest() or {}).get("rows", 0) for ck in ckpts)


def build_kg(
    transcripts_path: str | list[str],
    alias_path: str,
    out_dir: str,
    cfg: Config | None = None,
    with_chunks: bool = True,
) -> dict:
    """Run (or resume) the KG construction pipeline over
    ``transcripts_path``: a Parquet file or directory, or a list of shards,
    each a file or directory of whole conversations (module docstring).
    Returns {"edges": Dataset, "nodes": Dataset, "chunks": Dataset|None,
     "metrics": dict, "out_dir": str}."""
    cfg = cfg or Config()
    out = pathlib.Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    shards = _shards(transcripts_path)

    # opt-in stage wall-clock trace (GRAFT_TIMING=1): per-stage completion
    # offsets on stderr — the profiling hook behind BASELINE.md's scaling
    # analysis (stages overlap, so offsets are completion times, not costs)
    import sys as _sys
    import time as _time

    _t0 = _time.perf_counter()
    _trace = os.environ.get("GRAFT_TIMING") == "1"

    def _mark(name: str) -> None:
        if _trace:
            print(f"[kg +{_time.perf_counter() - _t0:7.2f}s] {name}",
                  file=_sys.stderr, flush=True)

    # explicit block-size control (north rule: target_max_block_size for
    # wide rows / very long conversations)
    tmbs = cfg.get("runtime.target_max_block_size")
    if tmbs:
        rd.DataContext.get_current().target_max_block_size = int(tmbs)

    # lineage root: each shard's input + the aliases + the engine code
    # itself — checkpoints produced by an older code version must never be
    # silently reused (the reference's analog: reindex on version change);
    # what is built over all shards derives from every shard's fingerprint
    code_fp = code_fingerprint(str(pathlib.Path(__file__).resolve().parents[1]))
    alias_fp = input_fingerprint(alias_path)

    # Every fingerprint is known before any stage runs, so what a run must
    # do is decided up front: a checkpoint is opened only for a consumer
    # that runs (each open is a read_parquet planning round trip), and the
    # extracted scan runs only when its recorded result no longer describes
    # the ingest state on disk. A no-op resume opens the checkpoints it
    # returns and starts no Ray Data execution.
    link_cfg = cfg.section("linking")
    canon_cfg = cfg.section("canon")
    asm_ckpts, ext_ckpts = [], []
    for root, path in shards:
        asm_fp = fingerprint(fingerprint(input_fingerprint(path), alias_fp, code_fp), "assemble")
        ext_fp = fingerprint(asm_fp, "extract", sorted(link_cfg.items()))
        asm_ckpts.append(StageCheckpoint(str(out / root), "assembled", asm_fp))
        ext_ckpts.append(StageCheckpoint(str(out / root), "extracted", ext_fp))
    cmap_fp = fingerprint(*(ck.fp for ck in ext_ckpts), "canon", sorted(canon_cfg.items()))
    edges_fp = fingerprint(cmap_fp, "edges")
    edges_agg_fp = fingerprint(edges_fp, "edges_agg")
    nodes_fp = fingerprint(cmap_fp, "nodes")
    edges_ckpt = StageCheckpoint(out_dir, "edges", edges_fp)
    edges_agg_ckpt = StageCheckpoint(out_dir, "edges_agg", edges_agg_fp)
    nodes_ckpt = StageCheckpoint(out_dir, "nodes", nodes_fp)
    chunks_ckpt = None
    if with_chunks:
        chk_cfg = cfg.section("chunking")
        emb_cfg = cfg.section("embedding")
        chunks_fp = fingerprint(
            *(ck.fp for ck in asm_ckpts), "chunks", sorted(chk_cfg.items()), sorted(emb_cfg.items())
        )
        chunks_ckpt = StageCheckpoint(out_dir, "chunks", chunks_fp)

    cmap = load_canonical_map(out, cmap_fp)
    records = [_scan_record(out, ck, cmap_fp) if cmap is not None else None for ck in ext_ckpts]
    scanned = all(records)
    graph_ckpts = (edges_ckpt, edges_agg_ckpt, nodes_ckpt)
    ext_open = not scanned or not all(ck.complete() for ck in graph_ckpts)
    need_ext = [ext_open and not ck.complete() for ck in ext_ckpts]
    need_chunks = chunks_ckpt is not None and not chunks_ckpt.complete()
    alias_ref = ray.put(pq.read_table(alias_path)) if any(need_ext) else None

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
        ingests, extracted, shard_stats, dead = [], [], [], []
        for (_, path), asm_ckpt, ext_ckpt, extract in zip(shards, asm_ckpts, ext_ckpts, need_ext):
            # ---- stage 1: assembly (lengths-only exchange) ------------------
            assembled = None
            if extract or need_chunks or not asm_ckpt.complete():
                assembled = asm_ckpt.run(
                    lambda p=path: assemble_dialogues(rd.read_parquet(p)),
                    write_executor=writer,
                )
                _mark("assembled materialized")

            # ---- stage 2: ingest tasks over the pinned assembled blocks ----
            # mention detect + entity link + triple extraction, its scan
            # (the dead-letter count and rows, and the distinct unknown
            # norms that canonicalization needs) and chunk + embed, fused
            # into one task per block (stages/ingest.py); only the halves
            # whose checkpoints are incomplete run
            ingest = functools.cache(
                functools.partial(
                    ingest_blocks,
                    assembled,
                    alias_ref if extract else None,
                    link_cfg if extract else None,
                    chk_cfg if need_chunks else None,
                    emb_cfg if need_chunks else None,
                )
            )
            ingests.append(ingest)
            if not ext_open:
                continue
            # pinned once: the scan and the graph both read its blocks
            ext = ext_ckpt.run(lambda: ingest().extracted, write_executor=writer).materialize()
            extracted.append(ext)
            _mark("extracted materialized")
            # the scan runs when the build has no recorded result for these
            # extracted tables and this canonical map, or the state that
            # result describes is gone: over the ingest tasks' partials, or
            # one task per block of an extracted checkpoint this run did not
            # write
            if not scanned:
                scan, shard_dead = (ingest().scan, ingest().dead) if extract else scan_blocks(ext)
                shard_stats.append(scan_extracted_stats(scan)())
                dead += shard_dead
        extracted = concat_blocks(extracted) if ext_open else None
        chunks = None
        if chunks_ckpt is not None:
            chunks = chunks_ckpt.run(
                lambda: concat_blocks([ingest().chunks for ingest in ingests]), write_executor=writer
            )
            _mark("chunks built")

        # ---- stage 3: canonicalization (LSH bands -> driver union-find) -----
        if not scanned:
            stats = ScanStats(
                sum(s.dead_total for s in shard_stats), set().union(*(s.norms for s in shard_stats))
            )
        if cmap is None:
            cmap = build_canonical_map(
                extracted,  # nested extraction output, pinned blocks
                norms=stats.norms,  # collected by the scan above
                **canon_cfg,
            )
            save_canonical_map(out, cmap, cmap_fp)
        _mark("canonical map built")

        # ---- stage 4: graph materialize -------------------------------------
        # one task graph over every shard's blocks yields all three tables;
        # it runs at the first of the three checkpoints that is not complete,
        # and each table keeps its own checkpoint, so a resume rebuilds only
        # the missing ones. edges_agg and nodes record their part count: an
        # append folds into parts laid out by it
        graph = functools.cache(lambda: materialize_graph(extracted, cmap))
        record = {"parts": graph_parts(extracted)} if ext_open else None
        edges, edges_agg, nodes = (
            ck.run(lambda i=i: graph()[i], metrics=record if i else None, write_executor=writer)
            for i, ck in enumerate(graph_ckpts)
        )
        _mark("graph built")

        # durability barrier: all background checkpoint writes must land
        # before metrics read the manifests / the call returns resumable state
        for ck in (*asm_ckpts, *ext_ckpts, chunks_ckpt, *graph_ckpts):
            fut = getattr(ck, "write_future", None)
            if fut is not None:
                fut.result()
        _mark("checkpoint writes durable")

        if not scanned:
            # ---- incremental-ingest state + dead-letter surfacing -----------
            # state/ carries what `append_kg` (pipelines/kg_append.py) needs
            # to fold a new day of conversations in WITHOUT touching the base
            # corpus again: the distinct unknown norms (canonical-map
            # extension) and the build parameters, whose ``extracted`` and
            # ``appends`` lists name the extracted checkpoints that hold
            # every ingested conv id (membership check). dead_letter/ rows
            # are counted in metrics AND persisted as a queryable Parquet
            # partition. The graph the build wrote holds no append's
            # conversations, so its state lists none; the older scan records
            # are voided first, so a run killed midway rescans.
            roots = [root for root, _ in shards]
            void_scan_record(out, roots)
            shutil.rmtree(out / "dead_letter", ignore_errors=True)
            write_ingest_state(out, "build", stats, dead, stats.norms, out / "state")
            write_build_info(
                out,
                {
                    "inputs": [path for _, path in shards],
                    "extracted": roots,
                    "alias_path": str(alias_path),
                    "code_fp": code_fp,
                    "cmap_fp": cmap_fp,
                    "edges_fp": edges_fp,
                    "edges_agg_fp": edges_agg_fp,
                    "nodes_fp": nodes_fp,
                    "appends": [],
                    "sections": {k: dict(cfg.section(k)) for k in ("linking", "canon")},
                },
            )
            # each shard's scan result is kept with the checkpoint it was
            # taken over, written last: a later run reuses it instead of
            # rescanning
            records = [{"dead_letter_turns": s.dead_total, SCAN_RECORD: cmap_fp} for s in shard_stats]
            for ck, record in zip(ext_ckpts, records):
                ck.record_metrics(record)

    dead_letter_turns = sum(r["dead_letter_turns"] for r in records)
    metrics = {
        "shards": len(shards),
        "turns": _rows(asm_ckpts),
        "extracted_turns": _rows(ext_ckpts),
        "edges": _rows([edges_ckpt]),
        "edges_agg": _rows([edges_agg_ckpt]),
        "nodes": _rows([nodes_ckpt]),
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
    files = [out / "state" / NORMS_FILE, out / "state" / "build_info.json"]
    if record["dead_letter_turns"]:
        files.append(out / "dead_letter" / "build")
    return record if all(f.exists() for f in files) else None
