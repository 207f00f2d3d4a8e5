"""The flagship pipeline: transcripts Parquet -> knowledge-graph Parquet.

End-to-end composition (SURVEY.md §3.4 lifecycle):

    read_parquet(transcripts)
      -> assemble_dialogues    SHUFFLE #1 (light rows, by conv_id)    [ckpt]
      -> link_extract          map tasks + broadcast aliases          [ckpt]
      -> build_canonical_map   SHUFFLE #2 (LSH bands) -> driver union-find,
                               saved next to the checkpoints
      -> materialize edges     shuffle-free, per turn                 [ckpt]
      -> edges_agg / nodes     SHUFFLE #3 (groupby-aggregate)         [ckpt]
    (side branch) assembled -> chunk -> embed                         [ckpt]

Checkpoint boundaries sit right after the shuffles (SURVEY.md §7.4), so a
resumed run skips the expensive exchanges. No ray.init() here — the driver
owns the session.
"""

from __future__ import annotations

import json
import pathlib
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
from ..stages.chunk import chunk_turns
from ..stages.embed import embed_chunks
from ..stages.link import link_extract
from ..stages.materialize import (
    materialize_edges,
    materialize_edges_agg,
    materialize_nodes,
)
from ..state.manifest import (
    StageCheckpoint,
    code_fingerprint,
    fingerprint,
    input_fingerprint,
)


class ScanStats:
    """Result of the combined one-pass scan over the extracted table."""

    __slots__ = ("dead_total", "norms", "convs", "dead_rows")

    def __init__(self, dead_total: int, norms: set, convs: set, dead_rows: list):
        self.dead_total = dead_total
        self.norms = norms
        self.convs = convs
        self.dead_rows = dead_rows  # [(conv_id, turn_idx, error), ...] capped


def scan_extracted_stats(
    extracted, collect_convs: bool = False, dead_cap: int = 1_000_000
):
    """Returns a zero-arg callable (pool-submittable) running ONE streaming
    pass over the extracted dataset that collects, as a tagged union of
    per-block partials: the dead-letter count AND rows (kind=3), the
    distinct unknown norms (kind=1, vocabulary-bounded by construction), and
    optionally the per-block distinct conv_ids (kind=2) for the incremental
    manifest. Driver memory is O(norm vocab + #convs + capped dead rows);
    at extreme conv counts the manifest write should switch to a distributed
    per-block write_parquet — documented, not needed below ~10^7 convs."""
    import pyarrow as _pa
    import pyarrow.compute as _pc

    from ..stages.canon import batch_distinct_unknown_norms

    def _flat(a):
        return a.combine_chunks() if isinstance(a, _pa.ChunkedArray) else a

    def _partial(t):
        n_err = int(t.num_rows - t.column("error").null_count)
        norms = _flat(batch_distinct_unknown_norms(t).column("norm"))
        kinds = [0] + [1] * len(norms)
        s_parts = [_pa.array([None], _pa.string()), norms]
        turn_parts = [_pa.array([None] * (1 + len(norms)), _pa.int64())]
        err_parts = [_pa.array([None] * (1 + len(norms)), _pa.string())]
        if collect_convs:
            convs = _flat(_pc.unique(t.column("conv_id")))
            kinds += [2] * len(convs)
            s_parts.append(convs)
            turn_parts.append(_pa.array([None] * len(convs), _pa.int64()))
            err_parts.append(_pa.array([None] * len(convs), _pa.string()))
        if n_err:
            dead = t.filter(_pc.is_valid(t.column("error")))
            kinds += [3] * dead.num_rows
            s_parts.append(_flat(dead.column("conv_id")))
            turn_parts.append(_flat(_pc.cast(dead.column("turn_idx"), _pa.int64())))
            err_parts.append(_flat(dead.column("error")))
        return _pa.table(
            {
                "kind": _pa.array(kinds, _pa.int8()),
                "n_err": _pa.array([n_err] + [0] * (len(kinds) - 1), _pa.int64()),
                "s": _pa.concat_arrays([_flat(a) for a in s_parts]),
                "turn_idx": _pa.concat_arrays([_flat(a) for a in turn_parts]),
                "err": _pa.concat_arrays([_flat(a) for a in err_parts]),
            }
        )

    def run() -> ScanStats:
        total = 0
        norms: set = set()
        convs: set = set()
        dead_rows: list = []
        capped = False
        for b in extracted.map_batches(
            _partial, batch_format="pyarrow", batch_size=None, zero_copy_batch=True
        ).iter_batches(batch_format="pyarrow"):
            kinds = b["kind"].to_pylist()
            ss = b["s"].to_pylist()
            total += int(sum(n for k, n in zip(kinds, b["n_err"].to_pylist()) if k == 0))
            for i, k in enumerate(kinds):
                if k == 1:
                    norms.add(ss[i])
                elif k == 2:
                    convs.add(ss[i])
                elif k == 3:
                    if len(dead_rows) < dead_cap:
                        dead_rows.append(
                            (ss[i], b["turn_idx"][i].as_py(), b["err"][i].as_py())
                        )
                    else:
                        capped = True
        if capped:
            import logging

            logging.getLogger(__name__).warning(
                "dead-letter rows exceeded cap=%d; export truncated (count is "
                "still exact) — switch to a distributed filter+write for "
                "pathological corpora",
                dead_cap,
            )
        return ScanStats(total, norms, convs, dead_rows)

    return run


def write_ingest_state(
    out: pathlib.Path, tag: str, stats: ScanStats, norms: set | None
) -> str | None:
    """Persist what one extracted scan found, as part ``part-<tag>.parquet``
    (``build`` or ``append-<fp8>``) of each table: the dead-letter rows under
    out/dead_letter/ (the explicit-policy export of extractor-failed rows,
    SURVEY.md §4 — only when there are any), and, when ``norms`` is given
    (incremental tracking on), the scan's conv ids under out/state/conv_ids/
    plus ``norms`` as out/state/distinct_norms.parquet. Returns the
    dead-letter part's path, or None."""
    dead_letter_path = None
    if stats.dead_total:
        (out / "dead_letter").mkdir(exist_ok=True)
        dead_letter_path = str(out / "dead_letter" / f"part-{tag}.parquet")
        rows = stats.dead_rows
        pq.write_table(
            pa.table(
                {
                    "conv_id": pa.array([r[0] for r in rows], pa.string()),
                    "turn_idx": pa.array([r[1] for r in rows], pa.int64()),
                    "error": pa.array([r[2] for r in rows], pa.string()),
                }
            ),
            dead_letter_path,
        )
    if norms is not None:
        state = out / "state"
        (state / "conv_ids").mkdir(parents=True, exist_ok=True)
        pq.write_table(
            pa.table({"conv_id": pa.array(sorted(stats.convs), pa.string())}),
            state / "conv_ids" / f"part-{tag}.parquet",
        )
        pq.write_table(
            pa.table({"norm": pa.array(sorted(norms), pa.string())}),
            state / "distinct_norms.parquet",
        )
    return dead_letter_path


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

    # Stage executions run one after another on this thread: overlapping
    # independent Dataset executions on driver threads, measured at sf0.3,
    # lost to strict serialization (61 s vs 85 s at 16 CPUs) — concurrent
    # streaming executions each assume they own the cluster, so they fight
    # over CPU slots, object-store memory and memory bandwidth instead of
    # pipelining. Two background threads remain, both measured wins: the
    # checkpoint writer below, and the small extracted scan further down.
    #
    # background checkpoint writer: disk-bound durable copies run OFF the
    # critical path; all futures are awaited before metrics/return
    writer = ThreadPoolExecutor(max_workers=2)

    # ---- stage 1: assembly (lengths-only exchange) --------------------------
    asm_fp = fingerprint(in_fp, "assemble")
    asm_ckpt = StageCheckpoint(out_dir, "assembled", asm_fp)
    assembled = asm_ckpt.run(
        lambda: assemble_dialogues(rd.read_parquet(transcripts_path)),
        write_executor=writer,
    )
    _mark("assembled materialized")

    # ---- stage 2: mention detect + entity link + triple extraction ----------
    alias_table = pq.read_table(alias_path)
    link_cfg = cfg.section("linking")
    ext_fp = fingerprint(asm_fp, "extract", sorted(link_cfg.items()))
    ext_ckpt = StageCheckpoint(out_dir, "extracted", ext_fp)
    extracted = ext_ckpt.run(
        # alias table broadcast once, only when the stage actually runs
        lambda: link_extract(assembled, ray.put(alias_table), **link_cfg),
        write_executor=writer,
    )
    _mark("extracted materialized")

    # ONE combined scan over the pinned extracted blocks collects FOUR
    # partials at once — the dead-letter count + rows (the extractor marks
    # failed rows with a non-null ``error``), the distinct unknown norms
    # canonicalization needs, and (when incremental tracking is on) the
    # per-block distinct conv_ids the append flow's membership check reads.
    # One pass over the biggest intermediate table instead of four.
    track = bool(cfg.get("incremental.track"))
    dead_cap = int(cfg.get("incremental.dead_letter_cap") or 1_000_000)
    _scan_extracted = scan_extracted_stats(
        extracted, collect_convs=track, dead_cap=dead_cap
    )

    # the scan is SMALL (one pass over pinned blocks + a tiny driver drain)
    # but a full streaming execution nonetheless — its executor startup and
    # drain are pure serial time if run inline. It runs on a background
    # thread UNDER the chunks build (the one overlap that measured as a win:
    # the big execution's scheduling slack absorbs the small one, unlike the
    # round-2 big×big overlap that lost to DRAM contention). Its result is
    # first needed at canon time below.
    scan_pool = ThreadPoolExecutor(max_workers=1)
    scan_future = scan_pool.submit(_scan_extracted)

    # ---- side branch: chunk + embed ------------------------------------------
    # built right after extraction, so its background checkpoint write
    # overlaps the canon/edges/nodes compute instead of stalling the final
    # durability barrier
    chunks = chunks_ckpt = None
    if with_chunks:
        chk_cfg = cfg.section("chunking")
        emb_cfg = cfg.section("embedding")
        chunks_fp = fingerprint(asm_fp, "chunks", sorted(chk_cfg.items()), sorted(emb_cfg.items()))
        chunks_ckpt = StageCheckpoint(out_dir, "chunks", chunks_fp)
        chunks = chunks_ckpt.run(
            lambda: embed_chunks(chunk_turns(assembled, **chk_cfg), **emb_cfg),
            write_executor=writer,
        )
        _mark("chunks built")

    # ---- stage 3: canonicalization (LSH bands -> driver union-find) ---------
    canon_cfg = cfg.section("canon")
    cmap_fp = fingerprint(ext_fp, "canon", sorted(canon_cfg.items()))
    cmap = load_canonical_map(out, cmap_fp)
    if cmap is None:
        distinct_norms = scan_future.result().norms
        _mark("extracted scan drained")
        cmap = build_canonical_map(
            extracted,  # nested extraction output, pinned blocks
            norms=distinct_norms,  # collected by the combined scan above
            **canon_cfg,
        )
        save_canonical_map(out, cmap, cmap_fp)
    _mark("canonical map built")

    # ---- stage 4: graph materialize -----------------------------------------
    # edges: shuffle-free (per-turn weights computed in the explode pass);
    # edges_agg + nodes: partial pre-agg, then the small groupby exchange
    edges_fp = fingerprint(cmap_fp, "edges")
    edges_ckpt = StageCheckpoint(out_dir, "edges", edges_fp)
    edges_agg_fp = fingerprint(edges_fp, "edges_agg")
    edges_agg_ckpt = StageCheckpoint(out_dir, "edges_agg", edges_agg_fp)
    nodes_fp = fingerprint(cmap_fp, "nodes")
    nodes_ckpt = StageCheckpoint(out_dir, "nodes", nodes_fp)

    edges = edges_ckpt.run(
        lambda: materialize_edges(extracted, cmap), write_executor=writer
    )
    _mark("edges built")
    edges_agg = edges_agg_ckpt.run(
        lambda: materialize_edges_agg(edges), write_executor=writer
    )
    _mark("edges_agg built")
    nodes = nodes_ckpt.run(
        lambda: materialize_nodes(extracted, cmap), write_executor=writer
    )
    _mark("nodes done")
    scan_pool.shutdown(wait=True)

    # durability barrier: all background checkpoint writes must land before
    # metrics read the manifests / the call returns resumable state
    barrier = [asm_ckpt, ext_ckpt, edges_ckpt, edges_agg_ckpt, nodes_ckpt]
    if chunks_ckpt is not None:
        barrier.append(chunks_ckpt)
    for ck in barrier:
        fut = getattr(ck, "write_future", None)
        if fut is not None:
            fut.result()
    writer.shutdown(wait=True)
    _mark("checkpoint writes durable")

    stats = scan_future.result()

    # ---- incremental-ingest state + dead-letter surfacing -------------------
    # state/ carries what `append_kg` (pipelines/kg_append.py) needs to fold a
    # new day of conversations in WITHOUT touching the base corpus again:
    # the conv-id manifest (membership check), the distinct unknown norms
    # (canonical-map extension), and the build parameters. dead_letter/ rows
    # are counted in metrics AND persisted as a queryable Parquet partition.
    dead_letter_path = write_ingest_state(
        out, "build", stats, stats.norms if track else None
    )
    if track:
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
                    "sections": {
                        k: dict(cfg.section(k))
                        for k in ("linking", "canon", "incremental")
                    },
                },
                indent=1,
            )
        )

    metrics = {
        "turns": (asm_ckpt.manifest() or {}).get("rows"),
        "extracted_turns": (ext_ckpt.manifest() or {}).get("rows"),
        "edges": (edges_ckpt.manifest() or {}).get("rows"),
        "edges_agg": (edges_agg_ckpt.manifest() or {}).get("rows"),
        "nodes": (nodes_ckpt.manifest() or {}).get("rows"),
        "canonical_merges": len(cmap),
        "dead_letter_turns": stats.dead_total,
        "dead_letter_path": dead_letter_path,
    }
    edges_ckpt.record_metrics({"emitted_edges": metrics["edges"]})
    return {
        "edges": edges,
        "edges_agg": edges_agg,
        "nodes": nodes,
        "chunks": chunks,
        "metrics": metrics,
        "out_dir": str(out),
    }
