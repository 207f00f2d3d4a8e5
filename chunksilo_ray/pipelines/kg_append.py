"""Incremental ingest: fold a new batch of conversations into a built KG.

The Ray-Data analog of the reference's mtime/hash-incremental reindex
(reference src/chunksilo/index.py:1497-1544: scan, classify new/modified/
deleted, re-embed only the changed files) at CONVERSATION granularity:

    append_kg(out_dir, new_day.parquet)
      1. membership check  — the new input's conv_ids (a column read of its
         files on the driver) are a small set; the ingested ones are the
         conv_id column of the extracted checkpoints build_info.json lists
         (the build's, one per shard, and each recorded append's). One task
         per checkpoint filters its part files against the delta set, so
         already-ingested conversations are skipped WITHOUT the ingested
         set ever being collected whole (scale direction: small side
         broadcast, big side streams).
      2. delta extract     — over the new conversations only, checkpointed
         under out/append/<batch_fp>/ so a killed append resumes. A small
         delta (at most SMALL_DELTA_ROWS input rows, read from the Parquet
         footers) is read and assembled by ONE task, a larger one by
         assemble_dialogues; either way one extract + scan task per
         assembled block follows (``ingest_blocks``), as in the build.
      3. canonical extend  — rebuild the canonical map over the UNION of the
         persisted distinct norms and the delta's (vocabulary-bounded, the
         same cost class as the original build's map step). Drift on old
         norms is monotone (union-find only merges); a non-merge drift (LSH
         cap artifact) fails loud (CanonicalDriftError).
      4. graph             — the build's ``materialize_graph``, at any map
         size. Without drift, and with the base's edges_agg / nodes
         manifests recording their part count P, it folds: the graph runs
         over the delta's blocks only, reduce task p also sums base part p
         (which holds the keys hashing to p), and the result is the new
         version of each table, still in P hash-aligned parts; the delta's
         per-turn edges become extra edges parts. Otherwise (drift, or a
         base written by older code) it re-runs the whole graph, under the
         new map, over every extracted checkpoint build_info.json lists
         plus the delta's, into fresh edges / edges_agg / nodes
         checkpoints.
      5. state update      — the delta's dead letters; the norm union and
         the new canonical map, staged under out/state/next; then
         build_info.json, whose new ``appends`` entry adds the delta's
         extracted checkpoint to the ingested set and whose ``cmap_fp``
         names the staged map. That write commits the append: until it, a
         rerun does not count the delta as ingested and reads the base's
         map and norms, still in place; after it, the staged files move in
         (``_move_in_state``, which the next append also runs, so a kill
         between the two loses nothing).

Invariant (gated in tests/test_round5c.py): append(A, B) produces byte-equal
edges_agg / nodes / edges tables to a one-shot rebuild over A + B, because
both sides use the SAME canonical map (built from the same norm union) and
all aggregates are additive.
"""

from __future__ import annotations

import functools
import json
import os
import pathlib
import shutil
from concurrent.futures import ThreadPoolExecutor
from functools import partial

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pads
import pyarrow.parquet as pq
import ray
import ray.data as rd

from ..config import Config
from ..stages.assemble import assemble_dialogues, assemble_table
from ..stages.canon import (
    CanonicalDriftError,
    build_canonical_map,
    canonical_remap,
    load_canonical_map,
    save_canonical_map,
)
from ..stages.ingest import ingest_blocks, scan_blocks
from ..stages.materialize import graph_parts, materialize_graph
from ..state.manifest import (
    StageCheckpoint,
    code_fingerprint,
    fingerprint,
    input_fingerprint,
)
from .kg import (
    NORMS_FILE,
    build_roots,
    concat_blocks,
    scan_extracted_stats,
    void_scan_record,
    write_build_info,
    write_ingest_state,
)

__all__ = ["append_kg", "CanonicalDriftError"]

# Appends of at most this many input rows (Parquet footer counts) are read
# and assembled by one task instead of by assemble_dialogues; the rest of
# the append is the same for both. On a 50k-turn base with 2 Ray CPUs (best
# of 3 appends), the one task is faster at 5k and 20k rows (0.19 vs 0.29 s,
# 0.34 vs 0.43 s), about even at 40k (0.51 vs 0.53 s) and slower at 80k
# (0.97 vs 0.90 s), so the crossover lies near 40k rows there.
# assemble_dialogues divides its work by the CPU count and the one task does
# not, so the crossover falls as CPUs are added; hosts with more CPUs are
# unmeasured (DESIGN.md "Small-delta append").
SMALL_DELTA_ROWS = 20_000


def _input_files(path: str) -> list[str]:
    """The Parquet files of an input file or directory."""
    return sorted(pads.dataset(path, format="parquet").files)


@ray.remote
def _conv_hits(paths: list[str], convs: pa.Array) -> list[str]:
    hits = []
    for path in paths:
        t = pq.read_table(path, columns=["conv_id"])
        hit = t.filter(pc.is_in(t["conv_id"], value_set=convs))["conv_id"]
        hits += pc.unique(hit).to_pylist()
    return hits


def _extracted_roots(out: pathlib.Path, info: dict) -> list[pathlib.Path]:
    """The directories of the extracted checkpoints that ``info``
    (build_info.json) lists: the build's, one per shard, and each recorded
    append's."""
    appends = [out / "append" / a["batch_fp"] for a in info["appends"]]
    return [out / r for r in build_roots(info)] + appends


def _ingested(out: pathlib.Path, info: dict, convs: set) -> set:
    """Membership check: which of ``convs`` (the delta's conv ids, a day's
    batch — small) are already ingested, i.e. in the ``conv_id`` column of
    one of the extracted checkpoints ``info`` lists. One task per
    checkpoint filters its part files against the broadcast delta set, so
    nothing corpus-sized ever lands on the driver."""
    want = ray.put(pa.array(sorted(convs), pa.string()))
    tasks = []
    for root in _extracted_roots(out, info):
        ckpt = StageCheckpoint(str(root), "extracted", "")
        m = ckpt.manifest()
        if m is None:
            raise FileNotFoundError(
                f"{ckpt.manifest_path} missing — the build state is inconsistent; rebuild"
            )
        tasks.append(_conv_hits.remote([str(ckpt.dir / p["file"]) for p in m["parts"]], want))
    hits = ray.get(tasks)
    return {c for h in hits for c in h}


def _keep_convs(t: pa.Table, skipped: pa.Array) -> pa.Table:
    return t.filter(pc.invert(pc.is_in(t["conv_id"], value_set=skipped)))


@ray.remote
def _assemble_delta(files: list[str], skipped: pa.Array) -> pa.Table:
    """A small append's assembly in one task: read the new files, drop the
    skipped conversations, assemble in process (one conv-hash part, one
    block)."""
    return assemble_table(_keep_convs(pa.concat_tables([pq.read_table(f) for f in files]), skipped))


def _move_in_state(out: pathlib.Path, cmap_fp: str) -> None:
    """Move the canonical map and norms an append staged under
    out/state/next into place, once build_info.json names the staged map
    (its fingerprint is ``cmap_fp``). Files staged by an append that never
    committed are left to be overwritten. The map moves last: it marks the
    staged state as not yet moved in."""
    staged = out / "state" / "next"
    cmap = load_canonical_map(staged, cmap_fp)
    if cmap is None:
        return
    if (staged / NORMS_FILE).exists():
        os.replace(staged / NORMS_FILE, out / "state" / NORMS_FILE)
    save_canonical_map(out, cmap, cmap_fp)
    shutil.rmtree(staged)


def append_kg(
    out_dir: str,
    new_transcripts: str,
    alias_path: str | None = None,
    cfg: Config | None = None,
) -> dict:
    """Fold ``new_transcripts`` (a Parquet file/dir of conversations) into
    the KG previously built at ``out_dir`` by build_kg. Returns
    {"edges", "edges_agg", "nodes", "metrics"}."""
    cfg = cfg or Config()
    out = pathlib.Path(out_dir)
    state = out / "state"
    info_path = state / "build_info.json"
    if not info_path.exists():
        raise FileNotFoundError(f"{info_path} missing — run build_kg first")
    info = json.loads(info_path.read_text())
    _move_in_state(out, info["cmap_fp"])
    # the delta must be extracted and canonicalized with the base's settings,
    # or the folded graph equals neither rebuild
    for name in ("linking", "canon"):
        built, now = info["sections"][name], cfg.section(name)
        differ = sorted(k for k in built.keys() | now.keys() if built.get(k) != now.get(k))
        if differ:
            raise ValueError(
                f"append config differs from the build's in section {name!r}, "
                f"keys {differ}; append with the config the KG was built with"
            )
    alias_path = alias_path or info["alias_path"]

    # ---- 1. membership check -------------------------------------------------
    # the size gate reads Parquet footers only: it starts no execution
    files = _input_files(new_transcripts)
    small = sum(pq.read_metadata(f).num_rows for f in files) <= SMALL_DELTA_ROWS
    delta_convs = set()
    for f in files:
        for b in pq.ParquetFile(f).iter_batches(columns=["conv_id"]):
            delta_convs.update(pc.unique(b["conv_id"]).to_pylist())
    skipped = _ingested(out, info, delta_convs)
    new_convs = delta_convs - skipped
    if not new_convs:
        return {
            "edges": None,
            "edges_agg": None,
            "nodes": None,
            "metrics": {
                "new_convs": 0,
                "skipped_existing_convs": len(skipped),
                "noop": True,
            },
        }
    skipped_arr = pa.array(sorted(skipped), pa.string())

    # ---- 2. delta assemble + extract (resumable per append batch) ------------
    code_fp = code_fingerprint(str(pathlib.Path(__file__).resolve().parents[1]))
    batch_fp = fingerprint(
        input_fingerprint(new_transcripts), info["cmap_fp"], code_fp, sorted(new_convs)[:100]
    )
    batch_root = str(out / "append" / batch_fp)
    link_cfg = cfg.section("linking")
    asm_ckpt = StageCheckpoint(batch_root, "assembled", fingerprint(batch_fp, "assemble"))
    ext_ckpt = StageCheckpoint(batch_root, "extracted", fingerprint(batch_fp, "extract"))

    def assemble():
        if small:  # one task, no exchange: the delta fits one process
            return rd.from_arrow_refs([_assemble_delta.remote(files, skipped_arr)])
        delta = rd.read_parquet(new_transcripts)
        if skipped:
            delta = delta.map_batches(
                partial(_keep_convs, skipped=skipped_arr),
                batch_format="pyarrow", batch_size=None, zero_copy_batch=True,
            )
        return assemble_dialogues(delta)

    # checkpoint writes run on a background pool, off the critical path, as
    # in build_kg; every one has landed before the state update commits the
    # append
    with ThreadPoolExecutor(max_workers=2) as writer:
        assembled = asm_ckpt.run(assemble, write_executor=writer)
        # one task per assembled block extracts it and scans the result
        ingested = (
            None if ext_ckpt.complete()
            else ingest_blocks(assembled, ray.put(pq.read_table(alias_path)), link_cfg)
        )
        extracted = ext_ckpt.run(lambda: ingested.extracted, write_executor=writer)
        if ingested is None:
            # a resumed append whose extraction was done: its checkpoint is
            # read back, pinned once (the scan and the graph both read it)
            # and rescanned
            extracted = extracted.materialize()
            scan, dead = scan_blocks(extracted)
        else:
            scan, dead = ingested.scan, ingested.dead
        stats = scan_extracted_stats(scan)()

        # ---- 3. canonical map extension + drift check ------------------------
        canon_cfg = cfg.section("canon")
        old_map = load_canonical_map(out, info["cmap_fp"])
        if old_map is None:
            raise FileNotFoundError(
                f"no canonical map for fingerprint {info['cmap_fp']} under {out} — "
                "the build state is inconsistent; rebuild"
            )
        old_norms = set(pq.read_table(state / NORMS_FILE)["norm"].to_pylist())
        union_norms = old_norms | stats.norms
        new_map = build_canonical_map(extracted, norms=union_norms, **canon_cfg)
        remap = canonical_remap(old_map, new_map, old_norms)

        # ---- 4. graph: fold into the base's parts, or re-run it --------------
        # from here on the graph and the ingest state no longer match what
        # build_kg's scan record describes: a rerun of the build must rescan
        void_scan_record(out)
        new_cmap_fp = fingerprint(info["cmap_fp"], batch_fp, sorted(canon_cfg.items()))
        tag = batch_fp[:8]
        edges_fp = fingerprint(info["edges_fp"], batch_fp, "edges+append")
        edges_ckpt = StageCheckpoint(str(out), "edges", edges_fp)
        agg_fp = fingerprint(info["edges_agg_fp"], batch_fp, "edges_agg+append")
        edges_agg_ckpt = StageCheckpoint(str(out), "edges_agg", agg_fp)
        nodes_fp = fingerprint(info["nodes_fp"], batch_fp, "nodes+append")
        nodes_ckpt = StageCheckpoint(str(out), "nodes", nodes_fp)
        # the base's parts are hash-aligned only where its manifests say in
        # how many parts (a table written by older code records none); drift
        # rewrites base keys, so nothing aligns
        recorded = {(ck.manifest() or {}).get("metrics", {}).get("parts")
                    for ck in (edges_agg_ckpt, nodes_ckpt)}
        parts = recorded.pop() if len(recorded) == 1 else None
        fold = not remap and parts is not None
        path = "fold" if fold else "regraph"
        if fold:
            graph = functools.cache(
                lambda: materialize_graph(extracted, new_map, base=(out, parts))
            )
        else:
            # every extracted checkpoint the graph holds, and the delta's
            everything = concat_blocks([
                *(StageCheckpoint(str(root), "extracted", "").read().materialize()
                  for root in _extracted_roots(out, info)),
                extracted,
            ])
            parts = graph_parts(everything)
            graph = functools.cache(lambda: materialize_graph(everything, new_map))
        record = {"parts": parts}
        edges_agg_ckpt.run(lambda: graph()[1], metrics=record, write_executor=writer)
        nodes_ckpt.run(lambda: graph()[2], metrics=record, write_executor=writer)
        if fold:
            edges_ckpt.append_parts(lambda: graph()[0], tag, edges_fp)
        else:
            edges_ckpt.run(lambda: graph()[0])
        for ck in (asm_ckpt, ext_ckpt, edges_agg_ckpt, nodes_ckpt):
            if ck.write_future is not None:
                ck.write_future.result()

    # ---- 5. state update (same shape build_kg wrote) --------------------------
    # staged until build_info.json commits it: a kill before that leaves the
    # base's map and norms in place for the rerun
    write_ingest_state(out, f"append-{tag}", stats, dead, union_norms, state / "next")
    save_canonical_map(state / "next", new_map, new_cmap_fp)
    info["cmap_fp"] = new_cmap_fp
    info["edges_fp"] = edges_fp
    info["edges_agg_fp"] = agg_fp
    info["nodes_fp"] = nodes_fp
    info.setdefault("appends", []).append(
        {
            "input": str(new_transcripts),
            "batch_fp": batch_fp,
            "new_convs": len(new_convs),
            "skipped_existing_convs": len(skipped),
            "drifted_clusters": len(remap),
            "path": path,
        }
    )
    write_build_info(out, info)
    _move_in_state(out, new_cmap_fp)

    metrics = {
        "new_convs": len(new_convs),
        "skipped_existing_convs": len(skipped),
        "new_turns": (ext_ckpt.manifest() or {}).get("rows"),
        "dead_letter_turns": stats.dead_total,
        "drifted_clusters": len(remap),
        "edges": (edges_ckpt.manifest() or {}).get("rows"),
        "edges_agg": (edges_agg_ckpt.manifest() or {}).get("rows"),
        "nodes": (nodes_ckpt.manifest() or {}).get("rows"),
        "canonical_merges": len(new_map),
        "path": path,
        "noop": False,
    }
    return {
        "edges": edges_ckpt.read(),
        "edges_agg": edges_agg_ckpt.read(),
        "nodes": nodes_ckpt.read(),
        "metrics": metrics,
        "out_dir": str(out),
    }
