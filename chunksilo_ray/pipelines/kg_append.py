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
         footers) is read and assembled by ONE task and extracted by a
         second, with the build's kernels, each under its stage checkpoint;
         a larger one runs assemble_dialogues and then one extract + scan
         task per assembled block (``ingest_blocks``), as the build does.
      3. canonical extend  — rebuild the canonical map over the UNION of the
         persisted distinct norms and the delta's (vocabulary-bounded, the
         same cost class as the original build's map step). Drift on old
         norms is monotone (union-find only merges), expressed as a tiny
         {old_canonical -> new_canonical} remap applied to the base tables;
         a non-merge drift (LSH cap artifact) fails loud (CanonicalDriftError).
      4. fold              — small delta, no drift: the delta's edges, sums
         and counts are computed in process; its per-turn edges become
         extra edges parts, and its per-key sums fold into edges_agg /
         nodes WITHOUT an exchange (each holds every key once: one task per
         base part adds the matching sums, the smallest part also takes
         the new keys, so the part count stays the base's, and the new
         version is swapped in whole). Otherwise: edges
         base parts kept (remapped on drift) + delta parts; edges_agg:
         merge_edges_agg; nodes: merge_nodes_agg of the delta's per-batch
         counts — each one keyed-sum exchange (``materialize._keyed_sum``).
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

import json
import os
import pathlib
import shutil
from functools import partial

import numpy as np
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
    canonicalize_id,
    load_canonical_map,
    save_canonical_map,
)
from ..stages.ingest import dead_letter_rows, ingest_blocks, scan_blocks, scan_partial
from ..stages.link import extract_table
from ..stages.materialize import (
    _NODE_SUM,
    _TRIPLE_SUM,
    fold_keyed_sum,
    materialize_edges,
    mention_counts,
    merge_edges_agg,
    merge_nodes_agg,
    node_counts,
    node_rows,
    reaggregate_turn_edges,
    remap_canonical_ids,
    sum_by_key,
    turn_edges,
)
from ..state.manifest import (
    StageCheckpoint,
    _write_blocks,
    code_fingerprint,
    fingerprint,
    input_fingerprint,
)
from .kg import (
    NORMS_FILE,
    ScanStats,
    build_roots,
    scan_extracted_stats,
    void_scan_record,
    write_build_info,
    write_ingest_state,
)

__all__ = ["append_kg", "CanonicalDriftError"]

# Appends of at most this many input rows (Parquet footer counts) assemble
# and extract the delta in one task each and fold it into edges_agg / nodes
# without an exchange. Measured on a 50k-turn base with 2 and 4 Ray CPUs,
# the small path is faster at every size up to 120k rows, and at 80k rows
# with 4 CPUs the best runs of the two paths tie; the budget stays a 4x
# margin below that tie because the exchange path's extraction divides by
# the CPU count. Hosts with more CPUs are unmeasured (DESIGN.md
# "Small-delta append").
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


def _ingested(out: pathlib.Path, info: dict, convs: set) -> set:
    """Membership check: which of ``convs`` (the delta's conv ids, a day's
    batch — small) are already ingested, i.e. in the ``conv_id`` column of
    one of the build's extracted checkpoints or of an append's that
    ``info`` (build_info.json) records. One task per checkpoint filters its
    part files against the broadcast delta set, so nothing corpus-sized
    ever lands on the driver."""
    want = ray.put(pa.array(sorted(convs), pa.string()))
    tasks = []
    roots = [out / r for r in build_roots(info)]
    for root in roots + [out / "append" / a["batch_fp"] for a in info["appends"]]:
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


@ray.remote
def _extract_delta(
    alias: list, max_ngram: int, per_row_seconds: float, *assembled: pa.Table
) -> pa.Table:
    """A small append's extraction in one task. ``alias`` holds the alias
    table's ref (inside a list, so Ray passes the ref itself and the
    worker's alias-index memo keys on it)."""
    return extract_table(pa.concat_tables(assembled), alias[0], max_ngram, per_row_seconds)


@ray.remote(num_returns=2)
def _fold_part(
    src: str, dst: str, delta: pa.Table, schema: pa.Schema, new_keys: bool, *elsewhere
):
    """Fold ``delta`` into the base part ``src`` and write the merged part to
    ``dst``. Returns (rows, bytes) and the mask of the ``delta`` rows this
    part holds. With ``new_keys``, the part also takes the delta rows that
    neither it nor any other part holds (``elsewhere``: the other parts'
    masks)."""
    merged, matched = fold_keyed_sum(pq.read_table(src), delta, schema)
    if new_keys:
        held = np.logical_or.reduce([matched, *elsewhere])
        new = delta.filter(pa.array(~held)).select(merged.column_names).cast(merged.schema)
        merged = pa.concat_tables([merged, new])
    pq.write_table(merged, dst)
    return (merged.num_rows, os.stat(dst).st_size), matched


def _start_fold(src: pathlib.Path, staged: pathlib.Path, parts: list, delta, schema):
    """Submit the fold of ``delta`` into the base parts ``parts`` (manifest
    records of files in ``src``), writing the merged parts to ``staged``:
    one task per part, the smallest part's task also taking the new keys.
    Returns a zero-arg callable that waits for the tasks and returns the
    merged parts' records."""
    if not parts:  # an empty base: the delta's rows are the table
        written = _write_blocks(rd.from_arrow(delta), staged, "part-")
        return lambda: written
    delta_ref = ray.put(delta)
    smallest = min(range(len(parts)), key=lambda i: parts[i]["rows"])

    def fold(i: int, *elsewhere):
        f = parts[i]["file"]
        return _fold_part.remote(
            str(src / f), str(staged / f), delta_ref, schema, i == smallest, *elsewhere
        )

    folds = {i: fold(i) for i in range(len(parts)) if i != smallest}
    folds[smallest] = fold(smallest, *[matched for _, matched in folds.values()])

    def records() -> list[dict]:
        stats = ray.get([folds[i][0] for i in range(len(parts))])
        return [
            {"file": p["file"], "rows": rows, "bytes": nbytes}
            for p, (rows, nbytes) in zip(parts, stats)
        ]

    return records


def _fold_small(tables: list) -> None:
    """Exchange-free merge of small keyed deltas into keyed-sum checkpoints.
    ``tables`` holds (checkpoint, delta, schema) triples; each checkpoint
    holds every key once. One task per base part adds the matching delta
    rows and writes the merged part next to the table; the task of the
    smallest part waits for the others' matches and also appends the delta
    rows no part holds (new keys), so the part count never grows. Every
    table's tasks are submitted before any is awaited, so the tables fold
    side by side; each table's new version is then swapped in whole
    (``StageCheckpoint.commit``), in the order given. A checkpoint already
    at its fingerprint holds its delta: it is skipped."""
    started = []
    for ckpt, delta, schema in tables:
        if ckpt.complete():
            continue
        base, staged = ckpt.manifest(), ckpt.staging_dir()
        records = _start_fold(ckpt.dir, staged, base["parts"], delta, schema)
        started.append((ckpt, base, staged, records))
    for ckpt, base, staged, records in started:
        ckpt.commit(staged, records(), base.get("metrics"))


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
    alias_table = pq.read_table(alias_path)
    if small:
        # one task per stage, no exchange: the delta fits one process
        assembled = asm_ckpt.run(
            lambda: rd.from_arrow_refs([_assemble_delta.remote(files, skipped_arr)])
        )
        extracted = ext_ckpt.run(
            lambda: rd.from_arrow_refs([_extract_delta.remote(
                [ray.put(alias_table)], link_cfg["max_ngram"], link_cfg["per_row_seconds"],
                *assembled.to_arrow_refs(),
            )])
        )
        delta_t = pa.concat_tables(ray.get(list(extracted.to_arrow_refs())))
        stats = ScanStats.of([scan_partial(delta_t)])
        dead = [ray.put(dead_letter_rows(delta_t))]
    else:
        delta = rd.read_parquet(new_transcripts)
        if skipped:
            delta = delta.map_batches(
                partial(_keep_convs, skipped=skipped_arr),
                batch_format="pyarrow", batch_size=None, zero_copy_batch=True,
            )
        assembled = asm_ckpt.run(lambda: assemble_dialogues(delta))
        # one task per assembled block extracts it and scans the result; a
        # resumed append whose extraction was done rescans its checkpoint
        ingested = (
            None if ext_ckpt.complete()
            else ingest_blocks(assembled, ray.put(alias_table), link_cfg)
        )
        extracted = ext_ckpt.run(lambda: ingested.extracted)
        scan, dead = (ingested.scan, ingested.dead) if ingested else scan_blocks(extracted)
        stats = scan_extracted_stats(scan)()

    # ---- 3. canonical map extension + drift remap ----------------------------
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

    # ---- 4. fold -------------------------------------------------------------
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
    path = "small" if small and not remap else "exchange"
    if path == "small":
        # the delta's rows and aggregates are computed in process; each base
        # aggregate already holds every key once, so the delta's per-key
        # sums fold into its parts where they lie
        canon = partial(canonicalize_id, cmap=new_map)
        delta_edges = turn_edges(delta_t, canon)
        edges_ckpt.append_parts(rd.from_arrow(delta_edges), tag, edges_fp)
        node_sums = sum_by_key(mention_counts(delta_t, canon), _NODE_SUM)
        _fold_small([
            (edges_agg_ckpt, sum_by_key(delta_edges, _TRIPLE_SUM), _TRIPLE_SUM),
            (nodes_ckpt, node_rows(node_sums), _NODE_SUM),
        ])
    else:
        # consumed twice (edge fold + agg merge): pin once
        delta_edges = materialize_edges(extracted, new_map).materialize()
        base_agg = rd.read_parquet(str(out / "edges_agg"))
        base_nodes = rd.read_parquet(str(out / "nodes"))
        if remap:
            # drift: the base tables reference merged-away canonicals —
            # rewrite them (tiny broadcast, dictionary-encoded) and restore
            # per-turn key uniqueness, then write a fresh checkpoint from
            # base' + delta
            base_edges = remap_canonical_ids(edges_ckpt.read(), remap, ["subj", "obj"])
            edges_ckpt.run(lambda: reaggregate_turn_edges(base_edges.union(delta_edges)))
            base_agg = remap_canonical_ids(base_agg, remap, ["subj", "obj"])
            base_nodes = remap_canonical_ids(base_nodes, remap, ["entity_id", "canonical"])
        else:
            edges_ckpt.append_parts(delta_edges, tag, edges_fp)
        edges_agg_ckpt.run(lambda: merge_edges_agg(base_agg, delta_edges))
        nodes_ckpt.run(lambda: merge_nodes_agg(base_nodes, node_counts(extracted, new_map)))

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
