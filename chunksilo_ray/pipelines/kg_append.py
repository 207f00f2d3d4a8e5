"""Incremental ingest: fold a new batch of conversations into a built KG.

The Ray-Data analog of the reference's mtime/hash-incremental reindex
(reference src/chunksilo/index.py:1497-1544: scan, classify new/modified/
deleted, re-embed only the changed files) at CONVERSATION granularity:

    append_kg(out_dir, new_day.parquet)
      1. membership check  — the new file's conv_ids are a small set; it is
         broadcast against the persisted conv-id manifest (out/state/) so
         already-ingested conversations are skipped WITHOUT the manifest
         ever being collected whole (scale direction: small side broadcast,
         big side streams).
      2. delta extract     — assemble + link_extract over the new
         conversations only, checkpointed under out/append/<batch_fp>/ so a
         killed append resumes.
      3. canonical extend  — rebuild the canonical map over the UNION of the
         persisted distinct norms and the delta's (vocabulary-bounded, the
         same cost class as the original build's map step). Drift on old
         norms is monotone (union-find only merges), expressed as a tiny
         {old_canonical -> new_canonical} remap applied to the base tables;
         a non-merge drift (LSH cap artifact) fails loud (CanonicalDriftError).
      4. fold              — edges: base parts kept (remapped only on drift)
         + delta parts; edges_agg: merge_edges_agg; nodes: merge_nodes_agg.
         All folds meet in the same coarse int-keyed hash exchange as the
         build's SHUFFLE #3.

Invariant (gated in tests/test_round5c.py): append(A, B) produces byte-equal
edges_agg / nodes / edges tables to a one-shot rebuild over A + B, because
both sides use the SAME canonical map (built from the same norm union) and
all aggregates are additive.
"""

from __future__ import annotations

import json
import pathlib

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray
import ray.data as rd
from ray.data import Dataset

from ..config import Config
from ..stages.assemble import assemble_dialogues
from ..stages.canon import (
    CanonicalDriftError,
    build_canonical_map,
    canonical_remap,
    load_canonical_map,
    save_canonical_map,
)
from ..stages.link import link_extract
from ..stages.materialize import (
    materialize_edges,
    materialize_nodes,
    merge_edges_agg,
    merge_nodes_agg,
    reaggregate_turn_edges,
    remap_canonical_ids,
)
from ..state.manifest import (
    StageCheckpoint,
    code_fingerprint,
    fingerprint,
    input_fingerprint,
)
from .kg import scan_extracted_stats, void_scan_record, write_ingest_state

__all__ = ["append_kg", "CanonicalDriftError"]


def _filter_new_convs(new_ds: Dataset, conv_manifest_dir: str) -> tuple[Dataset, set, set]:
    """Membership check. Returns (filtered dataset, new conv set, skipped
    conv set). The DELTA conv set is the broadcast side (a day's batch —
    small); the persisted manifest streams through a filter, so nothing
    manifest-sized ever lands on the driver or a single worker."""
    delta_convs: set[str] = set()
    for b in new_ds.select_columns(["conv_id"]).iter_batches(batch_format="pyarrow"):
        delta_convs.update(pc.unique(b["conv_id"]).to_pylist())

    delta_ref = ray.put(pa.array(sorted(delta_convs), pa.string()))

    def _hits(t: pa.Table) -> pa.Table:
        from ..util import cached_get

        want = cached_get(delta_ref)
        return t.filter(pc.is_in(t["conv_id"], value_set=want))

    skipped: set[str] = set()
    manifest = rd.read_parquet(conv_manifest_dir).map_batches(
        _hits, batch_format="pyarrow", batch_size=None, zero_copy_batch=True
    )
    for b in manifest.iter_batches(batch_format="pyarrow"):
        skipped.update(b["conv_id"].to_pylist())

    new_convs = delta_convs - skipped
    if not new_convs:
        return None, new_convs, skipped
    if not skipped:
        return new_ds, new_convs, skipped
    keep_ref = ray.put(pa.array(sorted(new_convs), pa.string()))

    def _keep(t: pa.Table) -> pa.Table:
        from ..util import cached_get

        want = cached_get(keep_ref)
        return t.filter(pc.is_in(t["conv_id"], value_set=want))

    return (
        new_ds.map_batches(_keep, batch_format="pyarrow", batch_size=None, zero_copy_batch=True),
        new_convs,
        skipped,
    )


def append_kg(
    out_dir: str,
    new_transcripts: str,
    alias_path: str | None = None,
    cfg: Config | None = None,
) -> dict:
    """Fold ``new_transcripts`` (a Parquet file/dir of conversations) into
    the KG previously built at ``out_dir`` by build_kg with incremental
    tracking on. Returns {"edges", "edges_agg", "nodes", "metrics"}."""
    cfg = cfg or Config()
    out = pathlib.Path(out_dir)
    state = out / "state"
    info_path = state / "build_info.json"
    if not info_path.exists():
        raise FileNotFoundError(
            f"{info_path} missing — run build_kg with incremental.track=true first"
        )
    info = json.loads(info_path.read_text())
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
    new_ds = rd.read_parquet(new_transcripts)
    delta, new_convs, skipped = _filter_new_convs(new_ds, str(state / "conv_ids"))
    if delta is None:
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

    # ---- 2. delta assemble + extract (resumable per append batch) ------------
    code_fp = code_fingerprint(str(pathlib.Path(__file__).resolve().parents[1]))
    batch_fp = fingerprint(
        input_fingerprint(new_transcripts), info["cmap_fp"], code_fp, sorted(new_convs)[:100]
    )
    batch_root = str(out / "append" / batch_fp)
    link_cfg = cfg.section("linking")
    asm_ckpt = StageCheckpoint(batch_root, "assembled", fingerprint(batch_fp, "assemble"))
    assembled = asm_ckpt.run(lambda: assemble_dialogues(delta))
    ext_ckpt = StageCheckpoint(batch_root, "extracted", fingerprint(batch_fp, "extract"))
    alias_table = pq.read_table(alias_path)
    extracted = ext_ckpt.run(
        lambda: link_extract(assembled, ray.put(alias_table), **link_cfg)
    )
    stats = scan_extracted_stats(extracted, collect_convs=True)()

    # ---- 3. canonical map extension + drift remap ----------------------------
    canon_cfg = cfg.section("canon")
    old_map = load_canonical_map(out, info["cmap_fp"])
    if old_map is None:
        raise FileNotFoundError(
            f"no canonical map for fingerprint {info['cmap_fp']} under {out} — "
            "the build state is inconsistent; rebuild"
        )
    old_norms = set(
        pq.read_table(state / "distinct_norms.parquet")["norm"].to_pylist()
    )
    union_norms = old_norms | stats.norms
    new_map = build_canonical_map(extracted, norms=union_norms, **canon_cfg)
    remap = canonical_remap(old_map, new_map, old_norms)

    # ---- 4. fold -------------------------------------------------------------
    # from here on the graph and the ingest state no longer match what
    # build_kg's scan record describes: a rerun of the build must rescan
    void_scan_record(out)
    new_cmap_fp = fingerprint(info["cmap_fp"], batch_fp, sorted(canon_cfg.items()))
    # consumed twice each (edge fold + agg merge / node merge): pin once
    delta_edges = materialize_edges(extracted, new_map).materialize()
    delta_nodes = materialize_nodes(extracted, new_map)

    edges_fp = fingerprint(info["edges_fp"], batch_fp, "edges+append")
    edges_ckpt = StageCheckpoint(str(out), "edges", edges_fp)
    if remap:
        # drift: the base tables reference merged-away canonicals — rewrite
        # them (tiny broadcast, dictionary-encoded) and restore per-turn key
        # uniqueness, then write a fresh checkpoint from base' + delta
        base_edges = remap_canonical_ids(edges_ckpt.read(), remap, ["subj", "obj"])
        edges_ckpt.run(lambda: reaggregate_turn_edges(base_edges.union(delta_edges)))
        base_agg = remap_canonical_ids(
            rd.read_parquet(str(out / "edges_agg")), remap, ["subj", "obj"]
        )
        base_nodes = remap_canonical_ids(
            rd.read_parquet(str(out / "nodes")), remap, ["entity_id", "canonical"]
        )
    else:
        edges_ckpt.append_parts(delta_edges, batch_fp[:8], edges_fp)
        base_agg = rd.read_parquet(str(out / "edges_agg"))
        base_nodes = rd.read_parquet(str(out / "nodes"))

    agg_fp = fingerprint(info["edges_agg_fp"], batch_fp, "edges_agg+append")
    edges_agg_ckpt = StageCheckpoint(str(out), "edges_agg", agg_fp)
    edges_agg_ckpt.run(lambda: merge_edges_agg(base_agg, delta_edges))
    nodes_fp = fingerprint(info["nodes_fp"], batch_fp, "nodes+append")
    nodes_ckpt = StageCheckpoint(str(out), "nodes", nodes_fp)
    nodes_ckpt.run(lambda: merge_nodes_agg(base_nodes, delta_nodes))

    # ---- 5. state update (same shape build_kg wrote) --------------------------
    write_ingest_state(out, f"append-{batch_fp[:8]}", stats, extracted, union_norms)
    save_canonical_map(out, new_map, new_cmap_fp)
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
        }
    )
    info_path.write_text(json.dumps(info, indent=1))

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
        "noop": False,
    }
    return {
        "edges": edges_ckpt.read(),
        "edges_agg": edges_agg_ckpt.read(),
        "nodes": nodes_ckpt.read(),
        "metrics": metrics,
        "out_dir": str(out),
    }
