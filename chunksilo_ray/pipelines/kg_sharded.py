"""Partition-level (per-shard) KG construction with global canonicalization.

The scale deployment shape: the 10^12-turn corpus arrives as many Parquet
shards, each holding complete conversations (conversations never span
shards — the standard layout for conversation logs, and the partitioning
assumption this pipeline documents and relies on). Each shard owns its own
checkpoint directory + lineage manifests, so:

- a killed job resumes at SHARD granularity (finished shards are skipped
  by fingerprint, not recomputed);
- adding new shards reprocesses only the new shards (incremental ingest —
  the reference's new/modified/deleted semantics at partition level);
- entity canonicalization stays GLOBALLY consistent: the canonical map is
  built once over the distinct unknown norms of every shard (their union is
  still vocabulary-sized), then applied per shard — two shards can never
  disagree on an entity's canonical id.

Phases:
  1. per shard:  assemble -> extract            [ckpt: shards/<name>/...]
  2. global:     distinct norms -> canonical map [saved once, fingerprint =
                                                  all shard extract fps]
  3. per shard:  edges materialize (global map)  [ckpt]
  4. global:     edges_agg + nodes over the union of shards [ckpt]
"""

from __future__ import annotations

import pathlib

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


def _resolve_shards(transcripts: str | list[str]) -> list[str]:
    if isinstance(transcripts, list):
        return sorted(transcripts)
    p = pathlib.Path(transcripts)
    if p.is_dir():
        return sorted(str(f) for f in p.glob("*.parquet"))
    return [str(p)]


def _union(ckpts: list[StageCheckpoint]) -> Dataset:
    ds: Dataset | None = None
    for ck in ckpts:
        d = ck.read()
        ds = d if ds is None else ds.union(d)
    return ds


def build_kg_sharded(
    transcripts: str | list[str],
    alias_path: str,
    out_dir: str,
    cfg: Config | None = None,
) -> dict:
    """Run (or resume) sharded KG construction. ``transcripts`` is a
    directory of Parquet shards, a list of files, or a single file."""
    cfg = cfg or Config()
    out = pathlib.Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    shards = _resolve_shards(transcripts)
    if not shards:
        raise ValueError(f"no parquet shards under {transcripts!r}")

    code_fp = code_fingerprint(str(pathlib.Path(__file__).resolve().parents[1]))
    alias_fp = input_fingerprint(alias_path)
    alias_table = pq.read_table(alias_path)
    link_cfg = cfg.section("linking")
    canon_cfg = cfg.section("canon")

    # ---- phase 1: per-shard assemble + extract ------------------------------
    shard_ckpts: list[tuple[str, StageCheckpoint]] = []
    for path in shards:
        name = pathlib.Path(path).stem
        shard_root = str(out / "shards" / name)
        base_fp = fingerprint(input_fingerprint(path), alias_fp, code_fp)
        asm_fp = fingerprint(base_fp, "assemble")
        asm_ckpt = StageCheckpoint(shard_root, "assembled", asm_fp)
        assembled = asm_ckpt.run(
            lambda p=path: assemble_dialogues(rd.read_parquet(p))
        )
        ext_fp = fingerprint(asm_fp, "extract", sorted(link_cfg.items()))
        ext_ckpt = StageCheckpoint(shard_root, "extracted", ext_fp)
        ext_ckpt.run(
            lambda a=assembled: link_extract(a, ray.put(alias_table), **link_cfg)
        )
        shard_ckpts.append((name, ext_ckpt))
    ext_ckpts = [ck for _, ck in shard_ckpts]

    # ---- phase 2: GLOBAL canonical map --------------------------------------
    all_ext_fp = fingerprint([ck.fp for ck in ext_ckpts], sorted(canon_cfg.items()))
    cmap = load_canonical_map(out, all_ext_fp)
    if cmap is None:
        cmap = build_canonical_map(_union(ext_ckpts), **canon_cfg)
        save_canonical_map(out, cmap, all_ext_fp)

    # ---- phase 3: per-shard edges with the global map -----------------------
    edge_dirs: list[StageCheckpoint] = []
    for name, ext_ckpt in shard_ckpts:
        shard_root = str(out / "shards" / name)
        edges_fp = fingerprint(ext_ckpt.fp, "edges", all_ext_fp)
        e_ckpt = StageCheckpoint(shard_root, "edges", edges_fp)
        e_ckpt.run(lambda ck=ext_ckpt: materialize_edges(ck.read(), cmap))
        edge_dirs.append(e_ckpt)

    # ---- phase 4: global aggregates over the shard union --------------------
    agg_fp = fingerprint([c.fp for c in edge_dirs], "edges_agg")
    agg_ckpt = StageCheckpoint(str(out), "edges_agg", agg_fp)
    edges_agg = agg_ckpt.run(lambda: materialize_edges_agg(_union(edge_dirs)))

    nodes_fp = fingerprint([ck.fp for ck in ext_ckpts], all_ext_fp, "nodes")
    nodes_ckpt = StageCheckpoint(str(out), "nodes", nodes_fp)
    nodes = nodes_ckpt.run(lambda: materialize_nodes(_union(ext_ckpts), cmap))

    edges = _union(edge_dirs)
    metrics = {
        "shards": len(shards),
        "edges": sum((c.manifest() or {}).get("rows", 0) for c in edge_dirs),
        "edges_agg": (agg_ckpt.manifest() or {}).get("rows"),
        "nodes": (nodes_ckpt.manifest() or {}).get("rows"),
        "canonical_merges": len(cmap),
    }
    return {
        "edges": edges,
        "edges_agg": edges_agg,
        "nodes": nodes,
        "metrics": metrics,
        "out_dir": str(out),
        "shard_names": [n for n, _ in shard_ckpts],
    }
