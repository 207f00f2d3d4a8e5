"""Graph materialize: canonicalize + weight triples/mentions into
Parquet-ready node / edge tables.

Output schemas (SURVEY.md §1 "Graft output tables"):

    edges(subj, pred, obj, conv_id, turn_idx, weight:int64)
        weight = occurrences of the triple within the turn
    nodes(entity_id, surface, canonical, type, freq:int64)
        one row per (entity_id, surface); freq = mention count

Scale design:

- ``edges`` needs NO shuffle at all: a turn's triples live in one nested row
  of the extraction output, so the per-turn weight is computed in-batch
  during the explode, and (subj, pred, obj, conv_id, turn_idx) is unique by
  construction. Canonical-map application happens in the same pass (the map
  is broadcast once via ray.put).
- ``edges_agg`` (global triple weights) and ``nodes`` DO shuffle, but only
  after a per-batch partial aggregate (pyarrow group_by inside map_batches),
  so the exchange moves one row per distinct key per batch — the
  partial/combiner pattern the groupby guide prescribes for 100 TB inputs.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray

from ray.data import Dataset

from .. import rules
from ..util import cached_get


def _canonicalizer(cmap: dict[str, str]):
    up, cp = rules.UNKNOWN_PREFIX, rules.CANONICAL_PREFIX

    def canon(eid: str) -> str:
        if eid.startswith(up):
            norm = eid[len(up) :]
            return cp + cmap.get(norm, norm)
        return eid

    return canon


def _canon_array(arr: pa.Array, canon) -> pa.Array:
    """Vectorized canonical-map application: dictionary-encode the column
    (entity ids repeat massively), rewrite only the small dictionary in
    Python, rebuild. O(distinct ids) python work per batch, not O(rows).
    ``canon=None`` is the identity (over-budget regime: raw ids pass
    through and a distributed shuffle apply rewrites them later)."""
    if canon is None:
        if isinstance(arr, pa.ChunkedArray):
            arr = arr.combine_chunks()
        return arr
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    d = arr.dictionary_encode()
    new_dict = pa.array([canon(v) for v in d.dictionary.to_pylist()], pa.string())
    return pa.DictionaryArray.from_arrays(d.indices, new_dict).cast(pa.string())


def _edge_builder(cmap_ref):
    """Stateless task fn: nested extraction rows -> weighted per-turn edge
    rows. Fully vectorized: Arrow list-flatten + parent-index repeat,
    dictionary-encoded canonical rewrite, and an in-batch group_by for the
    per-turn weights (a turn never spans batches, so the weight is exact)."""

    def build_edges(t: pa.Table) -> pa.Table:
        import numpy as np

        # cmap_ref=None -> identity explode (raw surface: ids kept) for the
        # over-budget regime, where canonicalization happens in a later
        # distributed shuffle apply
        canon = None if cmap_ref is None else _canonicalizer(cached_get(cmap_ref))
        lst = t.column("triples")
        if isinstance(lst, pa.ChunkedArray):
            lst = lst.combine_chunks()
        flat = lst.flatten()
        lengths = lst.value_lengths().to_numpy(zero_copy_only=False).astype("int64")
        parents = pa.array(np.repeat(np.arange(len(lengths)), lengths))
        exploded = pa.table(
            {
                "row": parents,
                "subj": _canon_array(flat.field("subj"), canon),
                "pred": flat.field("pred"),
                "obj": _canon_array(flat.field("obj"), canon),
            }
        )
        g = exploded.group_by(["row", "subj", "pred", "obj"], use_threads=False).aggregate(
            [("row", "count")]
        )
        rows = g.column("row")
        return pa.table(
            {
                "subj": g.column("subj"),
                "pred": g.column("pred"),
                "obj": g.column("obj"),
                "conv_id": t.column("conv_id").take(rows),
                "turn_idx": t.column("turn_idx").take(rows),
                "weight": pa.compute.cast(g.column("row_count"), pa.int64()),
            }
        )

    return build_edges


def materialize_edges(
    extracted: Dataset, cmap: dict[str, str], broadcast_limit: int | None = None
) -> Dataset:
    """Extraction output -> per-turn weighted edges. Under the canonical-map
    broadcast budget: shuffle-free (see module docstring). Over it (round
    5): identity explode -> distributed shuffle apply of the map on
    subj/obj -> one coarse-hash re-aggregate restoring per-turn key
    uniqueness (canonicalization can merge two raw triples of one turn).
    No worker ever holds the whole map; parity-tested vs broadcast."""
    from .canon import CANON_BROADCAST_LIMIT, _apply_cmap_shuffle, canonical_map_dataset

    if broadcast_limit is None:
        broadcast_limit = CANON_BROADCAST_LIMIT
    if len(cmap) <= broadcast_limit:
        cmap_ref = ray.put(cmap)
        return extracted.map_batches(
            _edge_builder(cmap_ref),
            batch_format="pyarrow", batch_size=None,
            zero_copy_batch=True,
        )

    raw = extracted.map_batches(
        _edge_builder(None),
        batch_format="pyarrow", batch_size=None,
        zero_copy_batch=True,
    )
    canoned = _apply_cmap_shuffle(raw, canonical_map_dataset(cmap), ["subj", "obj"])
    edge_keys = ["subj", "pred", "obj", "conv_id", "turn_idx"]

    def partial(t: pa.Table) -> pa.Table:
        g = t.group_by(edge_keys, use_threads=False).aggregate([("weight", "sum")])
        g = g.rename_columns([*edge_keys, "weight"])
        return g.append_column(
            "__part", _string_key_part(g, ["subj", "pred", "obj", "conv_id"])
        )

    def final(t: pa.Table) -> pa.Table:
        g = t.group_by(edge_keys, use_threads=False).aggregate([("weight", "sum")])
        return pa.table(
            {
                **{k: g.column(k) for k in edge_keys},
                "weight": pc.cast(g.column("weight_sum"), pa.int64()),
            }
        )

    return (
        canoned.map_batches(partial, batch_format="pyarrow", batch_size=None)
        .groupby("__part")
        .map_groups(final, batch_format="pyarrow")
    )


_AGG_PARTS = 64


def _string_key_part(t: pa.Table, keys: list[str], parts: int = _AGG_PARTS) -> pa.Array:
    """Deterministic coarse partition id from string key columns (vectorized
    polars hash — no per-row Python). The exchange then shuffles on ONE small
    int column instead of sorting multi-string tuples, and the real
    aggregation happens hash-based inside each partition."""
    from ..util import polars_safe

    pl = polars_safe()
    df = pl.from_arrow(t.select(keys))
    h = (
        df.select(pl.concat_str([pl.col(k) for k in keys], separator="\x1f").hash(seed=7).alias("h"))["h"]
        .to_numpy()
        .astype(np.uint64)
    )
    return pa.array(((h >> np.uint64(33)) % np.uint64(parts)).astype(np.int64))


def materialize_edges_agg(edges: Dataset) -> Dataset:
    """Global triple weights: per-batch partial combine -> coarse
    hash-partition exchange (int key) -> in-partition hash aggregate
    (SHUFFLE #3 of SURVEY.md §3.4). A sort-based groupby on the three string
    key columns was the round-1 shape; sorting 64 ints moves the same bytes
    for a fraction of the compare cost (sf0.3/16cpus: 27.5s -> measured
    below 10s for the whole chain)."""

    def partial(t: pa.Table) -> pa.Table:
        g = t.group_by(["subj", "pred", "obj"], use_threads=False).aggregate([("weight", "sum")])
        g = g.rename_columns(["subj", "pred", "obj", "weight_sum"])
        return g.append_column("__part", _string_key_part(g, ["subj", "pred", "obj"]))

    def final(t: pa.Table) -> pa.Table:
        g = t.group_by(["subj", "pred", "obj"], use_threads=False).aggregate(
            [("weight_sum", "sum")]
        )
        return pa.table(
            {
                "subj": g.column("subj"),
                "pred": g.column("pred"),
                "obj": g.column("obj"),
                "weight": pc.cast(g.column("weight_sum_sum"), pa.int64()),
            }
        )

    return (
        edges.map_batches(partial, batch_format="pyarrow", batch_size=None, zero_copy_batch=True)
        .groupby("__part")
        .map_groups(final, batch_format="pyarrow")
    )


def _node_partial(cmap_ref):
    """Stateless task fn: nested mention rows -> per-batch partial node
    counts (canonicalized, vectorized). The shuffle then only moves distinct
    keys per batch — the partial/combiner pattern."""

    def node_partial(t: pa.Table) -> pa.Table:
        canon = None if cmap_ref is None else _canonicalizer(cached_get(cmap_ref))
        lst = t.column("mentions")
        if isinstance(lst, pa.ChunkedArray):
            lst = lst.combine_chunks()
        flat = lst.flatten()
        exploded = pa.table(
            {
                "entity_id": _canon_array(flat.field("entity_id"), canon),
                "surface": flat.field("surface"),
                "entity_type": flat.field("entity_type"),
            }
        )
        g = exploded.group_by(
            ["entity_id", "surface", "entity_type"], use_threads=False
        ).aggregate([("entity_id", "count")])
        return pa.table(
            {
                "entity_id": g.column("entity_id"),
                "surface": g.column("surface"),
                "entity_type": g.column("entity_type"),
                "n": pa.compute.cast(g.column("entity_id_count"), pa.int64()),
            }
        )

    return node_partial


def materialize_nodes(
    extracted: Dataset, cmap: dict[str, str], broadcast_limit: int | None = None
) -> Dataset:
    """Extraction output -> node rows with per-surface frequencies. Same
    coarse-hash-partition aggregate shape as materialize_edges_agg. Over
    the canonical-map broadcast budget: identity partials -> distributed
    shuffle apply on entity_id -> the same final aggregate (which already
    re-merges rows the rewrite made equal)."""
    from .canon import CANON_BROADCAST_LIMIT, _apply_cmap_shuffle, canonical_map_dataset

    if broadcast_limit is None:
        broadcast_limit = CANON_BROADCAST_LIMIT
    node_keys = ["entity_id", "surface", "entity_type"]

    if len(cmap) > broadcast_limit:
        raw = extracted.map_batches(
            _node_partial(None),
            batch_format="pyarrow", batch_size=None, zero_copy_batch=True,
        )
        applied = _apply_cmap_shuffle(
            raw, canonical_map_dataset(cmap), ["entity_id"]
        )

        def part_col(t: pa.Table) -> pa.Table:
            return t.append_column("__part", _string_key_part(t, node_keys))

        def final_dist(t: pa.Table) -> pa.Table:
            g = t.group_by(node_keys, use_threads=False).aggregate([("n", "sum")])
            canonical = pc.replace_substring_regex(
                g.column("entity_id"), pattern=r"^[a-z]+:", replacement=""
            )
            return pa.table(
                {
                    "entity_id": g.column("entity_id"),
                    "surface": g.column("surface"),
                    "canonical": canonical,
                    "type": g.column("entity_type"),
                    "freq": pc.cast(g.column("n_sum"), pa.int64()),
                }
            )

        return (
            applied.map_batches(part_col, batch_format="pyarrow", batch_size=None)
            .groupby("__part")
            .map_groups(final_dist, batch_format="pyarrow")
        )

    cmap_ref = ray.put(cmap)

    base_partial = _node_partial(cmap_ref)

    def partial(t: pa.Table) -> pa.Table:
        g = base_partial(t)
        return g.append_column("__part", _string_key_part(g, node_keys))

    def final(t: pa.Table) -> pa.Table:
        g = t.group_by(node_keys, use_threads=False).aggregate([("n", "sum")])
        canonical = pc.replace_substring_regex(
            g.column("entity_id"), pattern=r"^[a-z]+:", replacement=""
        )
        return pa.table(
            {
                "entity_id": g.column("entity_id"),
                "surface": g.column("surface"),
                "canonical": canonical,
                "type": g.column("entity_type"),
                "freq": pc.cast(g.column("n_sum"), pa.int64()),
            }
        )

    return (
        extracted.map_batches(partial, batch_format="pyarrow", batch_size=None, zero_copy_batch=True)
        .groupby("__part")
        .map_groups(final, batch_format="pyarrow")
    )


def merge_edges_agg(base_agg: Dataset, delta_edges: Dataset) -> Dataset:
    """Incremental KG update: fold a NEW batch of per-mention edges (a
    day's freshly-extracted conversations) into an existing aggregated
    triple table without rebuilding it — the continuously-updated-KG
    compaction step (kg_sharded reprocesses only new shards; this merges
    their output into the running aggregate). Returns the updated
    (subj, pred, obj, weight) table; weights are additive, so
    merge(agg(A), B) == agg(A + B) exactly — the equivalence the value
    oracle gates.

    Scale shape: the delta pre-aggregates per block (materialize_edges_agg's
    partial) and the base is ALREADY one row per triple, so the union meets
    in the same coarse int-keyed hash exchange as SHUFFLE #3; the base never
    re-aggregates per block, it only re-partitions."""

    def delta_partial(t: pa.Table) -> pa.Table:
        g = t.group_by(["subj", "pred", "obj"], use_threads=False).aggregate(
            [("weight", "sum")]
        )
        g = g.rename_columns(["subj", "pred", "obj", "weight_sum"])
        return g.append_column("__part", _string_key_part(g, ["subj", "pred", "obj"]))

    def base_partial(t: pa.Table) -> pa.Table:
        g = pa.table(
            {
                "subj": t["subj"],
                "pred": t["pred"],
                "obj": t["obj"],
                "weight_sum": pc.cast(t["weight"], pa.int64()),
            }
        )
        return g.append_column("__part", _string_key_part(g, ["subj", "pred", "obj"]))

    def final(t: pa.Table) -> pa.Table:
        g = t.group_by(["subj", "pred", "obj"], use_threads=False).aggregate(
            [("weight_sum", "sum")]
        )
        return pa.table(
            {
                "subj": g.column("subj"),
                "pred": g.column("pred"),
                "obj": g.column("obj"),
                "weight": pc.cast(g.column("weight_sum_sum"), pa.int64()),
            }
        )

    merged = base_agg.map_batches(
        base_partial, batch_format="pyarrow", batch_size=None, zero_copy_batch=True
    ).union(
        delta_edges.map_batches(
            delta_partial, batch_format="pyarrow", batch_size=None, zero_copy_batch=True
        )
    )
    return merged.groupby("__part").map_groups(final, batch_format="pyarrow")


def merge_nodes_agg(base_nodes: Dataset, delta_nodes: Dataset) -> Dataset:
    """Incremental twin of ``merge_edges_agg`` for the node table: fold a
    delta's (entity_id, surface, canonical, type, freq) rows into the base
    aggregate. Frequencies are additive, so merge(nodes(A), nodes(B)) ==
    nodes(A + B) exactly when both sides were materialized under the SAME
    canonical map (append_kg remaps the base first when the map drifted).
    Same coarse int-keyed hash exchange as materialize_nodes."""
    node_keys = ["entity_id", "surface", "type"]

    def partial(t: pa.Table) -> pa.Table:
        g = t.select([*node_keys, "freq"])
        return g.append_column("__part", _string_key_part(g, node_keys))

    def final(t: pa.Table) -> pa.Table:
        g = t.group_by(node_keys, use_threads=False).aggregate([("freq", "sum")])
        canonical = pc.replace_substring_regex(
            g.column("entity_id"), pattern=r"^[a-z]+:", replacement=""
        )
        return pa.table(
            {
                "entity_id": g.column("entity_id"),
                "surface": g.column("surface"),
                "canonical": canonical,
                "type": g.column("type"),
                "freq": pc.cast(g.column("freq_sum"), pa.int64()),
            }
        )

    merged = base_nodes.map_batches(
        partial, batch_format="pyarrow", batch_size=None, zero_copy_batch=True
    ).union(
        delta_nodes.map_batches(
            partial, batch_format="pyarrow", batch_size=None, zero_copy_batch=True
        )
    )
    return merged.groupby("__part").map_groups(final, batch_format="pyarrow")


def remap_canonical_ids(ds: Dataset, remap: dict[str, str], columns: list[str]) -> Dataset:
    """Rewrite drifted canonical entity ids (``canon:<old>`` -> ``canon:<new>``)
    in the given columns. ``remap`` is keyed/valued on BARE canonical norms
    and is tiny (one entry per drifted CLUSTER, not per norm), so a broadcast
    is always safe; the rewrite is dictionary-encoded (O(distinct ids) Python
    per batch). Also rewrites a bare ``canonical`` column if present/asked."""
    if not remap:
        return ds
    cp = rules.CANONICAL_PREFIX
    remap_ref = ray.put(dict(remap))

    def fn(t: pa.Table) -> pa.Table:
        m = cached_get(remap_ref)

        def rewrite(v: str) -> str:
            if v.startswith(cp):
                return cp + m.get(v[len(cp):], v[len(cp):])
            return v

        cols = {}
        for name in t.column_names:
            if name in columns:
                if name == "canonical":
                    # bare canonical norms (node table) — no prefix
                    arr = t.column(name)
                    if isinstance(arr, pa.ChunkedArray):
                        arr = arr.combine_chunks()
                    d = arr.dictionary_encode()
                    new_dict = pa.array(
                        [m.get(v, v) for v in d.dictionary.to_pylist()], pa.string()
                    )
                    cols[name] = pa.DictionaryArray.from_arrays(d.indices, new_dict).cast(pa.string())
                else:
                    cols[name] = _canon_array(t.column(name), rewrite)
            else:
                cols[name] = t.column(name)
        return pa.table(cols)

    return ds.map_batches(fn, batch_format="pyarrow", batch_size=None, zero_copy_batch=True)


def reaggregate_turn_edges(edges: Dataset) -> Dataset:
    """Restore per-(subj, pred, obj, conv_id, turn_idx) key uniqueness after a
    canonical remap merged two of one turn's triples (same kernel as the
    over-budget path of materialize_edges)."""
    edge_keys = ["subj", "pred", "obj", "conv_id", "turn_idx"]

    def partial(t: pa.Table) -> pa.Table:
        g = t.group_by(edge_keys, use_threads=False).aggregate([("weight", "sum")])
        g = g.rename_columns([*edge_keys, "weight"])
        return g.append_column(
            "__part", _string_key_part(g, ["subj", "pred", "obj", "conv_id"])
        )

    def final(t: pa.Table) -> pa.Table:
        g = t.group_by(edge_keys, use_threads=False).aggregate([("weight", "sum")])
        return pa.table(
            {
                **{k: g.column(k) for k in edge_keys},
                "weight": pc.cast(g.column("weight_sum"), pa.int64()),
            }
        )

    return (
        edges.map_batches(partial, batch_format="pyarrow", batch_size=None, zero_copy_batch=True)
        .groupby("__part")
        .map_groups(final, batch_format="pyarrow")
    )


def incremental_update_by_conv(
    edges: Dataset, parts: int = 4, delta_part: int = 0
) -> Dataset:
    """Equivalence harness for ``merge_edges_agg``: deterministically carve
    the per-mention edge table into a BASE corpus and a DELTA "new day"
    (md5-60bit(conv_id) % parts == delta_part — the engine's digest
    partitioner, so the split is reproducible anywhere), batch-aggregate
    the base, then fold the delta in incrementally. Because triple weights
    are additive, the result must equal the one-shot aggregate of ALL
    edges — which is exactly what the value oracle checks."""
    import hashlib

    def split(t: pa.Table, want_delta: bool) -> pa.Table:
        convs = t["conv_id"].to_numpy(zero_copy_only=False)
        u, inv = np.unique(convs, return_inverse=True)
        m = np.fromiter(
            (int(hashlib.md5(c.encode()).hexdigest()[:15], 16) % parts for c in u),
            np.int64,
            len(u),
        )
        mask = pa.array((m[inv] == delta_part) == want_delta)
        return t.filter(mask)

    base = edges.map_batches(
        lambda t: split(t, False), batch_format="pyarrow", batch_size=None
    )
    delta = edges.map_batches(
        lambda t: split(t, True), batch_format="pyarrow", batch_size=None
    )
    return merge_edges_agg(materialize_edges_agg(base), delta)
