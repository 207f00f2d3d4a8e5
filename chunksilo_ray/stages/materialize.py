"""Graph materialize: canonicalize + weight triples/mentions into
Parquet-ready node / edge tables.

Output schemas (SURVEY.md §1 "Graft output tables"):

    edges(subj, pred, obj, conv_id, turn_idx, weight:int64)
        weight = occurrences of the triple within the turn
    edges_agg(subj, pred, obj, weight:int64)
        weight = occurrences of the triple in the corpus
    nodes(entity_id, surface, canonical, type, freq:int64)
        one row per (entity_id, surface); freq = mention count

Scale design:

- ``edges`` needs NO shuffle at all: a turn's triples live in one nested row
  of the extraction output, so the per-turn weight is computed in-batch
  during the explode, and (subj, pred, obj, conv_id, turn_idx) is unique by
  construction. Canonical-map application happens in the same pass.
- ``edges_agg`` (global triple weights) and ``nodes`` DO shuffle: a
  per-block partial keyed sum, split by ``exchange.part_ids`` of the key,
  then a per-part final sum, so the exchange moves one row per distinct key
  per block.
- The build takes all three from ``materialize_graph``: ONE two-round Ray
  task graph over the pinned extracted blocks (of every shard, when the
  build's input is a list of shards: the graph takes a list of block refs,
  so the shards need no ``Dataset.union``). A map task per block runs
  the explode once and returns the block's per-turn edges plus its triple
  and mention partials, each split by part; a reduce task per (part, kind)
  finishes the sum. No Ray Data execution and no sort: per-task memory is
  O(block) on the map side and O(part) on the reduce side, and the driver
  holds only refs.
- The map's size picks only how a map task gets its id rewrite, never
  which program runs. Within ``CANON_BROADCAST_LIMIT`` entries the map is
  broadcast once (``ray.put``). Past it no worker may hold the map, so a
  lookup round runs in front of the graph, in the forward / backward shape
  of ``assemble``'s attach: one task per block sends the block's distinct
  placeholder norms forward by ``part_ids(norm)``; lookup task p probes
  part p of the map (cut on the driver by the same split) and sends each
  block back the entries it asked for. Per-task memory is O(map / P +
  block norms).
- Part p of the edges_agg / nodes that graph writes holds the keys with
  ``part_ids(key, P) == p``, at every map size. An append runs the same
  graph over the delta's blocks with the base's P (``base``): reduce task
  p also sums base part p, so the new version keeps the layout and P.
- ``_keyed_sum`` (a per-batch partial aggregate, then one
  ``exchange.map_partitions``) is the kernel of the ``kg_incremental_update``
  query's ``merge_edges_agg``.
"""

from __future__ import annotations

import os
import pathlib
from functools import partial

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray
import ray.data as rd
from ray.data import Dataset

from .. import rules
from ..exchange import PARTS, map_partitions, part_ids, split_by_part, split_rows
from ..state.manifest import part_file
from ..util import cached_get
from .canon import _canonical_map_table, canonicalize_id

# an open-ended 100-TB entity vocabulary can outgrow a per-worker map
# replica; past this entry count the graph's map tasks get only the entries
# their block names, from a per-part lookup round (nothing map-sized on any
# worker)
CANON_BROADCAST_LIMIT = 5_000_000

# keyed-sum schemas: the key columns, then the summed column
_EDGE_SUM = pa.schema(
    [
        ("subj", pa.string()),
        ("pred", pa.string()),
        ("obj", pa.string()),
        ("conv_id", pa.string()),
        ("turn_idx", pa.int32()),
        ("weight", pa.int64()),
    ]
)
_TRIPLE_SUM = pa.schema(
    [("subj", pa.string()), ("pred", pa.string()), ("obj", pa.string()), ("weight", pa.int64())]
)
_NODE_SUM = pa.schema(
    [
        ("entity_id", pa.string()),
        ("surface", pa.string()),
        ("type", pa.string()),
        ("freq", pa.int64()),
    ]
)
_NORMS = pa.schema([("norm", pa.string())])


def _combined(arr):
    return arr.combine_chunks() if isinstance(arr, pa.ChunkedArray) else arr


def _canon_array(arr: pa.Array, canon) -> pa.Array:
    """Vectorized canonical-map application: dictionary-encode the column
    (entity ids repeat massively), rewrite only the small dictionary in
    Python, rebuild. O(distinct ids) python work per batch, not O(rows)."""
    d = _combined(arr).dictionary_encode()
    new_dict = pa.array([canon(v) for v in d.dictionary.to_pylist()], pa.string())
    return pa.DictionaryArray.from_arrays(d.indices, new_dict).cast(pa.string())


def turn_edges(t: pa.Table, canon) -> pa.Table:
    """Nested extraction rows -> weighted per-turn edge rows, ids rewritten
    by ``canon``. Fully vectorized: Arrow list-flatten + parent-index
    repeat, dictionary-encoded canonical rewrite, and an in-table group_by
    for the per-turn weights (a turn never spans batches, so the weight is
    exact)."""
    lst = _combined(t.column("triples"))
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
            "weight": pc.cast(g.column("row_count"), pa.int64()),
        }
    )


def sum_by_key(t: pa.Table, schema: pa.Schema) -> pa.Table:
    """In-table keyed sum: the last column of ``schema`` summed per distinct
    key (the other columns); other columns of ``t`` are dropped."""
    *keys, value = schema.names
    g = t.group_by(keys, use_threads=False).aggregate([(value, "sum")])
    return pa.table({**{k: g[k] for k in keys}, value: pc.cast(g[f"{value}_sum"], pa.int64())})


def _keyed_sum(inputs: list[Dataset], schema: pa.Schema) -> Dataset:
    """The keyed-sum exchange of ``merge_edges_agg``: sum the last column
    of ``schema`` per distinct key (the other columns) over the union of
    ``inputs``. Each block first combines its own rows, so the ``__part``
    exchange moves one row per distinct key per block (the partial/combiner
    pattern the groupby guide prescribes for 100 TB inputs); the final sum
    is a hash aggregate inside each part."""
    keys = schema.names[:-1]

    def keyed_sum(t: pa.Table) -> pa.Table:
        return sum_by_key(t, schema)

    def combine(t: pa.Table) -> pa.Table:
        g = keyed_sum(t)
        return g.append_column("__part", part_ids(g, keys))

    tagged = [
        ds.map_batches(combine, batch_format="pyarrow", batch_size=None, zero_copy_batch=True)
        for ds in inputs
    ]
    merged = tagged[0].union(*tagged[1:]) if len(tagged) > 1 else tagged[0]
    return map_partitions(merged, "__part", keyed_sum)


def materialize_edges_agg(edges: Dataset) -> Dataset:
    """Global triple weights (subj, pred, obj, weight): the keyed sum of the
    per-turn edges. Partitioning on a coarse int key moves the same bytes as
    a sort-based groupby on the three string columns for a fraction of the
    compare cost (sf0.3/16cpus: 27.5s -> below 10s for the whole chain)."""
    return _keyed_sum([edges], _TRIPLE_SUM)


def mention_counts(t: pa.Table, canon) -> pa.Table:
    """Nested mention rows -> partial node counts (entity_id, surface,
    type, freq), ids rewritten by ``canon``, vectorized."""
    flat = _combined(t.column("mentions")).flatten()
    exploded = pa.table(
        {
            "entity_id": _canon_array(flat.field("entity_id"), canon),
            "surface": flat.field("surface"),
            "type": flat.field("entity_type"),
        }
    )
    g = exploded.group_by(["entity_id", "surface", "type"], use_threads=False).aggregate(
        [("entity_id", "count")]
    )
    return pa.table(
        {
            "entity_id": g.column("entity_id"),
            "surface": g.column("surface"),
            "type": g.column("type"),
            "freq": pc.cast(g.column("entity_id_count"), pa.int64()),
        }
    )


def node_rows(t: pa.Table) -> pa.Table:
    """Summed (entity_id, surface, type, freq) counts -> node rows: the bare
    ``canonical`` norm is the entity id without its ``kind:`` prefix."""
    return pa.table(
        {
            "entity_id": t["entity_id"],
            "surface": t["surface"],
            "canonical": pc.replace_substring_regex(
                t["entity_id"], pattern=r"^[a-z]+:", replacement=""
            ),
            "type": t["type"],
            "freq": t["freq"],
        }
    )


def _block_norms(block: pa.Table, parts: int):
    """Forward side of the lookup round for one extracted block: the
    distinct norms of its placeholder ids (``subj`` / ``obj`` of its
    triples, ``entity_id`` of its mentions), split into ``parts`` slices by
    ``part_ids`` of the norm."""
    norms = _NORMS.empty_table()
    if block.num_rows:  # a 0-row block may carry no columns at all
        triples = _combined(block.column("triples")).flatten()
        mentions = _combined(block.column("mentions")).flatten()
        ids = pc.unique(pa.concat_arrays([
            pc.cast(a, pa.string())
            for a in (triples.field("subj"), triples.field("obj"), mentions.field("entity_id"))
        ]))
        ids = ids.filter(pc.starts_with(ids, rules.UNKNOWN_PREFIX))
        norms = pa.table({"norm": pc.utf8_slice_codeunits(ids, len(rules.UNKNOWN_PREFIX))})
    slices = split_by_part(norms, ["norm"], parts)
    return slices if parts > 1 else slices[0]


def _lookup_part(n_blocks: int, cmap_part: pa.Table, *asked: pa.Table):
    """Lookup task of one part: for each of the ``n_blocks`` blocks, the
    (norm, canonical) rows of ``cmap_part`` (this part of the canonical
    map) whose norm that block's slice in ``asked`` names."""
    norms = pa.concat_tables(asked)["norm"]
    block = np.repeat(np.arange(n_blocks), [t.num_rows for t in asked])
    idx = _combined(pc.index_in(norms, value_set=_combined(cmap_part["norm"])))
    hit = pc.is_valid(idx)
    found = pa.table({
        "norm": norms.filter(hit),
        "canonical": cmap_part["canonical"].take(idx.filter(hit)),
    })
    slices = split_rows(found, block[hit.to_numpy(zero_copy_only=False)], n_blocks)
    return slices if n_blocks > 1 else slices[0]


def _lookup_round(blocks: list, cmap: dict[str, str], parts: int) -> list[list]:
    """The canonical-map entries each block's ids name, with no worker
    holding the map: item [b][p] is the ref of the rows of map part p that
    block b asked for. The driver cuts the map with the split the blocks'
    norms take, so lookup task p sees every norm of part p."""
    n_blocks = len(blocks)
    if not n_blocks:
        return []
    norms_task = ray.remote(num_returns=parts)(_block_norms) if parts > 1 \
        else ray.remote(_block_norms)
    lookup_task = ray.remote(num_returns=n_blocks)(_lookup_part) if n_blocks > 1 \
        else ray.remote(_lookup_part)
    asked = [norms_task.remote(b, parts) for b in blocks]
    if parts == 1:
        asked = [[a] for a in asked]
    cmap_parts = split_by_part(_canonical_map_table(cmap), ["norm"], parts)
    found = [
        lookup_task.remote(n_blocks, ray.put(cmap_parts[p]), *[a[p] for a in asked])
        for p in range(parts)
    ]
    if n_blocks == 1:
        found = [[f] for f in found]
    return [[found[p][b] for p in range(parts)] for b in range(n_blocks)]


def _graph_map(block: pa.Table, parts: int, cmap_ref: list, *found: pa.Table):
    """Map round of ``materialize_graph`` for one extracted block: its
    per-turn edges, then ``parts`` slices of its triple sums and ``parts``
    slices of its mention counts. The ids are rewritten through the
    broadcast canonical map whose ref ``cmap_ref`` holds (inside a list, so
    Ray passes the ref itself and the worker's map memo keys on it) or,
    where ``cmap_ref`` is empty, through the entries the lookup round found
    for this block (``found``, one table per part)."""
    if block.num_rows == 0:  # may carry no columns at all
        return [_EDGE_SUM.empty_table()] * (1 + 2 * parts)
    if cmap_ref:
        cmap = cached_get(cmap_ref[0])
    else:
        hits = pa.concat_tables(found)
        cmap = dict(zip(hits["norm"].to_pylist(), hits["canonical"].to_pylist()))
    canon = partial(canonicalize_id, cmap=cmap)
    edges = turn_edges(block, canon)
    triples = split_by_part(sum_by_key(edges, _TRIPLE_SUM), _TRIPLE_SUM.names[:-1], parts)
    counts = split_by_part(mention_counts(block, canon), _NODE_SUM.names[:-1], parts)
    return [edges, *triples, *counts]


def _graph_reduce(nodes: bool, base_part: str | None, *slices: pa.Table) -> pa.Table:
    """Reduce round of ``materialize_graph``: one part's slices of the
    triple sums (``nodes=False``) or mention counts, and the base's part
    file ``base_part`` if there is one (an empty part has no file), summed
    per key; node counts become node rows."""
    schema = _NODE_SUM if nodes else _TRIPLE_SUM
    if base_part is not None and os.path.exists(base_part):
        slices = (pq.read_table(base_part, columns=schema.names).cast(schema), *slices)
    live = [t for t in slices if t.num_rows]
    summed = sum_by_key(pa.concat_tables(live), schema) if live else schema.empty_table()
    return node_rows(summed) if nodes else summed


def graph_parts(extracted: Dataset) -> int:
    """The part count P of the edges_agg and nodes that ``materialize_graph``
    makes of the materialized ``extracted``, where part p holds the keys
    with ``part_ids(key, P) == p``."""
    return max(1, min(PARTS, extracted.num_blocks()))


def materialize_graph(
    extracted: Dataset,
    cmap: dict[str, str],
    base: tuple[pathlib.Path, int] | None = None,
) -> tuple[Dataset, Dataset, Dataset]:
    """Extraction output -> (edges, edges_agg, nodes) under ``cmap``, each
    a materialized dataset: one two-round task graph over the pinned
    blocks (module docstring) with ``min(PARTS, blocks)`` parts, so edges
    has one block per extracted block and edges_agg and nodes one per part.
    Past ``CANON_BROADCAST_LIMIT`` map entries a lookup round
    (``_lookup_round``) hands each map task the entries its block names in
    place of the broadcast map.

    ``base`` = (out dir, P) folds ``extracted`` (an append's delta) into
    the edges_agg and nodes checkpoints there, laid out in P parts
    (``graph_parts``): the graph runs with P parts, and reduce task p also
    sums the base's part p, so edges_agg and nodes are the new versions of
    those tables; edges is the delta's own."""
    blocks = list(extracted.to_arrow_refs())
    parts = base[1] if base else max(1, min(PARTS, len(blocks)))

    def base_part(table: str, p: int) -> str | None:
        return None if base is None else str(base[0] / table / part_file(p))

    if len(cmap) <= CANON_BROADCAST_LIMIT:
        cmap_ref = [ray.put(cmap)]
        rewrites = [[cmap_ref]] * len(blocks)
    else:
        rewrites = [[[], *found] for found in _lookup_round(blocks, cmap, parts)]
    map_task = ray.remote(num_returns=1 + 2 * parts)(_graph_map)
    mapped = [map_task.remote(b, parts, *r) for b, r in zip(blocks, rewrites)]
    reduce_task = ray.remote(_graph_reduce)
    agg = [
        reduce_task.remote(False, base_part("edges_agg", p), *[m[1 + p] for m in mapped])
        for p in range(parts)
    ]
    nodes = [
        reduce_task.remote(True, base_part("nodes", p), *[m[1 + parts + p] for m in mapped])
        for p in range(parts)
    ]
    edges = [m[0] for m in mapped] or [ray.put(_EDGE_SUM.empty_table())]
    return rd.from_arrow_refs(edges), rd.from_arrow_refs(agg), rd.from_arrow_refs(nodes)


def merge_edges_agg(base_agg: Dataset, delta_edges: Dataset) -> Dataset:
    """Incremental KG update: fold a NEW batch of per-mention edges (a
    day's freshly-extracted conversations) into an existing aggregated
    triple table without rebuilding it, in one exchange (the
    ``kg_incremental_update`` query; ``append_kg`` folds with
    ``materialize_graph``'s ``base`` instead). Returns the updated
    (subj, pred, obj, weight) table; weights are additive, so
    merge(agg(A), B) == agg(A + B) exactly — the equivalence the value
    oracle gates. The base is already one row per triple, so its blocks
    only re-partition into the same exchange as ``materialize_edges_agg``."""
    return _keyed_sum([base_agg, delta_edges], _TRIPLE_SUM)


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
