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
  construction. Canonical-map application happens in the same pass (the map
  is broadcast once via ray.put).
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
- Part p of the edges_agg / nodes that graph writes holds the keys with
  ``part_ids(key, P) == p``. An append runs the same graph over the
  delta's blocks with the base's P (``base``): reduce task p also sums
  base part p, so the new version keeps the layout and P.
- Past ``CANON_BROADCAST_LIMIT`` canonical-map entries no worker may hold
  the map, and the three tables come from ``materialize_edges`` (shuffle
  apply of the map), ``materialize_edges_agg`` and ``materialize_nodes``,
  which run one keyed-sum kernel (``_keyed_sum``): a per-batch partial
  aggregate, then one ``exchange.map_partitions``.
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

from ..exchange import PARTS, map_partitions, part_ids, split_by_part
from ..state.manifest import part_file
from ..util import cached_get
from .canon import (
    CANON_BROADCAST_LIMIT,
    _apply_cmap_shuffle,
    canonical_map_dataset,
    canonicalize_id,
)

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


def _canon_of(cmap_ref):
    """The id rewrite of a broadcast canonical map; ``None`` (the identity)
    for ``cmap_ref=None``."""
    return None if cmap_ref is None else partial(canonicalize_id, cmap=cached_get(cmap_ref))


def turn_edges(t: pa.Table, canon) -> pa.Table:
    """Nested extraction rows -> weighted per-turn edge rows, ids rewritten
    by ``canon`` (None keeps raw ids: the over-budget regime canonicalizes
    in a later distributed shuffle apply). Fully vectorized: Arrow
    list-flatten + parent-index repeat, dictionary-encoded canonical
    rewrite, and an in-table group_by for the per-turn weights (a turn
    never spans batches, so the weight is exact)."""
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
            "weight": pc.cast(g.column("row_count"), pa.int64()),
        }
    )


def _edge_builder(cmap_ref):
    """Stateless task fn: ``turn_edges`` under a broadcast canonical map."""

    def build_edges(t: pa.Table) -> pa.Table:
        return turn_edges(t, _canon_of(cmap_ref))

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
    return reaggregate_turn_edges(
        _apply_cmap_shuffle(raw, canonical_map_dataset(cmap), ["subj", "obj"])
    )


def sum_by_key(t: pa.Table, schema: pa.Schema) -> pa.Table:
    """In-table keyed sum: the last column of ``schema`` summed per distinct
    key (the other columns); other columns of ``t`` are dropped."""
    *keys, value = schema.names
    g = t.group_by(keys, use_threads=False).aggregate([(value, "sum")])
    return pa.table({**{k: g[k] for k in keys}, value: pc.cast(g[f"{value}_sum"], pa.int64())})


def _keyed_sum(inputs: list[Dataset], schema: pa.Schema) -> Dataset:
    """The one aggregate kernel of the KG tables: sum the last column of
    ``schema`` per distinct key (the other columns) over the union of
    ``inputs``. Each block first combines its own rows, so the ``__part``
    exchange moves one row per distinct key per block (the partial/combiner
    pattern the groupby guide prescribes for 100 TB inputs); the final sum
    is a hash aggregate inside each part (SHUFFLE #3 of SURVEY.md §3.4)."""
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
    type, freq), ids rewritten by ``canon`` (None keeps raw ids),
    vectorized."""
    lst = t.column("mentions")
    if isinstance(lst, pa.ChunkedArray):
        lst = lst.combine_chunks()
    flat = lst.flatten()
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


def _node_partial(cmap_ref):
    """Stateless task fn: ``mention_counts`` under a broadcast canonical map."""

    def node_partial(t: pa.Table) -> pa.Table:
        return mention_counts(t, _canon_of(cmap_ref))

    return node_partial


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


def _node_rows(counts: Dataset) -> Dataset:
    return counts.map_batches(
        node_rows, batch_format="pyarrow", batch_size=None, zero_copy_batch=True
    )


def node_counts(
    extracted: Dataset, cmap: dict[str, str], broadcast_limit: int | None = None
) -> Dataset:
    """Extraction output -> per-batch partial node counts (entity_id,
    surface, type, freq) under ``cmap``. Over the canonical-map broadcast
    budget the counts are taken on raw ids and the map is applied by a
    distributed shuffle (rows the rewrite made equal re-merge in the keyed
    sum that consumes the counts)."""
    if broadcast_limit is None:
        broadcast_limit = CANON_BROADCAST_LIMIT
    if len(cmap) > broadcast_limit:
        return _apply_cmap_shuffle(
            extracted.map_batches(
                _node_partial(None), batch_format="pyarrow", batch_size=None, zero_copy_batch=True
            ),
            canonical_map_dataset(cmap),
            ["entity_id"],
        )
    return extracted.map_batches(
        _node_partial(ray.put(cmap)),
        batch_format="pyarrow", batch_size=None, zero_copy_batch=True,
    )


def materialize_nodes(
    extracted: Dataset, cmap: dict[str, str], broadcast_limit: int | None = None
) -> Dataset:
    """Extraction output -> node rows with per-surface frequencies: the
    keyed sum of the per-batch mention counts (``node_counts``)."""
    return _node_rows(_keyed_sum([node_counts(extracted, cmap, broadcast_limit)], _NODE_SUM))


def _graph_map(block: pa.Table, cmap_ref: list, parts: int):
    """Map round of ``materialize_graph`` for one extracted block: its
    per-turn edges, then ``parts`` slices of its triple sums and ``parts``
    slices of its mention counts. ``cmap_ref`` holds the canonical map's
    ref (inside a list, so Ray passes the ref itself and the worker's map
    memo keys on it)."""
    if block.num_rows == 0:  # may carry no columns at all
        return [_EDGE_SUM.empty_table()] * (1 + 2 * parts)
    canon = _canon_of(cmap_ref[0])
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


def graph_parts(extracted: Dataset, cmap: dict[str, str]) -> int | None:
    """The part count P of the edges_agg and nodes that ``materialize_graph``
    makes of the materialized ``extracted`` under ``cmap``, where part p
    holds the keys with ``part_ids(key, P) == p``; None past the broadcast
    budget, where an exchange lays the parts out."""
    if len(cmap) > CANON_BROADCAST_LIMIT:
        return None
    return max(1, min(PARTS, extracted.num_blocks()))


def materialize_graph(
    extracted: Dataset,
    cmap: dict[str, str],
    broadcast_limit: int | None = None,
    base: tuple[pathlib.Path, int] | None = None,
) -> tuple[Dataset, Dataset, Dataset]:
    """Extraction output -> (edges, edges_agg, nodes) under ``cmap``, each
    a materialized dataset. Under the canonical-map broadcast budget: one
    two-round task graph over the pinned blocks (module docstring) with
    ``min(PARTS, blocks)`` parts, so edges has one block per extracted
    block and edges_agg and nodes one per part. Over it:
    ``materialize_edges`` (shuffle apply of the map),
    ``materialize_edges_agg`` of its result and ``materialize_nodes``.

    ``base`` = (out dir, P) folds ``extracted`` (an append's delta, under a
    ``cmap`` within the budget) into the edges_agg and nodes checkpoints
    there, laid out in P parts (``graph_parts``): the graph runs with P
    parts, and reduce task p also sums the base's part p, so edges_agg and
    nodes are the new versions of those tables; edges is the delta's own."""
    if broadcast_limit is None:
        broadcast_limit = CANON_BROADCAST_LIMIT
    if base is None and len(cmap) > broadcast_limit:
        edges = materialize_edges(extracted, cmap, broadcast_limit).materialize()
        return (
            edges,
            materialize_edges_agg(edges).materialize(),
            materialize_nodes(extracted, cmap, broadcast_limit).materialize(),
        )
    blocks = list(extracted.to_arrow_refs())
    parts = base[1] if base else max(1, min(PARTS, len(blocks)))

    def base_part(table: str, p: int) -> str | None:
        return None if base is None else str(base[0] / table / part_file(p))

    cmap_ref = [ray.put(cmap)]
    map_task = ray.remote(num_returns=1 + 2 * parts)(_graph_map)
    mapped = [map_task.remote(b, cmap_ref, parts) for b in blocks]
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


def reaggregate_turn_edges(edges: Dataset) -> Dataset:
    """Restore per-(subj, pred, obj, conv_id, turn_idx) key uniqueness after a
    canonical rewrite merged two of one turn's triples."""
    return _keyed_sum([edges], _EDGE_SUM)


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
