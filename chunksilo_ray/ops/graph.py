"""Distributed connected components over an edge-list Dataset.

The dedup clustering ops (minhash / ngram near-dup groups) need the
connected components of their verified-pair graphs. The default driver-side
union-find is fine while verified edges stay vocabulary-bounded, but at
100 TB a pathological corpus (template spam, boilerplate farms) can produce
an edge list that should never be collected to one process. This module is
the scale path: iterated min-label propagation expressed entirely in Ray
Data — per round, every node sends its current label to its neighbors and
takes the min of what it hears; labels only ever decrease, so the global
label sum is a monotone convergence witness. O(component diameter) rounds,
each round two key exchanges over (edges + labels); no driver state at all.

Classic formulation (public literature: hash-min / label propagation for
MapReduce-style CC). Per-round work is vectorized: the co-grouped partition
function is numpy searchsorted over sorted label rows — no per-node Python.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data as rd
from ray.data import Dataset
from ray.data.aggregate import Count, Max, Min, Sum

from ..exchange import map_partitions, part_ids

def _sym_with_part(edges: Dataset, a: str, b: str) -> Dataset:
    """Symmetrize (each undirected edge becomes two directed rows) and tag
    each row with the coarse partition of its source node."""

    def sym(t: pa.Table) -> pa.Table:
        aa = t[a].to_numpy(zero_copy_only=False).astype(np.int64)
        bb = t[b].to_numpy(zero_copy_only=False).astype(np.int64)
        node = np.concatenate([aa, bb])
        neigh = np.concatenate([bb, aa])
        return pa.table(
            {
                "node": pa.array(node, pa.int64()),
                "neighbor": pa.array(neigh, pa.int64()),
                "__part": part_ids(node),
            }
        )

    return edges.map_batches(sym, batch_format="pyarrow", batch_size=None, zero_copy_batch=True)


# edge budget for the driver fast path: 16 B/edge -> ~32 MB at the default,
# and a path-compressed union-find folds it in well under the distributed
# iteration's fixed cost (each label round is 2 executor spins; measured
# 4.0 s for a 477-edge graph at 32 cpus — ALL fixed cost)
CC_DRIVER_EDGE_BUDGET = 2_000_000


def connected_components(
    edges: Dataset,
    a: str = "a",
    b: str = "b",
    max_rounds: int = 50,
    driver_budget: int = CC_DRIVER_EDGE_BUDGET,
) -> Dataset:
    """Dataset of (node, component) for every node in ``edges``; component =
    the smallest node id reachable from it. Node ids must be non-negative
    int64 (-1 is the internal tagged-union sentinel).

    Scale shape — the repo's standard budget split (broadcast_inner_join
    pattern): a verified-dup graph is usually TINY (hundreds of edges at
    sf0.1), and the distributed iteration pays ~2 executor spins per round
    regardless of size, so under ``driver_budget`` edges the components are
    folded on the driver with a path-compressed union-find (numeric-min
    representatives — identical contract, parity-gated in tests). Past the
    budget — the template-spam corpus whose dup graph outgrows one process —
    it switches to the fully distributed min-label propagation below, where
    nothing is ever collected to the driver: per round, a tagged union of
    (edge rows, label rows) is exchanged on the source node's coarse
    partition, each partition vectorizes "look up my label, address it to
    my neighbors", and a Min aggregate per target node produces the next
    label table. Converged when the (monotone non-increasing) label sum
    stops moving."""
    sym = _sym_with_part(edges, a, b).materialize()
    n_sym = sym.count()
    if n_sym == 0:
        return rd.from_arrow(
            pa.table({"node": pa.array([], pa.int64()), "component": pa.array([], pa.int64())})
        )
    if driver_budget > 0 and n_sym <= 2 * driver_budget:  # sym = 2 rows/edge
        return _cc_driver(sym)

    # round 0 labels: label(x) = min(x, min neighbor) straight off the edge
    # table — one aggregate instead of a full propagate round
    labels = (
        sym.groupby("node")
        .aggregate(Min("neighbor", alias_name="label"))
        .map_batches(
            lambda t: pa.table(
                {
                    "node": t["node"],
                    "label": pc.min_element_wise(t["node"], t["label"]),
                }
            ),
            batch_format="pyarrow",
            batch_size=None,
        )
        .materialize()
    )
    prev_sum = labels.sum("label")

    def tag_edges(t: pa.Table) -> pa.Table:
        n = t.num_rows
        return pa.table(
            {
                "node": t["node"],
                "neighbor": t["neighbor"],
                "label": pa.array(np.full(n, -1), pa.int64()),
                "__part": t["__part"],
            }
        )

    def tag_labels(t: pa.Table) -> pa.Table:
        n = t.num_rows
        node = t["node"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "node": pa.array(node, pa.int64()),
                "neighbor": pa.array(np.full(n, -1), pa.int64()),
                "label": t["label"].cast(pa.int64()),
                "__part": part_ids(node),
            }
        )

    def propagate(t: pa.Table) -> pa.Table:
        node = t["node"].to_numpy(zero_copy_only=False)
        neigh = t["neighbor"].to_numpy(zero_copy_only=False)
        label = t["label"].to_numpy(zero_copy_only=False)
        is_lab = label >= 0
        ln, lv = node[is_lab], label[is_lab]
        order = np.argsort(ln, kind="stable")
        ln_s, lv_s = ln[order], lv[order]
        en, ev = node[~is_lab], neigh[~is_lab]
        pos = np.searchsorted(ln_s, en)
        # every edge-source node has exactly one label row in its own
        # partition (labels cover all nodes; both sides hash node % parts)
        msg_lbl = lv_s[pos]
        return pa.table(
            {
                "node": pa.array(np.concatenate([ev, ln_s]), pa.int64()),
                "label": pa.array(np.concatenate([msg_lbl, lv_s]), pa.int64()),
            }
        )

    for _ in range(max_rounds):
        u = sym.map_batches(
            tag_edges, batch_format="pyarrow", batch_size=None, zero_copy_batch=True
        ).union(
            labels.map_batches(
                tag_labels, batch_format="pyarrow", batch_size=None, zero_copy_batch=True
            )
        )
        labels = (
            map_partitions(
                u,
                "__part",
                propagate,
            )
            .groupby("node")
            .aggregate(Min("label", alias_name="label"))
            .materialize()
        )
        s = labels.sum("label")
        if s == prev_sum:  # labels are non-increasing: stationary sum = done
            break
        prev_sum = s

    return labels.map_batches(
        lambda t: t.rename_columns(["node", "component"]),
        batch_format="pyarrow",
        batch_size=None,
    )


def _cc_driver(sym: Dataset) -> Dataset:
    """Driver fast path for small graphs: collect the (already symmetrized)
    edge rows as int64 arrays, run a path-compressed union-find with
    numeric-min representatives, return the (node, component) Dataset."""
    import numpy as _np

    cols = [
        (
            b["node"].to_numpy(zero_copy_only=False),
            b["neighbor"].to_numpy(zero_copy_only=False),
        )
        for b in sym.iter_batches(batch_format="pyarrow", batch_size=None)
    ]
    aa = _np.concatenate([c[0] for c in cols])
    bb = _np.concatenate([c[1] for c in cols])
    nodes = _np.unique(_np.concatenate([aa, bb]))
    idx = {int(n): i for i, n in enumerate(nodes)}
    parent = list(range(len(nodes)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in zip(aa.tolist(), bb.tolist()):
        ru, rv = find(idx[u]), find(idx[v])
        if ru != rv:
            # union by NUMERIC-MIN root so the representative is the
            # smallest node id (the SQL oracle's MIN over the component)
            lo, hi = (ru, rv) if nodes[ru] < nodes[rv] else (rv, ru)
            parent[hi] = lo

    comp = _np.fromiter((nodes[find(i)] for i in range(len(nodes))), _np.int64, len(nodes))
    return rd.from_arrow(
        pa.table(
            {"node": pa.array(nodes, pa.int64()), "component": pa.array(comp, pa.int64())}
        )
    )


# node-count budget for the broadcast-rank fast path: the dense rank vector
# (8 B/node) and the per-block partial blobs must stay object-store-friendly
PAGERANK_NODE_LIMIT = 2_000_000


def pagerank(
    edges: Dataset,
    a: str = "a",
    b: str = "b",
    n_iter: int = 5,
    damping: float = 0.85,
    broadcast_limit: int = PAGERANK_NODE_LIMIT,
) -> Dataset:
    """Fixed-iteration PageRank over an undirected edge list.

    Returns (node, pr) where pr is normalized so the mean is 1.0 (mass × N) —
    scale-free across graph sizes and friendlier to value comparison than
    raw 1/N-scale probabilities. The graph is symmetrized, so every node has
    degree ≥ 1 and there is no dangling mass; with a fixed iteration count
    the result is deterministic up to float summation order.

    Two regimes, value-parity-tested:

    - node count ≤ ``broadcast_limit`` (the common case — entity vocabulary,
      not row count): broadcast-rank iteration. The rank vector is a dense
      float array keyed by a sorted node vocabulary; each iteration is ONE
      streaming map over the (once-coded, materialized) int32 edge list —
      per-block ``np.bincount`` partial contribution vectors merged on the
      driver, exactly the mergeable-sketch pattern. Zero exchanges per
      iteration; 5 iterations = 5 cheap scans.
    - above the budget: tagged-union co-group exchange per iteration (same
      machinery as ``connected_components`` — no driver state). One union +
      one coarse-partition exchange (contributions pr/deg addressed to
      neighbors) + one per-node Sum — O(edges) rows moved, never O(nodes²)."""
    sym = _sym_with_part(edges, a, b).materialize()
    if sym.count() == 0:
        return rd.from_arrow(
            pa.table({"node": pa.array([], pa.int64()), "pr": pa.array([], pa.float64())})
        )
    deg_df = sym.groupby("node").aggregate(Count(alias_name="deg")).to_pandas()
    if len(deg_df) <= broadcast_limit:
        return _pagerank_broadcast(sym, deg_df, n_iter, damping)
    return _pagerank_exchange(sym, n_iter, damping)


def _pagerank_broadcast(sym: Dataset, deg_df, n_iter: int, damping: float) -> Dataset:
    import ray

    from ..util import cached_get

    nodes = deg_df["node"].to_numpy().astype(np.int64)
    order = np.argsort(nodes, kind="stable")
    nodes = nodes[order]
    deg = deg_df["deg"].to_numpy().astype(np.float64)[order]
    n = len(nodes)
    vocab_ref = ray.put(nodes)

    def code(t: pa.Table) -> pa.Table:
        v = cached_get(vocab_ref)
        s = np.searchsorted(v, t["node"].to_numpy(zero_copy_only=False))
        d = np.searchsorted(v, t["neighbor"].to_numpy(zero_copy_only=False))
        return pa.table(
            {"s": pa.array(s.astype(np.int32)), "d": pa.array(d.astype(np.int32))}
        )

    coded = sym.map_batches(
        code, batch_format="pyarrow", batch_size=None, zero_copy_batch=True
    ).materialize()

    pr = np.ones(n)
    for _ in range(n_iter):
        pod_ref = ray.put(pr / deg)

        def part_blob(t: pa.Table, _ref=pod_ref) -> pa.Table:
            pod = cached_get(_ref)
            s = t["s"].to_numpy(zero_copy_only=False)
            d = t["d"].to_numpy(zero_copy_only=False)
            acc = np.bincount(d, weights=pod[s], minlength=n)
            return pa.table({"acc": pa.array([acc.tobytes()], pa.binary())})

        acc = np.zeros(n)
        for b in coded.map_batches(
            part_blob, batch_format="pyarrow", batch_size=None, zero_copy_batch=True
        ).iter_batches(batch_format="pyarrow"):
            for blob in b["acc"].to_pylist():
                acc += np.frombuffer(blob, dtype=np.float64)
        pr = (1.0 - damping) + damping * acc

    return rd.from_arrow(
        pa.table({"node": pa.array(nodes, pa.int64()), "pr": pa.array(pr, pa.float64())})
    )


def _pagerank_exchange(sym: Dataset, n_iter: int, damping: float) -> Dataset:
    if sym.count() == 0:
        return rd.from_arrow(
            pa.table({"node": pa.array([], pa.int64()), "pr": pa.array([], pa.float64())})
        )

    ranks = (
        sym.groupby("node")
        .aggregate(Count(alias_name="deg"))
        .map_batches(
            lambda t: pa.table(
                {
                    "node": t["node"],
                    "pr": pa.array(np.ones(t.num_rows), pa.float64()),
                    "deg": t["deg"].cast(pa.float64()),
                }
            ),
            batch_format="pyarrow",
            batch_size=None,
        )
        .materialize()
    )

    def tag_edges(t: pa.Table) -> pa.Table:
        n = t.num_rows
        return pa.table(
            {
                "node": t["node"],
                "neighbor": t["neighbor"],
                "pr": pa.array(np.full(n, np.nan), pa.float64()),
                "deg": pa.array(np.zeros(n), pa.float64()),
                "__part": t["__part"],
            }
        )

    def tag_ranks(t: pa.Table) -> pa.Table:
        node = t["node"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "node": pa.array(node, pa.int64()),
                "neighbor": pa.array(np.full(t.num_rows, -1), pa.int64()),
                "pr": t["pr"],
                "deg": t["deg"],
                "__part": part_ids(node),
            }
        )

    def propagate(t: pa.Table) -> pa.Table:
        """Emit (neighbor, contribution=pr/deg, deg=0) for each edge plus a
        degree-carrier row (node, 0, deg) per rank row; the downstream Sum
        over contributions and Max over deg reassemble the rank table."""
        node = t["node"].to_numpy(zero_copy_only=False)
        neigh = t["neighbor"].to_numpy(zero_copy_only=False)
        pr = t["pr"].to_numpy(zero_copy_only=False)
        deg = t["deg"].to_numpy(zero_copy_only=False)
        is_rank = neigh < 0
        rn, rp, rdg = node[is_rank], pr[is_rank], deg[is_rank]
        order = np.argsort(rn, kind="stable")
        rn_s, rp_s, rdg_s = rn[order], rp[order], rdg[order]
        en, ev = node[~is_rank], neigh[~is_rank]
        pos = np.searchsorted(rn_s, en)
        contrib = rp_s[pos] / rdg_s[pos]
        return pa.table(
            {
                "node": pa.array(np.concatenate([ev, rn_s]), pa.int64()),
                "contrib": pa.array(
                    np.concatenate([contrib, np.zeros(len(rn_s))]), pa.float64()
                ),
                "deg": pa.array(
                    np.concatenate([np.zeros(len(ev)), rdg_s]), pa.float64()
                ),
            }
        )

    teleport = (1.0 - damping) * 1.0  # ×N normalization: (1-d)/N × N = 1-d
    for _ in range(n_iter):
        u = sym.map_batches(
            tag_edges, batch_format="pyarrow", batch_size=None, zero_copy_batch=True
        ).union(
            ranks.map_batches(
                tag_ranks, batch_format="pyarrow", batch_size=None, zero_copy_batch=True
            )
        )
        ranks = (
            map_partitions(
                u,
                "__part",
                propagate,
            )
            .groupby("node")
            .aggregate(Sum("contrib", alias_name="s"), Max("deg", alias_name="deg"))
            .map_batches(
                lambda t: pa.table(
                    {
                        "node": t["node"],
                        "pr": pc.add(
                            pc.multiply(t["s"], pa.scalar(damping)), pa.scalar(teleport)
                        ),
                        "deg": t["deg"],
                    }
                ),
                batch_format="pyarrow",
                batch_size=None,
            )
            .materialize()
        )

    return ranks.select_columns(["node", "pr"])


def pagerank_part_supplier(sf_dir: str) -> Dataset:
    """PageRank over the bipartite part—supplier graph induced by lineitem
    (an edge wherever a lineitem pairs a part with a supplier; parallel
    edges collapsed). Node encoding: parts = 2·l_partkey, suppliers =
    2·l_suppkey+1 — collision-free without a vocabulary exchange. Output
    (kind, key, pr) with pr rounded to 5 decimals (mean-1.0 normalization)
    for stable value comparison against the chained-CTE DuckDB oracle."""
    edges = (
        rd.read_parquet(f"{sf_dir}/lineitem.parquet", columns=["l_partkey", "l_suppkey"])
        .map_batches(
            lambda t: pa.table(
                {
                    "a": pc.multiply(t["l_partkey"].cast(pa.int64()), pa.scalar(2, pa.int64())),
                    "b": pc.add(
                        pc.multiply(t["l_suppkey"].cast(pa.int64()), pa.scalar(2, pa.int64())),
                        pa.scalar(1, pa.int64()),
                    ),
                }
            ),
            batch_format="pyarrow",
            batch_size=None,
            zero_copy_batch=True,
        )
        .groupby(["a", "b"])
        .aggregate(Count(alias_name="__n"))  # DISTINCT edge pairs, distributed
        .select_columns(["a", "b"])
    )
    pr = pagerank(edges, a="a", b="b", n_iter=5, damping=0.85)

    def decode(t: pa.Table) -> pa.Table:
        node = t["node"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "kind": pa.array(np.where(node % 2 == 0, "part", "supplier")),
                "node_key": pa.array(node // 2, pa.int64()),
                "pr": pc.round(t["pr"], ndigits=5),
            }
        )

    return pr.map_batches(decode, batch_format="pyarrow", batch_size=None)


def entity_pagerank(ea: Dataset, n_iter: int = 5, damping: float = 0.85) -> Dataset:
    """PageRank of the FLAGSHIP KG's entities: the co-occurrence graph is the
    distinct directed (subj, obj) pairs of the built ``edges_agg`` table
    (self-loops dropped), symmetrized inside ``pagerank``. Entity ids are
    strings, so they ride through a sorted driver vocabulary (entity
    vocabulary is bounded — the same driver-budget argument as the
    canonical map) into int64 codes and back. Oracle: unrolled
    power-iteration CTEs over the WRITTEN edges_agg checkpoint, joining on
    the string keys directly (__ray_entry__ wires the built KG in)."""
    import ray

    from ..util import cached_get


    def to_pairs(t: pa.Table) -> pa.Table:
        # per-block distinct partial (Arrow hash group_by), tagged with a
        # coarse string-hash partition so the exchange moves one int column
        t = t.filter(pc.invert(pc.equal(t["subj"], t["obj"])))
        g = (
            pa.table({"s": t["subj"], "o": t["obj"]})
            .group_by(["s", "o"], use_threads=False)
            .aggregate([])
        )
        return g.append_column("__part", part_ids(g, ["s", "o"]))

    def distinct_pairs(t: pa.Table) -> pa.Table:
        return t.group_by(["s", "o"], use_threads=False).aggregate([])

    pairs = map_partitions(
        ea.map_batches(to_pairs, batch_format="pyarrow", batch_size=None, zero_copy_batch=True),
        "__part",
        distinct_pairs,
    ).materialize()

    def explode_ents(t: pa.Table) -> pa.Table:
        ents = pa.concat_arrays(
            [t["s"].combine_chunks().cast(pa.string()), t["o"].combine_chunks().cast(pa.string())]
        )
        return pa.table({"entity": ents})

    vocab = np.sort(
        pairs.map_batches(explode_ents, batch_format="pyarrow", batch_size=None)
        .unique("entity")
    )
    vocab_ref = ray.put(vocab)

    def code(t: pa.Table) -> pa.Table:
        v = cached_get(vocab_ref)
        s = np.searchsorted(v, t["s"].to_numpy(zero_copy_only=False).astype(str))
        o = np.searchsorted(v, t["o"].to_numpy(zero_copy_only=False).astype(str))
        return pa.table(
            {"a": pa.array(s.astype(np.int64)), "b": pa.array(o.astype(np.int64))}
        )

    coded = pairs.map_batches(code, batch_format="pyarrow", batch_size=None)
    pr = pagerank(coded, a="a", b="b", n_iter=n_iter, damping=damping)

    def decode(t: pa.Table) -> pa.Table:
        v = cached_get(vocab_ref)
        node = t["node"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "entity": pa.array(v[node].tolist(), pa.string()),
                "pr": pc.round(t["pr"], ndigits=5),
            }
        )

    return pr.map_batches(decode, batch_format="pyarrow", batch_size=None)


def ngram_dup_components(sf_dir: str) -> Dataset:
    """Near-dup clusters of the documents table WITHOUT any driver-side
    union-find: the verified bigram-jaccard pair list (ops/dedup.py) feeds
    the distributed min-label propagation above. Same clustering semantics
    as minhash_dup_groups' driver path, fully in the Ray Data plane — the
    shape a 100 TB corpus with a pathological dup graph needs. Value-oracled
    (recursive-CTE reachability in DuckDB)."""
    from .dedup import ngram_jaccard_pairs

    pairs = ngram_jaccard_pairs(sf_dir)
    comp = connected_components(pairs, a="doc_a", b="doc_b")
    return comp.map_batches(
        lambda t: t.rename_columns(["doc_id", "component"]),
        batch_format="pyarrow",
        batch_size=None,
    )


def kg_node_degrees(edges_agg: Dataset) -> Dataset:
    """Degree profile of the constructed KG: per node (any entity appearing
    as subject or object of an aggregated triple), the number of distinct
    out-edges / in-edges and the summed triple weights on each side. Emits
    (node, out_degree, in_degree, w_out, w_in).

    Scale shape: one per-batch Arrow group_by partial per side (one row per
    distinct node per block), then a single node-keyed groupby-sum — the
    same mergeable-partial shape as the corpus-stats aggregates. Never
    materializes the edge list anywhere."""

    def part(t: pa.Table) -> pa.Table:
        outs = []
        for key, is_out in (("subj", True), ("obj", False)):
            g = t.group_by(key, use_threads=False).aggregate(
                [("weight", "sum"), ("weight", "count")]
            )
            zeros = pa.array(np.zeros(g.num_rows, np.int64))
            deg = pc.cast(g["weight_count"], pa.int64())
            w = pc.cast(g["weight_sum"], pa.int64())
            outs.append(
                pa.table(
                    {
                        "node": g[key],
                        "out_degree": deg if is_out else zeros,
                        "in_degree": zeros if is_out else deg,
                        "w_out": w if is_out else zeros,
                        "w_in": zeros if is_out else w,
                    }
                )
            )
        return pa.concat_tables(outs)

    return (
        edges_agg.map_batches(
            part, batch_format="pyarrow", batch_size=None, zero_copy_batch=True
        )
        .groupby("node")
        .aggregate(
            Sum("out_degree", alias_name="out_degree"),
            Sum("in_degree", alias_name="in_degree"),
            Sum("w_out", alias_name="w_out"),
            Sum("w_in", alias_name="w_in"),
        )
    )


def _coded_undirected_pairs(ea: Dataset):
    """(coded_pairs, vocab_ref): distinct undirected entity pairs of the
    aggregated KG edge table, int64-coded through a sorted entity vocabulary
    (vocabulary-bounded — the same driver-budget argument as the canonical
    map / entity_pagerank). Output rows have a < b; self-loops dropped."""
    import ray

    from ..util import cached_get

    def to_pairs(t: pa.Table) -> pa.Table:
        t = t.filter(pc.invert(pc.equal(t["subj"], t["obj"])))
        lo = pc.min_element_wise(t["subj"], t["obj"])
        hi = pc.max_element_wise(t["subj"], t["obj"])
        g = pa.table({"s": lo, "o": hi}).group_by(["s", "o"], use_threads=False).aggregate([])
        return g.append_column("__part", part_ids(g, ["s", "o"]))


    pairs = map_partitions(
        ea.map_batches(to_pairs, batch_format="pyarrow", batch_size=None, zero_copy_batch=True),
        "__part",
        lambda t: t.group_by(["s", "o"], use_threads=False).aggregate([]),
    ).materialize()

    vocab = np.sort(
        pairs.map_batches(
            lambda t: pa.table(
                {
                    "entity": pa.concat_arrays(
                        [
                            t["s"].combine_chunks().cast(pa.string()),
                            t["o"].combine_chunks().cast(pa.string()),
                        ]
                    )
                }
            ),
            batch_format="pyarrow",
            batch_size=None,
        ).unique("entity")
    )
    vocab_ref = ray.put(vocab)

    def code(t: pa.Table) -> pa.Table:
        v = cached_get(vocab_ref)
        a = np.searchsorted(v, t["s"].to_numpy(zero_copy_only=False).astype(str))
        b = np.searchsorted(v, t["o"].to_numpy(zero_copy_only=False).astype(str))
        return pa.table(
            {"a": pa.array(a.astype(np.int64)), "b": pa.array(b.astype(np.int64))}
        )

    return pairs.map_batches(code, batch_format="pyarrow", batch_size=None).materialize(), vocab_ref


def _pack_pairs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """One int64 join key per (a, b) pair; ids are vocabulary indices < 2^31."""
    return (a.astype(np.int64) << np.int64(32)) | b.astype(np.int64)


def kg_triangle_count(ea: Dataset) -> "pa.Table":
    """Exact triangle count of the undirected entity co-occurrence graph
    (distinct subj-obj pairs of the aggregated KG edge table). Returns a
    one-row table {n_triangles}.

    Distributed compact-forward: orient every edge from lower (degree, id)
    rank to higher; each node emits the C(out_deg, 2) wedges over its
    out-neighbors; a tagged pair-hash exchange counts wedges whose endpoint
    pair IS an edge. Every triangle has exactly one node with two out-edges
    under this orientation, so each is counted once. Wedge volume is the
    O(m^1.5) compact-forward bound — the orientation, not a cap, is what
    tames hubs, so the count stays EXACT at any skew. Degrees ride a
    vocabulary-bounded broadcast (8 B/entity)."""
    import ray

    from ..util import cached_get

    pairs, vocab_ref = _coded_undirected_pairs(ea)

    # degree vector (dense, vocab-aligned): per-block bincount partials
    # summed on the driver — vocabulary-bounded, same budget as the vocab
    n_ent = len(ray.get(vocab_ref))
    deg = np.zeros(n_ent, np.int64)
    for blk in pairs.map_batches(
        lambda t, n=n_ent: pa.table(
            {
                "d": pa.array(
                    np.bincount(
                        np.concatenate(
                            [
                                t["a"].to_numpy(zero_copy_only=False),
                                t["b"].to_numpy(zero_copy_only=False),
                            ]
                        ),
                        minlength=n,
                    )
                )
            }
        ),
        batch_format="pyarrow",
        batch_size=None,
    ).iter_batches(batch_format="pyarrow", batch_size=None):
        deg += blk["d"].to_numpy(zero_copy_only=False)
    deg_ref = ray.put(deg)

    def orient(t: pa.Table) -> pa.Table:
        d = cached_get(deg_ref)
        a = t["a"].to_numpy(zero_copy_only=False)
        b = t["b"].to_numpy(zero_copy_only=False)
        # a -> b iff rank(a) < rank(b), rank = (deg, id); a < b already
        fwd = (d[a] < d[b]) | (d[a] == d[b])  # ties break by id, a < b holds
        src = np.where(fwd, a, b)
        dst = np.where(fwd, b, a)
        return pa.table(
            {
                "src": pa.array(src, pa.int64()),
                "dst": pa.array(dst, pa.int64()),
                "__part": part_ids(src),
            }
        )

    oriented = pairs.map_batches(orient, batch_format="pyarrow", batch_size=None)

    def wedges(t: pa.Table) -> pa.Table:
        src = t["src"].to_numpy(zero_copy_only=False)
        dst = t["dst"].to_numpy(zero_copy_only=False)
        order = np.lexsort((dst, src))
        src, dst = src[order], dst[order]
        change = np.flatnonzero(src[1:] != src[:-1]) + 1
        starts = np.concatenate(([0], change))
        ends = np.concatenate((change, [len(src)]))
        pa_, pb_ = [], []
        for s, e in zip(starts.tolist(), ends.tolist()):
            if e - s < 2:
                continue
            nb = dst[s:e]  # sorted, unique (distinct pairs upstream)
            ii, jj = np.triu_indices(len(nb), k=1)
            pa_.append(nb[ii])
            pb_.append(nb[jj])
        if not pa_:
            return pa.table({"a": pa.array([], pa.int64()), "b": pa.array([], pa.int64())})
        return pa.table(
            {
                "a": pa.array(np.concatenate(pa_), pa.int64()),
                "b": pa.array(np.concatenate(pb_), pa.int64()),
            }
        )

    wedge_ds = map_partitions(
        oriented,
        "__part",
        wedges,
    )

    def tag(is_edge: int):
        def fn(t: pa.Table) -> pa.Table:
            a = t["a"].to_numpy(zero_copy_only=False)
            b = t["b"].to_numpy(zero_copy_only=False)
            key = _pack_pairs(a, b)
            return pa.table(
                {
                    "key": pa.array(key, pa.int64()),
                    "is_edge": pa.array(np.full(len(a), is_edge), pa.int64()),
                    "__part": part_ids(key),
                }
            )

        return fn

    tagged = pairs.map_batches(tag(1), batch_format="pyarrow", batch_size=None).union(
        wedge_ds.map_batches(tag(0), batch_format="pyarrow", batch_size=None)
    )

    def count_part(t: pa.Table) -> pa.Table:
        key = t["key"].to_numpy(zero_copy_only=False)
        is_edge = t["is_edge"].to_numpy(zero_copy_only=False).astype(bool)
        edge_keys = np.sort(key[is_edge])
        hits = np.isin(key[~is_edge], edge_keys, assume_unique=False)
        return pa.table({"n": pa.array([int(hits.sum())], pa.int64())})

    parts = map_partitions(tagged, "__part", count_part)
    total = parts.sum("n") or 0
    return pa.table({"n_triangles": pa.array([int(total)], pa.int64())})


def kg_common_neighbors(ea: Dataset, k: int = 50, max_degree: int = 4096) -> "pa.Table":
    """Link prediction over the KG's undirected co-occurrence graph: the
    top-k NON-adjacent entity pairs by Jaccard similarity of their neighbor
    sets. Returns (node_a, node_b, common_n, jaccard) with a deterministic
    (jaccard DESC, node_a, node_b) order — raw IEEE doubles rank identically
    in Ray and the SQL oracle, rounding applies to output only.

    Distributed shape: every middle node emits the C(deg, 2) unordered
    pairs of its neighbors (wedge counts = common-neighbor counts), one
    pair-hash exchange both aggregates wedge counts and drops adjacent
    pairs (tagged union with the edge set), per-partition partial top-k,
    driver merges k rows. Degrees ride the vocabulary-bounded broadcast.
    Wedge volume is sum(deg^2) — unlike the triangle count there is no
    orienting away a hub's quadratic blowup, so degrees past ``max_degree``
    raise (exact-or-error, the cume_dist contract); real 100 TB corpora
    drop hubs first (the standard practice this guard makes explicit)."""
    import ray

    from ..util import cached_get

    pairs, vocab_ref = _coded_undirected_pairs(ea)

    n_ent = len(ray.get(vocab_ref))
    deg = np.zeros(n_ent, np.int64)
    for blk in pairs.map_batches(
        lambda t, n=n_ent: pa.table(
            {
                "d": pa.array(
                    np.bincount(
                        np.concatenate(
                            [
                                t["a"].to_numpy(zero_copy_only=False),
                                t["b"].to_numpy(zero_copy_only=False),
                            ]
                        ),
                        minlength=n,
                    )
                )
            }
        ),
        batch_format="pyarrow",
        batch_size=None,
    ).iter_batches(batch_format="pyarrow", batch_size=None):
        deg += blk["d"].to_numpy(zero_copy_only=False)
    dmax = int(deg.max()) if n_ent else 0
    if dmax > max_degree:
        raise ValueError(
            f"kg_common_neighbors: max degree {dmax} > max_degree={max_degree}; "
            "the wedge exchange is O(sum deg^2) — drop hub entities first or "
            "raise max_degree explicitly"
        )
    deg_ref = ray.put(deg)

    # symmetrize: (node, neighbor) both ways, partitioned by the middle node
    def sym(t: pa.Table) -> pa.Table:
        a = t["a"].to_numpy(zero_copy_only=False)
        b = t["b"].to_numpy(zero_copy_only=False)
        mid = np.concatenate([a, b])
        nb = np.concatenate([b, a])
        return pa.table(
            {
                "mid": pa.array(mid, pa.int64()),
                "nb": pa.array(nb, pa.int64()),
                "__part": part_ids(mid),
            }
        )

    def wedges(t: pa.Table) -> pa.Table:
        mid = t["mid"].to_numpy(zero_copy_only=False)
        nb = t["nb"].to_numpy(zero_copy_only=False)
        order = np.lexsort((nb, mid))
        mid, nb = mid[order], nb[order]
        change = np.flatnonzero(mid[1:] != mid[:-1]) + 1
        starts = np.concatenate(([0], change))
        ends = np.concatenate((change, [len(mid)]))
        pa_, pb_ = [], []
        for s, e in zip(starts.tolist(), ends.tolist()):
            if e - s < 2:
                continue
            nbs = nb[s:e]
            ii, jj = np.triu_indices(len(nbs), k=1)
            pa_.append(nbs[ii])
            pb_.append(nbs[jj])
        if not pa_:
            return pa.table({"a": pa.array([], pa.int64()), "b": pa.array([], pa.int64())})
        return pa.table(
            {
                "a": pa.array(np.concatenate(pa_), pa.int64()),
                "b": pa.array(np.concatenate(pb_), pa.int64()),
            }
        )

    wedge_ds = map_partitions(
        pairs.map_batches(sym, batch_format="pyarrow", batch_size=None),
        "__part",
        wedges,
    )

    # tagged pair-key exchange: wedge counts (cnt>=1) + edge markers (cnt=-1);
    # a single per-partition kernel sums counts and drops any pair that also
    # carries an edge marker
    def tag(cnt_val: int):
        def fn(t: pa.Table) -> pa.Table:
            a = t["a"].to_numpy(zero_copy_only=False)
            b = t["b"].to_numpy(zero_copy_only=False)
            key = _pack_pairs(a, b)
            return pa.table(
                {
                    "key": pa.array(key, pa.int64()),
                    "cnt": pa.array(np.full(len(a), cnt_val), pa.int64()),
                    "__part": part_ids(key),
                }
            )

        return fn

    # pre-combine wedge counts per block before the exchange (partial agg)
    def wedge_partial(t: pa.Table) -> pa.Table:
        a = t["a"].to_numpy(zero_copy_only=False)
        b = t["b"].to_numpy(zero_copy_only=False)
        key = _pack_pairs(a, b)
        uniq, counts = np.unique(key, return_counts=True)
        return pa.table(
            {
                "key": pa.array(uniq, pa.int64()),
                "cnt": pa.array(counts.astype(np.int64), pa.int64()),
                "__part": part_ids(uniq),
            }
        )

    big = np.int64(1) << np.int64(40)  # edge marker: poisons the pair's sum

    def edge_mark(t: pa.Table) -> pa.Table:
        a = t["a"].to_numpy(zero_copy_only=False)
        b = t["b"].to_numpy(zero_copy_only=False)
        key = _pack_pairs(a, b)
        return pa.table(
            {
                "key": pa.array(key, pa.int64()),
                "cnt": pa.array(np.full(len(a), -big), pa.int64()),
                "__part": part_ids(key),
            }
        )

    tagged = wedge_ds.map_batches(wedge_partial, batch_format="pyarrow", batch_size=None).union(
        pairs.map_batches(edge_mark, batch_format="pyarrow", batch_size=None)
    )

    def topk_part(t: pa.Table) -> pa.Table:
        d = cached_get(deg_ref)
        key = t["key"].to_numpy(zero_copy_only=False)
        cnt = t["cnt"].to_numpy(zero_copy_only=False)
        order = np.argsort(key, kind="stable")
        key, cnt = key[order], cnt[order]
        change = np.flatnonzero(key[1:] != key[:-1]) + 1
        starts = np.concatenate(([0], change))
        sums = np.add.reduceat(cnt, starts)
        keys_u = key[starts]
        keep = sums > 0  # edge-marked pairs went hugely negative
        keys_u, sums = keys_u[keep], sums[keep]
        a = (keys_u >> np.int64(32)).astype(np.int64)
        b = (keys_u & np.int64(0xFFFFFFFF)).astype(np.int64)
        jac = sums / (d[a] + d[b] - sums)
        if len(jac) > k:
            # deterministic partial top-k: (jaccard DESC, a, b)
            sel = np.lexsort((b, a, -jac))[:k]
            a, b, sums, jac = a[sel], b[sel], sums[sel], jac[sel]
        return pa.table(
            {
                "a": pa.array(a, pa.int64()),
                "b": pa.array(b, pa.int64()),
                "common_n": pa.array(sums, pa.int64()),
                "jac": pa.array(jac, pa.float64()),
            }
        )

    partials = map_partitions(
        tagged,
        "__part",
        topk_part,
    )
    # driver merge: at most k rows per partition
    rows = partials.take_all()
    vocab = ray.get(vocab_ref)
    rows.sort(key=lambda r: (-r["jac"], r["a"], r["b"]))
    rows = rows[:k]
    return pa.table(
        {
            "node_a": pa.array([str(vocab[r["a"]]) for r in rows], pa.string()),
            "node_b": pa.array([str(vocab[r["b"]]) for r in rows], pa.string()),
            "common_n": pa.array([r["common_n"] for r in rows], pa.int64()),
            "jaccard": pa.array([round(float(r["jac"]), 6) for r in rows], pa.float64()),
        }
    )


def kg_adamic_adar(ea: Dataset, k: int = 50, max_degree: int = 4096) -> "pa.Table":
    """Adamic-Adar link prediction over the KG's undirected co-occurrence
    graph (Adamic & Adar 2003): top-k NON-adjacent entity pairs by
    sum(1 / ln(deg(z))) over common neighbors z — the degree-discounted
    refinement of kg_common_neighbors' Jaccard (a rare shared hub says less
    than a rare shared leaf). Returns (node_a, node_b, common_n,
    adamic_adar) ranked by (ROUND(score, 6) DESC, node_a, node_b); ranking
    on the ROUNDED score absorbs the engines' different float-sum orders.

    Distributed shape = kg_common_neighbors' wedge exchange, except each
    wedge carries its middle's degree: partials aggregate integer
    (pair, deg_z) counts — still exact-integer across the shuffle, the
    float log happens once per group in the final kernel (ascending-deg
    reduceat order, deterministic in Ray) — and adjacency rides the same
    exchange as deg_z = -1 marker rows. Middles have >= 2 neighbors so
    ln(deg) >= ln 2 > 0 always. Same O(sum deg^2) wedge bound and
    exact-or-error ``max_degree`` hub guard as kg_common_neighbors."""
    import ray

    from ..util import cached_get

    pairs, vocab_ref = _coded_undirected_pairs(ea)

    n_ent = len(ray.get(vocab_ref))
    if n_ent == 0:
        return pa.table(
            {
                "node_a": pa.array([], pa.string()),
                "node_b": pa.array([], pa.string()),
                "common_n": pa.array([], pa.int64()),
                "adamic_adar": pa.array([], pa.float64()),
            }
        )
    deg = np.zeros(n_ent, np.int64)
    for blk in pairs.map_batches(
        lambda t, n=n_ent: pa.table(
            {
                "d": pa.array(
                    np.bincount(
                        np.concatenate(
                            [
                                t["a"].to_numpy(zero_copy_only=False),
                                t["b"].to_numpy(zero_copy_only=False),
                            ]
                        ),
                        minlength=n,
                    )
                )
            }
        ),
        batch_format="pyarrow",
        batch_size=None,
    ).iter_batches(batch_format="pyarrow", batch_size=None):
        deg += blk["d"].to_numpy(zero_copy_only=False)
    dmax = int(deg.max())
    if dmax > max_degree:
        raise ValueError(
            f"kg_adamic_adar: max degree {dmax} > max_degree={max_degree}; "
            "the wedge exchange is O(sum deg^2) — drop hub entities first or "
            "raise max_degree explicitly"
        )
    deg_ref = ray.put(deg)

    def sym(t: pa.Table) -> pa.Table:
        a = t["a"].to_numpy(zero_copy_only=False)
        b = t["b"].to_numpy(zero_copy_only=False)
        mid = np.concatenate([a, b])
        nb = np.concatenate([b, a])
        return pa.table(
            {
                "mid": pa.array(mid, pa.int64()),
                "nb": pa.array(nb, pa.int64()),
                "__part": part_ids(mid),
            }
        )

    exch_schema = pa.schema(
        [("key", pa.int64()), ("dz", pa.int64()), ("cnt", pa.int64()), ("__part", pa.int64())]
    )

    def wedges(t: pa.Table) -> pa.Table:
        d = cached_get(deg_ref)
        mid = t["mid"].to_numpy(zero_copy_only=False)
        nb = t["nb"].to_numpy(zero_copy_only=False)
        order = np.lexsort((nb, mid))
        mid, nb = mid[order], nb[order]
        change = np.flatnonzero(mid[1:] != mid[:-1]) + 1
        starts = np.concatenate(([0], change))
        ends = np.concatenate((change, [len(mid)]))
        ka, kb, kd = [], [], []
        for s, e in zip(starts.tolist(), ends.tolist()):
            if e - s < 2:
                continue
            nbs = nb[s:e]
            ii, jj = np.triu_indices(len(nbs), k=1)
            ka.append(nbs[ii])
            kb.append(nbs[jj])
            kd.append(np.full(len(ii), d[mid[s]], np.int64))
        if not ka:
            return exch_schema.empty_table()
        key = _pack_pairs(np.concatenate(ka), np.concatenate(kb))
        dz = np.concatenate(kd)
        # in-block partial: integer counts per (pair, middle-degree)
        order = np.lexsort((dz, key))
        key, dz = key[order], dz[order]
        grp = np.concatenate(
            ([0], np.flatnonzero((key[1:] != key[:-1]) | (dz[1:] != dz[:-1])) + 1)
        )
        cnt = np.diff(np.concatenate([grp, [len(key)]])).astype(np.int64)
        key, dz = key[grp], dz[grp]
        return pa.table(
            {
                "key": pa.array(key, pa.int64()),
                "dz": pa.array(dz, pa.int64()),
                "cnt": pa.array(cnt, pa.int64()),
                "__part": part_ids(key),
            }
        )

    def edge_mark(t: pa.Table) -> pa.Table:
        key = _pack_pairs(
            t["a"].to_numpy(zero_copy_only=False), t["b"].to_numpy(zero_copy_only=False)
        )
        return pa.table(
            {
                "key": pa.array(key, pa.int64()),
                "dz": pa.array(np.full(len(key), -1), pa.int64()),
                "cnt": pa.array(np.ones(len(key), np.int64), pa.int64()),
                "__part": part_ids(key),
            }
        )

    wedge_ds = map_partitions(
        pairs.map_batches(sym, batch_format="pyarrow", batch_size=None),
        "__part",
        wedges,
    )
    tagged = wedge_ds.union(
        pairs.map_batches(edge_mark, batch_format="pyarrow", batch_size=None)
    )


    def topk_part(t: pa.Table) -> pa.Table:
        key = t["key"].to_numpy(zero_copy_only=False)
        dz = t["dz"].to_numpy(zero_copy_only=False)
        cnt = t["cnt"].to_numpy(zero_copy_only=False)
        order = np.lexsort((dz, key))
        key, dz, cnt = key[order], dz[order], cnt[order]
        starts = np.concatenate(([0], np.flatnonzero(key[1:] != key[:-1]) + 1))
        has_edge = dz[starts] == -1  # marker sorts first within its key
        contrib = np.where(dz > 0, cnt / np.log(np.maximum(dz, 2)), 0.0)
        score = np.add.reduceat(contrib, starts)
        common = np.add.reduceat(np.where(dz > 0, cnt, 0), starts)
        keep = (~has_edge) & (common > 0)
        keys_u, score, common = key[starts][keep], score[keep], common[keep]
        aa = np.round(score, 6)
        a = (keys_u >> np.int64(32)).astype(np.int64)
        b = (keys_u & np.int64(0xFFFFFFFF)).astype(np.int64)
        if len(aa) > k:
            sel = np.lexsort((b, a, -aa))[:k]
            a, b, common, aa = a[sel], b[sel], common[sel], aa[sel]
        return pa.table(
            {
                "a": pa.array(a, pa.int64()),
                "b": pa.array(b, pa.int64()),
                "common_n": pa.array(common.astype(np.int64), pa.int64()),
                "aa": pa.array(aa, pa.float64()),
            }
        )

    partials = map_partitions(tagged, "__part", topk_part)
    rows = partials.take_all()
    vocab = ray.get(vocab_ref)
    rows.sort(key=lambda r: (-r["aa"], r["a"], r["b"]))
    rows = rows[:k]
    return pa.table(
        {
            "node_a": pa.array([str(vocab[r["a"]]) for r in rows], pa.string()),
            "node_b": pa.array([str(vocab[r["b"]]) for r in rows], pa.string()),
            "common_n": pa.array([r["common_n"] for r in rows], pa.int64()),
            "adamic_adar": pa.array([float(r["aa"]) for r in rows], pa.float64()),
        }
    )


def kg_kcore(ea: Dataset, k: int = 2, max_rounds: int = 50) -> "pa.Table":
    """k-core of the KG's undirected co-occurrence graph: iteratively peel
    nodes with degree < k until fixpoint; emit every surviving node with its
    in-core degree. Classic peel (public literature) in the engine's
    bounded-driver shape: EDGES stay a distributed Dataset throughout (one
    degree-partial pass + one endpoint-filter pass per round); the driver
    holds only node-sized vectors (entity vocabulary is bounded — the
    entity_pagerank budget argument). No SQL analog (iterate-to-fixpoint
    with re-aggregation), so the driver row is rows-only; the constructed
    peel gate is tests/test_round4.py."""
    import ray

    from ..util import cached_get

    pairs, vocab_ref = _coded_undirected_pairs(ea)
    vocab = ray.get(vocab_ref)
    n_ent = len(vocab)
    if n_ent == 0:
        return pa.table({"node": pa.array([], pa.string()),
                         "core_degree": pa.array([], pa.int64())})
    alive = np.ones(n_ent, bool)
    edges_ds = pairs
    deg = np.zeros(n_ent, np.int64)
    for _ in range(max_rounds):
        deg = np.zeros(n_ent, np.int64)
        for blk in edges_ds.map_batches(
            lambda t, n=n_ent: pa.table(
                {
                    "d": pa.array(
                        np.bincount(
                            np.concatenate(
                                [
                                    t["a"].to_numpy(zero_copy_only=False),
                                    t["b"].to_numpy(zero_copy_only=False),
                                ]
                            ),
                            minlength=n,
                        )
                    )
                }
            ),
            batch_format="pyarrow",
            batch_size=None,
        ).iter_batches(batch_format="pyarrow", batch_size=None):
            deg += blk["d"].to_numpy(zero_copy_only=False)
        drop = alive & (deg < k)
        if not drop.any():
            break
        alive &= ~drop
        aref = ray.put(alive)

        def keep_edges(t: pa.Table, _aref=aref) -> pa.Table:
            al = cached_get(_aref)
            a = t["a"].to_numpy(zero_copy_only=False)
            b = t["b"].to_numpy(zero_copy_only=False)
            return t.filter(pa.array(al[a] & al[b]))

        edges_ds = edges_ds.map_batches(
            keep_edges, batch_format="pyarrow", batch_size=None, zero_copy_batch=True
        ).materialize()
    idx = np.flatnonzero(alive & (deg >= k))
    return pa.table(
        {
            "node": pa.array(np.asarray(vocab, object)[idx].tolist(), pa.string()),
            "core_degree": pa.array(deg[idx], pa.int64()),
        }
    )


def _pair_weights(ea: Dataset) -> Dataset:
    """Undirected weighted distinct pairs of the aggregated KG edge table:
    (s, o, w) with s < o, w = summed triple weight across both directions
    and all predicates; self-loops dropped. Same two-exchange shape as
    `_coded_undirected_pairs` but weight-preserving."""

    def part(t: pa.Table) -> pa.Table:
        t = t.filter(pc.invert(pc.equal(t["subj"], t["obj"])))
        lo = pc.min_element_wise(t["subj"], t["obj"])
        hi = pc.max_element_wise(t["subj"], t["obj"])
        g = (
            pa.table({"s": lo, "o": hi, "w": pc.cast(t["weight"], pa.int64())})
            .group_by(["s", "o"], use_threads=False)
            .aggregate([("w", "sum")])
        )
        g = pa.table({"s": g["s"], "o": g["o"], "w": pc.cast(g["w_sum"], pa.int64())})
        return g.append_column("__part", part_ids(g, ["s", "o"]))

    return map_partitions(
        ea.map_batches(part, batch_format="pyarrow", batch_size=None, zero_copy_batch=True),
        "__part",
        lambda t: (
            lambda g: pa.table(
                {"s": g["s"], "o": g["o"], "w": pc.cast(g["w_sum"], pa.int64())}
            )
        )(t.group_by(["s", "o"], use_threads=False).aggregate([("w", "sum")])),
    )


def kg_edge_pmi(ea: Dataset) -> Dataset:
    """Pointwise-mutual-information weighting of the KG's undirected
    co-occurrence pairs — the standard collocation-strength re-weighting a
    KG-construction pipeline applies before pruning incidental edges
    (raw weight favors hub entities; PMI surfaces genuinely associated
    pairs). For each distinct undirected pair with summed weight w_ab:

        pmi = ln(w_ab * T / (w_a * w_b))

    where w_a = total pair weight incident to a and T = total pair weight.
    Emits (node_a, node_b, w_pair, pmi) with pmi rounded to 6 (ln + one
    division on exact ints — both engines compute the identical double).

    Scale shape: one weight-preserving pair exchange (`_pair_weights`);
    node totals fold to a dense vocabulary-aligned vector on the driver
    (vocabulary-bounded, the entity-pagerank budget argument) and ride ONE
    broadcast; the PMI map is a vectorized searchsorted + log per batch.
    The pair list itself never materializes on the driver."""
    import ray

    from ..util import cached_get

    pairs = _pair_weights(ea).materialize()

    vocab = np.sort(
        pairs.map_batches(
            lambda t: pa.table(
                {
                    "entity": pa.concat_arrays(
                        [
                            t["s"].combine_chunks().cast(pa.string()),
                            t["o"].combine_chunks().cast(pa.string()),
                        ]
                    )
                }
            ),
            batch_format="pyarrow",
            batch_size=None,
        ).unique("entity")
    )
    n_ent = len(vocab)
    w_node = np.zeros(n_ent, np.int64)
    total = 0
    for blk in pairs.iter_batches(batch_format="pyarrow", batch_size=None):
        s = np.searchsorted(vocab, blk["s"].to_numpy(zero_copy_only=False).astype(str))
        o = np.searchsorted(vocab, blk["o"].to_numpy(zero_copy_only=False).astype(str))
        w = blk["w"].to_numpy(zero_copy_only=False)
        w_node += np.bincount(s, weights=w, minlength=n_ent).astype(np.int64)
        w_node += np.bincount(o, weights=w, minlength=n_ent).astype(np.int64)
        total += int(w.sum())
    state_ref = ray.put((vocab, w_node, total))

    def pmi(t: pa.Table) -> pa.Table:
        v, wn, tot = cached_get(state_ref)
        s = np.searchsorted(v, t["s"].to_numpy(zero_copy_only=False).astype(str))
        o = np.searchsorted(v, t["o"].to_numpy(zero_copy_only=False).astype(str))
        w = t["w"].to_numpy(zero_copy_only=False).astype(np.float64)
        val = np.log(w * float(tot) / (wn[s].astype(np.float64) * wn[o].astype(np.float64)))
        return pa.table(
            {
                "node_a": t["s"],
                "node_b": t["o"],
                "w_pair": t["w"],
                "pmi": pa.array(np.round(val, 6), pa.float64()),
            }
        )

    return pairs.map_batches(pmi, batch_format="pyarrow", batch_size=None)


def kg_neighbor_agg(ea: Dataset) -> Dataset:
    """One-hop neighborhood feature aggregation over the KG's undirected
    distinct-pair graph — the GNN-sampling primitive (mean/max/sum of a
    neighbor feature per node; here the feature is the neighbor's degree,
    so the output is the degree-assortativity profile). Emits
    (node, degree, nd_sum, nd_max, nd_mean).

    Scale shape: coded pairs (one exchange, reused machinery); the degree
    vector folds dense on the driver (vocabulary-bounded) and rides one
    broadcast; each pair block emits per-node PARTIAL (sum, max, count)
    rows via an in-batch Arrow group_by, and a single node-keyed exchange
    of Sum/Max/Sum finishes — neighbor lists never materialize."""
    import ray

    from ..util import cached_get

    pairs, vocab_ref = _coded_undirected_pairs(ea)
    n_ent = len(ray.get(vocab_ref))
    deg = np.zeros(n_ent, np.int64)
    for blk in pairs.iter_batches(batch_format="pyarrow", batch_size=None):
        both = np.concatenate(
            [blk["a"].to_numpy(zero_copy_only=False), blk["b"].to_numpy(zero_copy_only=False)]
        )
        deg += np.bincount(both, minlength=n_ent)
    deg_ref = ray.put(deg)

    def part(t: pa.Table) -> pa.Table:
        d = cached_get(deg_ref)
        a = t["a"].to_numpy(zero_copy_only=False)
        b = t["b"].to_numpy(zero_copy_only=False)
        node = np.concatenate([a, b])
        nd = np.concatenate([d[b], d[a]])
        g = (
            pa.table({"node": pa.array(node, pa.int64()), "nd": pa.array(nd, pa.int64())})
            .group_by("node", use_threads=False)
            .aggregate([("nd", "sum"), ("nd", "max"), ("nd", "count")])
        )
        return pa.table(
            {
                "node": g["node"],
                "nd_sum": pc.cast(g["nd_sum"], pa.int64()),
                "nd_max": pc.cast(g["nd_max"], pa.int64()),
                "cnt": pc.cast(g["nd_count"], pa.int64()),
            }
        )

    agg = (
        pairs.map_batches(part, batch_format="pyarrow", batch_size=None)
        .groupby("node")
        .aggregate(
            Sum("nd_sum", alias_name="nd_sum"),
            Max("nd_max", alias_name="nd_max"),
            Sum("cnt", alias_name="degree"),
        )
    )

    def finish(t: pa.Table) -> pa.Table:
        v = cached_get(vocab_ref)
        idx = t["node"].to_numpy(zero_copy_only=False)
        s = t["nd_sum"].to_numpy(zero_copy_only=False).astype(np.float64)
        c = t["degree"].to_numpy(zero_copy_only=False).astype(np.float64)
        return pa.table(
            {
                "node": pa.array(np.asarray(v, object)[idx].tolist(), pa.string()),
                "degree": t["degree"],
                "nd_sum": t["nd_sum"],
                "nd_max": t["nd_max"],
                "nd_mean": pa.array(np.round(s / c, 6), pa.float64()),
            }
        )

    return agg.map_batches(finish, batch_format="pyarrow", batch_size=None)


def kg_bfs_reach(ea: Dataset, n_seeds: int = 5, max_depth: int = 3) -> "pa.Table":
    """Bounded multi-hop reachability from the graph's hub entities: BFS
    distance (<= max_depth) from the n_seeds highest-degree nodes (ties by
    entity asc) over the undirected distinct-pair graph — the neighborhood-
    expansion primitive behind KG context retrieval ("everything within k
    hops of the seed set"). Returns (node, dist) with dist = min hops.

    Scale shape: per round, ONE vectorized pass over the coded pair blocks
    marks neighbors of the broadcast frontier bitmap; the visited fold is a
    dense node-bounded vector on the driver (same budget as kg_kcore's peel
    state). O(max_depth) passes, edges never leave the cluster."""
    import ray

    from ..util import cached_get

    pairs, vocab_ref = _coded_undirected_pairs(ea)
    pairs = pairs.materialize()
    vocab = ray.get(vocab_ref)
    n_ent = len(vocab)
    deg = np.zeros(n_ent, np.int64)
    for blk in pairs.iter_batches(batch_format="pyarrow", batch_size=None):
        both = np.concatenate(
            [blk["a"].to_numpy(zero_copy_only=False), blk["b"].to_numpy(zero_copy_only=False)]
        )
        deg += np.bincount(both, minlength=n_ent)
    # top-n_seeds by (deg DESC, entity asc): coded ids are vocab-sorted, so
    # a stable sort on -deg gives the entity-asc tie-break for free
    seeds = np.argsort(-deg, kind="stable")[:n_seeds]

    dist = np.full(n_ent, -1, np.int64)
    dist[seeds] = 0
    frontier = np.zeros(n_ent, bool)
    frontier[seeds] = True
    for d in range(1, max_depth + 1):
        fref = ray.put(frontier)

        def touch(t: pa.Table, _fref=fref, _n=n_ent) -> pa.Table:
            f = cached_get(_fref)
            a = t["a"].to_numpy(zero_copy_only=False)
            b = t["b"].to_numpy(zero_copy_only=False)
            hit = np.zeros(_n, bool)
            hit[b[f[a]]] = True
            hit[a[f[b]]] = True
            return pa.table({"hit": pa.array(hit)})

        reached = np.zeros(n_ent, bool)
        for blk in pairs.map_batches(
            touch, batch_format="pyarrow", batch_size=None
        ).iter_batches(batch_format="pyarrow", batch_size=None):
            reached |= blk["hit"].to_numpy(zero_copy_only=False)
        frontier = reached & (dist < 0)
        if not frontier.any():
            break
        dist[frontier] = d

    idx = np.flatnonzero(dist >= 0)
    return pa.table(
        {
            "node": pa.array(np.asarray(vocab, object)[idx].tolist(), pa.string()),
            "dist": pa.array(dist[idx], pa.int64()),
        }
    )


def kg_edge_provenance(edges: Dataset) -> Dataset:
    """Lineage profile of every aggregated triple: total weight, mention
    count, and the EARLIEST witness — the (conv_id, turn_idx) of the first
    per-turn edge that asserted the triple, the provenance pointer a KG
    audit trail keeps per fact. Emits (subj, pred, obj, weight, n_mentions,
    first_witness) with first_witness = 'conv_id:turn_idx' (turn zero-padded
    to 6 so string MIN is the lexicographic pair minimum).

    Scale shape: the witness key is a plain string whose MIN is a mergeable
    partial, so the whole op is one in-batch Arrow group_by per block plus a
    single triple-keyed Sum/Sum/Min exchange over one row per distinct
    triple per block — identical to the corpus-stats aggregate shape."""
    from ray.data.aggregate import Min, Sum

    def part(t: pa.Table) -> pa.Table:
        wit = pc.binary_join_element_wise(
            t["conv_id"].cast(pa.string()),
            pc.utf8_lpad(pc.cast(t["turn_idx"], pa.string()), 6, "0"),
            ":",
        )
        g = (
            t.select(["subj", "pred", "obj"])
            .append_column("w", pc.cast(t["weight"], pa.int64()))
            .append_column("wit", wit)
            .group_by(["subj", "pred", "obj"], use_threads=False)
            .aggregate([("w", "sum"), ("wit", "count"), ("wit", "min")])
        )
        return pa.table(
            {
                "subj": g["subj"],
                "pred": g["pred"],
                "obj": g["obj"],
                "w": pc.cast(g["w_sum"], pa.int64()),
                "n": pc.cast(g["wit_count"], pa.int64()),
                "wit": g["wit_min"],
            }
        )

    agg = (
        edges.map_batches(part, batch_format="pyarrow", batch_size=None, zero_copy_batch=True)
        .groupby(["subj", "pred", "obj"])
        .aggregate(
            Sum("w", alias_name="weight"),
            Sum("n", alias_name="n_mentions"),
            Min("wit", alias_name="first_witness"),
        )
    )
    return agg


def kg_negative_samples(ea: Dataset) -> Dataset:
    """Deterministic negative sampling for KG link-prediction training:
    every distinct undirected pair (a, b) proposes ONE corrupted pair —
    replace b with the entity at index md5(a|b)[:8] %% |vocab| of the
    sorted vocabulary — and the candidate survives only if it is not a
    self-pair and not a real edge. Emits (seed_a, seed_b, neg_a, neg_b)
    with the negative pair ordered. md5-derived indices make the sample
    reproducible across engines (the split_assign precedent: the oracle
    computes the identical digest).

    Scale shape: reuses the coded undirected pair set + sorted vocabulary
    broadcast; candidate generation is one pass over pair blocks; the
    is-this-a-real-edge filter is the tagged pair-hash anti-join from
    kg_triangle_count (edges tag 1, candidates tag 0, one exchange,
    vectorized isin per partition) — no edge set ever sits on the driver."""
    import hashlib

    import ray

    from ..util import cached_get

    pairs, vocab_ref = _coded_undirected_pairs(ea)
    n_ent = len(ray.get(vocab_ref))

    def candidates(t: pa.Table) -> pa.Table:
        v = cached_get(vocab_ref)
        a = t["a"].to_numpy(zero_copy_only=False)
        b = t["b"].to_numpy(zero_copy_only=False)
        sa, sb = np.asarray(v, object)[a], np.asarray(v, object)[b]
        idx = np.fromiter(
            (
                int(hashlib.md5(f"{x}|{y}".encode()).hexdigest()[:8], 16) % n_ent
                for x, y in zip(sa, sb)
            ),
            dtype=np.int64,
            count=len(a),
        )
        ok = (idx != a) & (idx != b)
        a, b, idx = a[ok], b[ok], idx[ok]
        lo = np.minimum(a, idx)
        hi = np.maximum(a, idx)
        key = _pack_pairs(lo, hi)
        return pa.table(
            {
                "key": pa.array(key, pa.int64()),
                "seed_a": pa.array(a, pa.int64()),
                "seed_b": pa.array(b, pa.int64()),
                "neg_a": pa.array(lo, pa.int64()),
                "neg_b": pa.array(hi, pa.int64()),
                "is_edge": pa.array(np.zeros(len(a), np.int64)),
                "__part": part_ids(key),
            }
        )

    def edges_tagged(t: pa.Table) -> pa.Table:
        a = t["a"].to_numpy(zero_copy_only=False)
        b = t["b"].to_numpy(zero_copy_only=False)
        key = _pack_pairs(a, b)
        z = np.zeros(len(a), np.int64)
        return pa.table(
            {
                "key": pa.array(key, pa.int64()),
                "seed_a": pa.array(z),
                "seed_b": pa.array(z),
                "neg_a": pa.array(z),
                "neg_b": pa.array(z),
                "is_edge": pa.array(np.ones(len(a), np.int64)),
                "__part": part_ids(key),
            }
        )

    u = pairs.map_batches(candidates, batch_format="pyarrow", batch_size=None).union(
        pairs.map_batches(edges_tagged, batch_format="pyarrow", batch_size=None)
    )

    def anti_join(t: pa.Table) -> pa.Table:
        v = cached_get(vocab_ref)
        key = t["key"].to_numpy(zero_copy_only=False)
        is_edge = t["is_edge"].to_numpy(zero_copy_only=False).astype(bool)
        edge_keys = np.sort(key[is_edge])
        cand = ~is_edge
        keep = cand & ~np.isin(key, edge_keys)
        names = np.asarray(v, object)
        return pa.table(
            {
                "seed_a": pa.array(
                    names[t["seed_a"].to_numpy(zero_copy_only=False)[keep]].tolist(),
                    pa.string(),
                ),
                "seed_b": pa.array(
                    names[t["seed_b"].to_numpy(zero_copy_only=False)[keep]].tolist(),
                    pa.string(),
                ),
                "neg_a": pa.array(
                    names[t["neg_a"].to_numpy(zero_copy_only=False)[keep]].tolist(),
                    pa.string(),
                ),
                "neg_b": pa.array(
                    names[t["neg_b"].to_numpy(zero_copy_only=False)[keep]].tolist(),
                    pa.string(),
                ),
            }
        )

    return map_partitions(
        u,
        "__part",
        anti_join,
    )


def kg_ppr(
    ea: Dataset, n_seeds: int = 5, n_iter: int = 5, damping: float = 0.85
) -> "pa.Table":
    """Personalized PageRank from the graph's hub entities — the GraphRAG
    local-search primitive ("how relevant is each entity to this seed
    set"): teleport mass (1 - damping) returns to the n_seeds
    highest-degree nodes (ties by entity asc, the kg_bfs_reach seed rule)
    instead of spreading uniformly; everything else is the fixed-iteration
    power method. Returns (entity, ppr) with ppr = ROUND(pr, 5) after
    n_iter iterations, one row per node of the undirected distinct-pair
    graph.

    Scale shape: the rank vector is node-bounded (the entity-pagerank /
    kg_kcore driver-budget argument) and rides ONE broadcast per
    iteration; each iteration is a single vectorized pass over the coded
    pair blocks folding per-block bincount contributions — edges never
    leave the cluster, no per-iteration shuffle."""
    import ray

    from ..util import cached_get

    pairs, vocab_ref = _coded_undirected_pairs(ea)
    pairs = pairs.materialize()
    vocab = ray.get(vocab_ref)
    n_ent = len(vocab)
    deg = np.zeros(n_ent, np.int64)
    for blk in pairs.iter_batches(batch_format="pyarrow", batch_size=None):
        both = np.concatenate(
            [blk["a"].to_numpy(zero_copy_only=False), blk["b"].to_numpy(zero_copy_only=False)]
        )
        deg += np.bincount(both, minlength=n_ent)
    seeds = np.argsort(-deg, kind="stable")[:n_seeds]
    ind = np.zeros(n_ent, np.float64)
    ind[seeds] = 1.0

    pr = ind.copy()
    degf = deg.astype(np.float64)
    for _ in range(n_iter):
        share_ref = ray.put(pr / np.maximum(degf, 1.0))

        def contrib(t: pa.Table, _ref=share_ref, _n=n_ent) -> pa.Table:
            sh = cached_get(_ref)
            a = t["a"].to_numpy(zero_copy_only=False)
            b = t["b"].to_numpy(zero_copy_only=False)
            c = np.bincount(
                np.concatenate([b, a]),
                weights=np.concatenate([sh[a], sh[b]]),
                minlength=_n,
            )
            return pa.table({"c": pa.array(c)})

        acc = np.zeros(n_ent, np.float64)
        for blk in pairs.map_batches(
            contrib, batch_format="pyarrow", batch_size=None
        ).iter_batches(batch_format="pyarrow", batch_size=None):
            acc += blk["c"].to_numpy(zero_copy_only=False)
        pr = (1.0 - damping) * ind + damping * acc

    return pa.table(
        {
            "entity": pa.array(np.asarray(vocab, object).tolist(), pa.string()),
            "ppr": pa.array(np.round(pr, 5), pa.float64()),
        }
    )


def _coded_directed_pairs(ea: Dataset):
    """(coded_pairs, vocab_ref) over the DISTINCT DIRECTED (subj, obj)
    edges of the aggregated KG table — the `_coded_undirected_pairs`
    sibling without the least/greatest fold, for operators where edge
    direction is the semantics (HITS hubs point AT authorities).
    Self-loops dropped; vocabulary-bounded by the same driver-budget
    argument as the canonical map."""
    import ray

    from ..util import cached_get

    def to_pairs(t: pa.Table) -> pa.Table:
        t = t.filter(pc.invert(pc.equal(t["subj"], t["obj"])))
        g = (
            pa.table({"s": t["subj"], "o": t["obj"]})
            .group_by(["s", "o"], use_threads=False)
            .aggregate([])
        )
        return g.append_column("__part", part_ids(g, ["s", "o"]))

    pairs = map_partitions(
        ea.map_batches(to_pairs, batch_format="pyarrow", batch_size=None, zero_copy_batch=True),
        "__part",
        lambda t: t.group_by(["s", "o"], use_threads=False).aggregate([]),
    ).materialize()

    vocab = np.sort(
        pairs.map_batches(
            lambda t: pa.table(
                {
                    "entity": pa.concat_arrays(
                        [
                            t["s"].combine_chunks().cast(pa.string()),
                            t["o"].combine_chunks().cast(pa.string()),
                        ]
                    )
                }
            ),
            batch_format="pyarrow",
            batch_size=None,
        ).unique("entity")
    )
    vocab_ref = ray.put(vocab)

    def code(t: pa.Table) -> pa.Table:
        v = cached_get(vocab_ref)
        a = np.searchsorted(v, t["s"].to_numpy(zero_copy_only=False).astype(str))
        b = np.searchsorted(v, t["o"].to_numpy(zero_copy_only=False).astype(str))
        return pa.table(
            {"a": pa.array(a.astype(np.int64)), "b": pa.array(b.astype(np.int64))}
        )

    return pairs.map_batches(code, batch_format="pyarrow", batch_size=None).materialize(), vocab_ref


def kg_hits(ea: Dataset, n_iter: int = 5) -> "pa.Table":
    """HITS hubs & authorities (Kleinberg 1999) over the DIRECTED distinct
    (subj, obj) graph of the constructed KG — the classic complement to
    PageRank for knowledge graphs: authorities are entities many triples
    point AT (frequent objects of diverse subjects), hubs are entities
    whose outgoing triples reach good authorities. Fixed-iteration power
    method, L1-normalized after every half-step (sum-normalization keeps
    the SQL oracle a plain SUM ratio). Returns (entity, hub, authority),
    both ROUND(x, 6), one row per node.

    Scale shape (the kg_ppr contract): both score vectors are node-bounded
    and ride ONE broadcast per half-step; each half-step is a vectorized
    bincount fold over the coded directed-pair blocks — edges never leave
    the cluster, no per-iteration shuffle."""
    import ray

    from ..util import cached_get

    pairs, vocab_ref = _coded_directed_pairs(ea)
    vocab = ray.get(vocab_ref)
    n_ent = len(vocab)

    def fold(vec_ref, src_col: str, dst_col: str) -> np.ndarray:
        """sum_{(src,dst) in E} vec[src] addressed to dst, folded per block."""

        def contrib(t: pa.Table, _ref=vec_ref, _n=n_ent) -> pa.Table:
            v = cached_get(_ref)
            s = t[src_col].to_numpy(zero_copy_only=False)
            d = t[dst_col].to_numpy(zero_copy_only=False)
            return pa.table({"c": pa.array(np.bincount(d, weights=v[s], minlength=_n))})

        acc = np.zeros(n_ent, np.float64)
        for blk in pairs.map_batches(
            contrib, batch_format="pyarrow", batch_size=None
        ).iter_batches(batch_format="pyarrow", batch_size=None):
            acc += blk["c"].to_numpy(zero_copy_only=False)
        return acc

    h = np.ones(n_ent, np.float64)
    a = np.zeros(n_ent, np.float64)
    for _ in range(n_iter):
        a = fold(ray.put(h), "a", "b")  # authority(d) = sum hub(s) over s->d
        a /= a.sum()
        h = fold(ray.put(a), "b", "a")  # hub(s) = sum authority(d) over s->d
        h /= h.sum()

    return pa.table(
        {
            "entity": pa.array(np.asarray(vocab, object).tolist(), pa.string()),
            "hub": pa.array(np.round(h, 6), pa.float64()),
            "authority": pa.array(np.round(a, 6), pa.float64()),
        }
    )


def kg_random_walks(
    ea: Dataset, n_seeds: int = 8, walks_per_seed: int = 2, walk_len: int = 4
) -> Dataset:
    """DeepWalk-style DETERMINISTIC random walks over the KG's undirected
    distinct-pair graph — the corpus-preparation step for skip-gram node
    embeddings (Perozzi et al. 2014): emit (seed, walk_id, step, entity)
    rows, step 0..walk_len, where step t's node is chosen from the sorted
    neighbor list of step t-1's node by the md5 index
    ``int(md5(f"{cur}|{walk_id}|{t}")[:8], 16) % degree`` — the
    kg_negative_samples digest-index trick, so a DuckDB oracle reproduces
    every hop exactly. Seeds are the n_seeds highest-degree nodes (ties by
    entity asc — the kg_bfs_reach / kg_ppr seed rule).

    Scale shape: the CSR adjacency is built once from the coded distinct
    pairs (vocabulary-bounded — the canonical-map driver-budget argument;
    the KG is the REDUCED output, orders of magnitude smaller than the
    corpus) and broadcast via ray.put; walks are embarrassingly parallel
    over a (seed, walk_id) Dataset — each batch advances its walks with
    CSR lookups, per-walk md5 cost bounded by the REQUESTED walk count,
    never by corpus size."""
    import hashlib

    import ray

    from ..util import cached_get

    pairs, vocab_ref = _coded_undirected_pairs(ea)
    pairs = pairs.materialize()
    vocab = ray.get(vocab_ref)
    n_ent = len(vocab)

    # degree + CSR from the coded pair blocks (node-bounded driver state,
    # edge arrays vocabulary-bounded)
    a_parts, b_parts = [], []
    for blk in pairs.iter_batches(batch_format="pyarrow", batch_size=None):
        a_parts.append(blk["a"].to_numpy(zero_copy_only=False))
        b_parts.append(blk["b"].to_numpy(zero_copy_only=False))
    a_all = np.concatenate(a_parts) if a_parts else np.empty(0, np.int64)
    b_all = np.concatenate(b_parts) if b_parts else np.empty(0, np.int64)
    src = np.concatenate([a_all, b_all])
    dst = np.concatenate([b_all, a_all])
    order = np.lexsort((dst, src))
    src, dst = src[order], dst[order]
    indptr = np.searchsorted(src, np.arange(n_ent + 1))
    deg = np.diff(indptr)
    seeds = np.argsort(-deg, kind="stable")[:n_seeds]

    adj_ref = ray.put((indptr, dst))
    vocab_list = np.asarray(vocab, object)

    walk_seeds = pa.table(
        {
            "seed": pa.array(
                np.repeat(vocab_list[seeds], walks_per_seed).tolist(), pa.string()
            ),
            "walk_id": pa.array(
                np.tile(np.arange(walks_per_seed, dtype=np.int64), len(seeds))
            ),
        }
    )

    def walk(t: pa.Table, _adj=adj_ref, _voc=vocab_ref) -> pa.Table:
        indptr_, dst_ = cached_get(_adj)
        voc = cached_get(_voc)
        seeds_s = t["seed"].to_numpy(zero_copy_only=False)
        wids = t["walk_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        out_seed, out_wid, out_step, out_ent = [], [], [], []
        for s, w in zip(seeds_s.tolist(), wids.tolist()):
            cur = int(np.searchsorted(voc, s))
            out_seed.append(s); out_wid.append(w); out_step.append(0)
            out_ent.append(s)
            for step in range(1, walk_len + 1):
                lo, hi = int(indptr_[cur]), int(indptr_[cur + 1])
                if hi == lo:  # isolated node: walk ends (cannot happen on
                    break  # pair-derived vocab; guard for direct callers)
                key = f"{voc[cur]}|{w}|{step}"
                idx = int(hashlib.md5(key.encode()).hexdigest()[:8], 16) % (hi - lo)
                cur = int(dst_[lo + idx])
                out_seed.append(s); out_wid.append(w); out_step.append(step)
                out_ent.append(str(voc[cur]))
        return pa.table(
            {
                "seed": pa.array(out_seed, pa.string()),
                "walk_id": pa.array(out_wid, pa.int64()),
                "step": pa.array(out_step, pa.int64()),
                "entity": pa.array(out_ent, pa.string()),
            }
        )

    return rd.from_arrow(walk_seeds).map_batches(
        walk, batch_format="pyarrow", batch_size=None
    )


def kg_component_sizes(ea: Dataset) -> Dataset:
    """Connected-component size histogram of the KG's undirected
    distinct-pair graph — the standard KG-construction QA metric (is the
    graph one connected knowledge base or a spray of fragments?). Returns
    (size, n_components) — e.g. (5002, 1) for a fully connected KG.

    Scale shape: components come from the budgeted `connected_components`
    (driver union-find under the edge budget, distributed min-label
    propagation past it — nothing here changes with graph size); the size
    histogram is two bounded partial-count exchanges (component-keyed then
    size-keyed), the value_histogram shape."""
    pairs, _ = _coded_undirected_pairs(ea)
    comp = connected_components(pairs, a="a", b="b")

    def size_partial(t: pa.Table) -> pa.Table:
        g = t.group_by("component", use_threads=False).aggregate([([], "count_all")])
        return g.rename_columns(["component", "n"])

    sizes = (
        comp.map_batches(size_partial, batch_format="pyarrow", batch_size=None)
        .groupby("component")
        .aggregate(Sum("n", alias_name="size"))
    )

    def hist_partial(t: pa.Table) -> pa.Table:
        g = t.select(["size"]).group_by("size", use_threads=False).aggregate([([], "count_all")])
        return g.rename_columns(["size", "n"])

    agg = (
        sizes.map_batches(hist_partial, batch_format="pyarrow", batch_size=None)
        .groupby("size")
        .aggregate(Sum("n", alias_name="n_components"))
    )
    return agg.map_batches(
        lambda t: pa.table(
            {
                "size": pc.cast(t["size"], pa.int64()),
                "n_components": pc.cast(t["n_components"], pa.int64()),
            }
        ),
        batch_format="pyarrow",
        batch_size=None,
    )


def kg_label_prop(ea: Dataset, n_iter: int = 3) -> "pa.Table":
    """Deterministic synchronous label-propagation community detection
    (Raghavan-Albert-Kumara 2007) over the KG's undirected distinct-pair
    graph — the cheap community layer for GraphRAG-style corpus clustering.
    label_0(v) = v; each synchronous round every node adopts the MOST
    FREQUENT label among its neighbors, ties broken by the smallest label
    id (ids index the SORTED vocabulary, so the tie-break is lexicographic
    on entity strings — fully deterministic and oracle-replayable; the
    classic random tie-break would not be). Returns (entity, community),
    community = the entity string of the final label after ``n_iter``
    rounds (fixed iteration count, not convergence — synchronous LPA can
    oscillate on bipartite structures, and a fixed horizon is what a SQL
    oracle can replay).

    Scale shape: the symmetrized coded pairs are exchanged ONCE onto
    node-keyed coarse partitions and materialized; every iteration is then
    shuffle-free — the node-bounded label vector rides one ray.put
    broadcast, each partition computes its nodes' label modes with two
    lexsorts (vectorized run-length counts over (node, neighbor_label);
    the partition contract co-locates ALL edges of a node), and the driver
    folds the node-bounded (node, label) partials — kg_hits' broadcast-fold
    contract with a mode instead of a sum."""
    import ray

    from ..util import cached_get

    out_schema = pa.schema([("entity", pa.string()), ("community", pa.string())])
    pairs, vocab_ref = _coded_undirected_pairs(ea)
    vocab = ray.get(vocab_ref)
    n_ent = len(vocab)
    if n_ent == 0:
        return out_schema.empty_table()

    parted = map_partitions(_sym_with_part(pairs, "a", "b"), "__part", lambda t: t).materialize()

    mode_schema = pa.schema([("node", pa.int64()), ("label", pa.int64())])

    def modes(t: pa.Table, _ref) -> pa.Table:
        lab = cached_get(_ref)
        node = t["node"].to_numpy(zero_copy_only=False)
        nl = lab[t["neighbor"].to_numpy(zero_copy_only=False)]
        # run-length count of (node, neighbor_label) pairs
        order = np.lexsort((nl, node))
        n_s, l_s = node[order], nl[order]
        change = (n_s[1:] != n_s[:-1]) | (l_s[1:] != l_s[:-1])
        starts = np.concatenate([[0], np.nonzero(change)[0] + 1])
        counts = np.diff(np.concatenate([starts, [len(n_s)]]))
        gn, gl = n_s[starts], l_s[starts]
        # per node: argmax count, tie -> smallest label id
        order2 = np.lexsort((gl, -counts, gn))
        gn2, gl2 = gn[order2], gl[order2]
        first = np.concatenate([[True], gn2[1:] != gn2[:-1]])
        return pa.table(
            {
                "node": pa.array(gn2[first], pa.int64()),
                "label": pa.array(gl2[first], pa.int64()),
            }
        )

    labels = np.arange(n_ent, dtype=np.int64)
    for _ in range(n_iter):
        ref = ray.put(labels)
        nxt = labels.copy()  # pair-derived vocab => every node has degree>=1
        for blk in parted.map_batches(
            lambda t, _ref=ref: modes(t, _ref) if t.num_rows else mode_schema.empty_table(),
            batch_format="pyarrow",
            batch_size=None,
        ).iter_batches(batch_format="pyarrow", batch_size=None):
            nxt[blk["node"].to_numpy(zero_copy_only=False)] = blk["label"].to_numpy(
                zero_copy_only=False
            )
        labels = nxt

    ent = np.asarray(vocab, object)
    return pa.table(
        {
            "entity": pa.array(ent.tolist(), pa.string()),
            "community": pa.array(ent[labels].tolist(), pa.string()),
        }
    )


def kg_predicate_entropy(edges_agg: Dataset) -> Dataset:
    """Per-subject predicate-distribution profile of the KG: how many
    distinct predicates an entity participates in as subject, and the
    Shannon entropy of its weight mass across them — the "semantic
    diversity" signal a KG-quality pass uses to spot entities whose
    extractions collapsed onto one relation (entropy 0) or smeared across
    everything. Emits (node, n_preds, pred_entropy) with entropy rounded to
    6 (the kg_adamic_adar contract: integer weights cross the exchange, the
    float log happens once per group, ROUND absorbs the engines' float-sum
    orders; +0.0 normalizes IEEE -0.0 on single-predicate nodes).

    Scale shape: per-block Arrow group_by (subj, pred) Sum partials, ONE
    subj-keyed exchange of the pre-aggregated light rows, vectorized
    bincount entropy per partition."""

    def partial(t: pa.Table) -> pa.Table:
        g = (
            t.select(["subj", "pred", "weight"])
            .group_by(["subj", "pred"], use_threads=False)
            .aggregate([("weight", "sum")])
        )
        g = pa.table({"subj": g["subj"], "pred": g["pred"], "w": g["weight_sum"]})
        return g.append_column("__part", part_ids(g, ["subj"]))


    def entropy(t: pa.Table) -> pa.Table:
        g = (
            t.select(["subj", "pred", "w"])
            .group_by(["subj", "pred"], use_threads=False)
            .aggregate([("w", "sum")])
        )
        subj = g["subj"].to_numpy(zero_copy_only=False)
        w = g["w_sum"].to_numpy(zero_copy_only=False).astype(np.float64)
        nodes, codes = np.unique(subj, return_inverse=True)
        tw = np.bincount(codes, weights=w)
        p = w / tw[codes]
        h = -np.bincount(codes, weights=p * np.log(p))
        n_preds = np.bincount(codes).astype(np.int64)
        return pa.table(
            {
                "node": pa.array(nodes.tolist(), pa.string()),
                "n_preds": pa.array(n_preds, pa.int64()),
                "pred_entropy": pa.array(np.round(h, 6) + 0.0, pa.float64()),
            }
        )

    return map_partitions(
        edges_agg.map_batches(
            partial, batch_format="pyarrow", batch_size=None, zero_copy_batch=True
        ),
        "__part",
        entropy,
    )


def kg_edge_timestamps(
    edges: Dataset, transcripts_path: str, with_last: bool = False
) -> Dataset:
    """Wall-clock provenance per aggregated triple: join every per-turn
    edge mention back to its source turn's timestamp and emit (subj, pred,
    obj, first_ts_us, n_mentions) — when the KG first learned each fact.
    ``with_last=True`` additionally carries last_ts_us (Max merges the same
    way Min does; kg_edge_lifespan builds on it).
    kg_edge_provenance keys lineage by (conv_id:turn_idx); this is the
    variant a time-sliced KG build needs, and it is the engine's BIG x BIG
    cross-table EQUI-JOIN: neither side fits a broadcast at 10^12 turns.

    Distributed shape (partitioned hash join): both sides shrink to light
    rows in their scans (transcripts to (conv, turn, ts) — text never
    enters; edges to their key + triple strings), are tagged with the SAME
    conv-hash partition, and meet in ONE co-partitioned exchange; the
    per-partition kernel is a vectorized searchsorted lookup (turn keys are
    unique), immediately pre-aggregated per (subj, pred, obj) before the
    small triple-keyed Min/Sum exchange finishes. Join multiplicity is 1:
    (conv_id, turn_idx) is the transcripts primary key."""
    import ray.data as rd
    from ray.data.aggregate import Min, Sum

    def t_side(t: pa.Table) -> pa.Table:
        conv = t["conv_id"].to_numpy(zero_copy_only=False)
        n = len(conv)
        return pa.table(
            {
                "side": pa.array(np.zeros(n, np.int64)),
                "conv_id": t["conv_id"].combine_chunks().cast(pa.string()),
                "turn_idx": pc.cast(t["turn_idx"], pa.int64()),
                "ts_us": pa.array(
                    t["ts"].to_numpy(zero_copy_only=False).astype("datetime64[us]").astype(np.int64)
                ),
                "subj": pa.array([""] * n, pa.string()),
                "pred": pa.array([""] * n, pa.string()),
                "obj": pa.array([""] * n, pa.string()),
                "w": pa.array(np.zeros(n, np.int64)),
                "__part": part_ids(t["conv_id"]),
            }
        )

    def e_side(t: pa.Table) -> pa.Table:
        conv = t["conv_id"].to_numpy(zero_copy_only=False)
        n = len(conv)
        return pa.table(
            {
                "side": pa.array(np.ones(n, np.int64)),
                "conv_id": t["conv_id"].combine_chunks().cast(pa.string()),
                "turn_idx": pc.cast(t["turn_idx"], pa.int64()),
                "ts_us": pa.array(np.zeros(n, np.int64)),
                "subj": t["subj"].combine_chunks().cast(pa.string()),
                "pred": t["pred"].combine_chunks().cast(pa.string()),
                "obj": t["obj"].combine_chunks().cast(pa.string()),
                "w": pc.cast(t["weight"], pa.int64()),
                "__part": part_ids(t["conv_id"]),
            }
        )

    tr = rd.read_parquet(transcripts_path, columns=["conv_id", "turn_idx", "ts"])
    tagged = tr.map_batches(
        t_side, batch_format="pyarrow", batch_size=None, zero_copy_batch=True
    ).union(
        edges.map_batches(e_side, batch_format="pyarrow", batch_size=None, zero_copy_batch=True)
    )

    out_schema = pa.schema(
        [
            ("subj", pa.string()),
            ("pred", pa.string()),
            ("obj", pa.string()),
            ("first_ts_us", pa.int64()),
        ]
        + ([("last_ts_us", pa.int64())] if with_last else [])
        + [("n_mentions", pa.int64())]
    )

    def join_part(t: pa.Table) -> pa.Table:
        side = t["side"].to_numpy(zero_copy_only=False)
        conv = t["conv_id"].to_numpy(zero_copy_only=False)
        turn = t["turn_idx"].to_numpy(zero_copy_only=False)
        _, codes = np.unique(conv, return_inverse=True)
        key = codes.astype(np.int64) << np.int64(32) | turn
        tm = side == 0
        em = ~tm
        if not em.any():
            return out_schema.empty_table()
        tkey = key[tm]
        tts = t["ts_us"].to_numpy(zero_copy_only=False)[tm]
        order = np.argsort(tkey)
        tkey, tts = tkey[order], tts[order]
        pos = np.searchsorted(tkey, key[em])
        # every edge witness (conv, turn) exists in transcripts by
        # construction; a miss would mean lineage corruption — fail loud
        if not (pos < len(tkey)).all() or not (tkey[pos] == key[em]).all():
            raise ValueError("kg_edge_timestamps: edge witness missing from transcripts")
        g = pa.table(
            {
                "subj": pa.array(t["subj"].to_numpy(zero_copy_only=False)[em], pa.string()),
                "pred": pa.array(t["pred"].to_numpy(zero_copy_only=False)[em], pa.string()),
                "obj": pa.array(t["obj"].to_numpy(zero_copy_only=False)[em], pa.string()),
                "ts_us": pa.array(tts[pos], pa.int64()),
                "w": pa.array(t["w"].to_numpy(zero_copy_only=False)[em], pa.int64()),
            }
        ).group_by(["subj", "pred", "obj"], use_threads=False).aggregate(
            [("ts_us", "min")]
            + ([("ts_us", "max")] if with_last else [])
            + [("w", "sum")]
        )
        cols = {
            "subj": g["subj"],
            "pred": g["pred"],
            "obj": g["obj"],
            "first_ts_us": g["ts_us_min"].cast(pa.int64()),
        }
        if with_last:
            cols["last_ts_us"] = g["ts_us_max"].cast(pa.int64())
        cols["n_mentions"] = g["w_sum"].cast(pa.int64())
        return pa.table(cols)

    partials = map_partitions(tagged, "__part", join_part)
    from ray.data.aggregate import Max as _Max

    aggs = [Min("first_ts_us", alias_name="first_ts_us")]
    if with_last:
        aggs.append(_Max("last_ts_us", alias_name="last_ts_us"))
    aggs.append(Sum("n_mentions", alias_name="n_mentions"))
    return partials.groupby(["subj", "pred", "obj"]).aggregate(*aggs)


def kg_edge_lifespan(edges: Dataset, transcripts_path: str) -> Dataset:
    """Temporal extent per aggregated triple: (first_ts_us, last_ts_us,
    span_us, n_mentions) — how long each fact stayed 'alive' in the
    transcript stream. Same big x big partitioned hash join as
    kg_edge_timestamps (Max merges exactly like Min through the partial +
    final exchanges); span is integer microsecond arithmetic, exact on both
    engines."""

    ds = kg_edge_timestamps(edges, transcripts_path, with_last=True)

    def finish(t: pa.Table) -> pa.Table:
        return t.append_column(
            "span_us",
            pc.cast(pc.subtract(t["last_ts_us"], t["first_ts_us"]), pa.int64()),
        )

    return ds.map_batches(finish, batch_format="pyarrow", batch_size=None)


def kg_schema_profile(ea: Dataset) -> Dataset:
    """Schema card of the constructed KG — per predicate: number of distinct
    triples, summed mention weight, and the distinct subject / object
    cardinalities. The distinct counts stay DISTRIBUTED: per-batch distinct
    (pred, entity) partials -> one pair-keyed dedup groupby -> per-batch
    count partial -> tiny pred-keyed sum (the corpus_datasheet pattern);
    only the final per-predicate rows (vocabulary-bounded) reach the
    driver, where the three profiles merge by predicate."""

    def base_part(t: pa.Table) -> pa.Table:
        g = t.group_by("pred", use_threads=False).aggregate(
            [("weight", "sum"), ("weight", "count")]
        )
        return pa.table(
            {
                "pred": g["pred"],
                "total_weight": pc.cast(g["weight_sum"], pa.int64()),
                "n_triples": pc.cast(g["weight_count"], pa.int64()),
            }
        )

    base = (
        ea.map_batches(base_part, batch_format="pyarrow", batch_size=None,
                       zero_copy_batch=True)
        .groupby("pred")
        .aggregate(
            Sum("total_weight", alias_name="total_weight"),
            Sum("n_triples", alias_name="n_triples"),
        )
        .to_pandas()
    )

    def distinct_count(key: str, out_col: str) -> "pd.DataFrame":
        def pair_part(t: pa.Table) -> pa.Table:
            g = t.group_by(["pred", key], use_threads=False).aggregate([])
            return g.rename_columns(["pred", "ent"])

        from ray.data.aggregate import Count as _Count

        deduped = (
            ea.map_batches(pair_part, batch_format="pyarrow", batch_size=None,
                           zero_copy_batch=True)
            .groupby(["pred", "ent"])
            # distinct (pred, entity) pairs, still distributed; the count
            # column is a discarded artifact of Ray's aggregate API
            .aggregate(_Count(alias_name="_c"))
        )

        def count_part(t: pa.Table) -> pa.Table:
            g = t.group_by("pred", use_threads=False).aggregate([([], "count_all")])
            return g.rename_columns(["pred", out_col])

        return (
            deduped.map_batches(count_part, batch_format="pyarrow",
                                batch_size=None, zero_copy_batch=True)
            .groupby("pred")
            .aggregate(Sum(out_col, alias_name=out_col))
            .to_pandas()
        )

    out = base.merge(distinct_count("subj", "n_subj"), on="pred").merge(
        distinct_count("obj", "n_obj"), on="pred"
    )[["pred", "n_triples", "total_weight", "n_subj", "n_obj"]]
    out["n_subj"] = out["n_subj"].astype("int64")
    out["n_obj"] = out["n_obj"].astype("int64")
    return rd.from_pandas(out)


def _string_ids(col: "pa.ChunkedArray | pa.Array") -> np.ndarray:
    """Deterministic 64-bit id per string (pandas hash_array — stable across
    batches and workers; collision odds ~n^2/2^64, the library-wide hashed-
    key argument). Returned as int64 for searchsorted lookups."""
    from pandas.util import hash_array

    vals = col.to_numpy(zero_copy_only=False)
    return hash_array(vals.astype(object), categorize=False).view(np.int64)


def kg_degree_assortativity(ea: Dataset, max_nodes: int = 5_000_000) -> "pa.Table":
    """Degree assortativity of the KG (Newman 2002): Pearson correlation of
    the (unweighted total) degrees at the two ends of every edge, both
    orientations — do high-degree entities link to other hubs or to leaves?

    Shape: kg_node_degrees (mergeable partials) -> node->degree broadcast
    (sorted int-keyed arrays via ray.put, budget-guarded: past ``max_nodes``
    this raises and names the exchange alternative rather than silently
    holding an unbounded driver map — the exact-or-error contract of
    kg_common_neighbors) -> per-batch float64 moment partials
    (n, sx, sy, sxx, syy, sxy) -> one tiny reduce. Degrees are symmetric
    across orientations, so sx == sy and the formula collapses, but both
    moment sets are kept so the SQL oracle's corr() is mirrored literally."""
    import ray as _ray

    deg = kg_node_degrees(ea)
    if deg.count() > max_nodes:
        raise ValueError(
            f"kg_degree_assortativity: node count > max_nodes={max_nodes}; "
            "switch to the two-pass attach exchange (join degrees to edges "
            "by endpoint) or raise max_nodes explicitly"
        )
    parts = [b for b in deg.iter_batches(batch_format="pyarrow")]
    dt = pa.concat_tables(parts)
    node_hash = _string_ids(dt["node"])
    total = (
        dt["out_degree"].to_numpy(zero_copy_only=False)
        + dt["in_degree"].to_numpy(zero_copy_only=False)
    ).astype(np.float64)
    order = np.argsort(node_hash, kind="stable")
    deg_ref = _ray.put((node_hash[order], total[order]))

    def moments(t: pa.Table) -> pa.Table:
        from ..util import cached_get

        keys, vals = cached_get(deg_ref)
        s = _string_ids(t["subj"])
        o = _string_ids(t["obj"])
        ds_ = vals[np.searchsorted(keys, s)]
        do_ = vals[np.searchsorted(keys, o)]
        x = np.concatenate([ds_, do_])  # both orientations
        y = np.concatenate([do_, ds_])
        return pa.table(
            {
                "n": pa.array([float(len(x))], pa.float64()),
                "sx": pa.array([float(x.sum())], pa.float64()),
                "sy": pa.array([float(y.sum())], pa.float64()),
                "sxx": pa.array([float((x * x).sum())], pa.float64()),
                "syy": pa.array([float((y * y).sum())], pa.float64()),
                "sxy": pa.array([float((x * y).sum())], pa.float64()),
            }
        )

    m = (
        ea.map_batches(moments, batch_format="pyarrow", batch_size=None,
                       zero_copy_batch=True)
        .to_pandas()
        .sum()
    )
    n, sx, sy, sxx, syy, sxy = (m[c] for c in ("n", "sx", "sy", "sxx", "syy", "sxy"))
    num = n * sxy - sx * sy
    den = np.sqrt(max(n * sxx - sx * sx, 0.0)) * np.sqrt(max(n * syy - sy * sy, 0.0))
    r = float(num / den) if den > 0 else float("nan")
    return pa.table({"assortativity": pa.array([round(r, 6)], pa.float64())})


def kg_extraction_yield(edges: Dataset, transcripts_path: str) -> Dataset:
    """Extraction-quality audit of the KG build: per conversation, yield =
    total edge mentions / total turns, folded into a bounded histogram of
    (yield_bucket, n_convs) with bucket = min(10 * mentions // turns, 50)
    — tenths of a triple per turn, INTEGER arithmetic so the boundary is
    exact on both engines. Conversations that produced no edges land in
    bucket 0 (the audit's whole point is seeing extraction dead zones).

    Scale shape: both sides pre-aggregate per conversation inside
    map_batches (edges to SUM(weight), transcripts to COUNT), meet in ONE
    conv-keyed groupby, and collapse to the <= 51-row bucket histogram —
    the full_outer_daily_activity tagged-union pattern with a left
    (transcripts) spine."""
    import ray.data as rd

    tr = rd.read_parquet(transcripts_path, columns=["conv_id"])

    def t_part(t: pa.Table) -> pa.Table:
        g = t.group_by("conv_id", use_threads=False).aggregate([([], "count_all")])
        g = g.rename_columns(["conv_id", "n_turns"])
        return pa.table(
            {
                "conv_id": g["conv_id"],
                "n_turns": pc.cast(g["n_turns"], pa.int64()),
                "n_mentions": pa.array(np.zeros(g.num_rows, np.int64)),
            }
        )

    def e_part(t: pa.Table) -> pa.Table:
        g = t.group_by("conv_id", use_threads=False).aggregate([("weight", "sum")])
        g = g.rename_columns(["conv_id", "n_mentions"])
        return pa.table(
            {
                "conv_id": g["conv_id"],
                "n_turns": pa.array(np.zeros(g.num_rows, np.int64)),
                "n_mentions": pc.cast(g["n_mentions"], pa.int64()),
            }
        )

    per_conv = (
        tr.map_batches(t_part, batch_format="pyarrow", batch_size=None,
                       zero_copy_batch=True)
        .union(
            edges.map_batches(e_part, batch_format="pyarrow", batch_size=None,
                              zero_copy_batch=True)
        )
        .groupby("conv_id")
        .aggregate(
            Sum("n_turns", alias_name="n_turns"),
            Sum("n_mentions", alias_name="n_mentions"),
        )
    )

    def bucket_part(t: pa.Table) -> pa.Table:
        turns = t["n_turns"].to_numpy(zero_copy_only=False).astype(np.int64)
        men = t["n_mentions"].to_numpy(zero_copy_only=False).astype(np.int64)
        # every conv_id comes from the transcripts spine, so turns >= 1;
        # an edges-only conv would mean lineage corruption — fail loud
        if (turns <= 0).any():
            raise ValueError("kg_extraction_yield: conv with edges but no turns")
        b = np.minimum(10 * men // turns, 50)
        g = (
            pa.table({"yield_bucket": pa.array(b, pa.int64())})
            .group_by("yield_bucket", use_threads=False)
            .aggregate([([], "count_all")])
        )
        return g.rename_columns(["yield_bucket", "n_convs"])

    hist = (
        per_conv.map_batches(bucket_part, batch_format="pyarrow", batch_size=None)
        .groupby("yield_bucket")
        .aggregate(Sum("n_convs", alias_name="n_convs"))
    )
    return hist.map_batches(
        lambda t: t.set_column(
            t.column_names.index("n_convs"), "n_convs", pc.cast(t["n_convs"], pa.int64())
        ),
        batch_format="pyarrow",
        batch_size=None,
    )


def kg_path_census(edges_agg: Dataset) -> Dataset:
    """2-hop path motif census of the KG: for every ordered predicate pair
    (pred1, pred2), the number of distinct chains a -pred1-> m -pred2-> c
    over the aggregated triple table (the reference's path/motif query over
    extracted triples; reference parity: search over linked records,
    SURVEY.md §2.4 graph-shape queries). Mirrors the SQL self-join
    ``e1 JOIN e2 ON e1.obj = e2.subj`` exactly — no self-loop or a==c
    exclusion — so the oracle is one equi-join.

    Scale shape: never materializes a path. Each block collapses to
    (node, pred, n_in, n_out) light partials (Arrow group_by); ONE
    node-keyed exchange; per middle node the chain count factorizes as
    sum_m n_in(m, pred1) * n_out(m, pred2) — a per-node cross of at most
    |P| x |P| predicate rows (vocabulary-bounded, NOT degree-bounded, so
    hubs cost the same as leaves); per-partition (pred1, pred2) partials
    meet in a final |P|^2-row combine."""

    def partial(t: pa.Table) -> pa.Table:
        go = (
            t.select(["subj", "pred"])
            .group_by(["subj", "pred"], use_threads=False)
            .aggregate([([], "count_all")])
        ).rename_columns(["subj", "pred", "count"])
        gi = (
            t.select(["obj", "pred"])
            .group_by(["obj", "pred"], use_threads=False)
            .aggregate([([], "count_all")])
        ).rename_columns(["obj", "pred", "count"])
        no, ni = go.num_rows, gi.num_rows
        out = pa.table(
            {
                "node": pa.concat_arrays(
                    [
                        gi["obj"].combine_chunks().cast(pa.string()),
                        go["subj"].combine_chunks().cast(pa.string()),
                    ]
                ),
                "pred": pa.concat_arrays(
                    [
                        gi["pred"].combine_chunks().cast(pa.string()),
                        go["pred"].combine_chunks().cast(pa.string()),
                    ]
                ),
                "n_in": pa.array(
                    np.concatenate(
                        [
                            gi["count"].to_numpy(zero_copy_only=False).astype(np.int64),
                            np.zeros(no, np.int64),
                        ]
                    )
                ),
                "n_out": pa.array(
                    np.concatenate(
                        [
                            np.zeros(ni, np.int64),
                            go["count"].to_numpy(zero_copy_only=False).astype(np.int64),
                        ]
                    )
                ),
            }
        )
        return out.append_column("__part", part_ids(out, ["node"]))

    out_schema = pa.schema(
        [("pred1", pa.string()), ("pred2", pa.string()), ("n_paths", pa.int64())]
    )

    def cross(t: pa.Table) -> pa.Table:
        g = (
            t.select(["node", "pred", "n_in", "n_out"])
            .group_by(["node", "pred"], use_threads=False)
            .aggregate([("n_in", "sum"), ("n_out", "sum")])
        )
        df = g.to_pandas()
        left = df.loc[df["n_in_sum"] > 0, ["node", "pred", "n_in_sum"]].rename(
            columns={"pred": "pred1"}
        )
        right = df.loc[df["n_out_sum"] > 0, ["node", "pred", "n_out_sum"]].rename(
            columns={"pred": "pred2"}
        )
        m = left.merge(right, on="node")
        if m.empty:
            return out_schema.empty_table()
        m["n_paths"] = m["n_in_sum"].to_numpy() * m["n_out_sum"].to_numpy()
        p = m.groupby(["pred1", "pred2"], sort=False)["n_paths"].sum().reset_index()
        return pa.table(
            {
                "pred1": pa.array(p["pred1"], pa.string()),
                "pred2": pa.array(p["pred2"], pa.string()),
                "n_paths": pa.array(p["n_paths"].to_numpy().astype(np.int64)),
            }
        )

    partials = map_partitions(
        edges_agg.map_batches(
            partial, batch_format="pyarrow", batch_size=None, zero_copy_batch=True
        ),
        "__part",
        cross,
    )
    agg = partials.groupby(["pred1", "pred2"]).aggregate(
        Sum("n_paths", alias_name="n_paths")
    )
    return agg.map_batches(
        lambda t: t.set_column(
            t.column_names.index("n_paths"), "n_paths", pc.cast(t["n_paths"], pa.int64())
        ),
        batch_format="pyarrow",
        batch_size=None,
    )


def kg_reciprocity(edges_agg: Dataset) -> Dataset:
    """Per-predicate reciprocity of the KG: of the distinct directed
    (subj, obj) pairs under each predicate (self-loops excluded — a loop's
    reverse is itself), what fraction also has the reverse edge under the
    SAME predicate. The directionality-QA signal for extraction: a
    symmetric relation extracted asymmetrically shows up as low
    reciprocity. Emits (pred, n_pairs, n_recip, recip_rate) with rate
    rounded to 6.

    Scale shape: the aggregated table is already DISTINCT triples, so each
    directed pair crosses once as a canonical (pred, lo, hi) light row;
    ONE pair-keyed exchange; a group of size 2 is a reciprocal pair (size
    > 2 is impossible and fails loud); per-partition per-pred partials
    meet in a |P|-row combine."""

    def partial(t: pa.Table) -> pa.Table:
        t = t.filter(pc.invert(pc.equal(t["subj"], t["obj"])))
        lo = pc.min_element_wise(t["subj"], t["obj"])
        hi = pc.max_element_wise(t["subj"], t["obj"])
        g = (
            pa.table({"pred": t["pred"], "lo": lo, "hi": hi})
            .group_by(["pred", "lo", "hi"], use_threads=False)
            .aggregate([([], "count_all")])
        )
        g = g.rename_columns(["pred", "lo", "hi", "cnt"])
        g = g.set_column(
            g.column_names.index("cnt"), "cnt", pc.cast(g["cnt"], pa.int64())
        )
        return g.append_column("__part", part_ids(g, ["pred", "lo", "hi"]))


    def fold(t: pa.Table) -> pa.Table:
        g = (
            t.select(["pred", "lo", "hi", "cnt"])
            .group_by(["pred", "lo", "hi"], use_threads=False)
            .aggregate([("cnt", "sum")])
        )
        cnt = g["cnt_sum"].to_numpy(zero_copy_only=False).astype(np.int64)
        if (cnt > 2).any():
            raise ValueError("kg_reciprocity: >2 directed edges for one pair+pred")
        pred = g["pred"].to_numpy(zero_copy_only=False)
        preds, codes = np.unique(pred, return_inverse=True)
        n_pairs = np.bincount(codes, weights=cnt).astype(np.int64)
        n_recip = np.bincount(codes, weights=np.where(cnt == 2, 2, 0)).astype(np.int64)
        return pa.table(
            {
                "pred": pa.array(preds.tolist(), pa.string()),
                "n_pairs": pa.array(n_pairs),
                "n_recip": pa.array(n_recip),
            }
        )

    agg = (
        map_partitions(
            edges_agg.map_batches(
                partial, batch_format="pyarrow", batch_size=None, zero_copy_batch=True
            ),
            "__part",
            fold,
        )
        .groupby("pred")
        .aggregate(
            Sum("n_pairs", alias_name="n_pairs"), Sum("n_recip", alias_name="n_recip")
        )
    )

    def finish(t: pa.Table) -> pa.Table:
        npair = pc.cast(t["n_pairs"], pa.int64())
        nrec = pc.cast(t["n_recip"], pa.int64())
        rate = np.round(
            nrec.to_numpy(zero_copy_only=False)
            / npair.to_numpy(zero_copy_only=False).astype(np.float64),
            6,
        )
        return pa.table(
            {
                "pred": t["pred"],
                "n_pairs": npair,
                "n_recip": nrec,
                "recip_rate": pa.array(rate + 0.0, pa.float64()),
            }
        )

    return agg.map_batches(finish, batch_format="pyarrow", batch_size=None)


def kg_star_query(
    edges_agg: Dataset, preds: tuple[str, ...] = ("asks_about", "states", "configures")
) -> Dataset:
    """Conjunctive star query over the KG: subjects that have at least one
    outgoing edge for EVERY predicate in ``preds``, with the total number
    of matched triples — the multi-constraint entity lookup a GraphRAG
    retrieval layer issues ("entities that ask about X AND state Y AND
    configure Z" shape, here predicate-existential). Emits (subj, n_objs).

    Scale shape: the predicate filter prunes at the scan; blocks collapse
    to (subj, pred, n) partials; ONE subj-keyed exchange; the all-preds
    test is a vectorized distinct-pred bincount per subject. Output is
    bounded by the rarest predicate's subject count."""
    want = sorted(set(preds))

    def partial(t: pa.Table) -> pa.Table:
        t = t.filter(pc.is_in(t["pred"], value_set=pa.array(want)))
        g = (
            t.select(["subj", "pred"])
            .group_by(["subj", "pred"], use_threads=False)
            .aggregate([([], "count_all")])
        )
        g = g.rename_columns(["subj", "pred", "n"])
        g = g.set_column(g.column_names.index("n"), "n", pc.cast(g["n"], pa.int64()))
        return g.append_column("__part", part_ids(g, ["subj"]))


    def fold(t: pa.Table) -> pa.Table:
        g = (
            t.select(["subj", "pred", "n"])
            .group_by(["subj", "pred"], use_threads=False)
            .aggregate([("n", "sum")])
        )
        subj = g["subj"].to_numpy(zero_copy_only=False)
        n = g["n_sum"].to_numpy(zero_copy_only=False).astype(np.int64)
        subjs, codes = np.unique(subj, return_inverse=True)
        n_preds = np.bincount(codes).astype(np.int64)  # rows are distinct (subj,pred)
        n_objs = np.bincount(codes, weights=n).astype(np.int64)
        keep = n_preds == len(want)
        return pa.table(
            {
                "subj": pa.array(subjs[keep].tolist(), pa.string()),
                "n_objs": pa.array(n_objs[keep]),
            }
        )

    return map_partitions(
        edges_agg.map_batches(
            partial, batch_format="pyarrow", batch_size=None, zero_copy_batch=True
        ),
        "__part",
        fold,
    )


def kg_temporal_growth(edges: Dataset, transcripts_path: str) -> Dataset:
    """KG growth curve: how many NEW distinct triples the graph learned per
    day — each triple dated by its first witness timestamp (the
    kg_edge_timestamps big x big join), then a days-bounded histogram.
    The time-sliced-build QA a continuously-updated KG needs: a flat curve
    means extraction saturated; a spike means a corpus drop landed. Emits
    (day, n_new_triples) with day = epoch-days of the first witness.

    Scale shape: inherits kg_edge_timestamps' ONE co-partitioned conv-hash
    exchange; the growth fold adds only per-block (day, count) partials and
    a days-bounded combine — no new data-sized exchange."""
    ts = kg_edge_timestamps(edges, transcripts_path)

    def part(t: pa.Table) -> pa.Table:
        day = pc.cast(pc.divide(t["first_ts_us"], 86_400_000_000), pa.int64())
        g = (
            pa.table({"day": day})
            .group_by("day", use_threads=False)
            .aggregate([([], "count_all")])
        ).rename_columns(["day", "n_new_triples"])
        return g.set_column(
            g.column_names.index("n_new_triples"),
            "n_new_triples",
            pc.cast(g["n_new_triples"], pa.int64()),
        )

    agg = (
        ts.map_batches(part, batch_format="pyarrow", batch_size=None)
        .groupby("day")
        .aggregate(Sum("n_new_triples", alias_name="n_new_triples"))
    )
    return agg.map_batches(
        lambda t: t.set_column(
            t.column_names.index("n_new_triples"),
            "n_new_triples",
            pc.cast(t["n_new_triples"], pa.int64()),
        ),
        batch_format="pyarrow",
        batch_size=None,
    )


def kg_entity_roles(edges_agg: Dataset) -> Dataset:
    """Per-predicate entity-role profile: how many distinct entities appear
    as subject, as object, and as BOTH under each predicate — the
    domain/range overlap card. High n_both on an ostensibly functional
    predicate (a person 'configures' and is 'configured') flags extraction
    noise. Emits (pred, n_subjects, n_objects, n_both).

    Scale shape: per-block distinct (pred, entity) flag partials (one row
    per side per block), ONE (pred, entity)-keyed exchange where Max-folded
    flags make the membership test exact, per-partition per-pred counts,
    |P|-row combine."""

    def partial(t: pa.Table) -> pa.Table:
        outs = []
        for key, is_s in (("subj", True), ("obj", False)):
            g = (
                t.select([key, "pred"])
                .group_by([key, "pred"], use_threads=False)
                .aggregate([])
            )
            ones = pa.array(np.ones(g.num_rows, np.int64))
            zeros = pa.array(np.zeros(g.num_rows, np.int64))
            outs.append(
                pa.table(
                    {
                        "pred": g["pred"],
                        "entity": g[key],
                        "is_s": ones if is_s else zeros,
                        "is_o": zeros if is_s else ones,
                    }
                )
            )
        out = pa.concat_tables(outs)
        return out.append_column("__part", part_ids(out, ["pred", "entity"]))


    def fold(t: pa.Table) -> pa.Table:
        g = (
            t.select(["pred", "entity", "is_s", "is_o"])
            .group_by(["pred", "entity"], use_threads=False)
            .aggregate([("is_s", "max"), ("is_o", "max")])
        )
        pred = g["pred"].to_numpy(zero_copy_only=False)
        s = g["is_s_max"].to_numpy(zero_copy_only=False).astype(np.int64)
        o = g["is_o_max"].to_numpy(zero_copy_only=False).astype(np.int64)
        preds, codes = np.unique(pred, return_inverse=True)
        return pa.table(
            {
                "pred": pa.array(preds.tolist(), pa.string()),
                "n_subjects": pa.array(np.bincount(codes, weights=s).astype(np.int64)),
                "n_objects": pa.array(np.bincount(codes, weights=o).astype(np.int64)),
                "n_both": pa.array(np.bincount(codes, weights=s * o).astype(np.int64)),
            }
        )

    agg = (
        map_partitions(
            edges_agg.map_batches(
                partial, batch_format="pyarrow", batch_size=None, zero_copy_batch=True
            ),
            "__part",
            fold,
        )
        .groupby("pred")
        .aggregate(
            Sum("n_subjects", alias_name="n_subjects"),
            Sum("n_objects", alias_name="n_objects"),
            Sum("n_both", alias_name="n_both"),
        )
    )
    return agg.map_batches(
        lambda t: pa.table(
            {
                "pred": t["pred"],
                "n_subjects": pc.cast(t["n_subjects"], pa.int64()),
                "n_objects": pc.cast(t["n_objects"], pa.int64()),
                "n_both": pc.cast(t["n_both"], pa.int64()),
            }
        ),
        batch_format="pyarrow",
        batch_size=None,
    )


def kg_degree_histogram(edges_agg: Dataset) -> Dataset:
    """Degree distribution of the KG: (total degree, n_nodes) where a
    node's degree counts its distinct triples as subject plus as object —
    the power-law sanity plot every constructed graph gets before anything
    trains on it. Composes kg_node_degrees (node-keyed mergeable partials)
    with a degree-bounded histogram fold; only (degree, count) rows reach
    the final combine."""
    deg = kg_node_degrees(edges_agg)

    def part(t: pa.Table) -> pa.Table:
        d = pc.add(
            pc.cast(t["out_degree"], pa.int64()), pc.cast(t["in_degree"], pa.int64())
        )
        g = (
            pa.table({"degree": d})
            .group_by("degree", use_threads=False)
            .aggregate([([], "count_all")])
        ).rename_columns(["degree", "n_nodes"])
        return g.set_column(
            g.column_names.index("n_nodes"), "n_nodes", pc.cast(g["n_nodes"], pa.int64())
        )

    agg = (
        deg.map_batches(part, batch_format="pyarrow", batch_size=None)
        .groupby("degree")
        .aggregate(Sum("n_nodes", alias_name="n_nodes"))
    )
    return agg.map_batches(
        lambda t: t.set_column(
            t.column_names.index("n_nodes"), "n_nodes", pc.cast(t["n_nodes"], pa.int64())
        ),
        batch_format="pyarrow",
        batch_size=None,
    )


def kg_pred_confusion(edges_agg: Dataset) -> Dataset:
    """Predicate-ambiguity QA: for every unordered predicate pair
    (pred1 < pred2), how many (subj, obj) entity pairs carry BOTH edges —
    the confusion card that tells a schema owner which two relations the
    extractor can't separate. Emits (pred1, pred2, n_pairs).

    Scale shape: the aggregated table is already distinct triples, so
    (subj, obj, pred) light rows cross ONE (subj, obj)-keyed exchange; a
    group holds at most |P| rows, so the in-partition self-merge fans out
    <= |P|^2 per entity pair (vocabulary-bounded, hub-safe); |P|^2-row
    final combine."""

    def partial(t: pa.Table) -> pa.Table:
        g = t.select(["subj", "obj", "pred"])
        return g.append_column("__part", part_ids(g, ["subj", "obj"]))

    out_schema = pa.schema(
        [("pred1", pa.string()), ("pred2", pa.string()), ("n_pairs", pa.int64())]
    )

    def combos(t: pa.Table) -> pa.Table:
        df = t.select(["subj", "obj", "pred"]).to_pandas()
        m = df.merge(df, on=["subj", "obj"], suffixes=("1", "2"))
        m = m[m["pred1"] < m["pred2"]]
        if m.empty:
            return out_schema.empty_table()
        p = m.groupby(["pred1", "pred2"], sort=False).size().reset_index(name="n_pairs")
        return pa.table(
            {
                "pred1": pa.array(p["pred1"], pa.string()),
                "pred2": pa.array(p["pred2"], pa.string()),
                "n_pairs": pa.array(p["n_pairs"].to_numpy().astype(np.int64)),
            }
        )

    agg = (
        map_partitions(
            edges_agg.map_batches(
                partial, batch_format="pyarrow", batch_size=None, zero_copy_batch=True
            ),
            "__part",
            combos,
        )
        .groupby(["pred1", "pred2"])
        .aggregate(Sum("n_pairs", alias_name="n_pairs"))
    )
    return agg.map_batches(
        lambda t: t.set_column(
            t.column_names.index("n_pairs"), "n_pairs", pc.cast(t["n_pairs"], pa.int64())
        ),
        batch_format="pyarrow",
        batch_size=None,
    )


def conv_entity_richness(edges: Dataset, topn: int = 50) -> Dataset:
    """Conversation ranking by KG yield: the ``topn`` conversations whose
    extractions touch the most DISTINCT entities (subjects and objects
    pooled) — the "which dialogues are knowledge-dense" selector a
    curation pass uses to pick training conversations. Emits
    (conv_id, n_entities, n_mentions) ranked (n_entities DESC, conv_id).

    Scale shape: per-block distinct (conv, entity) flag partials with the
    mention count riding along; ONE conv-keyed exchange; per-partition
    counts are segment folds and only per-block top-n candidates reach the
    driver merge."""

    def partial(t: pa.Table) -> pa.Table:
        outs = []
        for key in ("subj", "obj"):
            g = (
                pa.table({"conv_id": t["conv_id"], "entity": t[key], "w": t["weight"]})
                .group_by(["conv_id", "entity"], use_threads=False)
                .aggregate([("w", "sum")])
            )
            outs.append(g.rename_columns(["conv_id", "entity", "w"]))
        out = pa.concat_tables(outs)
        return out.append_column("__part", part_ids(out, ["conv_id"]))


    def fold(t: pa.Table) -> pa.Table:
        g = (
            t.select(["conv_id", "entity", "w"])
            .group_by(["conv_id", "entity"], use_threads=False)
            .aggregate([("w", "sum")])
        )
        conv = g["conv_id"].to_numpy(zero_copy_only=False)
        w = g["w_sum"].to_numpy(zero_copy_only=False).astype(np.int64)
        convs, codes = np.unique(conv, return_inverse=True)
        n_ent = np.bincount(codes).astype(np.int64)
        # each mention contributes to BOTH its subject and object rows, so
        # the per-conv mention count is the halved weight mass
        tw = np.bincount(codes, weights=w).astype(np.int64)
        if (tw % 2).any():
            raise ValueError("conv_entity_richness: odd pooled weight mass")
        n_men = tw // 2
        out = pa.table(
            {
                "conv_id": pa.array(convs.tolist(), pa.string()),
                "n_entities": pa.array(n_ent),
                "n_mentions": pa.array(n_men),
            }
        )
        if out.num_rows > topn:  # per-partition partial top-n
            idx = pc.select_k_unstable(
                out,
                topn,
                sort_keys=[("n_entities", "descending"), ("conv_id", "ascending")],
            )
            out = out.take(idx)
        return out

    cand = map_partitions(
        edges.map_batches(
            partial, batch_format="pyarrow", batch_size=None, zero_copy_batch=True
        ),
        "__part",
        fold,
    )
    return cand.sort(["n_entities", "conv_id"], descending=[True, False]).limit(topn)


def kg_edge_confidence(edges_agg: Dataset) -> Dataset:
    """Per-triple relative confidence: weight / total weight of the triple's
    (subj, pred) group — the conditional p(obj | subj, pred) a KG consumer
    reads as "of everything this subject 'states', how often is it THIS
    object". Emits (subj, pred, obj, weight, confidence) with confidence
    ROUND(6); the division is one float op per row on an integer ratio, so
    both engines agree bit-for-bit before the shared ROUND.

    Scale shape: ONE (subj, pred)-keyed exchange of the already-distinct
    triples; per partition the group totals are a bincount broadcast back
    by inverse index — no second pass, no driver state."""

    def partial(t: pa.Table) -> pa.Table:
        g = t.select(["subj", "pred", "obj", "weight"])
        return g.append_column("__part", part_ids(g, ["subj", "pred"]))


    def conf(t: pa.Table) -> pa.Table:
        subj = t["subj"].to_numpy(zero_copy_only=False)
        pred = t["pred"].to_numpy(zero_copy_only=False)
        w = t["weight"].to_numpy(zero_copy_only=False).astype(np.int64)
        key = np.char.add(np.char.add(subj.astype(str), "\x1f"), pred.astype(str))
        _, codes = np.unique(key, return_inverse=True)
        tot = np.bincount(codes, weights=w)
        # half-away-from-zero rounding (SQL ROUND), not numpy's banker's —
        # integer-ratio confidences land exactly on half boundaries
        c = np.floor(w / tot[codes] * 1e6 + 0.5) / 1e6
        return pa.table(
            {
                "subj": t["subj"],
                "pred": t["pred"],
                "obj": t["obj"],
                "weight": pa.array(w),
                "confidence": pa.array(c, pa.float64()),
            }
        )

    return map_partitions(
        edges_agg.map_batches(
            partial, batch_format="pyarrow", batch_size=None, zero_copy_batch=True
        ),
        "__part",
        conf,
    )


def kg_entity_card(edges_agg: Dataset, entity: str = "tool:bash") -> Dataset:
    """Point lookup — the GraphRAG entity card: every edge touching one
    entity, tagged by direction, ranked (direction, pred, other). Emits
    (direction, pred, other, weight). Zero exchange: the membership filter
    runs inside each scan block (and prunes at the Parquet reader where
    the source is the partitioned checkpoint); output is bounded by the
    entity's degree."""

    def card(t: pa.Table) -> pa.Table:
        outs = []
        for key, other, tag in (("subj", "obj", "out"), ("obj", "subj", "in")):
            f = t.filter(pc.equal(t[key], entity))
            outs.append(
                pa.table(
                    {
                        "direction": pa.array([tag] * f.num_rows, pa.string()),
                        "pred": f["pred"],
                        "other": f[other],
                        "weight": pc.cast(f["weight"], pa.int64()),
                    }
                )
            )
        return pa.concat_tables(outs)

    return edges_agg.map_batches(
        card, batch_format="pyarrow", batch_size=None, zero_copy_batch=True
    ).sort(["direction", "pred", "other"])


def kg_ego_subgraph(edges_agg: Dataset, seed: str = "tool:bash") -> Dataset:
    """2-hop ego subgraph — the GraphRAG retrieval unit: all triples with
    an endpoint in {seed} ∪ neighbors(seed) (undirected adjacency). Emits
    the (subj, pred, obj, weight) slice.

    Scale shape: pass 1 is the entity-card filter collapsing to the
    DISTINCT 1-hop frontier (bounded by the seed's degree — the budget is
    the frontier broadcast, same argument as the canonical-map broadcast);
    pass 2 is one vectorized is_in membership filter per scan block. No
    exchange at all — ego retrieval is two pruned scans."""
    import ray

    from ..util import cached_get

    def hop1(t: pa.Table) -> pa.Table:
        a = t.filter(pc.equal(t["subj"], seed))["obj"].combine_chunks().cast(pa.string())
        b = t.filter(pc.equal(t["obj"], seed))["subj"].combine_chunks().cast(pa.string())
        return pa.table({"e": pa.concat_arrays([a, b])})

    frontier = (
        edges_agg.map_batches(hop1, batch_format="pyarrow", batch_size=None,
                              zero_copy_batch=True)
        .unique("e")
    )
    members = pa.array(sorted(set(frontier) | {seed}), pa.string())
    members_ref = ray.put(members)

    def member_filter(t: pa.Table) -> pa.Table:
        m = cached_get(members_ref)
        keep = pc.or_(pc.is_in(t["subj"], value_set=m), pc.is_in(t["obj"], value_set=m))
        f = t.filter(keep)
        return pa.table(
            {
                "subj": f["subj"],
                "pred": f["pred"],
                "obj": f["obj"],
                "weight": pc.cast(f["weight"], pa.int64()),
            }
        )

    return edges_agg.map_batches(
        member_filter, batch_format="pyarrow", batch_size=None, zero_copy_batch=True
    )


def kg_evidence_text(
    edges: Dataset, transcripts_path: str, k: int = 100
) -> "pa.Table":
    """Evidence retrieval for the KG's strongest facts: the top ``k``
    triples by (weight DESC, subj, pred, obj) each joined back to the FULL
    TEXT of their first witness turn — the audit-trail view a human (or a
    grounding check) reads to decide whether the extractor told the truth.
    Emits (subj, pred, obj, weight, first_witness, evidence).

    Scale shape: provenance reuses kg_edge_provenance's mergeable
    Sum/Min partials (one triple-keyed exchange); the top-k is per-block
    partial top-k then a k-row driver merge; evidence fetch is ONE
    transcripts scan filtered by the broadcast k-row witness set — text
    for exactly k turns leaves the scan, never the corpus."""
    import ray

    from ..util import cached_get

    prov = kg_edge_provenance(edges)

    def partial_topk(t: pa.Table) -> pa.Table:
        if t.num_rows <= k:
            return t
        idx = pc.select_k_unstable(
            t,
            k,
            sort_keys=[
                ("weight", "descending"),
                ("subj", "ascending"),
                ("pred", "ascending"),
                ("obj", "ascending"),
            ],
        )
        return t.take(idx)

    top = pa.Table.from_pylist(
        prov.map_batches(partial_topk, batch_format="pyarrow", batch_size=None)
        .sort(["weight", "subj", "pred", "obj"], descending=[True, False, False, False])
        .limit(k)
        .take_all()
    )
    witnesses = np.sort(np.asarray(top["first_witness"].to_pylist(), dtype=object).astype(str))
    wit_ref = ray.put(witnesses)

    import ray.data as rd

    tr = rd.read_parquet(transcripts_path, columns=["conv_id", "turn_idx", "text"])

    def fetch(t: pa.Table) -> pa.Table:
        w = cached_get(wit_ref)
        key = pc.binary_join_element_wise(
            t["conv_id"].cast(pa.string()),
            pc.utf8_lpad(pc.cast(t["turn_idx"], pa.string()), 6, "0"),
            ":",
        )
        keep = pc.is_in(key, value_set=pa.array(w, pa.string()))
        f = pa.table({"first_witness": key, "evidence": t["text"]}).filter(keep)
        return f

    ev = pa.Table.from_pylist(tr.map_batches(fetch, batch_format="pyarrow", batch_size=None).take_all())
    lut = dict(zip(ev["first_witness"].to_pylist(), ev["evidence"].to_pylist()))
    fw = top["first_witness"].to_pylist()
    missing = [x for x in fw if x not in lut]
    if missing:
        raise ValueError(f"kg_evidence_text: witnesses without turns: {missing[:3]}")
    return top.select(["subj", "pred", "obj", "weight", "first_witness"]).append_column(
        "evidence", pa.array([lut[x] for x in fw], pa.string())
    )


def kg_type_signature(edges_agg: Dataset) -> Dataset:
    """Implicit-schema census: every predicate's (subject type, object
    type) signature distribution, where an entity's type is its namespace
    prefix before ':' (person:, tool:, system:, artifact:, ent:, role: in
    this corpus — the typed-entity convention the extractor emits). The
    kg_construct QA card: a predicate whose signature smears across type
    pairs is under-constrained. Emits (pred, subj_type, obj_type,
    n_triples, total_weight).

    Scale shape: type extraction is one RE2 kernel per block (shared with
    the oracle's split_part), partials collapse to the |P| x |T|^2-bounded
    signature rows before ONE tiny keyed combine."""

    def partial(t: pa.Table) -> pa.Table:
        st = pc.struct_field(
            pc.extract_regex(t["subj"], pattern=r"^(?P<t>[^:]*):"), "t"
        )
        ot = pc.struct_field(
            pc.extract_regex(t["obj"], pattern=r"^(?P<t>[^:]*):"), "t"
        )
        g = (
            pa.table(
                {
                    "pred": t["pred"],
                    "subj_type": pc.fill_null(st, "untyped"),
                    "obj_type": pc.fill_null(ot, "untyped"),
                    "w": pc.cast(t["weight"], pa.int64()),
                }
            )
            .group_by(["pred", "subj_type", "obj_type"], use_threads=False)
            .aggregate([("w", "sum"), ([], "count_all")])
        )
        return g.rename_columns(
            ["pred", "subj_type", "obj_type", "total_weight", "n_triples"]
        )

    agg = (
        edges_agg.map_batches(
            partial, batch_format="pyarrow", batch_size=None, zero_copy_batch=True
        )
        .groupby(["pred", "subj_type", "obj_type"])
        .aggregate(
            Sum("n_triples", alias_name="n_triples"),
            Sum("total_weight", alias_name="total_weight"),
        )
    )
    return agg.map_batches(
        lambda t: pa.table(
            {
                "pred": t["pred"],
                "subj_type": t["subj_type"],
                "obj_type": t["obj_type"],
                "n_triples": pc.cast(t["n_triples"], pa.int64()),
                "total_weight": pc.cast(t["total_weight"], pa.int64()),
            }
        ),
        batch_format="pyarrow",
        batch_size=None,
    )


def kg_alias_coverage(edges_agg: Dataset, alias_path: str) -> "pa.Table":
    """Extraction-recall proxy: for each entity type in the alias index
    (the KNOWN vocabulary the linker was given), how many of its entities
    actually appear in the constructed graph as a subject or object.
    Emits (entity_type, n_known, n_in_graph) — a type with low coverage
    means the extractor is blind to it.

    Scale shape: the graph's distinct node set folds per block and the
    tiny alias table is driver-side; the membership test is one vectorized
    isin against the node union — the alias index is vocabulary-bounded by
    construction (it was broadcast into the linker the same way)."""
    import pyarrow.dataset as pads

    alias = pads.dataset(alias_path).to_table(columns=["entity_id", "entity_type"])

    def nodes(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "node": pa.concat_arrays(
                    [
                        t["subj"].combine_chunks().cast(pa.string()),
                        t["obj"].combine_chunks().cast(pa.string()),
                    ]
                )
            }
        )

    present = set(
        edges_agg.map_batches(
            nodes, batch_format="pyarrow", batch_size=None, zero_copy_batch=True
        ).unique("node")
    )
    ent = np.asarray(alias["entity_id"].to_pylist(), dtype=object)
    ety = np.asarray(alias["entity_type"].to_pylist(), dtype=object)
    # the alias index may map several surface forms to one entity
    uniq = {}
    for e, ty in zip(ent, ety):
        uniq[e] = ty
    types = sorted(set(uniq.values()))
    n_known = {ty: 0 for ty in types}
    n_in = {ty: 0 for ty in types}
    for e, ty in uniq.items():
        n_known[ty] += 1
        if e in present:
            n_in[ty] += 1
    return pa.table(
        {
            "entity_type": pa.array(types, pa.string()),
            "n_known": pa.array([n_known[t] for t in types], pa.int64()),
            "n_in_graph": pa.array([n_in[t] for t in types], pa.int64()),
        }
    )


def kg_self_loop_audit(edges_agg: Dataset) -> Dataset:
    """KG hygiene card: per predicate, how many distinct triples are
    self-loops (subj == obj) and their weight mass next to the predicate's
    totals — reflexive assertions are almost always extraction artifacts.
    Emits (pred, n_triples, n_self_loops, w_total, w_self). Pure per-block
    partials (the loop test is one vectorized equality), |P|-row combine."""

    def partial(t: pa.Table) -> pa.Table:
        loop = pc.cast(pc.equal(t["subj"], t["obj"]), pa.int64())
        w = pc.cast(t["weight"], pa.int64())
        g = (
            pa.table(
                {
                    "pred": t["pred"],
                    "n_triples": pa.array(np.ones(t.num_rows, np.int64)),
                    "n_self_loops": loop,
                    "w_total": w,
                    "w_self": pc.multiply(loop, w),
                }
            )
            .group_by("pred", use_threads=False)
            .aggregate(
                [
                    ("n_triples", "sum"),
                    ("n_self_loops", "sum"),
                    ("w_total", "sum"),
                    ("w_self", "sum"),
                ]
            )
        )
        return g.rename_columns(
            ["pred", "n_triples", "n_self_loops", "w_total", "w_self"]
        )

    agg = (
        edges_agg.map_batches(
            partial, batch_format="pyarrow", batch_size=None, zero_copy_batch=True
        )
        .groupby("pred")
        .aggregate(
            Sum("n_triples", alias_name="n_triples"),
            Sum("n_self_loops", alias_name="n_self_loops"),
            Sum("w_total", alias_name="w_total"),
            Sum("w_self", alias_name="w_self"),
        )
    )
    return agg.map_batches(
        lambda t: pa.table(
            {
                "pred": t["pred"],
                "n_triples": pc.cast(t["n_triples"], pa.int64()),
                "n_self_loops": pc.cast(t["n_self_loops"], pa.int64()),
                "w_total": pc.cast(t["w_total"], pa.int64()),
                "w_self": pc.cast(t["w_self"], pa.int64()),
            }
        ),
        batch_format="pyarrow",
        batch_size=None,
    )
