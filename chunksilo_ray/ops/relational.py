"""Generic relational operator library over Parquet tables (SURVEY.md §2 /
M9): filters, projections, computed columns, date predicates, groupby
aggregates, top-k, exact dedup, union, broadcast joins, semi/anti joins.

Every function takes ``sf_dir`` (a directory of the driver's TPC-H-ish
tables, TESTDATA.md) and returns a Ray Dataset / pandas DataFrame whose
column NAMES match the paired oracle SQL in __ray_entry__.oracle_sql().

Scale discipline: reads prune columns (``columns=[...]``); predicates are
vectorized pyarrow.compute kernels inside map_batches (never per-row
Python); small dimension tables are broadcast via ``ray.put`` and joined
with a per-batch lookup — no shuffle; aggregates rely on Ray Data's
partial-combining hash aggregation.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data as rd
from ray.data import Dataset
from ray.data.aggregate import Count, Max, Mean, Min, Sum

from ..exchange import map_partitions, part_ids


def _pq(sf_dir: str, table: str, columns: list[str] | None = None) -> Dataset:
    return rd.read_parquet(f"{sf_dir}/{table}.parquet", columns=columns)


def round_columns(ds: Dataset, cols: list[str], digits: int = 4) -> Dataset:
    """Round float columns of a (small, post-aggregate) dataset so
    value-hash comparison against the DuckDB oracle is robust to
    summation-order float noise (both sides ROUND to the same digits)."""

    def f(t: pa.Table) -> pa.Table:
        for c in cols:
            if c in t.column_names:
                t = t.set_column(
                    t.column_names.index(c), c, pc.round(t[c], ndigits=digits)
                )
        return t

    return ds.map_batches(f, batch_format="pyarrow", batch_size=None, zero_copy_batch=True)


# ---------------------------------------------------------------------------
# aggregates


def q1_pricing_summary(sf_dir: str) -> Dataset:
    """TPC-H Q1-style grouped aggregate over lineitem with a computed
    revenue column (reference analog: corpus stats groupby,
    reference test/test_indexing_benchmark.py:50-71)."""
    ds = _pq(
        sf_dir,
        "lineitem",
        ["l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice", "l_discount"],
    )

    def add_revenue(t: pa.Table) -> pa.Table:
        rev = pc.multiply(t["l_extendedprice"], pc.subtract(pa.scalar(1.0), t["l_discount"]))
        return t.append_column("revenue", rev)

    agg = (
        ds.map_batches(add_revenue, batch_format="pyarrow", batch_size=None, zero_copy_batch=True)
        .groupby(["l_returnflag", "l_linestatus"])
        .aggregate(
            Sum("l_quantity", alias_name="sum_qty"),
            Sum("l_extendedprice", alias_name="sum_base_price"),
            Sum("revenue", alias_name="sum_disc_price"),
            Mean("l_quantity", alias_name="avg_qty"),
            Count(alias_name="count_order"),
        )
    )
    return round_columns(agg, ["sum_qty", "sum_base_price", "sum_disc_price", "avg_qty"])


def lineitem_minmax_by_flag(sf_dir: str) -> Dataset:
    ds = _pq(sf_dir, "lineitem", ["l_returnflag", "l_extendedprice"])
    agg = ds.groupby("l_returnflag").aggregate(
        Min("l_extendedprice", alias_name="min_price"),
        Max("l_extendedprice", alias_name="max_price"),
        Mean("l_extendedprice", alias_name="avg_price"),
        Count(alias_name="n"),
    )
    return round_columns(agg, ["avg_price"])


def orders_per_customer(sf_dir: str) -> Dataset:
    ds = _pq(sf_dir, "orders", ["o_custkey", "o_totalprice"])
    agg = ds.groupby("o_custkey").aggregate(
        Count(alias_name="n_orders"), Sum("o_totalprice", alias_name="total_spent")
    )
    return round_columns(agg, ["total_spent"])


def events_value_by_type(sf_dir: str) -> Dataset:
    """Partial-aggregate pattern: per-batch combine before the shuffle."""
    ds = _pq(sf_dir, "events", ["event_type", "value"])

    def partial(t: pa.Table) -> pa.Table:
        g = t.group_by("event_type").aggregate([("value", "sum"), ("value", "count")])
        return g.rename_columns(["event_type", "value_sum", "value_count"])

    partials = ds.map_batches(partial, batch_format="pyarrow", batch_size=None, zero_copy_batch=True)
    agg = partials.groupby("event_type").aggregate(
        Sum("value_sum", alias_name="total_value"), Sum("value_count", alias_name="n_events")
    )

    def finish(t: pa.Table) -> pa.Table:
        return t.set_column(
            t.column_names.index("n_events"),
            "n_events",
            pc.cast(t.column("n_events"), pa.int64()),
        )

    return round_columns(agg.map_batches(finish, batch_format="pyarrow", batch_size=None), ["total_value"])


def orders_by_year(sf_dir: str) -> Dataset:
    ds = _pq(sf_dir, "orders", ["o_orderdate", "o_totalprice"])

    def add_year(t: pa.Table) -> pa.Table:
        return t.append_column("order_year", pc.cast(pc.year(t["o_orderdate"]), pa.int64()))

    agg = (
        ds.map_batches(add_year, batch_format="pyarrow", batch_size=None, zero_copy_batch=True)
        .groupby("order_year")
        .aggregate(Count(alias_name="n_orders"), Sum("o_totalprice", alias_name="total_price"))
    )
    return round_columns(agg, ["total_price"])


# ---------------------------------------------------------------------------
# filters / projections / top-k


def filter_events_date_range(sf_dir: str) -> Dataset:
    """Inclusive date-range filter on a timestamp column (the reference's
    date filter semantics, search.py:1018-1050) as a vectorized predicate."""
    ds = _pq(sf_dir, "events", ["ts", "event_type"])
    lo = pa.scalar(np.datetime64("2024-01-10T00:00:00", "us"))
    hi = pa.scalar(np.datetime64("2024-01-20T00:00:00", "us"))

    def f(t: pa.Table) -> pa.Table:
        mask = pc.and_(pc.greater_equal(t["ts"], lo), pc.less(t["ts"], hi))
        return t.filter(mask)

    return (
        ds.map_batches(f, batch_format="pyarrow", batch_size=None, zero_copy_batch=True)
        .groupby("event_type")
        .aggregate(Count(alias_name="n"))
    )


def top_orders_by_price(sf_dir: str, k: int = 10) -> Dataset:
    """Global top-k = sort desc + limit (SURVEY.md §2.6)."""
    ds = _pq(sf_dir, "orders", ["o_orderkey", "o_totalprice"])
    return ds.sort("o_totalprice", descending=True).limit(k)


def high_value_projection(sf_dir: str) -> Dataset:
    """Filter + projection + computed column."""
    ds = _pq(sf_dir, "lineitem", ["l_orderkey", "l_quantity", "l_extendedprice", "l_discount"])

    def f(t: pa.Table) -> pa.Table:
        t = t.filter(pc.greater(t["l_quantity"], pa.scalar(45.0)))
        disc_price = pc.multiply(t["l_extendedprice"], pc.subtract(pa.scalar(1.0), t["l_discount"]))
        t = t.append_column("disc_price", disc_price)
        return t.select(["l_orderkey", "l_quantity", "disc_price"])

    return ds.map_batches(f, batch_format="pyarrow", batch_size=None, zero_copy_batch=True)


def distinct_mktsegment(sf_dir: str) -> Dataset:
    """Distinct values of one column (shuffle dedup)."""
    ds = _pq(sf_dir, "customer", ["c_mktsegment"])
    return ds.groupby("c_mktsegment").map_groups(lambda t: t.slice(0, 1), batch_format="pyarrow")


def union_regions_dedup(sf_dir: str) -> Dataset:
    """union + exact dedup by key, first-seen-wins (reference
    MultiDirectoryDataSource path dedup, index.py:1011-1020)."""
    a = _pq(sf_dir, "region")
    b = _pq(sf_dir, "region")
    return (
        a.union(b)
        .groupby("r_regionkey")
        .map_groups(lambda t: t.slice(0, 1), batch_format="pyarrow")
    )


# ---------------------------------------------------------------------------
# joins

# Driver-side broadcast budget: dimension tables beyond this row count are
# NOT collected/broadcast — the join degrades to a tagged-union co-groupby
# hash join (one shuffle). ~5M rows x ~50B/row ~ 250MB object, the sane
# ceiling for a per-actor lookup replica on a 128GiB worker.
BROADCAST_ROW_LIMIT = 5_000_000


def _as_arrow_type(typ) -> pa.DataType:
    """Ray Schema.types mixes Arrow DataTypes, numpy dtypes and plain Python
    classes depending on the block format — normalize to Arrow."""
    if isinstance(typ, pa.DataType):
        return typ
    if typ is str:
        return pa.string()
    if typ is int:
        return pa.int64()
    if typ is float:
        return pa.float64()
    dt = np.dtype(typ)
    if dt == np.dtype(object):  # pandas object columns are strings here
        return pa.string()
    return pa.from_numpy_dtype(dt)


def broadcast_inner_join(
    fact: Dataset,
    fact_key: str,
    dim_df,
    dim_key: str,
    dim_cols: list[str],
    broadcast_limit: int = BROADCAST_ROW_LIMIT,
) -> Dataset:
    """Inner join of a fact Dataset against a dimension pandas frame.

    Small dim (<= broadcast_limit rows): ship once via ray.put, vectorized
    sorted-array lookup per batch; rows whose key is ABSENT from the dim are
    dropped (true inner semantics — the round-1 version clipped searchsorted
    and silently attached the nearest dimension row).
    Large dim: tagged-union co-groupby hash join (one shuffle, no driver
    materialization of the dim beyond this frame — callers with truly huge
    dims should pass a Dataset-backed path instead)."""
    if len(dim_df) > broadcast_limit:
        fact_cols = [c for c in fact.columns() if c != fact_key]
        dim_ds = rd.from_pandas(dim_df[[dim_key, *dim_cols]])
        # out_order = the broadcast path's schema (fact columns in their
        # original order incl. the key, then dim cols) so the two paths
        # return IDENTICAL schemas regardless of the dim table's size
        return _shuffle_inner_join(
            fact, fact_key, fact_cols, dim_ds, dim_key, dim_cols,
            out_order=[*fact.columns(), *dim_cols],
        )

    keys = _as_key_array(dim_df[dim_key].to_numpy())
    order = np.argsort(keys, kind="stable")
    payload = (keys[order], {c: dim_df[c].to_numpy()[order] for c in dim_cols})
    ref = ray.put(payload)

    def bjoin(t: pa.Table) -> pa.Table:
        # stateless task + worker-global broadcast cache: no actor-pool
        # spin-up on the critical path (see util.cached_get)
        from ..util import cached_get

        skeys, cols = cached_get(ref)
        if not len(skeys):  # empty dim -> inner join drops every fact row
            t = t.slice(0, 0)
        nk = _as_key_array(t[fact_key].to_numpy(zero_copy_only=False))
        pos = np.clip(np.searchsorted(skeys, nk), 0, max(len(skeys) - 1, 0))
        valid = skeys[pos] == nk
        t = t.filter(pa.array(valid))
        hit = pos[valid]
        for name, vals in cols.items():
            t = t.append_column(name, pa.array(vals[hit].tolist()))
        return t

    return fact.map_batches(bjoin, batch_format="pyarrow", batch_size=None)


def broadcast_left_join(
    fact: Dataset,
    fact_key: str,
    dim_df,
    dim_key: str,
    dim_cols: list[str],
    broadcast_limit: int = BROADCAST_ROW_LIMIT,
) -> Dataset:
    """LEFT OUTER join of a fact Dataset against a dimension pandas frame:
    every fact row survives; dim columns are typed nulls where the key has
    no dimension row. Same two-regime shape as ``broadcast_inner_join``
    (ship-once broadcast lookup below the budget, tagged-union co-groupby
    shuffle above it) with identical schemas on both paths."""
    dim_types = {c: _as_arrow_type(dim_df[c].to_numpy().dtype) for c in dim_cols}
    if len(dim_df) > broadcast_limit:
        fact_cols = [c for c in fact.columns() if c != fact_key]
        dim_ds = rd.from_pandas(dim_df[[dim_key, *dim_cols]])
        return _shuffle_left_join(
            fact, fact_key, fact_cols, dim_ds, dim_key, dim_cols,
            out_order=[*fact.columns(), *dim_cols],
        )

    keys = _as_key_array(dim_df[dim_key].to_numpy())
    order = np.argsort(keys, kind="stable")
    payload = (keys[order], {c: dim_df[c].to_numpy()[order] for c in dim_cols})
    ref = ray.put(payload)

    def ljoin(t: pa.Table) -> pa.Table:
        from ..util import cached_get

        skeys, cols = cached_get(ref)
        nk = _as_key_array(t[fact_key].to_numpy(zero_copy_only=False))
        pos = np.clip(np.searchsorted(skeys, nk), 0, max(len(skeys) - 1, 0))
        valid = (skeys[pos] == nk) if len(skeys) else np.zeros(len(nk), bool)
        mask = pa.array(valid)
        for name, vals in cols.items():
            typ = dim_types[name]
            if len(skeys):
                col = pc.if_else(
                    mask, pa.array(vals[pos].tolist(), typ), pa.scalar(None, typ)
                )
            else:
                col = pa.nulls(t.num_rows, type=typ)
            t = t.append_column(name, col)
        return t

    return fact.map_batches(ljoin, batch_format="pyarrow", batch_size=None)


def dim_join(
    fact: Dataset,
    fact_key: str,
    dim: Dataset,
    dim_key: str,
    dim_cols: list[str],
    how: str = "inner",
    broadcast_limit: int = BROADCAST_ROW_LIMIT,
) -> Dataset:
    """Runtime size-gated dimension join (round 5): the broadcast-vs-shuffle
    decision is made from the dim Dataset's actual row count BEFORE any
    driver collect — ``count()`` on a parquet-backed dim is a metadata read.
    Under the budget: collect once, ship via ray.put, vectorized sorted-key
    lookup per batch. Over the budget: NOTHING is driver-materialized — the
    join degrades to the tagged-union coarse-hash shuffle
    (``_shuffle_inner_join`` / ``_shuffle_left_join``). Both regimes return
    identical schemas (fact columns in original order, then dim_cols)."""
    dim = dim.select_columns([dim_key, *dim_cols])
    n = dim.count()
    if broadcast_limit > 0 and n <= broadcast_limit:
        dim_df = dim.to_pandas()  # bounded by the gate just checked
        fn = broadcast_inner_join if how == "inner" else broadcast_left_join
        return fn(fact, fact_key, dim_df, dim_key, dim_cols, broadcast_limit=n + 1)
    fact_cols = [c for c in fact.columns() if c != fact_key]
    sfn = _shuffle_inner_join if how == "inner" else _shuffle_left_join
    return sfn(
        fact, fact_key, fact_cols, dim, dim_key, dim_cols,
        out_order=[*fact.columns(), *dim_cols],
    )


def _as_key_array(vals: np.ndarray) -> np.ndarray:
    """Normalize a join-key column to a searchsorted-comparable dtype:
    integers stay int64 (exact), everything else becomes a fixed-width
    unicode array (exact string equality; any consistent total order works
    for the sorted-lookup join, numpy code-point order included)."""
    if np.issubdtype(vals.dtype, np.number):
        return vals.astype(np.int64)
    return vals.astype("U")


def _shuffle_inner_join(
    fact: Dataset, fact_key: str, fact_cols: list[str],
    dim: Dataset, dim_key: str, dim_cols: list[str],
    out_order: list[str] | None = None,
) -> Dataset:
    """Hash-partition join: both sides tagged onto one union schema, ONE
    coarse int-key exchange co-locates complete key groups for many keys per
    partition, and the partition fn stitches them VECTORIZED (sorted dim
    keys + one searchsorted over the fact keys — no per-key Python; the
    round-1 groupby(__key).map_groups paid one UDF call per distinct key)."""
    types: dict[str, pa.DataType] = {}
    for sch in (fact.schema(), dim.schema()):
        for name, typ in zip(sch.names, sch.types):
            types.setdefault(name, _as_arrow_type(typ))

    def tag(side: int, key_col: str, present: list[str]):
        def fn(t: pa.Table) -> pa.Table:
            n = t.num_rows
            keys = _as_key_array(t[key_col].to_numpy(zero_copy_only=False))
            cols: dict[str, pa.Array] = {
                "__part": part_ids(keys),
                "__key": pa.array(keys),
                "__side": pa.array(np.full(n, side, dtype=np.int8)),
            }
            for c in fact_cols + dim_cols:
                cols[c] = t[c] if c in present else pa.nulls(n, type=types[c])
            return pa.table(cols)

        return fn

    tagged = fact.map_batches(
        tag(1, fact_key, fact_cols), batch_format="pyarrow", batch_size=None
    ).union(dim.map_batches(tag(0, dim_key, dim_cols), batch_format="pyarrow", batch_size=None))

    # output schema: caller-specified order (broadcast-path parity) — the
    # fact key survives the join under its original name on BOTH paths
    cols_out = out_order or [fact_key, *fact_cols, *dim_cols]

    def join_partition(t: pa.Table) -> pa.Table:
        side = t["__side"].to_numpy(zero_copy_only=False)
        keys = _as_key_array(t["__key"].to_numpy(zero_copy_only=False))
        dim_idx = np.flatnonzero(side == 0)
        fact_idx = np.flatnonzero(side == 1)
        empty = pa.table({c: pa.array([], type=types[c]) for c in cols_out})
        if dim_idx.size == 0 or fact_idx.size == 0:
            return empty
        dkeys = keys[dim_idx]
        order = np.argsort(dkeys, kind="stable")  # first dim row per key wins
        dkeys_sorted = dkeys[order]
        fkeys = keys[fact_idx]
        pos = np.searchsorted(dkeys_sorted, fkeys)
        pos_c = np.clip(pos, 0, len(dkeys_sorted) - 1)
        valid = dkeys_sorted[pos_c] == fkeys
        if not valid.any():
            return empty
        f_rows = fact_idx[valid]
        d_rows = dim_idx[order[pos_c[valid]]]
        f = t.take(pa.array(f_rows))
        d = t.take(pa.array(d_rows))
        return pa.table(
            {
                c: (
                    f["__key"].cast(types[fact_key])
                    if c == fact_key
                    else (d[c] if c in dim_cols else f[c])
                )
                for c in cols_out
            }
        )

    return map_partitions(
        tagged, "__part", join_partition
    )


def _shuffle_left_join(
    fact: Dataset, fact_key: str, fact_cols: list[str],
    dim: Dataset, dim_key: str, dim_cols: list[str],
    out_order: list[str] | None = None,
) -> Dataset:
    """Hash-partition LEFT OUTER join — same tagged-union exchange as
    ``_shuffle_inner_join``; unmatched fact rows survive with typed-null
    dim columns."""
    types: dict[str, pa.DataType] = {}
    for sch in (fact.schema(), dim.schema()):
        for name, typ in zip(sch.names, sch.types):
            types.setdefault(name, _as_arrow_type(typ))

    def tag(side: int, key_col: str, present: list[str]):
        def fn(t: pa.Table) -> pa.Table:
            n = t.num_rows
            keys = _as_key_array(t[key_col].to_numpy(zero_copy_only=False))
            cols: dict[str, pa.Array] = {
                "__part": part_ids(keys),
                "__key": pa.array(keys),
                "__side": pa.array(np.full(n, side, dtype=np.int8)),
            }
            for c in fact_cols + dim_cols:
                cols[c] = t[c] if c in present else pa.nulls(n, type=types[c])
            return pa.table(cols)

        return fn

    tagged = fact.map_batches(
        tag(1, fact_key, fact_cols), batch_format="pyarrow", batch_size=None
    ).union(dim.map_batches(tag(0, dim_key, dim_cols), batch_format="pyarrow", batch_size=None))

    cols_out = out_order or [fact_key, *fact_cols, *dim_cols]

    def join_partition(t: pa.Table) -> pa.Table:
        side = t["__side"].to_numpy(zero_copy_only=False)
        keys = _as_key_array(t["__key"].to_numpy(zero_copy_only=False))
        dim_idx = np.flatnonzero(side == 0)
        fact_idx = np.flatnonzero(side == 1)
        if fact_idx.size == 0:
            return pa.table({c: pa.array([], type=types[c]) for c in cols_out})
        if dim_idx.size == 0:
            f = t.take(pa.array(fact_idx))
            return pa.table(
                {
                    c: (
                        f["__key"].cast(types[fact_key])
                        if c == fact_key
                        else (pa.nulls(f.num_rows, type=types[c]) if c in dim_cols else f[c])
                    )
                    for c in cols_out
                }
            )
        dkeys = keys[dim_idx]
        order = np.argsort(dkeys, kind="stable")  # first dim row per key wins
        dkeys_sorted = dkeys[order]
        fkeys = keys[fact_idx]
        pos = np.searchsorted(dkeys_sorted, fkeys)
        pos_c = np.clip(pos, 0, len(dkeys_sorted) - 1)
        valid = dkeys_sorted[pos_c] == fkeys
        f = t.take(pa.array(fact_idx))
        d = t.take(pa.array(dim_idx[order[pos_c]]))
        vmask = pa.array(valid)
        return pa.table(
            {
                c: (
                    f["__key"].cast(types[fact_key])
                    if c == fact_key
                    else (
                        pc.if_else(vmask, d[c].combine_chunks(), pa.scalar(None, d[c].type))
                        if c in dim_cols
                        else f[c]
                    )
                )
                for c in cols_out
            }
        )

    return map_partitions(
        tagged, "__part", join_partition
    )


def customers_per_nation(sf_dir: str, broadcast_limit: int = BROADCAST_ROW_LIMIT) -> Dataset:
    """Broadcast hash join: nation (small) shipped once via ray.put, looked
    up vectorized per batch (SURVEY.md §2.4 broadcast-map-join pattern);
    degrades to a co-groupby shuffle join past the broadcast budget."""
    nation = _pq(sf_dir, "nation", ["n_nationkey", "n_name"])
    cust = _pq(sf_dir, "customer", ["c_custkey", "c_nationkey"])
    joined = dim_join(
        cust, "c_nationkey", nation, "n_nationkey", ["n_name"], "inner", broadcast_limit
    )
    return joined.groupby("n_name").aggregate(Count(alias_name="n_customers"))


def orders_with_customer_segment(
    sf_dir: str, broadcast_limit: int = BROADCAST_ROW_LIMIT
) -> Dataset:
    """Size-gated join of orders against the customer dimension, then
    grouped revenue per market segment. The gate (``dim_join``) counts the
    customer table BEFORE collecting: at TPC-H sf100k customer is TB-scale
    and rides the shuffle join, never the driver."""
    cust = _pq(sf_dir, "customer", ["c_custkey", "c_mktsegment"])
    orders = _pq(sf_dir, "orders", ["o_custkey", "o_totalprice"])
    joined = dim_join(
        orders, "o_custkey", cust, "c_custkey", ["c_mktsegment"], "inner", broadcast_limit
    )

    def partial(t: pa.Table) -> pa.Table:
        # per-batch combine: the exchange then moves ~5 rows per block
        # instead of sorting every joined order row by segment string
        g = t.group_by("c_mktsegment", use_threads=False).aggregate(
            [("o_totalprice", "sum"), ("o_totalprice", "count")]
        )
        return g.rename_columns(["c_mktsegment", "rev", "n"])

    agg = (
        joined.map_batches(partial, batch_format="pyarrow", batch_size=None, zero_copy_batch=True)
        .groupby("c_mktsegment")
        .aggregate(Sum("rev", alias_name="segment_revenue"), Sum("n", alias_name="n_orders"))
    )

    def fix_types(t: pa.Table) -> pa.Table:
        i = t.column_names.index("n_orders")
        return t.set_column(i, "n_orders", pc.cast(t.column("n_orders"), pa.int64()))

    agg = agg.map_batches(fix_types, batch_format="pyarrow", batch_size=None)
    return round_columns(agg, ["segment_revenue"])


def customers_without_orders(
    sf_dir: str, broadcast_limit: int = BROADCAST_ROW_LIMIT
) -> Dataset:
    """Anti join (SURVEY.md §2.4: deleted = anti-join): customers with no
    HIGH-VALUE order. Small key set: broadcast; past the budget: tagged
    union + groupby(key) keeping groups with no right-side row."""
    orders = _pq(sf_dir, "orders", ["o_custkey", "o_totalprice"])

    def big(t: pa.Table) -> pa.Table:
        return t.filter(pc.greater(t["o_totalprice"], pa.scalar(300_000.0)))

    keys_ds = orders.map_batches(
        big, batch_format="pyarrow", batch_size=None, zero_copy_batch=True
    )
    cust = _pq(sf_dir, "customer", ["c_custkey", "c_name"])
    custkeys_with_orders = keys_ds.unique("o_custkey")
    if len(custkeys_with_orders) > broadcast_limit:
        return _shuffle_anti_join(cust, "c_custkey", ["c_name"],
                                  keys_ds.select_columns(["o_custkey"]), "o_custkey")
    key_set_ref = ray.put(np.sort(np.asarray(custkeys_with_orders, dtype=np.int64)))

    def anti(t: pa.Table) -> pa.Table:
        from ..util import cached_get

        skeys = cached_get(key_set_ref)  # sorted int64 array, broadcast once
        ck = t["c_custkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        mask = ~np.isin(ck, skeys, assume_unique=False)
        return t.filter(pa.array(mask))

    return cust.map_batches(anti, batch_format="pyarrow", batch_size=None)


def _shuffle_anti_join(
    left: Dataset, left_key: str, left_cols: list[str], right: Dataset, right_key: str
) -> Dataset:
    """Anti join as ONE co-groupby: keep left rows whose group has no right
    row. The right side ships only its key column into the shuffle."""
    # explicit types for the right side's placeholder columns — untyped
    # pa.nulls relies on implicit null-type promotion during the shuffle
    # union, which is Ray/Arrow-version fragile (_shuffle_inner_join's map)
    left_types = {
        name: _as_arrow_type(typ)
        for name, typ in zip(left.schema().names, left.schema().types)
    }

    def tag(side: int, key_col: str, present: list[str]):
        def fn(t: pa.Table) -> pa.Table:
            n = t.num_rows
            keys = _as_key_array(t[key_col].to_numpy(zero_copy_only=False))
            cols: dict[str, pa.Array] = {
                "__part": part_ids(keys),
                "__key": pa.array(keys),
                "__side": pa.array(np.full(n, side, dtype=np.int8)),
            }
            for c in left_cols:
                cols[c] = t[c] if c in present else pa.nulls(n, type=left_types[c])
            return pa.table(cols)

        return fn

    tagged = left.map_batches(
        tag(0, left_key, left_cols), batch_format="pyarrow", batch_size=None
    ).union(right.map_batches(tag(1, right_key, []), batch_format="pyarrow", batch_size=None))

    def keep_unmatched_partition(t: pa.Table) -> pa.Table:
        # vectorized per-partition anti join: left rows whose key is absent
        # from the partition's right-side key set (np.isin, no per-key UDF)
        side = t["__side"].to_numpy(zero_copy_only=False)
        keys = _as_key_array(t["__key"].to_numpy(zero_copy_only=False))
        left_idx = np.flatnonzero(side == 0)
        right_keys = np.unique(keys[side == 1])
        keep = left_idx[~np.isin(keys[left_idx], right_keys)]
        return t.take(pa.array(keep)).select(["__key", *left_cols])

    def finish(t: pa.Table) -> pa.Table:
        return t.rename_columns([left_key, *left_cols])

    return map_partitions(
        tagged,
        "__part",
        keep_unmatched_partition,
    ).map_batches(finish, batch_format="pyarrow", batch_size=None)


def supplier_nation_region(
    sf_dir: str, broadcast_limit: int = BROADCAST_ROW_LIMIT
) -> Dataset:
    """Two-level join chain: supplier -> nation -> region. nation and region
    are spec-bounded (25 / 5 rows at every TPC-H scale), so their pre-join
    is driver-trivial by construction; the supplier-side attach is the
    size-gated ``dim_join`` (broadcast here, shuffle past the budget —
    parity-tested via broadcast_limit=0)."""
    nation = _pq(sf_dir, "nation", ["n_nationkey", "n_name", "n_regionkey"]).to_pandas()
    region = _pq(sf_dir, "region", ["r_regionkey", "r_name"]).to_pandas()
    nr = nation.merge(
        region, left_on="n_regionkey", right_on="r_regionkey", how="inner"
    )[["n_nationkey", "n_name", "r_name"]]
    sup = _pq(sf_dir, "supplier", ["s_suppkey", "s_name", "s_nationkey"])
    joined = dim_join(
        sup, "s_nationkey", rd.from_pandas(nr), "n_nationkey",
        ["n_name", "r_name"], "inner", broadcast_limit,
    )
    return joined.map_batches(
        lambda t: t.select(["s_suppkey", "s_name", "n_name", "r_name"]),
        batch_format="pyarrow", batch_size=None,
    )


# ---------------------------------------------------------------------------
# search-style ops on events (reference retrieval semantics)


def recent_events_boosted(sf_dir: str, k: int = 20) -> Dataset:
    """Recency-boost + global top-k: score = value * (1 + w*exp(-ln2*age/hl))
    (the reference's recency boost, search.py:1053-1090, over the events
    fixture). Age is measured in days from the max ts in the table."""
    ds = _pq(sf_dir, "events", ["event_id", "ts", "value"])
    max_ts = ds.aggregate(Max("ts"))["max(ts)"]
    import pandas as pd

    anchor = pd.Timestamp(max_ts).to_datetime64().astype("datetime64[us]").astype("int64")
    half_life, weight = 30.0, 0.5

    def boost(t: pa.Table) -> pa.Table:
        ts = t["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        age_days = (anchor - ts) / 86_400_000_000.0
        val = t["value"].to_numpy(zero_copy_only=False)
        boosted = val * (1.0 + weight * np.exp(-np.log(2.0) * np.maximum(age_days, 0) / half_life))
        return pa.table(
            {
                "event_id": t["event_id"],
                "boosted_score": pa.array(np.round(boosted, 6), pa.float64()),
            }
        )

    return ds.map_batches(boost, batch_format="pyarrow", batch_size=None, zero_copy_batch=True).sort(
        "boosted_score", descending=True
    ).limit(k)


def orders_left_rich_segment(
    sf_dir: str, broadcast_limit: int = BROADCAST_ROW_LIMIT, min_acctbal: float = 5000.0
) -> Dataset:
    """LEFT join of orders against only the high-balance customers, then
    revenue per segment — orders whose customer falls below the balance cut
    land in the NULL-segment bucket (exercises outer-join null semantics
    end to end; shuffle fallback past the broadcast budget). The null
    segment rides the exchange as a sentinel string and is restored to a
    real null afterward, so the groupby never sees a null key."""
    cust = _pq(sf_dir, "customer", ["c_custkey", "c_mktsegment", "c_acctbal"])
    rich = cust.map_batches(
        lambda t: t.filter(pc.greater(t["c_acctbal"], pa.scalar(min_acctbal))).select(
            ["c_custkey", "c_mktsegment"]
        ),
        batch_format="pyarrow", batch_size=None, zero_copy_batch=True,
    )
    orders = _pq(sf_dir, "orders", ["o_custkey", "o_totalprice"])
    joined = dim_join(
        orders, "o_custkey", rich, "c_custkey", ["c_mktsegment"], "left", broadcast_limit
    )

    _SENTINEL = "\x00none"

    def partial(t: pa.Table) -> pa.Table:
        seg = pc.fill_null(pc.cast(t["c_mktsegment"], pa.string()), _SENTINEL)
        t = t.set_column(t.column_names.index("c_mktsegment"), "c_mktsegment", seg)
        g = t.group_by("c_mktsegment", use_threads=False).aggregate(
            [("o_totalprice", "sum"), ("o_totalprice", "count")]
        )
        return g.rename_columns(["c_mktsegment", "rev", "n"])

    agg = (
        joined.map_batches(partial, batch_format="pyarrow", batch_size=None, zero_copy_batch=True)
        .groupby("c_mktsegment")
        .aggregate(Sum("rev", alias_name="segment_revenue"), Sum("n", alias_name="n_orders"))
    )

    def finish(t: pa.Table) -> pa.Table:
        seg = pc.cast(t["c_mktsegment"], pa.string())
        seg = pc.if_else(pc.equal(seg, _SENTINEL), pa.scalar(None, pa.string()), seg)
        out = pa.table(
            {
                "segment": seg,
                "n_orders": pc.cast(t["n_orders"], pa.int64()),
                "segment_revenue": t["segment_revenue"],
            }
        )
        return out

    agg = agg.map_batches(finish, batch_format="pyarrow", batch_size=None)
    return round_columns(agg, ["segment_revenue"])


def rollup_orders_by_year_priority(sf_dir: str) -> Dataset:
    """GROUP BY ROLLUP(order_year, o_orderpriority): ONE distributed groupby
    at the finest level (with per-batch partial combine), then the coarser
    rollup levels re-aggregate the finest RESULT — a table bounded by
    |years| x |priorities|, so the fact table is scanned exactly once and
    the hierarchical re-agg is driver-trivial by construction."""
    orders = _pq(sf_dir, "orders", ["o_orderdate", "o_orderpriority", "o_totalprice"])

    def partial(t: pa.Table) -> pa.Table:
        t = t.append_column(
            "order_year", pc.cast(pc.year(t["o_orderdate"]), pa.int64())
        )
        g = t.group_by(["order_year", "o_orderpriority"], use_threads=False).aggregate(
            [("o_totalprice", "sum"), ("o_totalprice", "count")]
        )
        return g.rename_columns(["order_year", "o_orderpriority", "rev", "n"])

    finest = (
        orders.map_batches(partial, batch_format="pyarrow", batch_size=None, zero_copy_batch=True)
        .groupby(["order_year", "o_orderpriority"])
        .aggregate(Sum("rev", alias_name="rev"), Sum("n", alias_name="n"))
        .to_pandas()
    )
    import pandas as pd

    lvl0 = finest.rename(columns={})
    lvl1 = (
        finest.groupby("order_year", as_index=False)[["rev", "n"]].sum()
    )
    lvl1["o_orderpriority"] = None
    lvl2 = pd.DataFrame(
        {"order_year": [None], "o_orderpriority": [None],
         "rev": [finest["rev"].sum()], "n": [finest["n"].sum()]}
    )
    out = pd.concat([lvl0, lvl1, lvl2], ignore_index=True)[
        ["order_year", "o_orderpriority", "rev", "n"]
    ]
    # the rollup total row's NULL year makes this column nullable; float64
    # (NaN) matches how DuckDB's BIGINT-with-NULL arrives via fetchdf —
    # pandas concat would otherwise leave dtype=object
    out["order_year"] = out["order_year"].astype("float64")
    out["revenue"] = out.pop("rev").round(2)
    out["n_orders"] = out.pop("n").astype("int64")
    return rd.from_pandas(out)


# ---------------------------------------------------------------------------
# round-3 additions: two-sided shuffle join, JSON-prop parsing, set ops


def q3_order_revenue_topn(sf_dir: str, k: int = 10, cutoff: str = "1998-06-01") -> Dataset:
    """TPC-H Q3-style shipping-priority query — the one join in the library
    where BOTH sides are fact-sized, so no broadcast is possible:

      1. lineitem shipped after the cutoff is pre-aggregated to
         (l_orderkey, revenue) with an in-batch partial BEFORE any exchange
         (the aggregate, not the 4x-larger raw lineitem, enters the join);
      2. orders placed before the cutoff is semi-filtered to the BUILDING
         segment via the broadcast customer lookup (dim side stays small);
      3. the aggregated lineitem joins orders through the tagged-union
         coarse-hash exchange (`_shuffle_inner_join`) — at 100 TB this is
         the honest two-big-sides path: one int-key shuffle of pre-shrunk
         rows, never a driver materialization;
      4. global top-k by revenue via per-batch partial top-k -> tiny sort.

    Reference analog: ranked retrieval over a filtered candidate join
    (search.py candidate cap + rerank shape)."""
    cut = np.datetime64(cutoff, "us").astype("int64")

    def c_filter(t: pa.Table) -> pa.Table:
        t = t.filter(pc.equal(t["c_mktsegment"], pa.scalar("BUILDING")))
        t = t.select(["c_custkey"])
        return t.append_column("__one", pa.array(np.ones(t.num_rows, np.int8)))

    building = _pq(sf_dir, "customer", ["c_custkey", "c_mktsegment"]).map_batches(
        c_filter, batch_format="pyarrow", batch_size=None, zero_copy_batch=True
    )

    orders = _pq(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_orderdate", "o_orderpriority"])

    def o_filter(t: pa.Table) -> pa.Table:
        keep = pc.less(t["o_orderdate"].cast(pa.int64()), pa.scalar(cut))
        return t.filter(keep)

    orders = orders.map_batches(o_filter, batch_format="pyarrow", batch_size=None, zero_copy_batch=True)
    # semi join: size-gated inner join against the 1-column key set + marker
    # drop — the customer side is filtered distributed and only collected if
    # it fits the broadcast budget
    orders = dim_join(orders, "o_custkey", building, "c_custkey", ["__one"])
    orders = orders.map_batches(
        lambda t: t.drop_columns(["__one", "o_custkey"]),
        batch_format="pyarrow", batch_size=None,
    )

    li = _pq(sf_dir, "lineitem", ["l_orderkey", "l_extendedprice", "l_discount", "l_shipdate"])

    def li_partial(t: pa.Table) -> pa.Table:
        keep = pc.greater(t["l_shipdate"].cast(pa.int64()), pa.scalar(cut))
        t = t.filter(keep)
        rev = pc.multiply(t["l_extendedprice"], pc.subtract(pa.scalar(1.0), t["l_discount"]))
        t = pa.table({"l_orderkey": t["l_orderkey"], "rev": rev})
        g = t.group_by("l_orderkey", use_threads=False).aggregate([("rev", "sum")])
        return g.rename_columns(["l_orderkey", "rev"])

    li_agg = (
        li.map_batches(li_partial, batch_format="pyarrow", batch_size=None, zero_copy_batch=True)
        .groupby("l_orderkey")
        .aggregate(Sum("rev", alias_name="revenue"))
    )

    joined = _shuffle_inner_join(
        li_agg, "l_orderkey", ["revenue"],
        orders, "o_orderkey", ["o_orderdate", "o_orderpriority"],
    )

    def partial_topk(t: pa.Table) -> pa.Table:
        t = t.set_column(
            t.column_names.index("revenue"), "revenue", pc.round(t["revenue"], ndigits=4)
        )
        if t.num_rows <= k:
            return t
        idx = pc.select_k_unstable(
            t, k, sort_keys=[("revenue", "descending"), ("l_orderkey", "ascending")]
        )
        return t.take(idx)

    return (
        joined.map_batches(partial_topk, batch_format="pyarrow", batch_size=None)
        .sort(["revenue", "l_orderkey"], descending=[True, False])
        .limit(k)
    )


def props_key_histogram(sf_dir: str) -> Dataset:
    """Parse the JSON `props` column of events and histogram the extracted
    integer field `k` — the reference's structured-record flattening
    (search.py:536-615 Jira issue -> text/metadata) as a vectorized Arrow
    stage: pc.extract_regex per batch (no json.loads row loop), in-batch
    partial count, tiny global sum.

    FLAT-JSON assumption (documented contract): `k` is extracted by the RE2
    pattern '"k"\\s*:\\s*(-?\\d+)' — rows without an integer top-level k
    (missing key, float k, or '"k":' nested/inside a string value) are
    dropped, not emitted as a NULL group. The DuckDB oracle mirrors the
    same regex + filter, so parity does not depend on props being exactly
    one-key JSON."""
    ds = _pq(sf_dir, "events", ["props"])

    def partial(t: pa.Table) -> pa.Table:
        m = pc.extract_regex(t["props"], pattern=r'"k"\s*:\s*(?P<k>-?\d+)')
        k = pc.cast(pc.struct_field(m, "k"), pa.int64())
        g = pa.table({"k": k}).drop_null().group_by("k", use_threads=False).aggregate([([], "count_all")])
        return g.rename_columns(["k", "n"])

    agg = (
        ds.map_batches(partial, batch_format="pyarrow", batch_size=None, zero_copy_batch=True)
        .groupby("k")
        .aggregate(Sum("n", alias_name="n"))
    )
    return agg.map_batches(
        lambda t: t.set_column(t.column_names.index("n"), "n", pc.cast(t["n"], pa.int64())),
        batch_format="pyarrow", batch_size=None,
    )


# The events table's closed event-type vocabulary. A SQL PIVOT needs the
# explicit IN (...) list for the same reason this constant exists: pivoted
# output columns must be known before execution.
EVENT_TYPES = ("click", "error", "purchase", "signup", "view")


def pivot_events_daily(sf_dir: str, types: tuple[str, ...] = EVENT_TYPES) -> Dataset:
    """PIVOT: one row per day, one count column per event type
    (`PIVOT ... ON event_type IN (...)` / conditional-aggregation shape).

    100 TB shape: each batch collapses to at most (days-in-batch) rows of
    fixed width before the exchange — the wide layout IS the partial, so the
    global combine is len(types) Sums over a days-bounded table and no
    (day, type) long-format row ever crosses the shuffle twice."""
    ds = _pq(sf_dir, "events", ["ts", "event_type"])

    def partial(t: pa.Table) -> pa.Table:
        day = pc.cast(
            pc.divide(t["ts"].cast(pa.int64()), 86_400_000_000), pa.int64()
        )
        cols = {"day": day}
        for ty in types:
            cols[f"n_{ty}"] = pc.cast(pc.equal(t["event_type"], ty), pa.int64())
        g = pa.table(cols).group_by("day", use_threads=False).aggregate(
            [(f"n_{ty}", "sum") for ty in types]
        )
        return g.rename_columns(["day"] + [f"n_{ty}" for ty in types])

    agg = (
        ds.map_batches(partial, batch_format="pyarrow", batch_size=None, zero_copy_batch=True)
        .groupby("day")
        .aggregate(*[Sum(f"n_{ty}", alias_name=f"n_{ty}") for ty in types])
    )

    def fix_types(t: pa.Table) -> pa.Table:
        for ty in types:
            i = t.column_names.index(f"n_{ty}")
            t = t.set_column(i, f"n_{ty}", pc.cast(t[f"n_{ty}"], pa.int64()))
        return t

    return agg.map_batches(fix_types, batch_format="pyarrow", batch_size=None)


def users_click_and_purchase(sf_dir: str) -> Dataset:
    """Set intersection (INTERSECT): users appearing with BOTH event types.
    Per-batch partial collapses to at most one row per (user, flags-pair)
    before the exchange; the global groupby then max-combines two int8
    flags — the shuffle carries 3 ints per distinct user per batch, never
    the event rows."""
    ds = _pq(sf_dir, "events", ["user_id", "event_type"])

    def partial(t: pa.Table) -> pa.Table:
        is_c = pc.cast(pc.equal(t["event_type"], "click"), pa.int8())
        is_p = pc.cast(pc.equal(t["event_type"], "purchase"), pa.int8())
        g = (
            pa.table({"user_id": t["user_id"], "c": is_c, "p": is_p})
            .group_by("user_id", use_threads=False)
            .aggregate([("c", "max"), ("p", "max")])
        )
        return g.rename_columns(["user_id", "c", "p"])

    agg = (
        ds.map_batches(partial, batch_format="pyarrow", batch_size=None, zero_copy_batch=True)
        .groupby("user_id")
        .aggregate(Max("c", alias_name="c"), Max("p", alias_name="p"))
    )

    def finish(t: pa.Table) -> pa.Table:
        keep = pc.and_(pc.equal(t["c"], 1), pc.equal(t["p"], 1))
        return t.filter(keep).select(["user_id"])

    return agg.map_batches(finish, batch_format="pyarrow", batch_size=None)


def frequent_part_pairs(sf_dir: str, min_support: int = 2) -> Dataset:
    """Market-basket pair mining over lineitem: part pairs co-occurring in
    >= min_support orders. Emits (part_a, part_b, n_orders), part_a <
    part_b. The frequent-itemset primitive (Apriori's k=2 stage) a
    curation pipeline uses for co-occurrence stats.

    Scale shape: per-block distinct (order, part) partial shrinks the
    exchange; a coarse order-hash partition co-locates each order; the
    in-partition kernel is the same vectorized segment + triu pair explode
    as the LSH bucket pair-gen (baskets are SMALL — pairs per order are
    C(items,2) with single-digit items, so no orientation/cap is needed);
    one pair groupby-sum + filter finishes."""
    ds = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet", columns=["l_orderkey", "l_partkey"]
    )

    def distinct_part(t: pa.Table) -> pa.Table:
        g = t.group_by(["l_orderkey", "l_partkey"], use_threads=False).aggregate([])
        ok = g["l_orderkey"].to_numpy(zero_copy_only=False)
        return g.append_column("__part", part_ids(ok))

    def pairs_in_part(t: pa.Table) -> pa.Table:
        ok = t["l_orderkey"].to_numpy(zero_copy_only=False)
        pk = t["l_partkey"].to_numpy(zero_copy_only=False)
        order = np.lexsort((pk, ok))
        ok, pk = ok[order], pk[order]
        # re-distinct across blocks (the per-block partial may repeat a row)
        keep = np.concatenate(([True], (ok[1:] != ok[:-1]) | (pk[1:] != pk[:-1])))
        ok, pk = ok[keep], pk[keep]
        change = np.flatnonzero(ok[1:] != ok[:-1]) + 1
        starts = np.concatenate(([0], change))
        ends = np.concatenate((change, [len(ok)]))
        pa_, pb_ = [], []
        for s, e in zip(starts.tolist(), ends.tolist()):
            if e - s < 2:
                continue
            basket = pk[s:e]
            ii, jj = np.triu_indices(len(basket), k=1)
            pa_.append(basket[ii])
            pb_.append(basket[jj])
        if not pa_:
            return pa.table({"part_a": pa.array([], pa.int64()),
                             "part_b": pa.array([], pa.int64())})
        return pa.table(
            {
                "part_a": pa.array(np.concatenate(pa_), pa.int64()),
                "part_b": pa.array(np.concatenate(pb_), pa.int64()),
            }
        )

    pairs = map_partitions(
        ds.map_batches(distinct_part, batch_format="pyarrow", batch_size=None,
                       zero_copy_batch=True),
        "__part",
        pairs_in_part,
    )

    def pair_count(t: pa.Table) -> pa.Table:
        a = t["part_a"].to_numpy(zero_copy_only=False)
        b = t["part_b"].to_numpy(zero_copy_only=False)
        if len(b) and max(int(a.max()), int(b.max())) < (1 << 31):
            key = a.astype(np.int64) * np.int64(1 << 32) + b
            uniq, counts = np.unique(key, return_counts=True)
            ua = (uniq >> np.int64(32)).astype(np.int64)
            ub = (uniq & np.int64(0xFFFFFFFF)).astype(np.int64)
        else:  # ids past 2^31 (100-TB part spaces): 2-column unique, no packing
            ab = np.stack([a, b], axis=1)
            uniq2, counts = np.unique(ab, axis=0, return_counts=True)
            ua, ub = uniq2[:, 0], uniq2[:, 1]
        return pa.table(
            {
                "part_a": pa.array(ua, pa.int64()),
                "part_b": pa.array(ub, pa.int64()),
                "cnt": pa.array(counts.astype("int64"), pa.int64()),
            }
        )

    counted = (
        pairs.map_batches(pair_count, batch_format="pyarrow", batch_size=None)
        .groupby(["part_a", "part_b"])
        .aggregate(Sum("cnt", alias_name="n_orders"))
    )
    return counted.map_batches(
        lambda t: t.filter(pc.greater_equal(t["n_orders"], min_support)),
        batch_format="pyarrow",
        batch_size=None,
    )


def cube_orders(sf_dir: str) -> Dataset:
    """GROUP BY CUBE(order_year, o_orderpriority): all four grouping sets
    (year x priority, year, priority, grand total). Same scale shape as
    rollup_orders_by_year_priority — ONE distributed groupby at the finest
    level (per-batch partial combine first), then every coarser grouping
    re-aggregates the finest RESULT, a table bounded by |years| x
    |priorities| — the fact table is scanned exactly once."""
    orders = _pq(sf_dir, "orders", ["o_orderdate", "o_orderpriority", "o_totalprice"])

    def partial(t: pa.Table) -> pa.Table:
        t = t.append_column(
            "order_year", pc.cast(pc.year(t["o_orderdate"]), pa.int64())
        )
        g = t.group_by(["order_year", "o_orderpriority"], use_threads=False).aggregate(
            [("o_totalprice", "sum"), ("o_totalprice", "count")]
        )
        return g.rename_columns(["order_year", "o_orderpriority", "rev", "n"])

    finest = (
        orders.map_batches(partial, batch_format="pyarrow", batch_size=None, zero_copy_batch=True)
        .groupby(["order_year", "o_orderpriority"])
        .aggregate(Sum("rev", alias_name="rev"), Sum("n", alias_name="n"))
        .to_pandas()
    )
    import pandas as pd

    by_year = finest.groupby("order_year", as_index=False)[["rev", "n"]].sum()
    by_year["o_orderpriority"] = None
    by_prio = finest.groupby("o_orderpriority", as_index=False)[["rev", "n"]].sum()
    by_prio["order_year"] = None
    total = pd.DataFrame(
        {"order_year": [None], "o_orderpriority": [None],
         "rev": [finest["rev"].sum()], "n": [finest["n"].sum()]}
    )
    out = pd.concat([finest, by_year, by_prio, total], ignore_index=True)[
        ["order_year", "o_orderpriority", "rev", "n"]
    ]
    # NULL year rows make the int column nullable; float64 (NaN) matches how
    # DuckDB's BIGINT-with-NULL arrives via fetchdf (rollup's convention)
    out["order_year"] = out["order_year"].astype("float64")
    out["revenue"] = out.pop("rev").round(2)
    out["n_orders"] = out.pop("n").astype("int64")
    return rd.from_pandas(out)


def full_outer_daily_activity(sf_dir: str) -> Dataset:
    """FULL OUTER join of per-day order aggregates and per-day event counts
    — the one join type the library lacked. Both sides pre-aggregate to day
    granularity INSIDE map_batches before any exchange, then a single tagged
    union + day-keyed groupby merges them; a side that is absent for a day
    surfaces as NULL (presence flags distinguish 'absent' from 'sum 0').
    The exchange cardinality is bounded by |distinct days|, not fact rows."""
    orders = _pq(sf_dir, "orders", ["o_orderdate", "o_totalprice"])
    events = _pq(sf_dir, "events", ["ts"])

    def o_partial(t: pa.Table) -> pa.Table:
        day = pc.strftime(t["o_orderdate"], format="%Y-%m-%d")
        g = (
            pa.table({"day": day, "price": t["o_totalprice"]})
            .group_by("day", use_threads=False)
            .aggregate([("price", "sum"), ("price", "count")])
        )
        g = g.rename_columns(["day", "rev", "n_orders"])
        n = g.num_rows
        return pa.table(
            {
                "day": g["day"],
                "rev": pc.cast(g["rev"], pa.float64()),
                "n_orders": pc.cast(g["n_orders"], pa.int64()),
                "has_o": pa.array(np.ones(n, dtype=np.int64)),
                "n_events": pa.array(np.zeros(n, dtype=np.int64)),
                "has_e": pa.array(np.zeros(n, dtype=np.int64)),
            }
        )

    def e_partial(t: pa.Table) -> pa.Table:
        day = pc.strftime(pc.cast(t["ts"], pa.date32()), format="%Y-%m-%d")
        g = (
            pa.table({"day": day})
            .group_by("day", use_threads=False)
            .aggregate([([], "count_all")])
        )
        g = g.rename_columns(["day", "n_events"])
        n = g.num_rows
        return pa.table(
            {
                "day": g["day"],
                "rev": pa.array(np.zeros(n), pa.float64()),
                "n_orders": pa.array(np.zeros(n, dtype=np.int64)),
                "has_o": pa.array(np.zeros(n, dtype=np.int64)),
                "n_events": pc.cast(g["n_events"], pa.int64()),
                "has_e": pa.array(np.ones(n, dtype=np.int64)),
            }
        )

    tagged = orders.map_batches(
        o_partial, batch_format="pyarrow", batch_size=None, zero_copy_batch=True
    ).union(
        events.map_batches(
            e_partial, batch_format="pyarrow", batch_size=None, zero_copy_batch=True
        )
    )
    merged = tagged.groupby("day").aggregate(
        Sum("rev", alias_name="rev"),
        Sum("n_orders", alias_name="n_orders"),
        Sum("has_o", alias_name="has_o"),
        Sum("n_events", alias_name="n_events"),
        Sum("has_e", alias_name="has_e"),
    )

    def finish(t: pa.Table) -> pa.Table:
        has_o = pc.greater(t["has_o"], 0)
        has_e = pc.greater(t["has_e"], 0)
        return pa.table(
            {
                "day": t["day"],
                "n_orders": pc.if_else(has_o, pc.cast(t["n_orders"], pa.int64()), None),
                "revenue": pc.if_else(has_o, pc.round(t["rev"], ndigits=2), None),
                "n_events": pc.if_else(has_e, pc.cast(t["n_events"], pa.int64()), None),
            }
        )

    return merged.map_batches(finish, batch_format="pyarrow", batch_size=None)


def q5_revenue_by_nation(
    sf_dir: str,
    region: str = "ASIA",
    date_from: str = "1996-01-01",
    date_to: str = "1997-01-01",
    broadcast_limit: int = BROADCAST_ROW_LIMIT,
) -> Dataset:
    """TPC-H Q5-style local-supplier volume: revenue per nation where the
    customer and the supplier sit in the SAME nation of one region, over a
    one-year order window — the engine's canonical multi-way join demo
    (one big x big exchange + three broadcast dimensions).

    Revenue is summed EXACTLY: per item the integer
    round(price*100) * (100 - round(disc*100)) (TPC-H money is cents-exact)
    accumulates in int64 and one final /10000.0 + ROUND(4) happens per
    nation — no float-sum-order sensitivity anywhere, so the SQL oracle is
    bit-identical.

    Scale shape: lineitem pre-shrinks to (orderkey, suppkey, cents) in its
    scan; orders prune on the date BEFORE the exchange; the only mandatory
    all-to-all is the lineitem x orders equi-join through the tagged-union
    coarse-hash exchange. Customer and supplier are SIZE-GATED at runtime
    (round 5): a metadata ``count_rows()`` decides per table whether its
    nationkey attach rides a ray.put broadcast (sorted-key searchsorted) or
    a second `_shuffle_inner_join` — at TPC-H sf100k customer is TB-scale
    and never touches the driver. nation/region are spec-bounded (25/5
    rows) and always broadcast."""
    import ray

    from ..util import cached_get

    import pyarrow.dataset as pads

    nation = pads.dataset(f"{sf_dir}/nation.parquet").to_table()
    reg = pads.dataset(f"{sf_dir}/region.parquet").to_table()
    rkey = {
        n: k for k, n in zip(reg["r_regionkey"].to_pylist(), reg["r_name"].to_pylist())
    }[region]
    nk = np.asarray(nation["n_nationkey"].to_pylist(), dtype=np.int64)
    nreg = np.asarray(nation["n_regionkey"].to_pylist(), dtype=np.int64)
    nname = np.asarray(nation["n_name"].to_pylist(), dtype=object)
    in_region = np.zeros(nk.max() + 1, bool)
    in_region[nk[nreg == rkey]] = True
    names = np.empty(nk.max() + 1, object)
    names[nk] = nname

    def _sorted_map(tbl: pa.Table, key: str, val: str):
        k = np.asarray(tbl[key].to_pylist(), dtype=np.int64)
        v = np.asarray(tbl[val].to_pylist(), dtype=np.int64)
        o = np.argsort(k)
        return k[o], v[o]

    # per-dimension size gate: metadata row count, no driver read unless small
    supp_src = pads.dataset(f"{sf_dir}/supplier.parquet")
    cust_src = pads.dataset(f"{sf_dir}/customer.parquet")
    supp_small = broadcast_limit > 0 and supp_src.count_rows() <= broadcast_limit
    cust_small = broadcast_limit > 0 and cust_src.count_rows() <= broadcast_limit

    smap = (
        _sorted_map(
            supp_src.to_table(columns=["s_suppkey", "s_nationkey"]), "s_suppkey", "s_nationkey"
        )
        if supp_small
        else None
    )
    cmap_ = (
        _sorted_map(
            cust_src.to_table(columns=["c_custkey", "c_nationkey"]), "c_custkey", "c_nationkey"
        )
        if cust_small
        else None
    )
    side = ray.put((smap, cmap_, in_region))

    lo = np.datetime64(date_from, "us").astype("int64")
    hi = np.datetime64(date_to, "us").astype("int64")
    orders = _pq(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_orderdate"])

    def o_filter(t: pa.Table) -> pa.Table:
        d = t["o_orderdate"].cast(pa.int64())
        keep = pc.and_(pc.greater_equal(d, pa.scalar(lo)), pc.less(d, pa.scalar(hi)))
        return t.filter(keep).select(["o_orderkey", "o_custkey"])

    orders = orders.map_batches(
        o_filter, batch_format="pyarrow", batch_size=None, zero_copy_batch=True
    )

    li = _pq(sf_dir, "lineitem", ["l_orderkey", "l_suppkey", "l_extendedprice", "l_discount"])

    def li_shrink(t: pa.Table) -> pa.Table:
        p = np.rint(
            t["l_extendedprice"].to_numpy(zero_copy_only=False) * 100.0
        ).astype(np.int64)
        d = np.rint(t["l_discount"].to_numpy(zero_copy_only=False) * 100.0).astype(
            np.int64
        )
        return pa.table(
            {
                "l_orderkey": t["l_orderkey"],
                "l_suppkey": pc.cast(t["l_suppkey"], pa.int64()),
                "cents": pa.array(p * (100 - d)),
            }
        )

    li = li.map_batches(
        li_shrink, batch_format="pyarrow", batch_size=None, zero_copy_batch=True
    )

    joined = _shuffle_inner_join(
        li, "l_orderkey", ["l_suppkey", "cents"], orders, "o_orderkey", ["o_custkey"]
    )

    # over-budget dimensions: attach the nationkey through a second shuffle
    # join instead of a broadcast (the fact side is already pre-shrunk)
    if not cust_small:
        cust_ds = _pq(sf_dir, "customer", ["c_custkey", "c_nationkey"])
        joined = _shuffle_inner_join(
            joined, "o_custkey", [c for c in joined.columns() if c != "o_custkey"],
            cust_ds, "c_custkey", ["c_nationkey"],
        )
    if not supp_small:
        supp_ds = _pq(sf_dir, "supplier", ["s_suppkey", "s_nationkey"])
        joined = _shuffle_inner_join(
            joined, "l_suppkey", [c for c in joined.columns() if c != "l_suppkey"],
            supp_ds, "s_suppkey", ["s_nationkey"],
        )

    def nation_partial(t: pa.Table) -> pa.Table:
        smap_, cmap__, in_reg = cached_get(side)
        if smap_ is not None:
            sk, sv = smap_
            supp_keys = t["l_suppkey"].to_numpy(zero_copy_only=False).astype(np.int64)
            si = np.searchsorted(sk, supp_keys)
            if (sk[si] != supp_keys).any():
                raise ValueError("q5: dangling supplier key")
            s_nat = sv[si]
        else:
            s_nat = t["s_nationkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        if cmap__ is not None:
            ck, cv = cmap__
            cust_keys = t["o_custkey"].to_numpy(zero_copy_only=False).astype(np.int64)
            ci = np.searchsorted(ck, cust_keys)
            if (ck[ci] != cust_keys).any():
                raise ValueError("q5: dangling customer key")
            c_nat = cv[ci]
        else:
            c_nat = t["c_nationkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        keep = (s_nat == c_nat) & in_reg[s_nat]
        g = (
            pa.table(
                {
                    "nationkey": pa.array(s_nat[keep]),
                    "cents": t["cents"].filter(pa.array(keep)),
                }
            )
            .group_by("nationkey", use_threads=False)
            .aggregate([("cents", "sum")])
        )
        return g.rename_columns(["nationkey", "cents"])

    agg = (
        joined.map_batches(nation_partial, batch_format="pyarrow", batch_size=None)
        .groupby("nationkey")
        .aggregate(Sum("cents", alias_name="cents"))
    )

    def finish(t: pa.Table) -> pa.Table:
        nkey = t["nationkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        cents = t["cents"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "n_name": pa.array([str(x) for x in names[nkey]], pa.string()),
                "revenue": pa.array(np.round(cents / 10000.0, 4), pa.float64()),
            }
        )

    return agg.map_batches(finish, batch_format="pyarrow", batch_size=None)


def q6_revenue_filtered(
    sf_dir: str,
    date_from: str = "1996-01-01",
    date_to: str = "1997-01-01",
    disc_lo: int = 5,
    disc_hi: int = 7,
    qty_lt: int = 24,
) -> "pa.Table":
    """TPC-H Q6-style forecasting-revenue change: one filtered scan, one
    exact sum — SUM(extendedprice * discount) over a shipdate year, a
    discount band and a quantity cap. The discount band compares INTEGER
    percents (round(l_discount*100) in [5, 7]) and revenue accumulates as
    int64 cents x percent with a single final /10000.0 + ROUND(4) — the
    q5 exactness contract. Emits one row (revenue, n_items).

    Scale shape: zero exchange — per-block (cents_sum, count) partials fold
    on the driver; the scan reads only the four needed columns."""
    lo = np.datetime64(date_from, "us").astype("int64")
    hi = np.datetime64(date_to, "us").astype("int64")

    ds = _pq(sf_dir, "lineitem", ["l_shipdate", "l_discount", "l_quantity", "l_extendedprice"])

    def partial(t: pa.Table) -> pa.Table:
        d = t["l_shipdate"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        disc = np.rint(
            t["l_discount"].to_numpy(zero_copy_only=False) * 100.0
        ).astype(np.int64)
        qty = t["l_quantity"].to_numpy(zero_copy_only=False)
        price = np.rint(
            t["l_extendedprice"].to_numpy(zero_copy_only=False) * 100.0
        ).astype(np.int64)
        keep = (
            (d >= lo) & (d < hi) & (disc >= disc_lo) & (disc <= disc_hi) & (qty < qty_lt)
        )
        return pa.table(
            {
                "cents": pa.array([int((price[keep] * disc[keep]).sum())], pa.int64()),
                "n_items": pa.array([int(keep.sum())], pa.int64()),
            }
        )

    tot = (
        ds.map_batches(partial, batch_format="pyarrow", batch_size=None, zero_copy_batch=True)
        .to_pandas()
        .sum()
    )
    return pa.table(
        {
            "revenue": pa.array([round(int(tot["cents"]) / 10000.0, 4)], pa.float64()),
            "n_items": pa.array([int(tot["n_items"])], pa.int64()),
        }
    )


def segment_priority_chi2(sf_dir: str) -> "pa.Table":
    """Independence test between customer market segment and order
    priority: the Pearson chi-square statistic over the (segment,
    priority) contingency table — does WHO the customer is predict HOW
    urgent their orders are. Emits one row (chi2, dof, n_orders) with chi2
    ROUND(6). Both engines fold the SAME integer contingency counts
    through the same formula in the same sorted-cell order (the SQL
    aggregates an ORDER-BY'd CTE), so the float is reproducible.

    Scale shape: the orders scan joins the broadcast customer segment map
    and collapses to |segments| x |priorities| integer partials per block;
    ONE tiny keyed combine; the chi-square fold happens on the driver over
    the bounded contingency table."""
    import ray

    from ..util import cached_get

    import pyarrow.dataset as pads

    cust = pads.dataset(f"{sf_dir}/customer.parquet").to_table(
        columns=["c_custkey", "c_mktsegment"]
    )
    ck = np.asarray(cust["c_custkey"].to_pylist(), dtype=np.int64)
    seg = np.asarray(cust["c_mktsegment"].to_pylist(), dtype=object)
    o = np.argsort(ck)
    side = ray.put((ck[o], seg[o]))

    ds = _pq(sf_dir, "orders", ["o_custkey", "o_orderpriority"])

    def partial(t: pa.Table) -> pa.Table:
        k, s = cached_get(side)
        keys = t["o_custkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        i = np.searchsorted(k, keys)
        if (k[i] != keys).any():
            raise ValueError("segment_priority_chi2: dangling custkey")
        g = (
            pa.table(
                {
                    "segment": pa.array(s[i].tolist(), pa.string()),
                    "priority": t["o_orderpriority"],
                }
            )
            .group_by(["segment", "priority"], use_threads=False)
            .aggregate([([], "count_all")])
        )
        return g.rename_columns(["segment", "priority", "n"])

    cells = (
        ds.map_batches(partial, batch_format="pyarrow", batch_size=None, zero_copy_batch=True)
        .groupby(["segment", "priority"])
        .aggregate(Sum("n", alias_name="n"))
        .to_pandas()
        .sort_values(["segment", "priority"], kind="mergesort")
    )
    seg_tot = cells.groupby("segment")["n"].sum()
    pri_tot = cells.groupby("priority")["n"].sum()
    total = float(cells["n"].sum())
    chi2 = 0.0
    for _, r in cells.iterrows():  # sorted-cell order, mirrored by the SQL
        e = float(seg_tot[r["segment"]]) * float(pri_tot[r["priority"]]) / total
        chi2 += (float(r["n"]) - e) ** 2 / e
    dof = (len(seg_tot) - 1) * (len(pri_tot) - 1)
    return pa.table(
        {
            "chi2": pa.array([round(chi2, 6)], pa.float64()),
            "dof": pa.array([int(dof)], pa.int64()),
            "n_orders": pa.array([int(total)], pa.int64()),
        }
    )


def order_size_histogram(sf_dir: str) -> Dataset:
    """Order-size distribution: lineitems per order folded into the
    (n_items, n_orders) histogram — the two-level distributed aggregate
    (per-key count, then count-of-counts) every skew analysis starts with.

    Scale shape: per-block (orderkey, count) partials; ONE orderkey-keyed
    exchange (the only data-sized one); the histogram fold emits a bounded
    (size, count) table per partition and the final combine is tiny."""
    from ray.data.aggregate import Sum

    ds = _pq(sf_dir, "lineitem", ["l_orderkey"])

    def part(t: pa.Table) -> pa.Table:
        g = t.group_by("l_orderkey", use_threads=False).aggregate([([], "count_all")])
        g = g.rename_columns(["l_orderkey", "n"])
        return g.set_column(g.column_names.index("n"), "n", pc.cast(g["n"], pa.int64()))

    per_order = (
        ds.map_batches(part, batch_format="pyarrow", batch_size=None, zero_copy_batch=True)
        .groupby("l_orderkey")
        .aggregate(Sum("n", alias_name="n_items"))
    )

    def hist(t: pa.Table) -> pa.Table:
        g = (
            pa.table({"n_items": pc.cast(t["n_items"], pa.int64())})
            .group_by("n_items", use_threads=False)
            .aggregate([([], "count_all")])
        )
        g = g.rename_columns(["n_items", "n_orders"])
        return g.set_column(
            g.column_names.index("n_orders"), "n_orders", pc.cast(g["n_orders"], pa.int64())
        )

    agg = (
        per_order.map_batches(hist, batch_format="pyarrow", batch_size=None)
        .groupby("n_items")
        .aggregate(Sum("n_orders", alias_name="n_orders"))
    )
    return agg.map_batches(
        lambda t: t.set_column(
            t.column_names.index("n_orders"), "n_orders", pc.cast(t["n_orders"], pa.int64())
        ),
        batch_format="pyarrow",
        batch_size=None,
    )
