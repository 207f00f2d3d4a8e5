"""The one coarse-hash exchange: the part count, the partition hash, the
map-side split and the ``__part`` shuffle that the KG build and every
partitioned operator use.

A stage tags each row with ``part_ids`` of its key (``with_parts`` for a
whole dataset), then runs its kernel with ``map_partitions(ds, "__part",
fn)``. A stage that runs its own two-round task graph instead splits each
map-side table with ``split_by_part`` (or ``split_rows``, given the part of
every row) and hands slice ``p`` to reduce task ``p``. Equal keys of the
same dtype get the same part in every process, so the two sides of a
co-group meet as long as both tag through ``part_ids``."""

from __future__ import annotations

import numpy as np
import pyarrow as pa

PARTS = 64


def part_ids(keys, columns: list[str] | None = None, parts: int = PARTS) -> pa.Array:
    """int64 partition id in ``[0, parts)`` for each row of ``keys``.

    ``keys`` is a table (hashed on ``columns``, default all of them) or one
    key column (numpy or Arrow). One integer column hashes multiplicatively,
    ``k * 0x9E3779B97F4A7C15 >> 33``; anything else hashes the
    ``"\\x1f"``-joined string form of its columns with polars (seed 7), no
    per-row Python. ``parts`` is smaller than ``PARTS`` only where a stage
    sizes its exchange to a small input (dialogue assembly)."""
    if isinstance(keys, pa.Table):
        t = keys.select(columns) if columns else keys
    else:
        t = pa.table({"k": keys})
    if t.num_columns == 1 and pa.types.is_integer(t.schema.types[0]):
        k = t.column(0).to_numpy().astype(np.uint64)
        h = (k * np.uint64(0x9E3779B97F4A7C15)) >> np.uint64(33)
    else:
        from .util import polars_safe

        pl = polars_safe()
        df = pl.from_arrow(t)
        h = (
            df.select(pl.concat_str([pl.col(c) for c in df.columns], separator="\x1f").hash(seed=7))
            .to_series()
            .to_numpy()
            .astype(np.uint64)
            >> np.uint64(33)
        )
    return pa.array((h % np.uint64(parts)).astype(np.int64))


def split_rows(t: pa.Table, part: np.ndarray, parts: int) -> list[pa.Table]:
    """``t`` split into ``parts`` slices, slice ``p`` holding the rows whose
    ``part`` (an int array, one value in ``[0, parts)`` per row) is ``p``, in
    their input order: one stable argsort, then ``searchsorted`` bounds and
    zero-copy slices of the reordered table (a filter per part costs one
    pass over ``t`` per part)."""
    order = np.argsort(part, kind="stable")
    bounds = np.searchsorted(part[order], np.arange(parts + 1))
    moved = t.take(pa.array(order))
    return [moved.slice(int(bounds[p]), int(bounds[p + 1] - bounds[p])) for p in range(parts)]


def split_by_part(t: pa.Table, columns: list[str], parts: int) -> list[pa.Table]:
    """The map side of an exchange: ``t`` split into ``parts`` slices by
    ``part_ids`` of ``columns``."""
    return split_rows(t, part_ids(t, columns, parts).to_numpy(), parts)


def with_parts(ds, columns: list[str]):
    """``ds`` with a ``__part`` column: ``part_ids`` of ``columns``."""

    def add_part(t: pa.Table) -> pa.Table:
        return t.append_column("__part", part_ids(t, columns))

    return ds.map_batches(add_part, batch_format="pyarrow", batch_size=None, zero_copy_batch=True)


def map_partitions(ds, key, fn, batch_format: str = "pyarrow"):
    """``groupby(key).map_groups(fn)`` for UDFs that tolerate receiving
    several COMPLETE key-groups in one call — which every ``__part``-keyed
    kernel in this repo does (each sorts/segments by its real key
    internally; co-location per key is the only contract).

    Same exchange as map_groups (a range-partitioned sort on ``key``
    co-locates equal keys in one output block), but the UDF runs once per
    BLOCK instead of once per group. ``fn`` never sees an empty table:
    Ray 2.49's ``map_batches`` hands a 0-row pyarrow or pandas batch on
    without calling the UDF, so the sort's empty partitions stay
    schema-less 0-row blocks (DESIGN.md "The exchange module and empty
    partitions")."""
    return ds.sort(key).map_batches(fn, batch_format=batch_format, batch_size=None)
