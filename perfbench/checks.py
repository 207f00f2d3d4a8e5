"""Output checks: order-insensitive table digests and the oracle P/R gate."""

from __future__ import annotations

import hashlib
from pathlib import Path

import pyarrow.parquet as pq

GRAPH_TABLES = ("edges_agg", "nodes")


def table_digest(table_dir: Path) -> str:
    """sha256 of a table's rows, independent of part layout and row order."""
    t = pq.read_table(table_dir)
    t = t.select(sorted(t.column_names))
    t = t.sort_by([(c, "ascending") for c in t.column_names])
    h = hashlib.sha256()
    for name in t.column_names:
        h.update(name.encode())
        h.update(repr(t.column(name).to_pylist()).encode())
    return h.hexdigest()


def graph_digests(out_dir: Path) -> dict[str, str]:
    return {name: table_digest(out_dir / name) for name in GRAPH_TABLES}


def oracle_precision_recall(transcripts: Path, aliases: Path, out_dir: Path) -> tuple[float, float]:
    """Triple precision/recall of a built ``edges`` table against the
    single-process reference extractor."""
    from chunksilo_ray.oracle import extractor

    expected = extractor.extract(pq.read_table(transcripts), pq.read_table(aliases))["triples"]
    edges = pq.read_table(out_dir / "edges", columns=["conv_id", "turn_idx", "subj", "pred", "obj"])
    predicted = set(zip(*(edges.column(c).to_pylist() for c in edges.column_names)))
    return extractor.precision_recall(predicted, expected)


def drop_one_row(table_dir: Path) -> None:
    """Fault injection for the benchmark's own test: remove the first row of
    the first non-empty part file."""
    for part in sorted(table_dir.glob("*.parquet")):
        t = pq.read_table(part)
        if t.num_rows:
            pq.write_table(t.slice(1), part)
            return

