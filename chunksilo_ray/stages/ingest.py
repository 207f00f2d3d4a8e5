"""One task per assembled block: extraction, its scan, and chunk + embed.

Extraction and chunking both map the assembled turns row by row, so the
build fuses them (operator fusion over a shared input) into plain Ray
tasks over the pinned assembled blocks instead of one streaming Ray Data
execution each. A task returns, for its blocks:

    extracted  ``extract_table`` over ``linking.batch_size``-row slices, so
               the per-row time budget and the per-row fallback work as in
               ``link_extract``
    scan       ``scan_partial``: the dead-letter count and the distinct
               unknown norms of each extracted block
    dead       the dead-letter rows of each extracted block (usually empty)
    chunks     ``ChunkTurns``, embedded in the task by the stateless
               backends (bow, charngram)

A half whose checkpoint is complete is not run: ``linking=None`` skips the
first three, ``chunking=None`` the last. The actor-pool backend (onnx)
loads a model once per actor, so its chunks are embedded by a separate
``embed_chunks`` execution over the tasks' chunk blocks.

Blocks of at least 4,096 rows map one to one, one task each. Smaller
blocks are grouped into runs as ``map_batches`` groups them, so every
output keeps the block layout the separate stages gave it (and the graph
its part count). The driver holds only refs.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data as rd
from ray.data import Dataset

from .canon import batch_distinct_unknown_norms
from .chunk import ChunkTurns
from .embed import embed_chunks, embed_table, embeds_in_task
from .link import extract_table

# rows per ChunkTurns call (chunk_turns' batch size)
CHUNK_BATCH_ROWS = 4096


def _flat(a):
    return a.combine_chunks() if isinstance(a, pa.ChunkedArray) else a


def scan_partial(t: pa.Table) -> pa.Table:
    """One extracted block's scan result as a tagged union of rows: the
    dead-letter count (kind=0) and the distinct unknown norms (kind=1)."""
    n_err = int(t.num_rows - t.column("error").null_count)
    norms = _flat(batch_distinct_unknown_norms(t).column("norm"))
    return pa.table(
        {
            "kind": pa.array([0] + [1] * len(norms), pa.int8()),
            "n_err": pa.array([n_err] + [0] * len(norms), pa.int64()),
            "s": pa.concat_arrays([pa.array([None], pa.string()), norms]),
        }
    )


def dead_letter_rows(t: pa.Table) -> pa.Table:
    """The rows of an extracted table the extractor marked failed (non-null
    ``error``), as (conv_id, turn_idx, error)."""
    dead = t.filter(pc.is_valid(t.column("error")))
    return pa.table(
        {
            "conv_id": pc.cast(dead.column("conv_id"), pa.string()),
            "turn_idx": pc.cast(dead.column("turn_idx"), pa.int64()),
            "error": pc.cast(dead.column("error"), pa.string()),
        }
    )


def _sliced(fn: Callable[[pa.Table], pa.Table], t: pa.Table, rows: int) -> pa.Table:
    """``fn`` over ``rows``-row slices of ``t``, concatenated (one call on an
    empty ``t``, so the result carries ``fn``'s schema)."""
    return pa.concat_tables([fn(t.slice(i, rows)) for i in range(0, max(t.num_rows, 1), rows)])


def _runs(rows: list[int], target: int) -> list[int]:
    """End (exclusive) of each run of consecutive blocks that
    ``map_batches(batch_size=target)`` hands one task: blocks are added to a
    run until it holds at least ``target`` rows. Each run becomes one
    output block, as it does under Ray Data."""
    ends, held = [], 0
    for i, n in enumerate(rows):
        held += n
        if held >= target:
            ends.append(i + 1)
            held = 0
    if rows and (not ends or ends[-1] < len(rows)):
        ends.append(len(rows))
    return ends


def _ingest_runs(alias: list, linking: dict | None, chunking: dict | None, embed: dict | None,
                 link_ends: list[int], chunk_ends: list[int], *blocks: pa.Table):
    """The task body: the requested halves over consecutive assembled
    blocks. Returns (extracted, scan, dead) per run of blocks that
    ``link_ends`` closes, then the chunks of each run ``chunk_ends`` closes
    (run ends, exclusive, as indices into ``blocks``). ``alias`` holds the
    alias table's ref (inside a list, so Ray passes the ref itself and the
    worker's alias-index memo keys on it)."""

    def tables(ends: list[int]):
        for start, end in zip([0] + ends[:-1], ends):
            yield pa.concat_tables(blocks[start:end])

    out = []
    if linking is not None:

        def extract(t: pa.Table) -> pa.Table:
            return extract_table(t, alias[0], linking["max_ngram"], linking["per_row_seconds"])

        for t in tables(link_ends):
            extracted = _sliced(extract, t, linking["batch_size"])
            out += [extracted, scan_partial(extracted), dead_letter_rows(extracted)]
    if chunking is not None:
        for t in tables(chunk_ends):
            chunks = _sliced(ChunkTurns(**chunking), t, CHUNK_BATCH_ROWS)
            if embed is not None:
                chunks = _sliced(
                    lambda c: embed_table(c, embed["backend"], embed["dim"]),
                    chunks,
                    embed["batch_size"],
                )
            out.append(chunks)
    return out if len(out) > 1 else out[0]


class Ingested(NamedTuple):
    """The ingest tasks' outputs (None for a half that did not run): the
    extracted and chunks datasets, and refs of the scan partials and of the
    dead-letter rows, one per extracted run."""

    extracted: Dataset | None
    scan: list | None
    dead: list | None
    chunks: Dataset | None


@ray.remote
def _cut(t: pa.Table, rows: int):
    return [t.slice(i, rows) for i in range(0, t.num_rows, rows)]


def _bounded(refs: list) -> Dataset:
    """``refs`` as a materialized dataset whose blocks hold at most
    ``DataContext.target_max_block_size`` bytes each (by average row
    width), as ``map_batches`` cuts its output: a larger block is cut into
    slices by one more task. ``materialize()`` binds the refs as the
    dataset's blocks, so reading their metadata starts no execution."""
    ds = rd.from_arrow_refs(refs).materialize()
    limit = rd.DataContext.get_current().target_max_block_size
    blocks = [block for b in ds.iter_internal_ref_bundles() for block in b.blocks]
    if limit is None or all(meta.size_bytes <= limit for _, meta in blocks):
        return ds
    out = []
    for ref, meta in blocks:
        rows = max(1, limit // max(1, meta.size_bytes // max(1, meta.num_rows)))
        if meta.size_bytes <= limit or meta.num_rows <= rows:
            out.append(ref)
        else:
            out += _cut.options(num_returns=-(-meta.num_rows // rows)).remote(ref, rows)
    return rd.from_arrow_refs(out).materialize()


def ingest_blocks(
    assembled: Dataset,
    alias_ref=None,
    linking: dict | None = None,
    chunking: dict | None = None,
    embedding: dict | None = None,
) -> Ingested:
    """Submit the ingest tasks over the pinned blocks of ``assembled``,
    running the halves asked for: extraction with ``linking`` (the config
    section, with the broadcast ``alias_ref``), chunking with ``chunking``
    and ``embedding`` (both sections).

    Output blocks are laid out as ``link_extract`` and ``chunk_turns`` lay
    them out: a block holds one run of consecutive assembled blocks of at
    least the stage's batch size (``_runs``), so a block of that size or
    more maps one to one, and a block over the target block size is cut
    (``_bounded``). A task takes the shortest range of blocks that both
    halves' runs tile, so with blocks of at least 4,096 rows it is one task
    per block."""
    blocks = [block for b in assembled.iter_internal_ref_bundles() for block in b.blocks]
    rows = [meta.num_rows for _, meta in blocks]
    link_ends = _runs(rows, linking["batch_size"]) if linking is not None else []
    chunk_ends = _runs(rows, CHUNK_BATCH_ROWS) if chunking is not None else []
    if linking is not None and chunking is not None:
        task_ends = sorted(set(link_ends) & set(chunk_ends))
    else:
        task_ends = link_ends or chunk_ends
    in_task = chunking is not None and embeds_in_task(embedding["backend"], embedding["mode"])

    task = ray.remote(_ingest_runs)
    extracted, scan, dead, chunk_refs = [], [], [], []
    start = 0
    for end in task_ends:
        link_cuts = [e - start for e in link_ends if start < e <= end]
        chunk_cuts = [e - start for e in chunk_ends if start < e <= end]
        n_out = 3 * len(link_cuts) + len(chunk_cuts)
        refs = task.options(num_returns=n_out).remote(
            [alias_ref], linking, chunking, embedding if in_task else None,
            link_cuts, chunk_cuts, *(ref for ref, _ in blocks[start:end]),
        )
        refs = refs if n_out > 1 else [refs]
        n_link = 3 * len(link_cuts)
        extracted += refs[0:n_link:3]
        scan += refs[1:n_link:3]
        dead += refs[2:n_link:3]
        chunk_refs += refs[n_link:]
        start = end
    chunks = None
    if chunking is not None:
        if in_task:
            chunks = _bounded(chunk_refs)
        else:
            chunks = embed_chunks(rd.from_arrow_refs(chunk_refs), **embedding)
    if linking is None:
        return Ingested(None, None, None, chunks)
    return Ingested(_bounded(extracted), scan, dead, chunks)


@ray.remote(num_returns=2)
def _scan_block(t: pa.Table):
    return scan_partial(t), dead_letter_rows(t)


def scan_blocks(extracted: Dataset) -> tuple[list, list]:
    """The scan and dead-letter refs of an extracted table that was not
    extracted in this run (read back from its checkpoint): one task per
    block."""
    results = [_scan_block.remote(b) for b in extracted.to_arrow_refs()]
    return [r[0] for r in results], [r[1] for r in results]
