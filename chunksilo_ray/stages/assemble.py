"""Dialogue assembly: per-turn offset computation without moving text.

The Ray-Data analog of the reference's heading-aware document splitting
(reference src/chunksilo/docx_utils.py:118-285: group body under ordered
headings -> per-section documents): restore turn order per conversation and
compute each turn's character offset inside the assembled conversation
document ("<role>: <text>\n" per turn).

Per the north rule, the per-turn ``text`` column passes through BYTE-EQUAL —
assembly adds ordering/offset columns, it never rewrites text, and text
bytes never enter an exchange. Every downstream consumer (extraction,
chunking) is strictly per-turn; only the two derived columns
(``conv_n_turns``, ``doc_char_start``) need cross-row information, so only
light (conv_id, turn_idx, length) rows are exchanged, by co-partitioned
attach: light rows go out by conversation hash and the computed offsets come
back by source block, so per-task memory is O(part) or O(block) and the
driver holds only refs. Outputs are parity-tested against a single-process
reference.

Skew needs no salting: a giant conversation costs one reduce task a few
tens of bytes per turn, never its text."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ray.data import Dataset

from ..exchange import PARTS, part_ids, split_rows

# assembled-turn output schema (per-turn rows, conversation-ordered)
ASSEMBLED_COLUMNS = [
    "conv_id",
    "turn_idx",
    "role",
    "text",
    "tool",
    "ts",
    "conv_n_turns",
    "doc_char_start",
]


# ---------------------------------------------------------------------------
# Co-partitioned attach: text never moves and no task holds an O(#turns)
# index. Only light rows are exchanged, in BOTH directions:
#
#   forward   (conv-hash): (conv_id, turn_idx, contrib_len, block_id,
#              row_idx) — tens of bytes/row — so each reduce task sees every
#              turn of its conversations and computes exact global offsets;
#   backward  (block-id):  (row_idx, conv_n_turns, turn_char_start) —
#              24 bytes/row — routed back to the block each row came from
#              (reduce task p returns B position-addressable slices);
#   attach    (per block): scatter the two derived columns onto the UNMOVED
#              block by row position. Per-task memory is O(part) or
#              O(block), never O(#turns); the driver holds only refs.
#
# Raw Ray tasks, not Dataset groupby(): Ray 2.49's groupby is a sort-based
# global shuffle, several times the cost of this targeted 64-way exchange.
# This is the same two-stage targeted exchange as ops/graph.py::
# kg_edge_timestamps, specialized with a per-source-block return route so
# the result lands back on the original rows without a join.

def _split_lengths_keyed(block, block_id: int, parts: int) -> list[pa.Table]:
    """Map side of the forward exchange for one input block: light rows
    (conv_id, turn_idx, contrib_len, block_id, row_idx) split into ``parts``
    conv-hash sub-tables. Hashing must agree across blocks ->
    ``exchange.part_ids`` (the same in every worker process), over only the
    block's unique conv ids, fanned back out over the dictionary indices."""
    contrib = pc.add(
        pc.add(pc.utf8_length(block["role"]), pc.utf8_length(block["text"])),
        pa.scalar(3, pa.int32()),
    )
    t = block.select(["conv_id", "turn_idx"])
    t = t.append_column("contrib_len", pc.cast(contrib, pa.int64()))
    n = t.num_rows
    t = t.append_column("block_id", pa.array(np.full(n, block_id, np.int64)))
    t = t.append_column("row_idx", pa.array(np.arange(n, dtype=np.int64)))
    enc = pc.dictionary_encode(t["conv_id"].combine_chunks())
    part_u = part_ids(enc.dictionary, parts=parts).to_numpy()
    slices = split_rows(t, part_u[enc.indices.to_numpy(zero_copy_only=False)], parts)
    return slices if parts > 1 else slices[0]


def _reduce_route_part(n_blocks: int, *tables: pa.Table):
    """Reduce side of the forward exchange: all lengths rows of ONE conv-hash
    partition -> per-turn offsets, returned as ``n_blocks`` slices keyed by
    source block (the backward route). Conversations are complete within the
    partition by construction, so offsets are exact and global."""
    live = [t for t in tables if t.num_rows]
    if not live:
        empty = pa.table(
            {
                "row_idx": pa.array([], pa.int64()),
                "conv_n_turns": pa.array([], pa.int32()),
                "turn_char_start": pa.array([], pa.int64()),
            }
        )
        return [empty] * n_blocks if n_blocks > 1 else empty
    t = pa.concat_tables(live)
    conv = t["conv_id"].combine_chunks()
    codes = pc.dictionary_encode(conv).indices.to_numpy(zero_copy_only=False)
    turn = t["turn_idx"].to_numpy(zero_copy_only=False)
    contrib = t["contrib_len"].to_numpy(zero_copy_only=False)
    order = np.lexsort((turn, codes))
    codes_s, contrib_s = codes[order], contrib[order]
    n = len(codes_s)
    starts = np.concatenate(([0], np.flatnonzero(codes_s[1:] != codes_s[:-1]) + 1))
    ends = np.concatenate((starts[1:], [n]))
    seg_len = ends - starts
    seg_id = np.repeat(np.arange(len(starts)), seg_len)
    excl = np.concatenate(([0], np.cumsum(contrib_s[:-1])))
    local = excl - excl[starts][seg_id]
    n_turns = seg_len[seg_id].astype(np.int32)

    blk = t["block_id"].to_numpy(zero_copy_only=False)[order]
    row = t["row_idx"].to_numpy(zero_copy_only=False)[order]
    # route back by source block: the source block id is the row's part
    out_tbl = pa.table(
        {
            "row_idx": pa.array(row),
            "conv_n_turns": pa.array(n_turns),
            "turn_char_start": pa.array(local, pa.int64()),
        }
    )
    slices = split_rows(out_tbl, blk, n_blocks)
    return slices if n_blocks > 1 else slices[0]


def _attach_block(block, *parts: pa.Table) -> pa.Table:
    """Scatter the routed offset rows onto the unmoved source block by row
    position and finish doc_char_start (= turn char start + len(role) + 2)."""
    n = block.num_rows
    n_turns = np.zeros(n, np.int32)
    char_start = np.zeros(n, np.int64)
    got = 0
    for p in parts:
        if p.num_rows == 0:
            continue
        ri = p["row_idx"].to_numpy(zero_copy_only=False)
        n_turns[ri] = p["conv_n_turns"].to_numpy(zero_copy_only=False)
        char_start[ri] = p["turn_char_start"].to_numpy(zero_copy_only=False)
        got += p.num_rows
    if got != n:
        raise ValueError(
            f"assembly co-partition attach: routed {got} offset rows for a "
            f"{n}-row block — input changed mid-run"
        )
    role_len = pc.utf8_length(block["role"]).to_numpy(zero_copy_only=False).astype(np.int64)
    out = block.append_column("conv_n_turns", pa.array(n_turns))
    out = out.append_column(
        "doc_char_start", pa.array(char_start + role_len + 2, pa.int64())
    )
    return out.select(ASSEMBLED_COLUMNS)


def assemble_table(t: pa.Table) -> pa.Table:
    """In-process assembly of one table that holds whole conversations: the
    co-partitioned attach with one part and one block, no exchange."""
    return _attach_block(t, _reduce_route_part(1, _split_lengths_keyed(t, 0, 1)))


def assemble_dialogues(turns: Dataset) -> Dataset:
    """The KG pipeline's assembly stage (SURVEY.md §3.4). Returns per-turn
    rows with ``conv_n_turns`` and ``doc_char_start`` (offset of the turn
    text inside the assembled "<role>: <text>\\n" conversation document),
    computed by the co-partitioned attach above. Row ORDER is not part of
    the contract."""
    import ray
    import ray.data as rd

    # Single decode: the input is decoded once and pinned; its blocks are
    # the source of the forward exchange and the attach targets.
    turns = turns.materialize()
    block_refs = list(turns.to_arrow_refs())
    n_blocks = len(block_refs)
    if n_blocks == 0:
        return turns.map_batches(
            _attach_block, batch_format="pyarrow", batch_size=None, zero_copy_batch=True
        )
    parts = max(1, min(PARTS, n_blocks * 4))
    split_task = ray.remote(num_returns=parts)(_split_lengths_keyed) if parts > 1 \
        else ray.remote(_split_lengths_keyed)
    reduce_task = ray.remote(num_returns=n_blocks)(_reduce_route_part) if n_blocks > 1 \
        else ray.remote(_reduce_route_part)

    splits = [split_task.remote(b, i, parts) for i, b in enumerate(block_refs)]
    if parts == 1:
        splits = [[s] for s in splits]
    routed = [
        reduce_task.remote(n_blocks, *[s[p] for s in splits]) for p in range(parts)
    ]
    if n_blocks == 1:
        routed = [[r] for r in routed]
    attach_task = ray.remote(_attach_block)
    out_refs = [
        attach_task.remote(block_refs[b], *[routed[p][b] for p in range(parts)])
        for b in range(n_blocks)
    ]
    return rd.from_arrow_refs(out_refs)
