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
light (conv_id, turn_idx, length) rows are exchanged. Two paths, identical
outputs (parity-tested against a single-process reference):

- broadcast attach (default): a lengths-only two-stage hash exchange builds
  per-part offset payloads; every attach worker merges them once into one
  offsets index and stamps the unmoved turns. Per-worker memory is
  O(#turns) — fine to ~8M turns.
- co-partitioned attach (over the broadcast budget): light rows go out by
  conversation hash and the computed offsets come back by source block, so
  per-task memory is O(part) or O(block) and the driver holds only refs.

Skew needs no salting on either path: a giant conversation costs one
reduce task a few tens of bytes per turn, never its text."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ray.data import Dataset

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
# Broadcast-offsets path: compute per-turn lengths in a cheap projection
# scan, exchange ONLY (conv_id, turn_idx, contrib_len) — tens of bytes/row
# instead of the text — through a TARGETED two-stage hash exchange (split
# each lengths block by part, one reduce task per part; raw Ray tasks
# because Dataset groupby() is a sort-based global shuffle, ~6x the cost of
# this exchange for a small 64-way partition), leave the per-part payloads
# in the object store, and attach the two columns to the UNMOVED turns in a
# second scan that merges the parts once per worker. The driver touches
# only object refs. Over the broadcast budget (offsets table no longer
# "small side"), the co-partitioned attach below takes over.

_OFFSET_PARTS = 64
# first-part ref.hex -> (unique-conv pd.Index, sorted int64 keys, starts,
# n_turns), merged from the per-part payloads once per worker. Only the
# UNIQUE-CONVERSATION dictionary is string-indexed (≈ turns/10 entries);
# the per-turn side is numeric numpy, pre-sorted within each part and
# globally sorted after per-part code re-basing — per-worker setup is
# O(#convs) strings + an O(#turns) numeric memcpy, never an O(#turns) sort
# or string index.
_OFF_INDEX_CACHE: dict[str, tuple] = {}


def _lengths_batch(t: pa.Table) -> pa.Table:
    contrib = pc.add(
        pc.add(pc.utf8_length(t["role"]), pc.utf8_length(t["text"])),
        pa.scalar(3, pa.int32()),
    )
    out = t.select(["conv_id", "turn_idx"])
    out = out.append_column("contrib_len", pc.cast(contrib, pa.int64()))
    # partition hash over the block's UNIQUE conv ids only (O(#convs/block)
    # Python, fanned back out over dictionary indices). This stage is the
    # pipeline's FIRST worker touch — round 3 measured its polars-based
    # predecessor paying the ~1 s/worker polars import inside the stage's
    # fixed (CPU-count-independent) cost, straight onto the Amdahl floor.
    from pandas.util import hash_array

    enc = pc.dictionary_encode(out["conv_id"].combine_chunks())
    uniq = enc.dictionary.to_numpy(zero_copy_only=False)
    # pandas hash_array: vectorized siphash with a FIXED key — deterministic
    # across worker processes (required: every block must agree on a conv's
    # partition), ~2 ms per 12k uniques, no extra import on workers
    h_u = hash_array(uniq, categorize=False).astype(np.uint64)
    part_u = ((h_u >> np.uint64(33)) % np.uint64(_OFFSET_PARTS)).astype(np.int64)
    part = part_u[enc.indices.to_numpy(zero_copy_only=False)]
    return out.append_column("__part", pa.array(part))


def _offsets_part(t: pa.Table) -> pa.Table:
    """All lengths rows of one coarse partition -> (conv_id, turn_idx,
    conv_n_turns, turn_char_start). Vectorized: dictionary-encode conv_id,
    lexsort (conv, turn), segmented exclusive cumsum."""
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
    return pa.table(
        {
            "conv_id": conv.take(pa.array(order)),
            "turn_idx": pa.array(turn[order]).cast(t["turn_idx"].type),
            "conv_n_turns": pa.array(seg_len[seg_id].astype(np.int32)),
            "turn_char_start": pa.array(local, pa.int64()),
        }
    )


_TURN_MASK = np.int64(0xFFFFFFFF)


def _compound_keys(codes: np.ndarray, turn) -> np.ndarray:
    """(conv code, turn_idx) -> one exact int64 key: code << 32 | turn.
    turn_idx is int32 per the input contract, so the low 32 bits are exact."""
    t = np.asarray(turn, dtype=np.int64)
    return (codes.astype(np.int64) << np.int64(32)) | (t & _TURN_MASK)


def _split_by_part(block: pa.Table) -> list[pa.Table]:
    """Map side of the targeted hash exchange: one lengths block ->
    _OFFSET_PARTS per-part sub-tables (empty slices included, so the reduce
    fan-in is position-addressable)."""
    part = block["__part"].to_numpy(zero_copy_only=False)
    order = np.argsort(part, kind="stable")
    sorted_tbl = block.take(pa.array(order))
    bounds = np.searchsorted(part[order], np.arange(_OFFSET_PARTS + 1))
    return [
        sorted_tbl.slice(int(bounds[p]), int(bounds[p + 1] - bounds[p]))
        for p in range(_OFFSET_PARTS)
    ]


def _reduce_offsets_part(*tables: pa.Table):
    """Reduce side: all lengths rows of ONE hash partition -> the part's
    broadcast payload (conv dictionary, LOCALLY-coded sorted compound keys,
    char starts, turn counts). Keys sort by (local conv code, turn); the
    attach worker re-bases codes per part, which keeps the concatenation of
    parts globally sorted with no re-sort."""
    live = [t for t in tables if t.num_rows]
    if not live:
        return (
            pa.array([], pa.string()),
            np.zeros(0, np.int64),
            np.zeros(0, np.int64),
            np.zeros(0, np.int32),
        )
    off_tbl = _offsets_part(pa.concat_tables(live))
    enc = pc.dictionary_encode(off_tbl["conv_id"].combine_chunks())
    codes = enc.indices.to_numpy(zero_copy_only=False)
    key = _compound_keys(codes, off_tbl["turn_idx"].to_numpy(zero_copy_only=False))
    order = np.argsort(key, kind="stable")
    return (
        enc.dictionary,
        key[order],
        off_tbl["turn_char_start"].to_numpy(zero_copy_only=False)[order],
        off_tbl["conv_n_turns"].to_numpy(zero_copy_only=False)[order].astype(np.int32),
    )


def _merge_parts(parts: list) -> tuple:
    """Worker-side one-time merge of the per-part payloads into the exact
    structure the attach kernel always used: ONE conv dictionary index, ONE
    globally-sorted compound key array. Per part p, local codes are re-based
    by the cumulative conv count, so part p+1's smallest key exceeds part
    p's largest — concatenation IS the global sort order."""
    import pandas as pd

    dicts = [p[0].to_numpy(zero_copy_only=False) for p in parts]
    n_convs = np.array([len(d) for d in dicts], dtype=np.int64)
    bases = np.concatenate(([0], np.cumsum(n_convs)))[:-1]
    skey = np.concatenate(
        [p[1] + (bases[i] << np.int64(32)) for i, p in enumerate(parts)]
    ) if parts else np.zeros(0, np.int64)
    tcs = np.concatenate([p[2] for p in parts]) if parts else np.zeros(0, np.int64)
    n_turns = np.concatenate([p[3] for p in parts]) if parts else np.zeros(0, np.int32)
    conv_index = pd.Index(np.concatenate(dicts) if dicts else np.array([], object))
    return conv_index, skey, tcs, n_turns


def _attach_fn(part_refs: list):
    def attach(t: pa.Table) -> pa.Table:
        import ray as _ray

        key = part_refs[0].hex() if part_refs else ""
        cached = _OFF_INDEX_CACHE.get(key)
        if cached is None:
            if len(_OFF_INDEX_CACHE) > 2:
                _OFF_INDEX_CACHE.clear()
            cached = _merge_parts(_ray.get(list(part_refs)))
            _OFF_INDEX_CACHE[key] = cached
        conv_index, skey, tcs, n_turns = cached
        # resolve only the batch's UNIQUE conv ids against the index, then
        # fan the codes back out over the batch's dictionary indices
        benc = pc.dictionary_encode(t["conv_id"].combine_chunks())
        uniq_codes = conv_index.get_indexer(
            benc.dictionary.to_numpy(zero_copy_only=False)
        )
        # offsets derive from the same input scan — every key must resolve
        if len(uniq_codes) and uniq_codes.min() < 0:
            raise ValueError("assembly offset lookup miss — input changed mid-run")
        codes = uniq_codes[benc.indices.to_numpy(zero_copy_only=False)]
        bkey = _compound_keys(codes, t["turn_idx"].to_numpy(zero_copy_only=False))
        pos = np.searchsorted(skey, bkey)
        pos = np.clip(pos, 0, max(len(skey) - 1, 0))
        if len(bkey) and (len(skey) == 0 or not np.array_equal(skey[pos], bkey)):
            raise ValueError("assembly offset lookup miss — input changed mid-run")
        role_len = pc.utf8_length(t["role"]).to_numpy(zero_copy_only=False).astype(np.int64)
        out = t.append_column("conv_n_turns", pa.array(n_turns[pos].astype(np.int32)))
        out = out.append_column(
            "doc_char_start", pa.array(tcs[pos] + role_len + 2, pa.int64())
        )
        return out.select(ASSEMBLED_COLUMNS)

    return attach


def _assemble_broadcast(turns: Dataset) -> Dataset:
    import os as _os
    import sys as _sys
    import time as _time

    import ray

    _trace = _os.environ.get("GRAFT_TIMING") == "1"
    _t0 = _time.perf_counter()

    def _mark(name: str) -> None:
        if _trace:
            print(f"[asm +{_time.perf_counter() - _t0:6.2f}s] {name}",
                  file=_sys.stderr, flush=True)

    # Single decode: decode the input parquet ONCE and serve both the
    # lengths scan and the attach scan from the object store (plasma
    # memcpy) instead of re-decoding the text column in the attach pass.
    # Clean-window A/B (sf0.3): -12% end-to-end at 8 cpus (29.8 -> 26.3 s,
    # assembly segment -34%), neutral at 2 cpus — parquet DECODE is the
    # contended resource once cores share memory channels, memcpy is not.
    # Costs one extra text copy in plasma for the stage's lifetime.
    turns = turns.materialize()
    _mark("input materialized (single-decode mode)")

    # Targeted two-stage hash exchange with raw Ray tasks — the one spot the
    # Dataset API can't express (Ray 2.49 groupby() is a SORT-based global
    # shuffle; measured 18 s at sf0.3/16 cpus for what is a 45 MB 64-way
    # hash partition). Map: split each lengths block by __part (locality —
    # the split task runs where the block lives). Reduce: one task per part
    # builds that part's broadcast payload. The driver handles only object
    # REFS — zero O(#turns) driver work (the old path concat+encode+sorted
    # 100+ MB on the driver, a pure Amdahl segment).
    lengths = turns.map_batches(
        _lengths_batch, batch_format="pyarrow", batch_size=None, zero_copy_batch=True
    )
    split_task = ray.remote(num_returns=_OFFSET_PARTS)(_split_by_part)
    reduce_task = ray.remote(_reduce_offsets_part)
    block_refs = lengths.to_arrow_refs()
    _mark("lengths scan materialized")
    splits = [split_task.remote(b) for b in block_refs]
    part_refs = [
        reduce_task.remote(*[s[p] for s in splits]) for p in range(_OFFSET_PARTS)
    ]
    # completion barrier only (for the timing mark + scheduling): ray.wait
    # does NOT raise task exceptions — a failed reduce surfaces inside the
    # attach workers' ray.get of its ref. Payloads stay in the object
    # store; the driver never fetches them.
    ray.wait(part_refs, num_returns=len(part_refs))
    _mark("offsets exchange (split+reduce tasks)")
    return turns.map_batches(
        _attach_fn(part_refs), batch_format="pyarrow", batch_size=None, zero_copy_batch=True
    )


# ---------------------------------------------------------------------------
# Co-partitioned attach (round 5): the over-budget path that STILL never
# moves text. The broadcast path above is O(#turns) per attach worker (every
# worker merges all 64 part payloads into one heap-resident offsets index) —
# fine to ~8M turns, fatal at 10^10. This path exchanges ONLY light rows in
# BOTH directions:
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
# This is the same two-stage targeted exchange as ops/graph.py::
# kg_edge_timestamps, specialized with a per-source-block return route so
# the result lands back on the original rows without a join.

_COPART_PARTS = _OFFSET_PARTS


def _split_lengths_keyed(block, block_id: int, parts: int) -> list[pa.Table]:
    """Map side of the forward exchange for one input block: light rows
    (conv_id, turn_idx, contrib_len, block_id, row_idx) split into ``parts``
    conv-hash sub-tables. Hashing must agree across blocks -> pandas
    hash_array (fixed-key siphash), same recipe as _lengths_batch."""
    if not isinstance(block, pa.Table):
        block = pa.Table.from_pandas(block, preserve_index=False)
    from pandas.util import hash_array

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
    uniq = enc.dictionary.to_numpy(zero_copy_only=False)
    h_u = hash_array(uniq, categorize=False).astype(np.uint64)
    part_u = ((h_u >> np.uint64(33)) % np.uint64(parts)).astype(np.int64)
    part = part_u[enc.indices.to_numpy(zero_copy_only=False)]
    order = np.argsort(part, kind="stable")
    sorted_tbl = t.take(pa.array(order))
    bounds = np.searchsorted(part[order], np.arange(parts + 1))
    slices = [
        sorted_tbl.slice(int(bounds[p]), int(bounds[p + 1] - bounds[p]))
        for p in range(parts)
    ]
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
    # route back by source block: one stable sort on block_id, then
    # position-addressable slices (searchsorted bounds)
    border = np.argsort(blk, kind="stable")
    blk_s = blk[border]
    bounds = np.searchsorted(blk_s, np.arange(n_blocks + 1))
    out_tbl = pa.table(
        {
            "row_idx": pa.array(row[border]),
            "conv_n_turns": pa.array(n_turns[border]),
            "turn_char_start": pa.array(local[border], pa.int64()),
        }
    )
    slices = [
        out_tbl.slice(int(bounds[b]), int(bounds[b + 1] - bounds[b]))
        for b in range(n_blocks)
    ]
    return slices if n_blocks > 1 else slices[0]


def _attach_block(block, *parts: pa.Table) -> pa.Table:
    """Scatter the routed offset rows onto the unmoved source block by row
    position and finish doc_char_start (= turn char start + len(role) + 2)."""
    if not isinstance(block, pa.Table):
        block = pa.Table.from_pandas(block, preserve_index=False)
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


def _assemble_copartition(turns: Dataset) -> Dataset:
    import ray
    import ray.data as rd

    turns = turns.materialize()  # pin blocks: source of both exchanges + attach
    block_refs = list(turns.to_arrow_refs())
    n_blocks = len(block_refs)
    if n_blocks == 0:
        return _assemble_broadcast(turns)  # empty input: trivial either way
    parts = max(1, min(_COPART_PARTS, n_blocks * 4))
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


def assemble_dialogues(
    turns: Dataset,
    broadcast_limit: int | None = None,
    path: str | None = None,
) -> Dataset:
    """The KG pipeline's assembly stage (SURVEY.md §3.4). Returns per-turn
    rows with ``conv_n_turns`` and ``doc_char_start`` (offset of the turn
    text inside the assembled "<role>: <text>\\n" conversation document).

    Path selection (``path=None`` auto): when the per-turn offset table fits
    the broadcast budget (``broadcast_limit`` rows, default 8M ~ 300 MB),
    ``"broadcast"`` — lengths-only exchange + broadcast attach, fastest, but
    each attach worker holds the full merged offsets index. Past the budget
    (or ``broadcast_limit=0``), ``"copartition"`` — light rows exchanged in
    both directions, per-task memory O(part)/O(block); this is the 100-TB
    path. Output columns and values are identical on both paths
    (parity-tested); row ORDER is not part of the contract."""
    if path is None:
        if broadcast_limit is None:
            broadcast_limit = 8_000_000
        if broadcast_limit > 0 and turns.count() <= broadcast_limit:
            path = "broadcast"
        else:
            path = "copartition"
    if path == "broadcast":
        return _assemble_broadcast(turns)
    if path == "copartition":
        return _assemble_copartition(turns)
    raise ValueError(f"unknown assembly path: {path!r}")
