"""Dialogue-assembly invariants (north rule: per-turn text equality under
stable turn ordering) + giant-conversation and block-boundary offsets,
checked against a single-process reference."""

import numpy as np
import pyarrow as pa
import pytest

import ray.data as rd

from chunksilo_ray import datagen
from chunksilo_ray.stages.assemble import assemble_dialogues

pytestmark = pytest.mark.usefixtures("ray_session")


def _reference_offsets(rows):
    """Single-process recomputation of doc_char_start for verification."""
    rows = sorted(rows, key=lambda r: r["turn_idx"])
    out = {}
    acc = 0
    for r in rows:
        out[r["turn_idx"]] = acc + len(r["role"]) + 2
        acc += len(r["role"]) + 2 + len(r["text"]) + 1
    return out


def test_per_turn_text_equality_and_order():
    src = datagen.generate_transcripts(3000, seed=42)
    ds = rd.from_arrow(src)
    out = assemble_dialogues(ds).take_all()

    # per-turn text byte-equality vs the input column
    expected = {
        (c, i): t
        for c, i, t in zip(
            src.column("conv_id").to_pylist(),
            src.column("turn_idx").to_pylist(),
            src.column("text").to_pylist(),
        )
    }
    assert len(out) == src.num_rows
    for r in out:
        assert r["text"] == expected[(r["conv_id"], r["turn_idx"])]

    # offsets match a single-process reassembly for a few conversations
    by_conv: dict[str, list] = {}
    for r in out:
        by_conv.setdefault(r["conv_id"], []).append(r)
    for conv_id in list(by_conv)[:10]:
        rows = by_conv[conv_id]
        ref = _reference_offsets(rows)
        for r in rows:
            assert r["doc_char_start"] == ref[r["turn_idx"]]
        assert all(r["conv_n_turns"] == len(rows) for r in rows)


def test_salting_stitches_giant_conversation():
    # one giant conversation, shuffled input
    n = 1500
    rng = np.random.default_rng(7)
    perm = rng.permutation(n)
    t = pa.table(
        {
            "conv_id": pa.array(["conv-big"] * n),
            "turn_idx": pa.array(perm.astype("int32")),
            "role": pa.array(["user" if i % 2 == 0 else "assistant" for i in perm]),
            "text": pa.array([f"turn text number {i}" for i in perm]),
            "tool": pa.array([""] * n),
            "ts": pa.array(np.arange(n)[perm], pa.timestamp("us")),
        }
    )
    # the whole giant conversation lands in one reduce partition as light rows
    out = assemble_dialogues(rd.from_arrow(t)).take_all()
    assert len(out) == n
    assert all(r["conv_n_turns"] == n for r in out)
    ref = _reference_offsets(
        [{"turn_idx": i, "role": "user" if i % 2 == 0 else "assistant",
          "text": f"turn text number {i}"} for i in range(n)]
    )
    for r in out:
        assert r["doc_char_start"] == ref[r["turn_idx"]], r["turn_idx"]


def test_assembly_paths_match_reference():
    """Co-partitioned attach on a shuffled, multi-block corpus: every turn of
    EVERY conversation keeps its text and gets the conv_n_turns and
    doc_char_start of the single-process reference."""
    src = datagen.generate_transcripts(2000, seed=9)
    ds = rd.from_arrow(src).repartition(9)
    expected_text = {
        (c, i): t
        for c, i, t in zip(
            src.column("conv_id").to_pylist(),
            src.column("turn_idx").to_pylist(),
            src.column("text").to_pylist(),
        )
    }
    out = assemble_dialogues(ds).take_all()
    assert len(out) == src.num_rows
    by_conv: dict[str, list] = {}
    for r in out:
        assert r["text"] == expected_text[(r["conv_id"], r["turn_idx"])]
        by_conv.setdefault(r["conv_id"], []).append(r)
    for conv_id, rows in by_conv.items():
        ref = _reference_offsets(rows)
        for r in rows:
            assert r["conv_n_turns"] == len(rows), conv_id
            assert r["doc_char_start"] == ref[r["turn_idx"]], conv_id


def test_sparse_turn_idx_offsets():
    """Sparse, gappy turn_idx values: assembly must compute exact per-turn
    char offsets and conv_n_turns from turn_idx ordering, not from index
    contiguity. Block-boundary coverage lives in
    test_fragment_stitching_under_tiny_blocks."""
    idxs = [0, 3, 7, 200, 201, 450]
    t = pa.table(
        {
            "conv_id": pa.array(["conv-sparse"] * len(idxs)),
            "turn_idx": pa.array(idxs, pa.int32()),
            "role": pa.array(["user"] * len(idxs)),
            "text": pa.array([f"sparse turn {i}" for i in idxs]),
            "tool": pa.array([""] * len(idxs)),
            "ts": pa.array(list(range(len(idxs))), pa.timestamp("us")),
        }
    )
    out = assemble_dialogues(rd.from_arrow(t)).take_all()
    assert len(out) == len(idxs)
    assert all(r["conv_n_turns"] == len(idxs) for r in out)
    ref = _reference_offsets(
        [{"turn_idx": i, "role": "user", "text": f"sparse turn {i}"} for i in idxs]
    )
    for r in out:
        assert r["doc_char_start"] == ref[r["turn_idx"]], r["turn_idx"]


def test_fragment_stitching_under_tiny_blocks():
    """Force MANY block-boundary fragments (tiny target block size + random
    conversation lengths): every turn's doc_char_start and conv_n_turns must
    equal the single-process reference, for every conversation — offsets
    route back across many blocks."""
    rng = np.random.default_rng(7)
    rows = []
    for c in range(40):
        n = int(rng.integers(1, 120))
        for i in rng.permutation(n):  # shuffled input order
            rows.append(
                {
                    "conv_id": f"conv-{c:04d}",
                    "turn_idx": int(i),
                    "role": ["user", "assistant", "tool"][int(i) % 3],
                    "text": "x" * int(rng.integers(1, 80)),
                    "tool": "",
                    "ts": None,
                }
            )
    t = pa.Table.from_pylist(rows)

    ctx = rd.DataContext.get_current()
    old = ctx.target_max_block_size
    ctx.target_max_block_size = 8 * 1024  # ~tens of rows per block
    try:
        out = assemble_dialogues(rd.from_arrow(t)).take_all()
    finally:
        ctx.target_max_block_size = old

    by_conv: dict[str, list] = {}
    for r in out:
        by_conv.setdefault(r["conv_id"], []).append(r)
    assert len(out) == len(rows)
    for conv_id, conv_rows in by_conv.items():
        ref = _reference_offsets(conv_rows)
        n = len(conv_rows)
        for r in conv_rows:
            assert r["conv_n_turns"] == n, (conv_id, r["turn_idx"])
            assert r["doc_char_start"] == ref[r["turn_idx"]], (conv_id, r["turn_idx"])


def test_attach_boundary_keys():
    """Attach edge cases: conv ids that are prefixes of each other and
    turn_idx values up to int32 max must get exact offsets (the full int32
    turn range must survive the exchange and the per-conv ordering)."""
    big = 2**31 - 1
    rows = []
    for conv in ["c", "c1", "c11"]:
        for turn in [0, 1, big - 1, big]:
            rows.append((conv, turn, "user", f"t-{conv}-{turn}"))
    t = pa.table(
        {
            "conv_id": pa.array([r[0] for r in rows]),
            "turn_idx": pa.array([r[1] for r in rows], pa.int32()),
            "role": pa.array([r[2] for r in rows]),
            "text": pa.array([r[3] for r in rows]),
            "tool": pa.array([""] * len(rows)),
            "ts": pa.array([0] * len(rows), pa.int64()),
        }
    )
    out = assemble_dialogues(rd.from_arrow(t)).take_all()
    assert sorted((r["conv_id"], r["turn_idx"]) for r in out) == sorted(
        (r[0], r[1]) for r in rows
    )
    for conv in ["c", "c1", "c11"]:
        sub = [r for r in rows if r[0] == conv]
        exp = _reference_offsets(
            [{"turn_idx": r[1], "role": r[2], "text": r[3]} for r in sub]
        )
        for r in out:
            if r["conv_id"] == conv:
                assert r["conv_n_turns"] == len(sub)
                assert r["doc_char_start"] == exp[r["turn_idx"]]


def test_in_process_assembly_equals_the_distributed_one():
    """``assemble_table`` (the small-delta append's one-task assembly) gives
    every turn the same derived columns as ``assemble_dialogues``."""
    from chunksilo_ray.stages.assemble import assemble_table

    src = datagen.generate_transcripts(2000, seed=9)
    key = ["conv_id", "turn_idx"]
    local = assemble_table(src).sort_by([(k, "ascending") for k in key])
    dist = pa.Table.from_pylist(
        assemble_dialogues(rd.from_arrow(src).repartition(5)).take_all()
    ).sort_by([(k, "ascending") for k in key])
    assert local.num_rows == src.num_rows
    for col in ("conv_id", "turn_idx", "text", "conv_n_turns", "doc_char_start"):
        assert local[col].to_pylist() == dist[col].to_pylist(), col
