"""Round-5 additions: co-partitioned assembly attach (never moves text NOR
holds an O(#turns) per-worker index) — block-spanning and degenerate shapes
checked against the single-process reference."""

import numpy as np
import pyarrow as pa
import pytest

import ray.data as rd

from chunksilo_ray import datagen
from chunksilo_ray.stages.assemble import assemble_dialogues
from test_assemble import _reference_offsets

pytestmark = pytest.mark.usefixtures("ray_session")


def test_copartition_giant_conversation_spans_blocks():
    # one 600-turn conversation scattered across 12 blocks in arbitrary
    # order + a handful of small ones: offsets must be globally exact
    rng = np.random.default_rng(11)
    rows = []
    for t in range(600):
        rows.append(("giant", t, ["user", "assistant"][t % 2], "w" * int(rng.integers(0, 80))))
    for c in range(20):
        for t in range(int(rng.integers(1, 6))):
            rows.append((f"small{c}", t, "user", "z" * int(rng.integers(0, 30))))
    perm = rng.permutation(len(rows))
    tbl = pa.table(
        {
            "conv_id": pa.array([rows[i][0] for i in perm]),
            "turn_idx": pa.array([rows[i][1] for i in perm], pa.int32()),
            "role": pa.array([rows[i][2] for i in perm]),
            "text": pa.array([rows[i][3] for i in perm]),
            "tool": pa.array([None] * len(rows), pa.string()),
            "ts": pa.array([None] * len(rows), pa.timestamp("us")),
        }
    )
    ds = rd.from_arrow(tbl).repartition(12)
    out = assemble_dialogues(ds).take_all()
    giant = sorted((r for r in out if r["conv_id"] == "giant"), key=lambda r: r["turn_idx"])
    assert all(r["conv_n_turns"] == 600 for r in giant)
    acc = 0
    for r in giant:
        assert r["doc_char_start"] == acc + len(r["role"]) + 2
        acc += len(r["role"]) + 2 + len(r["text"]) + 1


def test_assembly_is_independent_of_block_layout():
    # offsets are routed back to each row's source block, so the same turns
    # read as one, nine or forty blocks must assemble to identical rows
    src = datagen.generate_transcripts(1200, seed=5)

    def _keyed(n):
        rows = assemble_dialogues(rd.from_arrow(src).repartition(n)).take_all()
        return {
            (r["conv_id"], r["turn_idx"]): (
                r["conv_n_turns"],
                r["doc_char_start"],
                r["text"],
                r["role"],
            )
            for r in rows
        }

    one = _keyed(1)
    assert len(one) == src.num_rows
    assert _keyed(9) == one
    assert _keyed(40) == one


def test_copartition_single_block_and_empty():
    src = datagen.generate_transcripts(40, seed=3)
    out = assemble_dialogues(rd.from_arrow(src).repartition(1)).take_all()
    assert len(out) == src.num_rows
    by_conv: dict[str, list] = {}
    for r in out:
        by_conv.setdefault(r["conv_id"], []).append(r)
    for rows in by_conv.values():
        ref = _reference_offsets(rows)
        for r in rows:
            assert r["conv_n_turns"] == len(rows)
            assert r["doc_char_start"] == ref[r["turn_idx"]]

    empty = rd.from_arrow(src.slice(0, 0))
    assert assemble_dialogues(empty).take_all() == []


# ---------------------------------------------------------------------------
# size-gated dimension joins (broadcast vs shuffle parity via broadcast_limit)

import pandas as pd

SF = "/root/testdata/sf0.001"


def _df(ds):
    d = ds.to_pandas()
    return d.reindex(sorted(d.columns), axis=1).sort_values(sorted(d.columns)).reset_index(drop=True)


@pytest.mark.parametrize(
    "fn_name",
    [
        "customers_per_nation",
        "orders_with_customer_segment",
        "supplier_nation_region",
        "orders_left_rich_segment",
        "q5_revenue_by_nation",
    ],
)
def test_dim_join_gate_parity(fn_name):
    from chunksilo_ray.ops import relational as R

    fn = getattr(R, fn_name)
    a = _df(fn(SF))
    b = _df(fn(SF, broadcast_limit=0))  # force the shuffle regime
    pd.testing.assert_frame_equal(a, b, rtol=1e-9)


def test_dim_join_helper_both_regimes():
    import ray.data as rdd
    from chunksilo_ray.ops.relational import dim_join

    fact = rdd.from_pandas(
        pd.DataFrame({"k": [1, 2, 3, 2, 9], "v": [10.0, 20.0, 30.0, 21.0, 99.0]})
    )
    dim = rdd.from_pandas(pd.DataFrame({"k2": [1, 2, 3, 4], "name": list("abcd")}))
    inner_b = _df(dim_join(fact, "k", dim, "k2", ["name"], "inner", broadcast_limit=100))
    inner_s = _df(dim_join(fact, "k", dim, "k2", ["name"], "inner", broadcast_limit=0))
    pd.testing.assert_frame_equal(inner_b, inner_s)
    assert len(inner_b) == 4  # k=9 dropped
    left_b = _df(dim_join(fact, "k", dim, "k2", ["name"], "left", broadcast_limit=100))
    left_s = _df(dim_join(fact, "k", dim, "k2", ["name"], "left", broadcast_limit=0))
    pd.testing.assert_frame_equal(left_b, left_s)
    assert len(left_b) == 5 and left_b["name"].isna().sum() == 1


# ---------------------------------------------------------------------------
# size-gated canonical-map apply (broadcast vs distributed shuffle parity)


def _fake_extracted():
    triples_type = pa.list_(
        pa.struct([("subj", pa.string()), ("pred", pa.string()), ("obj", pa.string())])
    )
    mentions_type = pa.list_(
        pa.struct(
            [("entity_id", pa.string()), ("surface", pa.string()), ("entity_type", pa.string())]
        )
    )
    rows_triples = [
        [("surface:acme corp", "mentions", "surface:bob"),
         ("surface:acme", "mentions", "surface:bob"),       # merges with above post-canon
         ("ent:fixed", "uses", "surface:tool x")],
        [("surface:bob", "asks", "ent:fixed")],
        [],
    ]
    rows_mentions = [
        [("surface:acme corp", "Acme Corp", "org"), ("surface:acme", "ACME", "org")],
        [("surface:bob", "Bob", "person"), ("ent:fixed", "Fixed", "tool")],
        [],
    ]
    return pa.table(
        {
            "conv_id": pa.array(["c1", "c1", "c2"]),
            "turn_idx": pa.array([0, 1, 0], pa.int32()),
            "triples": pa.array(
                [[{"subj": s, "pred": p, "obj": o} for s, p, o in r] for r in rows_triples],
                triples_type,
            ),
            "mentions": pa.array(
                [
                    [{"entity_id": e, "surface": s, "entity_type": ty} for e, s, ty in r]
                    for r in rows_mentions
                ],
                mentions_type,
            ),
        }
    )


def test_materialize_cmap_gate_parity():
    from chunksilo_ray.stages.materialize import materialize_edges, materialize_nodes

    cmap = {"acme corp": "acme", "acme": "acme"}
    ext = rd.from_arrow(_fake_extracted()).repartition(2)
    eb = _df(materialize_edges(ext, cmap))
    es = _df(materialize_edges(ext, cmap, broadcast_limit=0))
    pd.testing.assert_frame_equal(eb, es)
    # the two raw acme triples of (c1, turn 0) merged into weight 2
    merged = eb[(eb["subj"] == "ent:acme") & (eb["obj"] == "ent:bob")]
    assert list(merged["weight"]) == [2]
    nb = _df(materialize_nodes(ext, cmap))
    ns = _df(materialize_nodes(ext, cmap, broadcast_limit=0))
    pd.testing.assert_frame_equal(nb, ns)
    assert set(nb["canonical"]) >= {"acme", "bob", "fixed"}


def test_apply_canonical_map_gate_parity():
    # the distributed shuffle apply rewrites every id exactly as the
    # broadcast path's per-id rewrite (canonicalize_id) does
    from chunksilo_ray.stages.canon import (
        _apply_cmap_shuffle,
        canonical_map_dataset,
        canonicalize_id,
    )

    cmap = {"a b": "ab", "x": "ab"}
    ids = ["surface:a b", "surface:x", "surface:zz", "ent:k", "other"]
    t = pa.table({"id": pa.array(ids), "v": pa.array([1, 2, 3, 4, 5])})
    ds = rd.from_arrow(t).repartition(2)
    s = _df(_apply_cmap_shuffle(ds, canonical_map_dataset(cmap), ["id"])).sort_values("v")
    assert list(s["v"]) == [1, 2, 3, 4, 5]
    assert list(s["id"]) == [canonicalize_id(i, cmap) for i in ids]
    assert set(s["id"]) == {"ent:ab", "ent:zz", "ent:k", "other"}
