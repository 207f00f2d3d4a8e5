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
# size-gated canonical-map apply: materialize_graph's broadcast map vs its
# per-part lookup round (CANON_BROADCAST_LIMIT forced to 0)

_TRIPLES = pa.list_(pa.struct([("subj", pa.string()), ("pred", pa.string()), ("obj", pa.string())]))
_MENTIONS = pa.list_(
    pa.struct([("entity_id", pa.string()), ("surface", pa.string()), ("entity_type", pa.string())])
)


def _extracted(turns, rows_triples, rows_mentions):
    """A hand-built extraction output: one row per (conv_id, turn_idx) of
    ``turns``, with its triples and mentions."""
    return pa.table(
        {
            "conv_id": pa.array([c for c, _ in turns]),
            "turn_idx": pa.array([t for _, t in turns], pa.int32()),
            "triples": pa.array(
                [[{"subj": s, "pred": p, "obj": o} for s, p, o in r] for r in rows_triples],
                _TRIPLES,
            ),
            "mentions": pa.array(
                [
                    [{"entity_id": e, "surface": s, "entity_type": ty} for e, s, ty in r]
                    for r in rows_mentions
                ],
                _MENTIONS,
            ),
        }
    )


def _fake_extracted():
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
    return _extracted([("c1", 0), ("c1", 1), ("c2", 0)], rows_triples, rows_mentions)


def _both_gates(monkeypatch, table, cmap):
    """The (edges, edges_agg, nodes) frames of ``materialize_graph`` over
    ``table`` in two blocks under the broadcast map, asserted equal to those
    under the lookup round."""
    from chunksilo_ray.stages import materialize

    ext = rd.from_arrow(table).repartition(2).materialize()
    broadcast = [_df(ds) for ds in materialize.materialize_graph(ext, cmap)]
    monkeypatch.setattr(materialize, "CANON_BROADCAST_LIMIT", 0)
    lookup = [_df(ds) for ds in materialize.materialize_graph(ext, cmap)]
    for b, s in zip(broadcast, lookup):
        pd.testing.assert_frame_equal(b, s)
    return broadcast


def test_materialize_cmap_gate_parity(monkeypatch):
    cmap = {"acme corp": "acme", "acme": "acme"}
    edges, agg, nodes = _both_gates(monkeypatch, _fake_extracted(), cmap)
    # the two raw acme triples of (c1, turn 0) merged into weight 2
    merged = edges[(edges["subj"] == "ent:acme") & (edges["obj"] == "ent:bob")]
    assert list(merged["weight"]) == [2]
    assert list(merged["turn_idx"]) == [0]
    assert list(agg[agg["subj"] == "ent:acme"]["weight"]) == [2]
    assert set(nodes["canonical"]) >= {"acme", "bob", "fixed"}


def test_apply_canonical_map_gate_parity(monkeypatch):
    # the lookup round rewrites every id exactly as the broadcast path's
    # per-id rewrite (canonicalize_id) does
    from chunksilo_ray.stages.canon import canonicalize_id

    cmap = {"a b": "ab", "x": "ab"}
    ids = ["surface:a b", "surface:x", "surface:zz", "ent:k", "other"]
    table = _extracted(
        [("c", i) for i in range(len(ids))],
        [[(i, "is", i)] for i in ids],
        [[(i, i, "thing")] for i in ids],
    )
    edges, _, nodes = _both_gates(monkeypatch, table, cmap)
    want = [canonicalize_id(i, cmap) for i in ids]
    edges = edges.sort_values("turn_idx")
    assert list(edges["subj"]) == list(edges["obj"]) == want
    assert dict(zip(nodes["surface"], nodes["entity_id"])) == dict(zip(ids, want))
    assert set(want) == {"ent:ab", "ent:zz", "ent:k", "other"}
