"""Sort-free search and entity hops: the per-block top-K and its merge give
the same ranked rows whatever the block layout, ties at K included; the
zero-copy embedding-matrix helper; the serve cache follows a rebuild."""

from __future__ import annotations

import pathlib
import re

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

DAY_US = 86_400_000_000
T0 = 1_735_689_600_000_000  # 2025-01-01T00:00:00 in microseconds


def _chunk_table() -> pa.Table:
    """300 chunks. Query "alpha beta" scores 60 recent copies of one text
    highest and then 80 older copies of it, all tied on score: the
    candidate cap (K = 100) cuts through the tied group. The other 160
    share one word with the query and score lower. Chunk ids are shuffled
    against row order, so the tie-break is not the input order."""
    from chunksilo_ray.stages.embed import bow_hash_embed

    texts = (
        ["alpha beta"] * 60
        + ["alpha beta"] * 80
        + [f"alpha gamma zzz delta{i % 7} epsilon" for i in range(160)]
    )
    ts = [T0 + 9 * DAY_US] * 60 + [T0 + 2 * DAY_US] * 80 + [T0 + (i % 9) * DAY_US for i in range(160)]
    rng = np.random.default_rng(3)
    ids = [f"c{int(i):04d}" for i in rng.permutation(len(texts))]
    emb = bow_hash_embed(texts)
    return pa.table(
        {
            "chunk_id": pa.array(ids),
            "conv_id": pa.array([f"conv-{i % 13}" for i in range(len(texts))]),
            "turn_idx": pa.array(list(range(len(texts))), pa.int32()),
            "text": pa.array(texts),
            "tool": pa.array(["" if i % 5 else "bash" for i in range(len(texts))]),
            "ts": pa.array(ts, pa.timestamp("us")),
            "heading_path": pa.array([["user"]] * len(texts), pa.list_(pa.string())),
            "embedding": pa.FixedSizeListArray.from_arrays(
                pa.array(emb.ravel(), pa.float32()), emb.shape[1]
            ),
        }
    )


def _layouts(t: pa.Table):
    """The table as one block, and shuffled into 9 sliced blocks."""
    import ray.data as rd

    shuffled = t.take(pa.array(np.random.default_rng(5).permutation(t.num_rows)))
    return rd.from_arrow(t), rd.from_arrow([shuffled.slice(i, 37) for i in range(0, t.num_rows, 37)])


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize(
    "query,date_from,date_to",
    [
        ("alpha beta", None, None),
        ("alpha beta", "2025-01-02", "2025-01-05"),
        ('alpha "gamma zzz" beta', None, None),
    ],
)
def test_search_is_the_same_for_one_block_and_many(query, date_from, date_to):
    from chunksilo_ray.config import Config
    from chunksilo_ray.pipelines.search import search_chunks

    t = _chunk_table()
    cfg = Config({"search": {"rerank_top_k": 100}})
    one, many = (
        search_chunks(ds, query, date_from=date_from, date_to=date_to, cfg=cfg).take_all()
        for ds in _layouts(t)
    )
    assert one and one == many
    if date_from is None and '"' not in query:
        # 60 recent rows, then the 40 smallest chunk ids of the 80 tied ones
        tied = sorted(t["chunk_id"].to_pylist()[60:140])
        assert len(one) == 100
        assert {r["chunk_id"] for r in one} - set(t["chunk_id"].to_pylist()[:60]) == set(tied[:40])


@pytest.mark.usefixtures("ray_session")
def test_search_anchor_argument_equals_the_computed_anchor():
    from chunksilo_ray.pipelines.search import recency_anchor, search_chunks

    ds = _layouts(_chunk_table())[1]
    anchor = recency_anchor(ds)
    assert anchor == T0 + 9 * DAY_US
    assert search_chunks(ds, "alpha beta", anchor_us=anchor).take_all() == (
        search_chunks(ds, "alpha beta").take_all()
    )


@pytest.mark.usefixtures("ray_session")
def test_search_raises_on_a_null_embedding():
    import ray.data as rd

    from chunksilo_ray.pipelines.search import search_chunks

    t = _chunk_table()
    emb = t["embedding"].combine_chunks()
    mask = np.zeros(t.num_rows, dtype=bool)
    mask[7] = True
    nulled = pa.FixedSizeListArray.from_arrays(emb.values, emb.type.list_size, mask=pa.array(mask))
    t = t.set_column(t.schema.get_field_index("embedding"), "embedding", nulled)
    with pytest.raises(Exception, match="null row"):
        search_chunks(rd.from_arrow(t), "alpha beta").take_all()


def test_embedding_matrix_fixed_list_chunked_and_sliced():
    from chunksilo_ray.stages.embed import embedding_matrix

    m = np.arange(24, dtype=np.float32).reshape(6, 4)
    fixed = pa.FixedSizeListArray.from_arrays(pa.array(m.ravel()), 4)
    assert np.array_equal(embedding_matrix(fixed.slice(2, 3)), m[2:5])
    chunked = pa.chunked_array([fixed.slice(0, 2), fixed.slice(2, 4)])
    out = embedding_matrix(chunked, np.float64)
    assert out.dtype == np.float64 and np.array_equal(out, m)
    var = pa.array(m.tolist(), pa.list_(pa.float32()))
    assert np.array_equal(embedding_matrix(var.slice(1, 4)), m[1:5])
    assert embedding_matrix(fixed.slice(0, 0)).shape == (0, 4)


def test_embedding_matrix_rejects_null_and_ragged():
    from chunksilo_ray.stages.embed import embedding_matrix

    with pytest.raises(ValueError, match="ragged"):
        embedding_matrix(pa.array([[1.0, 2.0], [3.0]], pa.list_(pa.float32())))
    with pytest.raises(ValueError, match="null row"):
        embedding_matrix(pa.array([[1.0, 2.0], None], pa.list_(pa.float32())))
    with pytest.raises(ValueError, match="null element"):
        embedding_matrix(pa.array([[1.0, 2.0], [3.0, None]], pa.list_(pa.float32())))


def test_no_embedding_column_goes_through_python_objects():
    """Embedding columns are read with ``embedding_matrix``; a per-row
    ``to_pylist`` of one cost ~1 s per search over 5k chunks."""
    root = pathlib.Path(__file__).resolve().parents[1] / "chunksilo_ray"
    banned = re.compile(
        r"""(\[\s*["']embedding["']\s*\]|column\(\s*["']embedding["']\s*\))\s*\.to_pylist\("""
    )
    hits = [
        f"{path.relative_to(root)}:{text[: m.start()].count(chr(10)) + 1}"
        for path in sorted(root.rglob("*.py"))
        for text in [path.read_text()]
        for m in banned.finditer(text)
    ]
    assert not hits, hits


def _write_split(t: pa.Table, d: pathlib.Path, rows_per_file: int) -> None:
    d.mkdir(parents=True)
    for i in range(0, t.num_rows, rows_per_file):
        pq.write_table(t.slice(i, rows_per_file), d / f"part-{i:06d}.parquet")


@pytest.mark.usefixtures("ray_session")
def test_entity_hops_are_the_same_for_one_file_and_many(tmp_path):
    """Tied ``freq`` / ``weight`` at k resolve by the documented total
    orders, whatever the part layout."""
    from chunksilo_ray.pipelines.serve import entity_lookup, entity_neighbors

    rng = np.random.default_rng(11)
    n = 40
    ids = [f"system:svc-{i:02d}" for i in rng.permutation(n)]
    nodes = pa.table(
        {
            "entity_id": pa.array(ids),
            "surface": pa.array([f"Svc {i}" for i in range(n)]),
            "canonical": pa.array([f"svc-{i:02d}" if i % 8 else "other" for i in range(n)]),
            "type": pa.array(["system"] * n),
            "freq": pa.array([9] * 4 + [5] * 24 + [1] * 12, pa.int64()),
        }
    )
    hub = "system:svc-00"
    edges = pa.table(
        {
            "subj": pa.array([hub if i % 2 else ids[i] for i in range(n)]),
            "pred": pa.array(["uses" if i % 3 else "configures" for i in range(n)]),
            "obj": pa.array([ids[i] if i % 2 else hub for i in range(n)]),
            "weight": pa.array([7] * 3 + [4] * 30 + [2] * 7, pa.int64()),
        }
    )
    answers = []
    for name, rows_per_file in (("one", n), ("many", 6)):
        out = tmp_path / name
        _write_split(nodes, out / "nodes", rows_per_file)
        _write_split(edges, out / "edges_agg", rows_per_file)
        answers.append(
            (entity_lookup(str(out), "svc", k=10), entity_neighbors(str(out), hub, k=12))
        )
    assert answers[0] == answers[1]

    lookup, neighbors = answers[0]
    match = nodes.filter(pc.starts_with(nodes["canonical"], "svc"))
    ref = match.sort_by([("freq", "descending"), ("entity_id", "ascending"), ("surface", "ascending")])
    assert [h["entity_id"] for h in lookup] == ref["entity_id"].to_pylist()[:10]
    assert ref["freq"][9] == ref["freq"][10]  # tied at k
    touching = edges.filter(
        pc.or_(pc.equal(edges["subj"], hub), pc.equal(edges["obj"], hub))
    )
    ref = touching.sort_by(
        [("weight", "descending"), ("subj", "ascending"), ("pred", "ascending"), ("obj", "ascending")]
    )
    assert neighbors == ref.slice(0, 12).to_pylist()
    assert neighbors[-1]["weight"] == 4 and ref["weight"][12].as_py() == 4  # tied at k


@pytest.mark.usefixtures("ray_session")
def test_search_docs_follows_a_rebuild_into_the_same_dir(tmp_path):
    """A long-lived server keeps answering after the index is rebuilt into
    its out_dir with a smaller corpus: the cached table handle and recency
    anchor are replaced, so the answer equals a cold-cache answer."""
    import ray.data

    from chunksilo_ray import datagen
    from chunksilo_ray.pipelines import serve
    from chunksilo_ray.pipelines.kg import build_kg

    aliases = tmp_path / "aliases.parquet"
    pq.write_table(datagen.alias_table(), aliases)
    out = str(tmp_path / "kg")

    def build(turns: int, seed: int) -> int:
        src = tmp_path / f"t{turns}.parquet"
        pq.write_table(datagen.generate_transcripts(turns, seed=seed), src)
        build_kg(str(src), str(aliases), out, with_chunks=True)
        return len(list(pathlib.Path(out, "chunks").glob("*.parquet")))

    def answer() -> dict:
        res = serve.search_docs(out, "check the database config")
        res.pop("retrieval_time")
        return res

    ctx = ray.data.DataContext.get_current()
    saved = ctx.target_max_block_size
    ctx.target_max_block_size = 64 * 1024  # several chunk parts for the first build
    try:
        parts_before = build(3000, seed=1)
    finally:
        ctx.target_max_block_size = saved
    first = answer()
    parts_after = build(300, seed=2)
    assert parts_after < parts_before
    warm = answer()
    serve._chunk_cache.clear()
    assert warm == answer()
    assert warm != first
