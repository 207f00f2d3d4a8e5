"""Round-5 batch C: incremental append end-to-end (`append_kg` /
`build --append`) — the reference's mtime/hash-incremental reindex analog at
conversation granularity (reference src/chunksilo/index.py:1497-1544).

The load-bearing assertion: append(A, B) == rebuild(A + B) on all three
graph tables, because both sides canonicalize with the map built from the
SAME norm union and every aggregate is additive."""

import json
import pathlib

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

pytestmark = pytest.mark.usefixtures("ray_session")


def _sorted_df(ds, keys):
    df = ds.to_pandas()
    return df.sort_values(keys).reset_index(drop=True)


def _assert_tables_equal(a, b, keys):
    import pandas as pd

    da, db = _sorted_df(a, keys), _sorted_df(b, keys)
    pd.testing.assert_frame_equal(da[sorted(da.columns)], db[sorted(db.columns)])


@pytest.fixture(scope="module")
def split_corpus(tmp_path_factory):
    """Day-1 / day-2 split of a synthetic corpus: day 2 has NEW conv_ids
    (re-tagged seed-7 conversations) plus a re-delivered copy of some day-1
    conversations (must be skipped), plus the merged corpus for the rebuild
    twin."""
    from chunksilo_ray import datagen

    root = tmp_path_factory.mktemp("append_corpus")
    day1 = datagen.generate_transcripts(1500, seed=42)
    day2 = datagen.generate_transcripts(900, seed=7)
    # re-tag day-2 conv ids so they don't collide with day 1
    conv2 = pa.array(
        ["day2-" + c for c in day2["conv_id"].to_pylist()], pa.string()
    )
    day2 = day2.set_column(0, "conv_id", conv2)
    # re-deliver ~5 day-1 conversations inside the day-2 file (dup delivery)
    dup_ids = sorted(set(day1["conv_id"].to_pylist()))[:5]
    redelivered = day1.filter(pa.compute.is_in(day1["conv_id"], value_set=pa.array(dup_ids)))
    day2_file = pa.concat_tables([day2, redelivered])

    merged = pa.concat_tables([day1, day2])  # rebuild twin: day1 + NEW rows only

    pq.write_table(day1, root / "day1.parquet")
    pq.write_table(day2_file, root / "day2.parquet")
    (root / "merged").mkdir()
    pq.write_table(merged, root / "merged" / "all.parquet")
    pq.write_table(datagen.alias_table(), root / "alias_index.parquet")
    return root


@pytest.fixture(scope="module")
def rebuild(split_corpus, ray_session, tmp_path_factory):
    """The one-shot build over day 1 + day 2's new conversations that every
    append must equal: (out dir, build_kg result)."""
    from chunksilo_ray.pipelines.kg import build_kg

    out = str(tmp_path_factory.mktemp("rebuild"))
    alias = str(split_corpus / "alias_index.parquet")
    return out, build_kg(str(split_corpus / "merged"), alias, out, with_chunks=False)


def _assert_equals_rebuild(res, full):
    _assert_tables_equal(
        res["edges_agg"], full["edges_agg"], ["subj", "pred", "obj"]
    )
    _assert_tables_equal(
        res["nodes"], full["nodes"], ["entity_id", "surface", "type"]
    )
    _assert_tables_equal(
        res["edges"], full["edges"], ["conv_id", "turn_idx", "subj", "pred", "obj"]
    )


def test_append_equals_rebuild(split_corpus, rebuild, tmp_path):
    from chunksilo_ray.pipelines.kg import build_kg
    from chunksilo_ray.pipelines.kg_append import append_kg
    from chunksilo_ray.stages.canon import load_canonical_map

    alias = str(split_corpus / "alias_index.parquet")
    inc_out = str(tmp_path / "incremental")
    res1 = build_kg(str(split_corpus / "day1.parquet"), alias, inc_out, with_chunks=False)
    res2 = append_kg(inc_out, str(split_corpus / "day2.parquet"))
    assert res2["metrics"]["noop"] is False
    assert res2["metrics"]["skipped_existing_convs"] == 5
    assert res2["metrics"]["new_convs"] > 0
    # the fold grew the graph
    assert res2["metrics"]["edges"] > res1["metrics"]["edges"]

    full_out, full = rebuild
    _assert_equals_rebuild(res2, full)

    # state advanced: the manifest now covers both days; build_info records it
    state = pathlib.Path(inc_out) / "state"
    convs = set(pq.read_table(str(state / "conv_ids"))["conv_id"].to_pylist())
    merged_src = pq.read_table(str(split_corpus / "merged"), columns=["conv_id"])
    assert convs == set(merged_src["conv_id"].to_pylist())
    info = json.loads((state / "build_info.json").read_text())
    assert len(info["appends"]) == 1

    # canonical map converged to the rebuild's (same norm union)
    full_info = json.loads((pathlib.Path(full_out) / "state" / "build_info.json").read_text())
    cm_inc = load_canonical_map(inc_out, info["cmap_fp"])
    cm_full = load_canonical_map(full_out, full_info["cmap_fp"])
    assert cm_inc is not None and cm_inc == cm_full


def test_append_with_a_file_of_only_redelivered_conversations(split_corpus, rebuild, tmp_path):
    """The re-delivered conversations arrive in their own day-2 file, so the
    membership filter empties whole blocks; the append must still fold the
    new file and equal the rebuild."""
    from chunksilo_ray.pipelines.kg import build_kg
    from chunksilo_ray.pipelines.kg_append import append_kg

    day2 = pq.read_table(split_corpus / "day2.parquet")
    is_new = pa.compute.starts_with(day2["conv_id"], "day2-")
    (tmp_path / "day2").mkdir()
    pq.write_table(day2.filter(is_new), tmp_path / "day2" / "a-new.parquet")
    pq.write_table(day2.filter(pa.compute.invert(is_new)), tmp_path / "day2" / "b-redelivered.parquet")

    alias = str(split_corpus / "alias_index.parquet")
    out = str(tmp_path / "kg")
    build_kg(str(split_corpus / "day1.parquet"), alias, out, with_chunks=False)
    res = append_kg(out, str(tmp_path / "day2"))
    assert res["metrics"]["skipped_existing_convs"] == 5
    _assert_equals_rebuild(res, rebuild[1])


@pytest.mark.parametrize("append_killed", [False, True], ids=["appended", "append_killed"])
def test_rebuild_over_an_appended_dir_replaces_the_append_state(
    split_corpus, rebuild, tmp_path, monkeypatch, append_killed
):
    """Re-running the build over an appended out dir rebuilds the graph of
    day 1 alone, so it must also drop the append's conv ids, also those of
    an append killed after its state write: appending day 2 again then
    folds every new day-2 conversation."""
    from chunksilo_ray.pipelines import kg_append
    from chunksilo_ray.pipelines.kg import build_kg

    alias = str(split_corpus / "alias_index.parquet")
    day1, day2 = str(split_corpus / "day1.parquet"), str(split_corpus / "day2.parquet")
    out = str(tmp_path / "kg")
    built = build_kg(day1, alias, out, with_chunks=False)
    if append_killed:
        def die(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(kg_append, "save_canonical_map", die)
        with pytest.raises(KeyboardInterrupt):
            kg_append.append_kg(out, day2)
        monkeypatch.undo()
    else:
        kg_append.append_kg(out, day2)
    again = build_kg(day1, alias, out, with_chunks=False)
    assert again["metrics"] == built["metrics"]
    res = kg_append.append_kg(out, day2)
    day2_convs = set(pq.read_table(day2, columns=["conv_id"])["conv_id"].to_pylist())
    assert res["metrics"]["new_convs"] == sum(c.startswith("day2-") for c in day2_convs)
    assert res["metrics"]["skipped_existing_convs"] == 5
    _assert_equals_rebuild(res, rebuild[1])


def test_append_refuses_a_config_that_differs_from_the_build(split_corpus, tmp_path):
    """An append extracted or canonicalized with settings the base never
    used would equal neither rebuild: it is refused before any write."""
    from chunksilo_ray.config import Config
    from chunksilo_ray.pipelines.kg import build_kg
    from chunksilo_ray.pipelines.kg_append import append_kg

    alias = str(split_corpus / "alias_index.parquet")
    out = pathlib.Path(tmp_path / "kg")
    build_kg(str(split_corpus / "day1.parquet"), alias, str(out), with_chunks=False)
    info_path = out / "state" / "build_info.json"
    before = info_path.read_bytes()
    with pytest.raises(ValueError, match=r"'linking'.*max_ngram"):
        append_kg(str(out), str(split_corpus / "day2.parquet"),
                  cfg=Config({"linking": {"max_ngram": 2}}))
    with pytest.raises(ValueError, match=r"'canon'.*jaccard_threshold"):
        append_kg(str(out), str(split_corpus / "day2.parquet"),
                  cfg=Config({"canon": {"jaccard_threshold": 0.5}}))
    assert info_path.read_bytes() == before
    assert not (out / "append").exists()


def test_append_idempotent(split_corpus, tmp_path):
    """Re-appending the same file is a no-op (every conv already ingested)."""
    from chunksilo_ray.pipelines.kg import build_kg
    from chunksilo_ray.pipelines.kg_append import append_kg

    alias = str(split_corpus / "alias_index.parquet")
    out = str(tmp_path / "kg")
    build_kg(str(split_corpus / "day1.parquet"), alias, out, with_chunks=False)
    first = append_kg(out, str(split_corpus / "day2.parquet"))
    again = append_kg(out, str(split_corpus / "day2.parquet"))
    assert again["metrics"]["noop"] is True
    assert again["metrics"]["new_convs"] == 0
    # graph untouched by the no-op
    info = json.loads((pathlib.Path(out) / "state" / "build_info.json").read_text())
    assert len(info["appends"]) == 1
    assert first["metrics"]["edges_agg"] == pq.read_table(
        str(pathlib.Path(out) / "edges_agg")
    ).num_rows


def test_append_cli(split_corpus, tmp_path):
    from chunksilo_ray.cli import main

    alias = str(split_corpus / "alias_index.parquet")
    out = str(tmp_path / "kg_cli")
    rc = main(
        ["build", "--input", str(split_corpus / "day1.parquet"),
         "--alias", alias, "--out", out]
    )
    assert rc == 0
    rc = main(["build", "--append", "--input", str(split_corpus / "day2.parquet"), "--out", out])
    assert rc == 0
    info = json.loads((pathlib.Path(out) / "state" / "build_info.json").read_text())
    assert len(info["appends"]) == 1


def test_canonical_remap_merge_and_conflict():
    from chunksilo_ray.stages.canon import CanonicalDriftError, canonical_remap

    old = {"data-base": "data base", "db": "db"}
    # day-2 norm bridged db's cluster into "data base": a pure merge
    new = {"data-base": "data base", "db": "data base", "data_base": "data base"}
    remap = canonical_remap(old, new, {"data-base", "db", "data base"})
    assert remap == {"db": "data base"}

    # a split (two norms sharing an old canonical now disagree) must raise
    old2 = {"a1": "a", "a2": "a"}
    new2 = {"a1": "x", "a2": "y"}
    with pytest.raises(CanonicalDriftError):
        canonical_remap(old2, new2, {"a1", "a2"})


def test_merge_nodes_agg_equals_rebuild(ray_session):
    """merge(nodes(A), nodes(B)) == additive re-aggregate, including a
    drifted-canonical rewrite on the base side."""
    import ray.data as rd

    from chunksilo_ray.stages.materialize import merge_nodes_agg, remap_canonical_ids

    base = rd.from_arrow(
        pa.table(
            {
                "entity_id": ["ent:old", "person:alice"],
                "surface": ["Old", "Alice"],
                "canonical": ["old", "alice"],
                "type": ["unknown", "person"],
                "freq": pa.array([3, 2], pa.int64()),
            }
        )
    )
    delta = rd.from_arrow(
        pa.table(
            {
                "entity_id": ["ent:new", "person:alice"],
                "surface": ["Old", "Alice"],
                "canonical": ["new", "alice"],
                "type": ["unknown", "person"],
                "freq": pa.array([4, 1], pa.int64()),
            }
        )
    )
    base = remap_canonical_ids(base, {"old": "new"}, ["entity_id", "canonical"])
    rows = {
        (r["entity_id"], r["surface"]): (r["freq"], r["canonical"])
        for r in merge_nodes_agg(base, delta).take_all()
    }
    assert rows[("ent:new", "Old")] == (7, "new")
    assert rows[("person:alice", "Alice")] == (3, "alice")
