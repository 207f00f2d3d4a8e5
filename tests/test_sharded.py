"""Partition-level (sharded) pipeline tests: equivalence with single-shot,
shard-granular resume, incremental new-shard ingest."""

import json
import pathlib

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

pytestmark = pytest.mark.usefixtures("ray_session")


@pytest.fixture(scope="module")
def sharded_corpus(smoke_corpus, tmp_path_factory):
    """Split the smoke corpus into 3 shards by conv hash (conversations
    never span shards — the documented partitioning assumption)."""
    root = tmp_path_factory.mktemp("shards")
    t = pq.read_table(f"{smoke_corpus}/transcripts.parquet")
    convs = t.column("conv_id").to_pylist()
    import zlib

    assign = [zlib.crc32(c.encode()) % 3 for c in convs]
    for s in range(3):
        mask = pa.array([a == s for a in assign], pa.bool_())
        pq.write_table(t.filter(mask), root / f"shard-{s}.parquet")
    return str(root)


def _triples(ds):
    out = set()
    for b in ds.iter_batches(batch_format="pyarrow"):
        out.update(
            zip(
                b["conv_id"].to_pylist(),
                b["turn_idx"].to_pylist(),
                b["subj"].to_pylist(),
                b["pred"].to_pylist(),
                b["obj"].to_pylist(),
            )
        )
    return out


def test_sharded_equals_single_shot(smoke_corpus, sharded_corpus, tmp_path):
    from chunksilo_ray.pipelines.kg import build_kg
    from chunksilo_ray.pipelines.kg_sharded import build_kg_sharded

    single = build_kg(
        f"{smoke_corpus}/transcripts.parquet",
        f"{smoke_corpus}/alias_index.parquet",
        str(tmp_path / "single"),
        with_chunks=False,
    )
    sharded = build_kg_sharded(
        sharded_corpus, f"{smoke_corpus}/alias_index.parquet", str(tmp_path / "sharded")
    )
    assert sharded["metrics"]["shards"] == 3
    assert _triples(sharded["edges"]) == _triples(single["edges"])

    # global aggregates equal too
    def agg_set(ds):
        return {
            (r["subj"], r["pred"], r["obj"], r["weight"]) for r in ds.take_all()
        }

    assert agg_set(sharded["edges_agg"]) == agg_set(single["edges_agg"])

    # both modes persist the same canonical map in the same (Parquet) format
    def saved_map(out):
        t = pq.read_table(str(tmp_path / out / "canonical_map.parquet"))
        return dict(zip(t["norm"].to_pylist(), t["canonical"].to_pylist()))

    assert saved_map("sharded") == saved_map("single")
    assert sharded["metrics"]["canonical_merges"] == len(saved_map("single"))


def test_shard_level_resume(smoke_corpus, sharded_corpus, tmp_path):
    from chunksilo_ray.pipelines.kg_sharded import build_kg_sharded

    out = str(tmp_path / "out")
    res1 = build_kg_sharded(sharded_corpus, f"{smoke_corpus}/alias_index.parquet", out)
    triples1 = _triples(res1["edges"])  # consume BEFORE mutating files (lazy reads)
    stamp = {
        name: json.loads(
            (pathlib.Path(out) / "shards" / name / "extracted" / "_MANIFEST.json").read_text()
        )["created_unix"]
        for name in res1["shard_names"]
    }

    # simulate a crash that lost ONE shard's edge output
    import shutil

    victim = res1["shard_names"][1]
    shutil.rmtree(pathlib.Path(out) / "shards" / victim / "edges")

    res2 = build_kg_sharded(sharded_corpus, f"{smoke_corpus}/alias_index.parquet", out)
    # untouched shards were NOT recomputed (extract manifests unchanged)
    for name in res2["shard_names"]:
        m = json.loads(
            (pathlib.Path(out) / "shards" / name / "extracted" / "_MANIFEST.json").read_text()
        )
        assert m["created_unix"] == stamp[name]
    assert _triples(res2["edges"]) == triples1


def test_incremental_new_shard(smoke_corpus, sharded_corpus, tmp_path):
    """Adding a shard reprocesses only the new shard; old shard checkpoints
    are reused byte-for-byte (incremental ingest at partition level)."""
    import shutil

    from chunksilo_ray.pipelines.kg_sharded import build_kg_sharded

    grow_dir = tmp_path / "grow"
    grow_dir.mkdir()
    src = sorted(pathlib.Path(sharded_corpus).glob("*.parquet"))
    shutil.copy(src[0], grow_dir / src[0].name)
    shutil.copy(src[1], grow_dir / src[1].name)

    out = str(tmp_path / "out")
    build_kg_sharded(str(grow_dir), f"{smoke_corpus}/alias_index.parquet", out)
    stamp0 = json.loads(
        (pathlib.Path(out) / "shards" / src[0].stem / "extracted" / "_MANIFEST.json").read_text()
    )["created_unix"]

    shutil.copy(src[2], grow_dir / src[2].name)  # new data arrives
    res = build_kg_sharded(str(grow_dir), f"{smoke_corpus}/alias_index.parquet", out)
    assert res["metrics"]["shards"] == 3
    m0 = json.loads(
        (pathlib.Path(out) / "shards" / src[0].stem / "extracted" / "_MANIFEST.json").read_text()
    )
    assert m0["created_unix"] == stamp0  # old shard untouched
    # the new shard's conversations are present in the output
    convs = {r["conv_id"] for r in res["edges"].take_all()}
    new_convs = set(pq.read_table(src[2]).column("conv_id").to_pylist())
    assert new_convs & convs
