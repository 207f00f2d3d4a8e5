"""Shard-aware ``build_kg``: a list of shards runs the build's own ingest,
canon and graph task graph. Each shard keeps its assembled / extracted
checkpoints under out/shards/<stem>/; the canonical map, chunks and graph
are built once over all shards. The sharded build and the single-file
build are bag-equal, not order-equal, so they are compared as multisets."""

import collections
import json
import pathlib
import shutil
import zlib

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

pytestmark = pytest.mark.usefixtures("ray_session")

TABLES = ("edges", "edges_agg", "nodes", "chunks")


def _split(t: pa.Table, root: pathlib.Path, n: int = 3) -> list[str]:
    """Write ``t`` as ``n`` shards by conv hash (conversations never span
    shards)."""
    root.mkdir(parents=True, exist_ok=True)
    assign = [zlib.crc32(c.encode()) % n for c in t.column("conv_id").to_pylist()]
    paths = []
    for s in range(n):
        path = root / f"shard-{s}.parquet"
        pq.write_table(t.filter(pa.array([a == s for a in assign])), path)
        paths.append(str(path))
    return paths


@pytest.fixture(scope="module")
def shards(smoke_corpus, tmp_path_factory):
    t = pq.read_table(f"{smoke_corpus}/transcripts.parquet")
    return _split(t, tmp_path_factory.mktemp("shards"))


@pytest.fixture(scope="module")
def alias(smoke_corpus):
    return f"{smoke_corpus}/alias_index.parquet"


def _build(inputs, alias, out, with_chunks=True, cfg=None):
    from chunksilo_ray.pipelines.kg import build_kg

    return build_kg(inputs, alias, str(out), cfg=cfg, with_chunks=with_chunks)


@pytest.fixture(scope="module")
def single(smoke_corpus, alias, tmp_path_factory):
    out = tmp_path_factory.mktemp("single") / "out"
    _build(f"{smoke_corpus}/transcripts.parquet", alias, out)
    return out


@pytest.fixture(scope="module")
def sharded(shards, alias, tmp_path_factory):
    out = tmp_path_factory.mktemp("sharded") / "out"
    res = _build(shards, alias, out)
    return out, res


def _bag(table_dir: pathlib.Path) -> collections.Counter:
    """A checkpoint's rows as a multiset, independent of part layout and of
    string vs large_string columns (list values, such as embeddings, as
    tuples)."""
    rows = collections.Counter()
    for f in sorted(table_dir.glob("*.parquet")):
        for r in pq.read_table(f).to_pylist():
            rows[tuple(sorted((k, tuple(v) if isinstance(v, list) else v) for k, v in r.items()))] += 1
    return rows


def _saved_map(out: pathlib.Path) -> dict:
    t = pq.read_table(out / "canonical_map.parquet")
    return dict(zip(t["norm"].to_pylist(), t["canonical"].to_pylist()))


def _assert_same_kg(a: pathlib.Path, b: pathlib.Path, tables=TABLES):
    for name in tables:
        assert _bag(a / name) == _bag(b / name), name
    assert _saved_map(a) == _saved_map(b)


def test_sharded_equals_single_shot(single, sharded, shards):
    out, res = sharded
    assert res["metrics"]["shards"] == 3
    _assert_same_kg(out, single)
    assert sum(_bag(out / "edges").values()) > 0
    assert res["metrics"]["canonical_merges"] == len(_saved_map(single))
    for path in shards:
        stem = pathlib.Path(path).stem
        for stage in ("assembled", "extracted"):
            assert (out / "shards" / stem / stage / "_MANIFEST.json").exists()
    assert not (out / "extracted").exists() and not (out / "assembled").exists()
    info = json.loads((out / "state" / "build_info.json").read_text())
    assert info["extracted"] == [f"shards/{pathlib.Path(p).stem}" for p in shards]


def test_sharded_dead_letters_are_one_partition(shards, alias, tmp_path):
    """Every row over budget: the dead letters of all shards land in the one
    out/dead_letter/build partition, and a rerun reuses each shard's
    recorded scan."""
    from chunksilo_ray.config import Config

    cfg = Config({"linking": {"per_row_seconds": 0.0}})
    res = _build(shards, alias, tmp_path / "out", with_chunks=False, cfg=cfg)
    turns = sum(pq.read_metadata(p).num_rows for p in shards)
    assert res["metrics"]["dead_letter_turns"] == turns
    assert pq.read_table(res["metrics"]["dead_letter_path"]).num_rows == turns
    again = _build(shards, alias, tmp_path / "out", with_chunks=False, cfg=cfg)
    assert again["metrics"] == res["metrics"]


def test_duplicate_shard_stems_are_refused(shards, alias, tmp_path):
    twin = tmp_path / "twin"
    twin.mkdir()
    shutil.copy(shards[0], twin / pathlib.Path(shards[0]).name)
    with pytest.raises(ValueError, match="stem"):
        _build([shards[0], str(twin / pathlib.Path(shards[0]).name)], alias, tmp_path / "out")


def _extracted_manifests(out: pathlib.Path) -> dict:
    return {
        m.parent.parent.name: m.read_bytes()
        for m in sorted((out / "shards").glob("*/extracted/_MANIFEST.json"))
    }


def test_shard_level_resume(sharded, shards, alias, tmp_path):
    """A rerun after the edges table is lost rebuilds it from the shards'
    extracted checkpoints: no shard manifest is rewritten, and the edges
    equal the first run's."""
    src, _ = sharded
    out = tmp_path / "out"
    shutil.copytree(src, out)
    before = _extracted_manifests(out)
    shutil.rmtree(out / "edges")
    res = _build(shards, alias, out)
    assert _extracted_manifests(out) == before
    assert _bag(out / "edges") == _bag(src / "edges")
    assert res["metrics"]["edges"] == sum(_bag(src / "edges").values())


def test_incremental_new_shard(
    sharded, shards, alias, tmp_path, monkeypatch
):
    """Adding a shard assembles and extracts only that shard; the result
    equals the cold build over all three."""
    from chunksilo_ray.state.manifest import StageCheckpoint

    out = tmp_path / "out"
    _build(shards[:2], alias, out)
    written = []
    commit = StageCheckpoint.commit

    def recorded(ckpt, *args, **kwargs):
        written.append(str(ckpt.dir.relative_to(out)))
        return commit(ckpt, *args, **kwargs)

    monkeypatch.setattr(StageCheckpoint, "commit", recorded)
    res = _build(shards, alias, out)
    new = pathlib.Path(shards[2]).stem
    assert sorted(w for w in written if w.startswith("shards/")) == [
        f"shards/{new}/assembled",
        f"shards/{new}/extracted",
    ]
    assert res["metrics"]["shards"] == 3
    _assert_same_kg(out, sharded[0])


def test_sharded_build_execution_counts(shards, smoke_corpus, alias, tmp_path, executions):
    """A cold build starts one Ray Data execution per shard (the read under
    its assembly) and one for a single input; a no-op resume starts none."""
    _build(f"{smoke_corpus}/transcripts.parquet", alias, tmp_path / "single")
    assert len(executions) == 1
    executions.clear()
    _build(shards, alias, tmp_path / "sharded")
    assert len(executions) == 3
    executions.clear()
    _build(shards, alias, tmp_path / "sharded")
    assert len(executions) == 0


def test_append_onto_a_sharded_build_equals_the_rebuild(tmp_path, ingested_convs):
    """Day 1 built as 3 shards, then day 2 appended (with 5 re-delivered
    day-1 conversations), equals the single build over both days."""
    from chunksilo_ray import datagen
    from chunksilo_ray.pipelines.kg import build_kg
    from chunksilo_ray.pipelines.kg_append import append_kg

    day1 = datagen.generate_transcripts(1500, seed=42)
    day2 = datagen.generate_transcripts(900, seed=7)
    day2 = day2.set_column(
        0, "conv_id", pa.array(["day2-" + c for c in day2["conv_id"].to_pylist()], pa.string())
    )
    dup = pa.array(sorted(set(day1["conv_id"].to_pylist()))[:5])
    redelivered = day1.filter(pa.compute.is_in(day1["conv_id"], value_set=dup))
    pq.write_table(pa.concat_tables([day2, redelivered]), tmp_path / "day2.parquet")
    (tmp_path / "merged").mkdir()
    pq.write_table(pa.concat_tables([day1, day2]), tmp_path / "merged" / "all.parquet")
    alias = tmp_path / "alias.parquet"
    pq.write_table(datagen.alias_table(), alias)

    out, full = tmp_path / "kg", tmp_path / "full"
    build_kg(_split(day1, tmp_path / "day1"), str(alias), str(out), with_chunks=False)
    res = append_kg(str(out), str(tmp_path / "day2.parquet"))
    assert res["metrics"]["skipped_existing_convs"] == 5
    build_kg(str(tmp_path / "merged"), str(alias), str(full), with_chunks=False)
    _assert_same_kg(out, full, tables=("edges", "edges_agg", "nodes"))
    assert ingested_convs(out) == ingested_convs(full)
